"""Constructors for the studied families of maps between state spaces.

Every family is wrapped as a :class:`StateMap`: a map of whole blocks of
pure states, given as (n, dim) arrays of gauge-fixed unit rows, carrying
its domain/codomain dimensions, a family tag, and the parameters needed
to serialize it.  Families cover unitary/antiunitary symmetries, the
entrywise-absolute-value map and its conjugated forms, circle-map lifts
in dimension 2, three embedding constructions that separate
noncontractive from isometric behaviour, and the constant map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .circle import CircleMap
from .states import (
    GAUGE_TOL,
    ORTHO_TOL,
    PureState,
    _canonical_rows,
    _float,
    _is_integer,
    _row_distances,
    _trusted_state,
    basis_state,
)

__all__ = [
    "StateMap",
    "wigner_map",
    "entrywise_abs",
    "standard_map",
    "composed_phi_form",
    "block_embed",
    "separable_embed",
    "proper_subspace_map",
    "constant_map",
    "opaque_map",
]


def require_unitary(mat: np.ndarray, what: str) -> np.ndarray:
    """Validate and return a square matrix whose Gram entries meet U*U = I within ORTHO_TOL.
    A refusal names what the matrix is and its largest |U*U - I| entry."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
        raise ValueError(f"{what} must be a nonempty square matrix, got shape {mat.shape}")
    # an entry too large for the Gram (no unitary has one) makes the deviation inf
    with np.errstate(over="ignore", invalid="ignore"):
        deviation = float(np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0]))))
    if not deviation <= ORTHO_TOL:  # NaN fails too
        raise ValueError(f"{what} is not unitary within {ORTHO_TOL}, got largest |U*U - I| entry "
                         f"{deviation!r}")
    return mat


def _apply(mat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """mat @ row for every row, i.e. rows @ mat.T.

    Each row is multiplied on its own (one matrix-vector product per
    row), so a row's image does not depend on the block it came in.  A
    single matrix-matrix product rounds differently for one row than for
    many, and under some BLAS kernels for one block than for another: a
    row of rows @ mat.T differed in its bits from the same row in the
    product of half the block in 226 of 532 cases (square matrices of
    dims 2-16 and four separable_embed shapes, real and complex, blocks
    of 4-1024 rows) under OpenBLAS's Haswell kernel, its choice on AVX2
    CPUs, and in 35 under Sandybridge; the per-row product, in none.
    """
    return (rows[:, None, :] @ mat.T)[:, 0, :]


def _require_dims(dim_in, dim_out) -> None:
    """Reject map dimensions that are not integers of at least 2."""
    if not all(_is_integer(d) and _float(d) is not None for d in (dim_in, dim_out)):
        raise ValueError(f"map dimensions must be integers in the float range, "
                         f"got {dim_in!r} -> {dim_out!r}")
    if dim_in < 2 or dim_out < 2:
        raise ValueError(f"map dimensions must be at least 2, got {dim_in} -> {dim_out}")


@dataclass(frozen=True)
class StateMap:
    """A map between pure-state spaces of dimension >= 2 with family metadata.

    fn is the array form: it takes an (n, dim_in) block of gauge-fixed
    unit rows and returns the raw (n, dim_out) images, which need be
    neither normalized nor gauge-fixed, nor complex: a real floating
    image is taken as float64 and stays float64, its rows gauged by the
    sign of their pivot.  :meth:`batch` is the validation
    boundary every evaluation goes through.  params are the family's
    JSON wire parameters (see :mod:`wignerlab.descriptors`).
    """

    family: str
    dim_in: int
    dim_out: int
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False)
    params: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        _require_dims(self.dim_in, self.dim_out)

    def batch(self, rows: np.ndarray) -> np.ndarray:
        """Images of an (n, dim_in) block of gauge-fixed unit rows.

        Returns a new (n, dim_out) array of gauge-fixed unit rows,
        float64 when fn's image is real and complex otherwise.  An image
        block of the wrong shape, or with a non-finite or (near) zero
        row, is a ValueError.
        """
        rows = np.ascontiguousarray(rows, dtype=complex)
        if rows.ndim != 2 or rows.shape[1] != self.dim_in:
            raise ValueError(
                f"map expects rows of dimension {self.dim_in}, got shape {rows.shape}"
            )
        images = np.asarray(self.fn(rows))
        # a real image stays real: _canonical_rows keeps float64 rows float64
        images = images.astype(float if images.dtype.kind == "f" else complex, copy=False)
        if images.ndim != 2 or images.shape[0] != rows.shape[0]:
            raise ValueError(
                f"map returned shape {images.shape} for {rows.shape[0]} rows"
            )
        if images.shape[1] != self.dim_out:
            raise ValueError(
                f"map image has dimension {images.shape[1]}, expected {self.dim_out}"
            )
        return _canonical_rows(images)

    def __call__(self, state: PureState) -> PureState:
        """The image of one state: a one-row batch, dtype included."""
        return _trusted_state(self.batch(state.vec[None])[0])


def wigner_map(unitary: np.ndarray, antiunitary: bool = False) -> StateMap:
    """Symmetry P -> U P U*, or P -> U P^t U* when antiunitary.

    The antiunitary case acts on representatives as v -> U conj(v).
    """
    if not isinstance(antiunitary, (bool, np.bool_)):
        raise ValueError(f"antiunitary must be a boolean, got {antiunitary!r}")
    u = require_unitary(unitary, "map param 'unitary'")
    dim = u.shape[0]
    if antiunitary:
        fn = lambda rows: _apply(u, rows.conj())
    else:
        fn = lambda rows: _apply(u, rows)
    params = {"dim": dim, "unitary": u, "antiunitary": bool(antiunitary)}
    return StateMap("wigner", dim, dim, fn, params)


def entrywise_abs(dim: int, basis: np.ndarray | None = None) -> StateMap:
    """Replace every amplitude by its modulus in a fixed reference basis.

    With the default standard basis this sends the projection matrix to
    the matrix of entrywise moduli.  Nonexpansive but never injective.
    """
    params: dict = {"dim": dim, "basis": None}
    if basis is None:
        fn = np.abs
    else:
        b = require_unitary(basis, "map param 'basis'")
        if b.shape[0] != dim:
            raise ValueError("reference basis dimension mismatch")
        bh = b.conj().T
        fn = lambda rows: _apply(b, np.abs(_apply(bh, rows)))
        params["basis"] = b
    return StateMap("phi", dim, dim, fn, params)


def standard_map(g: CircleMap) -> StateMap:
    """Lift of a circle map to dimension 2, acting on the phase parameter.

    Fixes both standard basis states exactly and sends the state with
    parameters (p, z) to the state with parameters (p, g(z)).  The image
    row is [|v_0|, conj(g(z)) |v_1|], built from the row's own moduli:
    sqrt(p) and sqrt(1 - p) lose the smaller amplitude's digits within
    about 1e-8 of a basis state.  A row whose off-diagonal entry
    v_0 conj(v_1) is at most GAUGE_TOL is a basis projection, which the
    lift fixes.
    """

    def fn(rows: np.ndarray) -> np.ndarray:
        off = rows[:, 0] * rows[:, 1].conj()
        mods = np.abs(off)
        moved = mods > GAUGE_TOL
        out = rows.copy()
        g_z = g.batch(off[moved] / mods[moved])
        moduli = np.abs(rows[moved])
        out[moved] = np.column_stack([moduli[:, 0], g_z.conj() * moduli[:, 1]])
        return out

    return StateMap("tau", 2, 2, fn, {"g": g})


def composed_phi_form(pre: np.ndarray, post: np.ndarray) -> StateMap:
    """P -> V Phi(U P U*) V* with Phi in the standard basis."""
    u = require_unitary(pre, "map param 'pre'")
    v = require_unitary(post, "map param 'post'")
    if u.shape != v.shape:
        raise ValueError("pre and post unitaries must share a dimension")
    dim = u.shape[0]
    fn = lambda rows: _apply(v, np.abs(_apply(u, rows)))
    return StateMap("composed", dim, dim, fn, {"dim": dim, "pre": u, "post": v})


def block_embed(dim: int, threshold: float = 0.5) -> StateMap:
    """Embed dimension n into 2n, choosing the block by the first weight.

    States whose first-coordinate weight exceeds the threshold land in
    the lower block, the rest in the upper block.  The map is
    noncontractive but not an isometry: a pair straddling the threshold
    is pushed to distance 1.
    """
    if _float(threshold) is None:
        raise ValueError(f"threshold must be a number in the float range, got {threshold!r}")
    if not np.isfinite(threshold := float(threshold)):
        raise ValueError(f"threshold must be finite, got non-finite {threshold!r}")

    def fn(rows: np.ndarray) -> np.ndarray:
        mask = np.abs(rows[:, 0]) ** 2 > threshold
        out = np.zeros((len(rows), 2 * dim), dtype=complex)
        out[mask, dim:] = rows[mask]
        out[~mask, :dim] = rows[~mask]
        return out

    return StateMap("block_embed", dim, 2 * dim, fn, {"dim": dim, "threshold": threshold})


def separable_embed(anchors: Sequence[PureState]) -> StateMap:
    """Overlap-profile embedding into a separable doubled space.

    For anchors x_1..x_N the input ray x is sent to the normalized vector
    with weight 2^(-n/2) * t_n on the n-th upper coordinate and
    2^(-n/2) * sqrt(1 - t_n^2) on the n-th lower one, where
    t_n = |<x, x_n>|.  Nonexpansive; injective once the anchors are dense
    enough, yet never an isometry on a set of more than one point.
    sqrt(1 - t_n^2) is d(x, x_n), and within 1e-3 of an anchor it is taken
    from the residual kernel, as sqrt(1 - t_n^2) has no correct digits
    left within about 1e-8 of the anchor.
    """
    anchors = tuple(anchors)
    if not anchors:
        raise ValueError("at least one anchor state is required")
    dim = anchors[0].dim
    if any(a.dim != dim for a in anchors):
        raise ValueError("anchor states must share one dimension")
    n_anchors = len(anchors)
    anchor_rows = np.array([a.vec for a in anchors])
    conj_rows = anchor_rows.conj()
    weights = np.array([2.0 ** (-(n + 1) / 2.0) for n in range(n_anchors)])

    def fn(rows: np.ndarray) -> np.ndarray:
        t = np.minimum(np.abs(_apply(conj_rows, rows)), 1.0)
        s = np.sqrt(1.0 - t**2)
        # no Haar draw comes this close to an anchor, but refinement can
        near, anchor = np.nonzero(s < 1e-3)
        if near.size:
            s[near, anchor] = _row_distances(rows[near], anchor_rows[anchor])
        # each half contiguous, then one copy: faster than strided writes
        return np.concatenate([weights * t, weights * s], axis=1)

    return StateMap(
        "separable_embed", dim, 2 * n_anchors, fn, {"anchors": anchors}
    )


def proper_subspace_map(dim: int, k: int, alpha0: int = 0) -> StateMap:
    """Collapse onto the span of the first k basis vectors.

    Coefficients over the first k coordinates lose their phases; all
    weight outside that span is folded into coordinate alpha0 as
    sqrt(|rest|^2 + |b_alpha0|^2).  Restricted to states inside the span
    this is the entrywise-absolute-value map; the k basis states map onto
    a complete orthogonal system of the span.
    """
    if not (_is_integer(k) and _is_integer(alpha0)):
        raise ValueError(f"k and alpha0 must be integers, got {k!r} and {alpha0!r}")
    if not 1 <= k < dim:
        raise ValueError("k must satisfy 1 <= k < dim")
    if not 0 <= alpha0 < k:
        raise ValueError("alpha0 must index one of the first k coordinates")

    def fn(rows: np.ndarray) -> np.ndarray:
        inside = np.abs(rows[:, :k])
        rest_sq = np.linalg.norm(rows[:, k:], axis=1) ** 2
        out = np.zeros((len(rows), dim))
        out[:, :k] = inside
        out[:, alpha0] = np.sqrt(rest_sq + inside[:, alpha0] ** 2)
        return out

    return StateMap("proper_subspace", dim, dim, fn, {"dim": dim, "k": k, "alpha0": alpha0})


def constant_map(dim: int) -> StateMap:
    """Send every state to the first basis state: nonexpansive, no symmetry."""
    _require_dims(dim, dim)  # before the target state is built from dim
    target = basis_state(dim, 0).vec
    fn = lambda rows: np.broadcast_to(target, rows.shape)
    return StateMap("constant", dim, dim, fn, {"dim": dim})


def opaque_map(
    fn: Callable[[PureState], PureState], dim_in: int, dim_out: int
) -> StateMap:
    """Wrap an arbitrary state transformer without structural claims.

    The only family without an array form: its rows are mapped one
    state at a time.
    """

    def rows_fn(rows: np.ndarray) -> np.ndarray:
        images = [fn(_trusted_state(r.copy())).vec for r in rows]
        return np.array(images) if images else np.empty((0, dim_out), dtype=complex)

    return StateMap("opaque", dim_in, dim_out, rows_fn)
