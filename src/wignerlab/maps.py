"""Constructors for the studied families of maps between state spaces.

Every family is wrapped as a :class:`StateMap`: a callable on pure states
carrying its domain/codomain dimensions, a family tag, and the parameters
needed to serialize it.  Families cover unitary/antiunitary symmetries,
the entrywise-absolute-value map and its conjugated forms, circle-map
lifts in dimension 2, and three embedding constructions that separate
noncontractive from isometric behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .circle import CircleMap
from .states import (
    GAUGE_TOL,
    PureState,
    _trusted_state,
    pure_state,
    state_from_params,
    two_by_two_params,
)

__all__ = [
    "UNITARY_TOL",
    "StateMap",
    "wigner_map",
    "transpose_map",
    "identity_map",
    "entrywise_abs",
    "standard_map",
    "composed_phi_form",
    "block_embed",
    "separable_embed",
    "proper_subspace_map",
    "opaque_map",
]

UNITARY_TOL = 1e-10


def require_unitary(mat: np.ndarray, tol: float = UNITARY_TOL) -> np.ndarray:
    """Validate and return a square matrix with U*U = I within tol."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("unitary parameter must be a square matrix")
    gram = mat.conj().T @ mat
    if np.max(np.abs(gram - np.eye(mat.shape[0]))) > tol:
        raise ValueError("matrix is not unitary within 1e-10")
    return mat


@dataclass(frozen=True)
class StateMap:
    """A map between pure-state spaces of dimension >= 2 with family metadata."""

    family: str
    dim_in: int
    dim_out: int
    fn: Callable[[PureState], PureState] = field(repr=False, compare=False)
    params: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.dim_in < 2 or self.dim_out < 2:
            raise ValueError(
                f"map dimensions must be at least 2, got {self.dim_in} -> {self.dim_out}"
            )

    def __call__(self, state: PureState) -> PureState:
        if state.dim != self.dim_in:
            raise ValueError(
                f"map expects dimension {self.dim_in}, got {state.dim}"
            )
        image = self.fn(state)
        if image.dim != self.dim_out:
            raise ValueError(
                f"map image has dimension {image.dim}, expected {self.dim_out}"
            )
        return image


def wigner_map(unitary: np.ndarray, antiunitary: bool = False) -> StateMap:
    """Symmetry P -> U P U*, or P -> U P^t U* when antiunitary.

    The antiunitary case acts on representatives as v -> U conj(v).
    """
    u = require_unitary(unitary)
    dim = u.shape[0]
    if antiunitary:
        fn = lambda s: pure_state(u @ s.vec.conj())
    else:
        fn = lambda s: pure_state(u @ s.vec)
    return StateMap(
        "wigner", dim, dim, fn, {"unitary": u, "antiunitary": bool(antiunitary)}
    )


def transpose_map(dim: int) -> StateMap:
    """P -> P^t, the antiunitary symmetry with U = I."""
    return wigner_map(np.eye(dim, dtype=complex), antiunitary=True)


def identity_map(dim: int) -> StateMap:
    return wigner_map(np.eye(dim, dtype=complex))


def entrywise_abs(dim: int, basis: np.ndarray | None = None) -> StateMap:
    """Replace every amplitude by its modulus in a fixed reference basis.

    With the default standard basis this sends the projection matrix to
    the matrix of entrywise moduli.  Nonexpansive but never injective.
    """
    params: dict = {"basis": None}
    if basis is None:
        fn = lambda s: pure_state(np.abs(s.vec))
    else:
        b = require_unitary(basis)
        if b.shape[0] != dim:
            raise ValueError("reference basis dimension mismatch")
        bh = b.conj().T
        fn = lambda s: pure_state(b @ np.abs(bh @ s.vec))
        params = {"basis": b}
    return StateMap("phi", dim, dim, fn, params)


def standard_map(g: CircleMap) -> StateMap:
    """Lift of a circle map to dimension 2, acting on the phase parameter.

    Fixes both standard basis states exactly and sends the state with
    parameters (p, z) to the state with parameters (p, g(z)).
    """

    def fn(s: PureState) -> PureState:
        p, z = two_by_two_params(s)
        # degenerate off-diagonal: the state is a fixed basis projection
        if p * (1.0 - p) <= GAUGE_TOL**2:
            return s
        return state_from_params(p, g(z))

    return StateMap("tau", 2, 2, fn, {"g": g})


def composed_phi_form(pre: np.ndarray, post: np.ndarray) -> StateMap:
    """P -> V Phi(U P U*) V* with Phi in the standard basis."""
    u = require_unitary(pre)
    v = require_unitary(post)
    if u.shape != v.shape:
        raise ValueError("pre and post unitaries must share a dimension")
    dim = u.shape[0]
    fn = lambda s: pure_state(v @ np.abs(u @ s.vec))
    return StateMap("composed", dim, dim, fn, {"pre": u, "post": v})


def _default_predicate(threshold: float) -> Callable[[PureState], bool]:
    return lambda s: abs(s.vec[0]) ** 2 > threshold


def block_embed(
    dim: int,
    predicate: Callable[[PureState], bool] | None = None,
    threshold: float = 0.5,
) -> StateMap:
    """Embed dimension n into 2n, choosing the block by a predicate.

    States satisfying the predicate land in the lower block, the rest in
    the upper block.  With the default predicate (first-coordinate weight
    above the threshold) the map is noncontractive but not an isometry:
    a pair straddling the predicate boundary is pushed to distance 1.
    """
    pred = predicate if predicate is not None else _default_predicate(threshold)

    def fn(s: PureState) -> PureState:
        out = np.zeros(2 * dim, dtype=complex)
        if pred(s):
            out[dim:] = s.vec
        else:
            out[:dim] = s.vec
        # the shifted vector is still unit and gauge-fixed
        return _trusted_state(out)

    return StateMap("block_embed", dim, 2 * dim, fn, {"threshold": threshold})


def separable_embed(anchors: Sequence[PureState]) -> StateMap:
    """Overlap-profile embedding into a separable doubled space.

    For anchors x_1..x_N the input ray x is sent to the normalized vector
    with weight 2^(-n/2) * t_n on the n-th upper coordinate and
    2^(-n/2) * sqrt(1 - t_n^2) on the n-th lower one, where
    t_n = |<x, x_n>|.  Nonexpansive; injective once the anchors are dense
    enough, yet never an isometry on a set of more than one point.
    """
    anchors = tuple(anchors)
    if not anchors:
        raise ValueError("at least one anchor state is required")
    dim = anchors[0].dim
    if any(a.dim != dim for a in anchors):
        raise ValueError("anchor states must share one dimension")
    n_anchors = len(anchors)
    conj_rows = np.array([a.vec.conj() for a in anchors])
    weights = np.array([2.0 ** (-(n + 1) / 2.0) for n in range(n_anchors)])

    def fn(s: PureState) -> PureState:
        t = np.clip(np.abs(conj_rows @ s.vec), 0.0, 1.0)
        out = np.concatenate([weights * t, weights * np.sqrt(1.0 - t**2)])
        return pure_state(out)

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
    if not 1 <= k < dim:
        raise ValueError("k must satisfy 1 <= k < dim")
    if not 0 <= alpha0 < k:
        raise ValueError("alpha0 must index one of the first k coordinates")

    def fn(s: PureState) -> PureState:
        inside = np.abs(s.vec[:k])
        rest_sq = float(np.linalg.norm(s.vec[k:]) ** 2)
        out = np.zeros(dim, dtype=complex)
        out[:k] = inside
        out[alpha0] = np.sqrt(rest_sq + inside[alpha0] ** 2)
        return pure_state(out)

    return StateMap("proper_subspace", dim, dim, fn, {"k": k, "alpha0": alpha0})


def opaque_map(
    fn: Callable[[PureState], PureState], dim_in: int, dim_out: int
) -> StateMap:
    """Wrap an arbitrary state transformer without structural claims."""
    return StateMap("opaque", dim_in, dim_out, fn)
