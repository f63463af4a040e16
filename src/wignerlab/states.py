"""Geometry of rank-one projections represented by unit vectors.

A pure state is stored as its representative unit vector with the phase
gauge fixed: the first coordinate of modulus above the gauge threshold is
real and strictly positive.  All metric quantities reduce to inner
products of representatives; the only dense matrix is the rank-one
projection that PureState.projector builds.  Each formula is one kernel
on (n, dim) row arrays; a function of single states checks its arguments
and makes a one-row call.  A state's JSON form is read and written in
wignerlab.descriptors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "UNIT_NORM_TOL",
    "GAUGE_TOL",
    "ORTHO_TOL",
    "STATE_EQ_TOL",
    "PureState",
    "OrthoSystem",
    "pure_state",
    "basis_state",
    "transition_probability",
    "distance",
    "two_by_two_params",
    "state_from_params",
    "sample_pure_state",
    "sample_unitary",
    "random_unitary",
]

UNIT_NORM_TOL = 1e-12
GAUGE_TOL = 1e-12
ORTHO_TOL = 1e-10
STATE_EQ_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PureState:
    """A rank-one projection, stored as its gauge-fixed unit representative.

    Construct through :func:`pure_state`, which normalizes and fixes the
    phase; the constructor itself rejects vectors that are not already in
    canonical form.  vec is complex, except for the image of a map whose
    raw image is real (StateMap.__call__), which is float64: the batch
    row, bit for bit.  Both dtypes have the same JSON form.
    """

    vec: np.ndarray

    def __post_init__(self) -> None:
        vec = np.asarray(self.vec, dtype=complex)
        if vec.ndim != 1 or vec.size < 2:
            raise ValueError("state vector must be one-dimensional with dim >= 2")
        # canonical: pure_state would leave it in place, up to UNIT_NORM_TOL per entry
        if not np.abs(_canonical_rows(vec[None])[0] - vec).max() <= UNIT_NORM_TOL:
            raise ValueError(f"state vector is not a gauge-fixed unit vector within {UNIT_NORM_TOL}")
        vec = vec.copy()
        vec.setflags(write=False)
        object.__setattr__(self, "vec", vec)

    @property
    def dim(self) -> int:
        return self.vec.size

    def projector(self) -> np.ndarray:
        """Dense rank-one projection matrix of this state."""
        return np.outer(self.vec, self.vec.conj())

    def __eq__(self, other: object) -> bool:
        # Equality is ray equality: transition probability 1 within 1e-9.
        if not isinstance(other, PureState):
            return NotImplemented
        if self.dim != other.dim:
            return False
        return transition_probability(self, other) >= 1.0 - STATE_EQ_TOL

    __hash__ = None  # tolerance-based equality is incompatible with hashing

    def __repr__(self) -> str:
        return f"PureState(dim={self.dim})"


def _is_integer(value) -> bool:
    """An int or numpy integer, and not a bool; a whole float such as 3.0 is refused."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _float(x) -> float | None:
    """float(x) for an int, a float or a numpy number (not a bool) that float64
    holds, else None: the one test of a wire number."""
    if type(x) is float:
        return x
    number = issubclass(type(x), (int, float, np.integer, np.floating)) and type(x) is not bool
    try:
        return float(x) if number else None
    except OverflowError:  # an integer beyond the float range
        return None


def _trusted_state(vec: np.ndarray) -> PureState:
    """Wrap an already canonical vector without re-validating.

    Internal fast path: vec must be a fresh unit vector in gauge, complex
    or float64; it is kept as it is, dtype included.
    """
    state = object.__new__(PureState)
    vec.setflags(write=False)
    object.__setattr__(state, "vec", vec)
    return state


def _checked_norms(parts: np.ndarray) -> np.ndarray:
    """Row norms of a real (n, m) array; raises unless each is finite and above GAUGE_TOL.

    A complex block passes its float view: the sum of its squared real
    and imaginary parts is its squared norm.
    """
    # einsum raises no floating-point warning: a non-finite row reaches the
    # check below without one
    norms = np.sqrt(np.einsum("ij,ij->i", parts, parts))
    # a NaN fails both comparisons; which message applies is worked out
    # only for a failing block
    if norms.size and not (norms.min() > GAUGE_TOL and norms.max() < np.inf):
        if not np.isfinite(norms).all():
            raise ValueError("cannot build a state from a non-finite vector")
        raise ValueError("cannot build a state from a (near) zero vector")
    return norms


def _canonical_rows(raw: np.ndarray) -> np.ndarray:
    """Normalize and phase-gauge each row of an (n, dim) matrix.

    The one implementation of pure_state: a non-finite or (near) zero
    row is an error.  Returns a new array and never writes into raw.  A
    float64 block stays float64, and the gauge of a real row is the sign
    of its pivot: when every row's pivot is a positive entry 0, each row
    is only divided by its norm.  A block of any other dtype is cast to
    complex.  Otherwise each row is multiplied by the conjugate phase of
    its pivot (for a real row, its sign), its pivot set to its modulus (so
    exactly real), and divided by its own norm.
    """
    real = raw.dtype == np.float64
    if not real:
        raw = np.ascontiguousarray(raw, dtype=complex)
    norms = _checked_norms(raw if real else raw.view(float))
    # the pivot: the first entry of modulus above GAUGE_TOL in the unit row
    # (a unit vector always has an entry of modulus >= dim**-0.5 > tol)
    if real and (raw[:, 0] > GAUGE_TOL * norms).all():
        return raw / norms[:, None]
    first = np.abs(raw[:, 0])
    if (first > GAUGE_TOL * norms).all():
        # every pivot is entry 0, as for any Haar sample: the same phases
        # without the moduli of the other columns, the (n, dim) comparison
        # and the gather
        r, piv, moduli = slice(None), 0, first
    else:
        mods = np.abs(raw)
        piv = (mods > GAUGE_TOL * norms[:, None]).argmax(axis=1)
        r = np.arange(len(raw))
        moduli = mods[r, piv]
    # gauge first, then divide each real component by the gauged row's own
    # norm: every row comes out unit to within about one rounding
    gauged = raw * (raw[r, piv].conj() / moduli)[:, None]
    gauged[r, piv] = moduli
    parts = gauged if real else gauged.view(float)
    return (parts / np.sqrt(np.einsum("ij,ij->i", parts, parts))[:, None]).view(raw.dtype)


def pure_state(entries) -> PureState:
    """Normalize and phase-gauge a nonzero amplitude vector into a state."""
    vec = np.asarray(entries, dtype=complex)
    if vec.ndim != 1 or vec.size < 2:
        raise ValueError("state vector must be one-dimensional with dim >= 2")
    return _trusted_state(_canonical_rows(vec[None])[0])


def basis_state(dim: int, k: int) -> PureState:
    """The state projecting onto the k-th standard basis vector."""
    if not 0 <= k < dim:
        raise ValueError(f"basis index {k} out of range for dim {dim}")
    vec = np.zeros(dim, dtype=complex)
    vec[k] = 1.0
    return PureState(vec)


def _require_same_dim(p: PureState, q: PureState) -> None:
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")


def _row_overlaps(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rowwise inner products <w_i, v_i>."""
    return np.einsum("ij,ij->i", w.conj(), v)


def _row_transition_probabilities(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rowwise squared overlaps of two arrays of unit vectors, clamped to 1."""
    return np.minimum(np.abs(_row_overlaps(v, w)) ** 2, 1.0)


def _pairwise_transition_probabilities(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Transition probabilities of every row of a with every row of b.

    Entry [i, j] is |<b_j, a_i>|**2 (not clamped).  A row kernel: numpy's
    own einsum loop, with no BLAS call, sums each entry on its own, so a
    row's bits do not depend on the rows it came with or on the CPU's BLAS
    kernel, and a against itself gives a symmetric matrix bit for bit.
    """
    return np.abs(np.einsum("ij,kj->ik", a.conj(), b)) ** 2


def _row_distances(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rowwise state distance between two arrays of unit vectors.

    The norm of the residual of v_i orthogonal to w_i, clamped to 1.  For
    orthogonal rows the residual is v_i itself, so the distance is the
    computed norm of a unit row, which may read a few ulps below 1 (up
    to 4 * 2**-53 on canonical rows in dims 2-16); the formula is kept
    for its accuracy on nearly equal states, where
    sqrt(1 - transition probability) loses all digits.  It serves
    refinement and every reported distance; the pair scans rank pairs
    by sqrt(1 - _row_transition_probabilities), which is cheaper and
    agrees within 1e-12 for pairs at least 1e-3 apart.
    """
    residual = v - _row_overlaps(v, w)[:, None] * w
    left = residual if residual.dtype == np.float64 else residual.conj()
    norms = np.sqrt(np.einsum("ij,ij->i", left, residual).real)
    return np.minimum(norms, 1.0)


def transition_probability(p: PureState, q: PureState) -> float:
    """Squared overlap of the two rays, clamped to [0, 1]."""
    _require_same_dim(p, q)
    return float(_row_transition_probabilities(p.vec[None], q.vec[None])[0])


def distance(p: PureState, q: PureState) -> float:
    """Operator-norm distance of the two projections.

    Computed as the norm of the component of one representative
    orthogonal to the other, which equals sqrt(1 - transition
    probability) but stays accurate for nearly equal states.
    """
    _require_same_dim(p, q)
    return float(_row_distances(p.vec[None], q.vec[None])[0])


def _overlapping(rows: np.ndarray) -> np.ndarray:
    """Which pairs of distinct rows overlap, |<v_j, v_k>| above ORTHO_TOL (the bound
    maps.require_unitary puts on the same Gram entries), as a symmetric boolean matrix."""
    overlaps = _pairwise_transition_probabilities(rows, rows)
    np.fill_diagonal(overlaps, 0.0)
    return overlaps > ORTHO_TOL**2


def _require_orthogonal(rows: np.ndarray) -> None:
    """Raise unless no two rows overlap (_overlapping).

    An orthogonal system returns after one comparison; only a failing
    one is searched for its first pair.
    """
    overlapping = _overlapping(rows)
    if overlapping.any():
        # the matrix is symmetric: its first entry in row-major order is the first pair i < j
        i, j = np.argwhere(overlapping)[0]
        raise ValueError(f"members {i} and {j} are not orthogonal within {ORTHO_TOL}")


@dataclass(frozen=True)
class OrthoSystem:
    """A pairwise-orthogonal system of equal-dimension states; rows stacks them, read-only."""

    members: tuple[PureState, ...]
    rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        members = tuple(self.members)
        if not members:
            raise ValueError("orthogonal system must be nonempty")
        if any(m.dim != members[0].dim for m in members):
            raise ValueError("orthogonal system members must share one dimension")
        rows = np.array([m.vec for m in members])
        _require_orthogonal(rows)
        rows.setflags(write=False)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "rows", rows)

    @property
    def dim(self) -> int:
        return self.members[0].dim

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


@functools.cache
def _basis_system(dim: int) -> OrthoSystem:
    """The standard basis states of dimension dim, as one orthogonal system.

    Built once per dimension: the system is frozen and its rows and
    member vectors are read-only.
    """
    return OrthoSystem(tuple(_trusted_state(r) for r in np.eye(dim, dtype=complex)))


def _row_params(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weight/phase parameters (p, z) of dimension-2 state rows.

    p = |v_0|**2 and z is the phase of the off-diagonal entry v_0 conj(v_1).
    A row is degenerate when that entry is at most GAUGE_TOL, or when p has
    rounded so close to 0 or 1 (p (1 - p) at most GAUGE_TOL**2) that the
    row of _param_rows would lose the smaller amplitude; a degenerate row
    is a basis projection, reported with p rounded to 0 or 1 and z = 1.
    """
    p = np.clip(np.abs(rows[:, 0]) ** 2, 0.0, 1.0)
    off = rows[:, 0] * rows[:, 1].conj()
    mods = np.abs(off)
    degenerate = (mods <= GAUGE_TOL) | (p * (1.0 - p) <= GAUGE_TOL**2)
    z = np.divide(off, mods, out=np.ones_like(off), where=~degenerate)
    return np.where(degenerate, np.round(p), p), z


def two_by_two_params(state: PureState) -> tuple[float, complex]:
    """Weight/phase parameters (p, z) of a two-dimensional state.

    The projection matrix is [[p, z*s], [conj(z)*s, 1-p]] with
    s = sqrt(p*(1-p)).  A degenerate state (see _row_params) is a basis
    projection: p is 0 or 1 and z is 1 by convention.
    """
    if state.dim != 2:
        raise ValueError("two_by_two_params requires a dimension-2 state")
    p, z = _row_params(state.vec[None])
    return float(p[0]), complex(z[0])


def _param_rows(p, z) -> np.ndarray:
    """The raw rows [sqrt(p), conj(z) sqrt(1 - p)] of dimension-2 parameters (p, z)."""
    return np.column_stack([np.sqrt(p), np.conj(z) * np.sqrt(1.0 - p)])


def state_from_params(p: float, z: complex) -> PureState:
    """Two-dimensional state with given weight p and unit phase z."""
    if not -UNIT_NORM_TOL <= p <= 1.0 + UNIT_NORM_TOL:
        raise ValueError("weight parameter must lie in [0, 1]")
    if abs(abs(z) - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"phase parameter must have modulus 1 within {UNIT_NORM_TOL}")
    p = min(max(p, 0.0), 1.0)
    return _trusted_state(_canonical_rows(_param_rows(p, z))[0])


def _orthogonal_pair_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """count orthogonal pairs of state rows, by Gram-Schmidt on two draws.

    Returns 2 * count rows, pair i being rows i and count + i: a first
    _sample_state_rows draw of count rows from rng, and the normalized
    part of a second draw orthogonal to it.  A second draw (nearly)
    parallel to the first, with a residual norm below 1e-6, is drawn again.
    """
    first = _sample_state_rows(rng, count, dim)
    second = _sample_state_rows(rng, count, dim)
    residual = second - _row_overlaps(second, first)[:, None] * first
    norms = np.linalg.norm(residual, axis=1)
    while (bad := np.flatnonzero(norms < 1e-6)).size > 0:
        redraw = _sample_state_rows(rng, bad.size, dim)
        residual[bad] = redraw - _row_overlaps(redraw, first[bad])[:, None] * first[bad]
        norms[bad] = np.linalg.norm(residual[bad], axis=1)
    return np.concatenate([first, _canonical_rows(residual)])


def _sample_state_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """count sample_pure_state draws from rng, as canonical rows: the one
    Haar sampler, filling one complex block without re + 1j * im's temporaries."""
    if dim < 2:
        raise ValueError("state vector must be one-dimensional with dim >= 2")
    z = rng.standard_normal((count, 2, dim))
    raw = np.empty((count, dim), dtype=complex)
    raw.real, raw.imag = z[:, 0], z[:, 1]
    return _canonical_rows(raw)


def sample_pure_state(rng: np.random.Generator, dim: int) -> PureState:
    """Draw one state from the rotation-invariant distribution."""
    return _trusted_state(_sample_state_rows(rng, 1, dim)[0])


def sample_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Draw a Haar-distributed unitary via QR of a complex Gaussian matrix."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    z = rng.standard_normal((2, dim, dim))
    q, r = np.linalg.qr(z[0] + 1j * z[1])
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Seeded Haar-distributed unitary matrix."""
    return sample_unitary(np.random.default_rng(seed), dim)
