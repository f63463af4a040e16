"""Constructive classification of black-box nonexpansive state maps.

A map that fixes every standard basis projection is probed on balanced
two-coordinate superpositions; each coordinate pair yields a sampled
circle map, and the circle maps combine into multiplicative maps whose
branch (identity / conjugation / constant 1) decides whether the black
box is a unitary symmetry, an antiunitary symmetry, or a conjugated
entrywise-absolute-value map.  Maps that merely carry some complete
orthogonal system (COSP) onto another are first reduced to that
canonical situation by sandwiching with the two associated basis
changes.  Without a hint that system is the standard basis: a map that
carries other COSPs onto COSPs but not the basis (a composed form) does
so only on a set of frames of measure zero, which random frames miss.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .circle import (
    CONJUGATION,
    CONSTANT_ONE,
    IDENTITY,
    NOT_APPLICABLE,
    CircleMap,
    CircleMapForm,
    _expanding_chord,
    _hom_branches,
    _phases,
    _sampled_table,
    classify_circle_map,
    conjugate_rotation,
    rotation,
    unit_grid,
)
from .descriptors import _pairs, matrix_to_json, sampled_to_json
from .maps import StateMap, _apply, composed_phi_form, standard_map, wigner_map
from .states import (
    OrthoSystem,
    _basis_system,
    _canonical_rows,
    _param_rows,
    _require_orthogonal,
    _row_distances,
    _sample_state_rows,
)

__all__ = [
    "WIGNER_UNITARY",
    "WIGNER_ANTIUNITARY",
    "ENTRYWISE_ABS",
    "STANDARD_DIM2",
    "NOT_CLASSIFIED",
    "ProbeError",
    "ClassificationResult",
    "PROBE_GRID",
    "classify_canonical",
    "classify_dim2",
    "reduce_to_canonical",
    "classify",
]

WIGNER_UNITARY = "wigner_unitary"
WIGNER_ANTIUNITARY = "wigner_antiunitary"
ENTRYWISE_ABS = "entrywise_abs"
STANDARD_DIM2 = "standard_dim2"
NOT_CLASSIFIED = "not_classified"

CANONICAL_TOL = 1e-8
RESIDUAL_TOL = 1e-8
VALIDATION_STATES = 32

# probe phases: 16 equispaced roots of unity, then exp(i*pi/5), a tenth
# root of unity, so every probe phase is an 80th root of unity; the branch
# test reads entries 4 (i) and 8 (-1)
PROBE_GRID = tuple(unit_grid(16) + [cmath.exp(1j * math.pi / 5.0)])
# dimension 2 also probes the golden-angle phases exp(2 pi i m phi), phi =
# (sqrt(5) - 1) / 2, m = 1..8: phi is irrational, so none is a root of
# unity, and a phase map that agrees with a rotation, its conjugate or a
# constant on every root of unity of some order is still tested between them
GOLDEN_PHASES = tuple(cmath.exp(1j * math.pi * m * (math.sqrt(5.0) - 1.0)) for m in range(1, 9))

_BRANCH_OF_HOM = {
    IDENTITY: WIGNER_UNITARY,
    CONJUGATION: WIGNER_ANTIUNITARY,
    CONSTANT_ONE: ENTRYWISE_ABS,
}


# why classification refuses a map: stable code -> reason text, formatted
# with the details of the refusal
_REFUSALS = {
    "cosp_not_found": "COSP-image hypothesis unverified",
    "probe_unbalanced": "probe image of pair ({i}, {j}) is not balanced on the pair",
    "probe_off_block": "probe image of pair ({i}, {j}) has off-block weight",
    "branch_not_multiplicative": "an induced circle map is not multiplicative",
    "branch_disagree": "induced circle maps disagree across coordinate triples",
    "model_invalid": "recovered unitaries fail validation: {err}",
    "residual_exceeded": "{what} residual {residual:.3e} exceeds {tol:.1e}",
    "not_half_circle": "image spread exceeds a half-circle; map cannot be nonexpansive",
    "phase_map_expands": "phase map expands the chord between {z1:.6f} and {z2:.6f} by {gap:.3e}; "
    "map cannot be nonexpansive",
}


class ProbeError(ValueError):
    """A map's response refutes the COSP-image or the canonical-map hypothesis.

    code is the refusal's key in _REFUSALS, the message its text formatted
    with details; pickle and copy rebuild it from both.
    """

    def __init__(self, code: str, **details):
        super().__init__(_REFUSALS[code].format(**details))
        self.code, self.details = code, details

    def __reduce__(self):
        return functools.partial(ProbeError, self.code, **self.details), ()


@dataclass(frozen=True)
class ClassificationResult:
    """Outcome of a classification run.

    In the general mode U and V are the recovered sandwich unitaries,
    diag_u the diagonal recovered from the canonical stage; the
    reconstruction satisfies map(P) ~ V' branch-form(U P U*) V'* where
    the diagonal is already folded into V.  For dimension-2 results g is
    the extracted phase map with its structural form.  A refused map's
    reason_code is its refusal's key in _REFUSALS, reason the text.
    """

    branch: str
    U: np.ndarray | None = None
    V: np.ndarray | None = None
    diag_u: np.ndarray | None = None
    g: CircleMap | None = None
    g_form: CircleMapForm | None = None
    residual: float = math.inf
    reason: str | None = None
    reason_code: str | None = None
    model: StateMap | None = field(default=None, repr=False, compare=False)

    @property
    def classified(self) -> bool:
        return self.branch != NOT_CLASSIFIED

    def to_json(self) -> dict:
        g_class = None
        if self.g_form is not None:
            g_class = {
                "kind": self.g_form.kind,
                "c": None if self.g_form.c is None else _pairs([self.g_form.c])[0],
                "spread": self.g_form.spread,
            }
        return {
            "branch": self.branch,
            "U": None if self.U is None else matrix_to_json(self.U),
            "V": None if self.V is None else matrix_to_json(self.V),
            "g": None if self.g is None else sampled_to_json(self.g),
            "g_class": g_class,
            "residual": None if math.isinf(self.residual) else self.residual,
            "reason": self.reason,
        }


def _probe_rows(phases, i, j, dim: int) -> np.ndarray:
    """Probe states: row r is the balanced superposition of coordinates
    i[r] and j[r] with relative phase phases[r]; i and j may be one for all.

    Its projection matrix has (i, i) and (j, j) entries 1/2 and (i, j)
    entry phases[r]/2, so a probe response exposes one matrix entry of
    the image.
    """
    rows = np.zeros((len(phases), dim), dtype=complex)
    r = np.arange(len(phases))
    rows[r, i] = 1.0
    rows[r, j] = np.conj(phases)
    return _canonical_rows(rows)


class _ProbeTable(NamedTuple):
    """The probe constants of one dimension (see _probe_table)."""

    pairs: tuple[tuple[int, int], ...]
    phases: tuple[complex, ...]
    i: np.ndarray
    j: np.ndarray
    rows: np.ndarray
    triples: tuple[np.ndarray, np.ndarray]


@functools.cache
def _probe_table(dim: int) -> _ProbeTable:
    """Every pair (i, j), i < j, of dimension dim and its probe batch, read-only.

    phases are PROBE_GRID, and in dimension 2 GOLDEN_PHASES after it.  Row
    p * len(phases) + m of rows probes pairs[p] at phases[m]; i and j
    name each row's two coordinates.  pairs lists
    (0, 1) .. (0, dim - 1) first, then the (j, k) with 0 < j < k in the
    order of the triples (0, j, k) that triples, triu_indices(dim - 1,
    k=1), enumerates.  Built once per dimension.
    """
    phases = PROBE_GRID + (GOLDEN_PHASES if dim == 2 else ())
    pairs = tuple((i, j) for i in range(dim) for j in range(i + 1, dim))
    i, j = np.repeat(np.array(pairs).reshape(-1, 2).T, len(phases), axis=1)
    rows = _probe_rows(np.tile(phases, len(pairs)), i, j, dim)
    triples = np.triu_indices(dim - 1, k=1)
    for array in (i, j, rows, *triples):
        array.setflags(write=False)
    return _ProbeTable(pairs, phases, i, j, rows, triples)


def _pair_values(map_: StateMap) -> np.ndarray:
    """The phase action of a map on every pair of its dimension: entry
    [p, m] is the value of pair p's pair map at phase m of _probe_table,
    pairs in its order.

    The map must fix every basis projection, as reduce_to_canonical's
    COSP check ensures.  The image of the (i, j) probe at phase u must
    then be a balanced state on coordinates {i, j}; its scaled (i, j)
    matrix entry is the value at u.  Maps the table's probe rows in one
    batch; the first response in row order that refutes the canonical
    hypothesis is a ProbeError.
    """
    pairs, phases, i, j, rows, _ = _probe_table(map_.dim_in)
    n = len(phases)
    out = map_.batch(rows)
    r = np.arange(i.size)
    out_i, out_j = out[r, i], out[r, j]
    unbalanced = (np.abs(np.abs(out_i) ** 2 - 0.5) > CANONICAL_TOL) | (
        np.abs(np.abs(out_j) ** 2 - 0.5) > CANONICAL_TOL
    )
    values = 2.0 * out_i * out_j.conj()
    failed = np.flatnonzero(unbalanced | (np.abs(np.abs(values) - 1.0) > CANONICAL_TOL))
    if failed.size:
        first_i, first_j = pairs[failed[0] // n]
        code = "probe_unbalanced" if unbalanced[failed[0]] else "probe_off_block"
        raise ProbeError(code, i=first_i, j=first_j)
    return (values / np.abs(values)).reshape(len(pairs), n)


def _induced_values(f_1j_at_one, f_1k_at_one, f_jk_values) -> np.ndarray:
    """conj(f_1k(1)) * f_1j(1) * f_jk on f_jk's points, renormalized to the circle.

    Takes one entry and one row of pair-map values per coordinate triple
    (1, j, k).  For a canonical map the three pair maps cohere, so each
    row samples a multiplicative self-map of the circle whose branch
    identifies the global structure.
    """
    values = (np.conj(f_1k_at_one) * f_1j_at_one)[:, None] * f_jk_values
    return values / np.abs(values)


@functools.cache
def _validation_rows(dim: int) -> np.ndarray:
    """The fixed validation states of dimension dim, as read-only rows.

    The same draws as VALIDATION_STATES calls of sample_pure_state on
    one generator, made once per dimension.
    """
    rng = np.random.default_rng(np.random.SeedSequence((dim, 104729)))
    rows = _sample_state_rows(rng, VALIDATION_STATES, dim)
    rows.setflags(write=False)
    return rows


@functools.cache
def _lift_grid() -> np.ndarray:
    """The raw weight/phase rows that validate dim-2 lifts, read-only.

    Row k * len(PROBE_GRID) + m is _param_rows of weight
    linspace(0.1, 0.9, 9)[k] and phase PROBE_GRID[m].  Built once.
    """
    p = np.repeat(np.linspace(0.1, 0.9, 9), len(PROBE_GRID))
    z = np.tile(np.asarray(PROBE_GRID, dtype=complex), 9)
    rows = _param_rows(p, z)
    rows.setflags(write=False)
    return rows


def _lift_rows(u: np.ndarray) -> np.ndarray:
    """Preimages under u* of the weight/phase grid that validates dim-2 lifts.

    Row k * len(PROBE_GRID) + m is u* applied to the state that
    state_from_params builds from weight linspace(0.1, 0.9, 9)[k] and
    phase PROBE_GRID[m].
    """
    return _canonical_rows(_apply(u.conj().T, _lift_grid()))


def _verdict(model: StateMap, map_: StateMap, rows, what: str, **fields):
    """The result with these fields if model reproduces map_ on rows.

    rows are state rows, each side mapped in one batch.  The residual is
    the largest state distance between model and map images; above
    RESIDUAL_TOL it is a residual_exceeded refusal.
    """
    residual = float(_row_distances(model.batch(rows), map_.batch(rows)).max())
    if residual > RESIDUAL_TOL:
        raise ProbeError("residual_exceeded", what=what, residual=residual, tol=RESIDUAL_TOL)
    return ClassificationResult(residual=residual, model=model, **fields)


def _classify_branch(
    map_: StateMap, canonical: StateMap, u: np.ndarray, v: np.ndarray
) -> ClassificationResult:
    """Dimension >= 3 pipeline for map_(P) = v canonical(u P u*) v*.

    Decides the branch and the diagonal on the canonical map from one
    probe batch and validates the composed model against map_ once.
    Both are read from the probe values: the diagonal from the pair maps
    at phase 1 (PROBE_GRID[0]), each triple's branch from its induced
    values at i and -1 (PROBE_GRID[4] and PROBE_GRID[8]).  The result
    reports U = u and V = v diag.  A refusal raises its ProbeError.
    """
    dim = map_.dim_in
    values = _pair_values(canonical)
    # the pairs (0, j) come first, then the (j, k) of each triple (0, j, k)
    at_one = values[: dim - 1, 0]
    j, k = _probe_table(dim).triples
    induced = _induced_values(at_one[j], at_one[k], values[dim - 1 :])
    branches = set(_hom_branches(induced[:, 4], induced[:, 8]).tolist())
    if NOT_APPLICABLE in branches:
        raise ProbeError("branch_not_multiplicative")
    if len(branches) != 1:
        raise ProbeError("branch_disagree")
    branch = _BRANCH_OF_HOM[branches.pop()]
    diag = np.diag(np.concatenate([[1.0 + 0j], at_one.conj()]))
    post = v @ diag
    try:
        model = _compose_model(branch, u, post)
    except ValueError as err:
        raise ProbeError("model_invalid", err=err) from err
    return _verdict(
        model, map_, _validation_rows(dim), "reconstruction",
        branch=branch, U=u, V=post, diag_u=diag,
    )


def _total_lift(g: CircleMap, form: CircleMapForm) -> CircleMap:
    """Total evaluator for a classified phase map.

    Rotation forms extend from the probe grid to the whole circle by
    their closed form; half-circle maps stay sampled, so models built
    from them evaluate only on probed phases.
    """
    if form.kind == "rotation":
        return rotation(form.c)
    if form.kind == "conj_rotation":
        return conjugate_rotation(form.c)
    return g


def _classify_lift(
    map_: StateMap, canonical: StateMap, u: np.ndarray, v: np.ndarray
) -> ClassificationResult:
    """Dimension-2 pipeline for map_(P) = v canonical(u P u*) v*.

    Probes the phase map g of the canonical map in one batch, validates
    the lift of g sandwiched by u and v against map_ once on the
    weight/phase grid, and only then sorts g into its structural form;
    the returned model lifts the total evaluator of that form.  g is
    sampled at PROBE_GRID.  A lift is nonexpansive exactly when its phase
    map is, so last every chord among the values at PROBE_GRID and
    GOLDEN_PHASES must not expand (circle._expanding_chord).  The result
    reports U = u and V = v.  A refusal raises its ProbeError.
    """
    (values,) = _pair_values(canonical)
    g = _sampled_table(_phases(PROBE_GRID), values[: len(PROBE_GRID)])  # as sampled() records it
    checked = _verdict(
        _compose_model(STANDARD_DIM2, u, v, g), map_, _lift_rows(u),
        "phase-lift", branch=STANDARD_DIM2, U=u, V=v, g=g,
    )
    try:
        form = classify_circle_map(g)
    except ValueError as err:
        raise ProbeError("not_half_circle") from err
    phases = np.array(_probe_table(2).phases)
    first, second = np.triu_indices(len(phases), k=1)
    chord = _expanding_chord(phases[first], phases[second], values[first], values[second])
    if chord is not None:
        raise ProbeError("phase_map_expands", z1=chord.z1, z2=chord.z2, gap=chord.gap)
    model = _compose_model(STANDARD_DIM2, u, v, _total_lift(g, form))
    return replace(checked, g_form=form, model=model)


def reduce_to_canonical(
    map_: StateMap, preimages: OrthoSystem
) -> tuple[np.ndarray, np.ndarray, StateMap]:
    """Sandwich a map into one fixing every standard basis projection.

    preimages must be a complete orthogonal system; this is the one check
    that its image is one too (else ProbeError cosp_not_found, caused by
    the ValueError naming the overlapping pair; an invalid image raises
    the batch's own).  Returns (U, V, canonical) with U built from the
    preimage representatives and V from the image representatives so
    that canonical(P) = V* map(U* P U) V fixes each basis projection and
    map(P) = V canonical(U P U*) V*.
    """
    dim = map_.dim_in
    if map_.dim_out != dim:
        raise ValueError("reduction requires an endomap")
    if preimages.dim != dim or len(preimages) != dim:
        raise ValueError("preimage system is not complete for the map dimension")
    images = map_.batch(preimages.rows)
    try:
        _require_orthogonal(images)
    except ValueError as err:
        raise ProbeError("cosp_not_found") from err
    b = preimages.rows.T
    c = images.T
    c_h = images.conj()
    fn = lambda rows: _apply(c_h, map_.batch(_canonical_rows(_apply(b, rows))))
    canonical = StateMap("canonical", dim, dim, fn, {"pre": b, "post": c})
    return b.conj().T, c, canonical


def _compose_model(
    branch: str, pre: np.ndarray, post: np.ndarray, g: CircleMap | None = None
) -> StateMap:
    """The model P -> post branch-form(pre P pre*) post* of one branch.

    g is the phase map of the dimension-2 lift.  The canonical stage
    passes the identity sandwich pre = I, post = diag.
    """
    dim = pre.shape[0]
    if branch == WIGNER_UNITARY:
        return wigner_map(post @ pre)
    if branch == WIGNER_ANTIUNITARY:
        return wigner_map(post @ pre.conj(), antiunitary=True)
    if branch == ENTRYWISE_ABS:
        return composed_phi_form(pre, post)
    lift = standard_map(g)
    fn = lambda rows: _apply(post, lift.batch(_canonical_rows(_apply(pre, rows))))
    return StateMap("reduced_tau", dim, dim, fn, {"pre": pre, "post": post, "g": g})


def classify(
    map_: StateMap, dim: int, preimage_hint: OrthoSystem | None = None
) -> ClassificationResult:
    """Full classification pipeline for a black-box nonexpansive endomap.

    Reduces to the canonical situation through the hint or else the
    standard basis, decides the branch there, and validates the composed
    model once against the black box: three map calls in all.  A refuted
    hypothesis, as a hint or basis whose image is not a COSP, is
    NOT_CLASSIFIED with its refusal's code; only malformed input raises.
    """
    if dim != map_.dim_in or map_.dim_in != map_.dim_out:
        raise ValueError("classification requires an endomap of the given dimension")
    preimages = _basis_system(dim) if preimage_hint is None else preimage_hint
    pipeline = _classify_lift if dim == 2 else _classify_branch
    try:
        u, v, canonical = reduce_to_canonical(map_, preimages)
        return pipeline(map_, canonical, u, v)
    except ProbeError as err:
        return ClassificationResult(branch=NOT_CLASSIFIED, reason=str(err), reason_code=err.code)


# the stage names bench/spans.py times on a reduced map
classify_canonical = classify
classify_dim2 = functools.partial(classify, dim=2)
