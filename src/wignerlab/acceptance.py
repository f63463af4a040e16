"""Acceptance criteria for the package, runnable as a self-test.

Each criterion is a function returning a :class:`CriterionResult`; the
test suite asserts them one by one and the CLI selftest prints them as a
table.  Seeds and tolerances are fixed so results are reproducible.
What the paper claims of each family of maps is declared once, in
CLAIMS: criteria 02-05 and 08-10, the CLI's builtin maps and its demo
all read their expected verdicts there.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .circle import (
    CONJUGATION,
    CONSTANT_ONE,
    IDENTITY,
    check_nonexpansive_circle,
    classify_homomorphism,
    conjugate_rotation,
    constant,
    fold,
    power,
    rotation,
    unit_grid,
)
from .classify import (
    ENTRYWISE_ABS,
    NOT_CLASSIFIED,
    PROBE_GRID,
    RESIDUAL_TOL,
    STANDARD_DIM2,
    WIGNER_ANTIUNITARY,
    WIGNER_UNITARY,
    classify,
)
from .descriptors import map_to_json
from .maps import (
    StateMap,
    block_embed,
    composed_phi_form,
    constant_map,
    entrywise_abs,
    proper_subspace_map,
    separable_embed,
    standard_map,
    wigner_map,
)
from .states import (
    OrthoSystem,
    _canonical_rows,
    _orthogonal_pair_rows,
    _row_transition_probabilities,
    _sample_state_rows,
    _trusted_state,
    pure_state,
    random_unitary,
    sample_pure_state,
    sample_unitary,
)
from .verify import (
    WITNESS_TOL,
    _run_check,
    check_inclusion_lemma,
    check_isometry,
    check_nonexpansive,
)


@dataclass(frozen=True)
class CriterionResult:
    num: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def to_json(self) -> dict:
        return {
            "num": self.num,
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "seconds": round(self.seconds, 3),
        }


def _result(num, name, t0, passed, detail, budget) -> CriterionResult:
    elapsed = time.perf_counter() - t0
    if elapsed >= budget:
        passed = False
        detail += f"; runtime {elapsed:.1f}s exceeded budget {budget}s"
    return CriterionResult(num, name, bool(passed), detail, elapsed)


def criterion_01() -> CriterionResult:
    """Metric identity between the overlap formula and the spectral norm."""
    t0 = time.perf_counter()
    worst = 0.0
    for dim in (2, 3, 4, 8):
        rng = np.random.default_rng(np.random.SeedSequence((101, dim)))
        # pair i is draws 2i and 2i + 1 of 2000 sample_pure_state calls
        rows = _sample_state_rows(rng, 2000, dim)
        p, q = rows[0::2], rows[1::2]
        via_trace = np.sqrt(1.0 - _row_transition_probabilities(p, q))
        outer = lambda v: v[:, :, None] * v.conj()[:, None, :]
        # the difference of two projections is Hermitian, so its spectral norm
        # is its largest |eigenvalue|: one stacked eigvalsh for the 1000 pairs
        via_norm = np.abs(np.linalg.eigvalsh(outer(p) - outer(q))).max(axis=1)
        worst = max(worst, float(np.max(np.abs(via_trace - via_norm))))
    return _result(
        1, "metric identity", t0, worst <= 1e-10, f"worst |diff| {worst:.2e}", 5.0
    )


def criterion_02() -> CriterionResult:
    """Entrywise-absolute-value map is nonexpansive in dims 2..6."""
    t0 = time.perf_counter()
    claim = CLAIMS["phi"]
    reports = [check_nonexpansive(claim.build(None, d), d, 10000, seed=42) for d in claim.dims]
    worst = max(rep.worst_gap for rep in reports)
    witnesses = sum(not rep.holds for rep in reports)
    passed = all(rep.holds == claim.expect["nonexpansive"] for rep in reports) and worst <= 1e-12
    detail = f"witnesses {witnesses}, worst gap {worst:.2e}"
    return _result(2, "abs map nonexpansive", t0, passed, detail, 10.0)


def criterion_03() -> CriterionResult:
    """Entrywise-absolute-value map contracts strictly somewhere in dim 2."""
    t0 = time.perf_counter()
    claim = CLAIMS["phi"]
    rep = check_isometry(claim.build(None, 2), 2, 10000, seed=42)
    gap = rep.witness.gap if rep.witness is not None else 0.0
    passed = rep.holds == claim.expect["isometry"] and gap >= 0.5
    return _result(3, "abs map not an isometry", t0, passed, f"witness |gap| {gap:.3f}", 5.0)


def criterion_04() -> CriterionResult:
    """Phase-map lifts inherit circle behaviour: for the fold, the constant 1
    and squaring, each lift's verdict is its circle map's and its claim's."""
    t0 = time.perf_counter()
    cases = [("fold", "tau-fold", 10000), ("constant", "tau-constant", 10000),
             ("squaring", "tau-power2", 1000)]
    lifts, circles, claimed = {}, {}, True
    for label, name, n in cases:
        claim = CLAIMS[name]
        map_ = claim.build(None, 2)
        lifts[label] = check_nonexpansive(map_, 2, n, seed=42)
        circles[label] = check_nonexpansive_circle(map_.params["g"]) is None
        claimed &= lifts[label].holds == claim.expect["nonexpansive"]
    witness = lifts["squaring"].witness
    gap = witness.gap if witness is not None else 0.0
    agree = all(lifts[label].holds == circles[label] for label in lifts)
    passed = agree and claimed and gap >= 0.25
    verdicts = ", ".join(f"{label} {lifts[label].holds}/{circles[label]}" for label in lifts)
    detail = f"lift/circle holds: {verdicts}; squaring gap {gap:.3f}"
    return _result(4, "phase-lift equivalence", t0, passed, detail, 10.0)


def _classifier_cases():
    for i in range(50):
        dim = (3, 4, 5)[i % 3]
        build = lambda name, seed: CLAIMS[name].build(np.random.default_rng(seed), dim)
        yield "wigner-random", dim, build("wigner-random", 1000 + i)
        yield "wigner-antiunitary", dim, build("wigner-antiunitary", 2000 + i)
        pre = random_unitary(dim, 3000 + i)
        yield "composed", dim, composed_phi_form(pre, random_unitary(dim, 4000 + i))


def criterion_05() -> CriterionResult:
    """Classifier recovers branch, model, and diagonal gauge on 150 models."""
    t0 = time.perf_counter()
    correct = 0
    total = 0
    worst_residual = 0.0
    for name, dim, model in _classifier_cases():
        total += 1
        claim = CLAIMS[name]
        res = classify(model, dim, preimage_hint=claim.hint and claim.hint(model))
        if (
            res.branch == claim.branch
            and res.residual <= RESIDUAL_TOL
            and res.diag_u is not None
            and res.diag_u[0, 0] == 1.0
        ):
            correct += 1
            worst_residual = max(worst_residual, res.residual)
    passed = correct == total
    detail = f"{correct}/{total} correct, worst residual {worst_residual:.2e}"
    return _result(5, "classifier round trip", t0, passed, detail, 60.0)


def criterion_06() -> CriterionResult:
    """Dimension-2 classification recovers the phase map and its class."""
    t0 = time.perf_counter()
    cases = [
        (rotation(cmath.exp(1j * math.pi / 3)), "rotation"),
        (conjugate_rotation(1.0), "conj_rotation"),
        (constant(1.0), "half_circle"),
        (fold(), "half_circle"),
    ]
    failures = []
    for g, expected_kind in cases:
        res = classify(standard_map(g), 2)
        if res.branch != STANDARD_DIM2:
            failures.append(f"{g.kind}: {res.reason}")
            continue
        err = np.abs(res.g.batch(PROBE_GRID) - g.batch(PROBE_GRID)).max()
        if err > 1e-8:
            failures.append(f"{g.kind}: recovery error {err:.2e}")
        elif res.g_form.kind != expected_kind:
            failures.append(f"{g.kind}: tagged {res.g_form.kind}")
        elif expected_kind in ("rotation", "conj_rotation") and abs(
            res.g_form.c - g.param
        ) > 1e-8:
            failures.append(f"{g.kind}: coefficient off")
    detail = "all four phase maps recovered" if not failures else "; ".join(failures)
    return _result(6, "dim-2 recovery", t0, not failures, detail, 5.0)


def _disjoint_support_pair(rng, dim):
    # orthogonal pair with disjoint coordinate support: entrywise moduli
    # stay supported apart, so the image family is orthogonal as required
    v = np.zeros(dim, dtype=complex)
    w = np.zeros(dim, dtype=complex)
    v[: dim // 2] = sample_pure_state(rng, dim // 2).vec
    w[dim // 2 :] = sample_pure_state(rng, dim - dim // 2).vec
    return pure_state(v), pure_state(w)


def criterion_07() -> CriterionResult:
    """Dominated states stay dominated by the orthogonal image family."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(701)
    dim = 4
    pre = random_unitary(dim, 702)
    # each map with its preimage states, drawn from rng in this order
    cases = [
        (CLAIMS["phi"].build(None, dim), _disjoint_support_pair(rng, dim)),
        (composed_phi_form(pre, random_unitary(dim, 703)),
         [pure_state(pre.conj().T @ r.vec) for r in _disjoint_support_pair(rng, dim)]),
        (CLAIMS["wigner-random"].build(np.random.default_rng(704), dim),
         map(pure_state, _orthogonal_pair_rows(rng, 1, dim))),
    ]
    worst = max(
        check_inclusion_lemma(map_, OrthoSystem(tuple(states)), 1000, seed=42).worst_gap
        for map_, states in cases
    )
    passed = worst <= WITNESS_TOL
    return _result(7, "inclusion of dominated states", t0, passed, f"worst gap {worst:.2e}", 10.0)


@dataclass(frozen=True)
class Claim:
    """What the paper claims of one family of maps, declared once.

    build(rng, dim, **params) returns the family's map, drawing any
    random part from rng, and params names the demo options it takes;
    dims are the dimensions where the claim is checked.  expect gives,
    in run order, whether each check must hold.  branch is what classify
    returns in dimension >= 3 (in dimension 2 a classified map is a
    phase lift, STANDARD_DIM2; None: classify refuses a map that is no
    endomap), given hint(map_) as its preimage system if hint is set;
    refusal is the reason_code of a NOT_CLASSIFIED result.  shown names
    the map params repeated atop the demo bundle.
    """

    build: Callable[..., StateMap]
    dims: Sequence[int]
    expect: dict[str, bool]
    branch: str | None
    hint: Callable[[StateMap], OrthoSystem] | None = None
    params: tuple[str, ...] = ()
    shown: tuple[str, ...] = ()
    refusal: str | None = None


_DIMS = range(2, 7)
_PHI = {
    "nonexpansive": True, "noncontractive": False, "isometry": False, "orthogonality": False,
    "injectivity": False,
}


def _anchor_states(rng, dim, count):
    """count sample_pure_state draws from rng, made as one block; none for count < 1."""
    rows = _sample_state_rows(rng, count, dim) if count > 0 else ()
    return [_trusted_state(r) for r in rows]


def _preimage_hint(map_: StateMap) -> OrthoSystem:
    """The preimage system of V phi(U P U*) V*: the columns of U*, the rows of conj(U)."""
    return OrthoSystem(tuple(map(_trusted_state, _canonical_rows(map_.params["pre"].conj()))))


def _wigner(antiunitary, branch):
    """A Wigner symmetry of a seeded Haar unitary: an isometry, so every check holds."""
    build = lambda rng, dim: wigner_map(sample_unitary(rng, dim), antiunitary=antiunitary)
    checks = ("nonexpansive", "noncontractive", "isometry", "orthogonality", "injectivity")
    return Claim(build, _DIMS, dict.fromkeys(checks, True), branch)


def _lift(g, nonexpansive, branch, refusal=None):
    """The dimension-2 lift tau_g: as nonexpansive as g, never noncontractive."""
    expect = {"nonexpansive": nonexpansive, "noncontractive": False, "isometry": False}
    return Claim(lambda rng, dim: standard_map(g), (2,), expect, branch, refusal=refusal)


CLAIMS = {
    "wigner-random": _wigner(False, WIGNER_UNITARY),
    "wigner-antiunitary": _wigner(True, WIGNER_ANTIUNITARY),
    "phi": Claim(lambda rng, dim: entrywise_abs(dim), _DIMS, _PHI, ENTRYWISE_ABS),
    # classified given its preimage system: the COSP search misses composed forms
    "composed": Claim(
        lambda rng, dim: composed_phi_form(sample_unitary(rng, dim), sample_unitary(rng, dim)),
        _DIMS, _PHI, ENTRYWISE_ABS, hint=_preimage_hint,
    ),
    "tau-fold": _lift(fold(), True, STANDARD_DIM2),
    "tau-constant": _lift(constant(1.0), True, STANDARD_DIM2),
    "tau-power2": _lift(power(2), False, NOT_CLASSIFIED, "not_half_circle"),
    "block-embed": Claim(lambda rng, dim: block_embed(dim), _DIMS,
                         {"noncontractive": True, "isometry": False}, None),
    "separable-embed": Claim(
        lambda rng, dim, anchors: separable_embed(
            _anchor_states(rng, dim, 32 if anchors is None else anchors)
        ),
        _DIMS, {"nonexpansive": True, "injectivity": True, "isometry": False}, None,
        params=("anchors",),
    ),
    "proper-subspace": Claim(
        lambda rng, dim, k: proper_subspace_map(dim, dim - 1 if k is None else k),
        _DIMS, {"nonexpansive": True, "cosp_image": True}, NOT_CLASSIFIED,
        params=("k",), shown=("k",), refusal="cosp_not_found",
    ),
    "constant": Claim(lambda rng, dim: constant_map(dim), _DIMS, _PHI, NOT_CLASSIFIED,
                      refusal="cosp_not_found"),
}


def run_claim(name, dim, rng, samples, seed, refine_steps, **params):
    """Build a family's map and run the checks its claim declares.

    samples is the pair budget of every check, or a dict with one per check.
    Returns the demo bundle, whether every check came out as claimed,
    and the report of each check.
    """
    claim = CLAIMS[name]
    map_ = claim.build(rng, dim, **params)
    bundle = {"target": name, "map": map_to_json(map_), "checks": {}, "summary": {}}
    bundle.update((key, map_.params[key]) for key in claim.shown)
    ok, reports = True, {}
    for check, expected in claim.expect.items():
        n = samples.get(check) if isinstance(samples, dict) else samples
        holds, reports[check], shown, on_fail = _run_check(check, map_, dim, n, seed, refine_steps)
        if shown is not None:
            bundle["checks"][check] = shown
        bundle["summary"][check] = "pass" if holds else on_fail
        ok = ok and holds == expected
    return bundle, ok, reports


def criterion_08() -> CriterionResult:
    """Block embedding is noncontractive yet tears a boundary pair apart."""
    t0 = time.perf_counter()
    _, ok, reports = run_claim("block-embed", 3, np.random.default_rng(801), 10000, 42, 200)
    w = reports["isometry"].witness
    passed = ok and w.d_in < 0.5 and abs(w.d_out - 1.0) <= 1e-12
    detail = (
        f"noncontractive holds {reports['noncontractive'].holds}, witness d_in "
        f"{w.d_in if w else float('nan'):.2e}, d_out {w.d_out if w else float('nan')}"
    )
    return _result(8, "block embedding", t0, passed, detail, 10.0)


def criterion_09() -> CriterionResult:
    """Overlap-profile embedding: nonexpansive, injective, never isometric."""
    t0 = time.perf_counter()
    _, ok, reports = run_claim(
        "separable-embed", 4, np.random.default_rng(901),
        {"nonexpansive": 10000, "isometry": 1000, "injectivity": 1000}, 42, 200, anchors=32,
    )
    w = reports["isometry"].witness
    strict = w is not None and w.d_out < w.d_in - 1e-9
    passed = ok and strict
    detail = (
        f"nonexpansive holds {reports['nonexpansive'].holds}, closest image distance "
        f"{-reports['injectivity'].worst_gap:.2e}, strict witness {strict}"
    )
    return _result(9, "overlap-profile embedding", t0, passed, detail, 30.0)


def criterion_10() -> CriterionResult:
    """Subspace collapse is nonexpansive and completes the designated system."""
    t0 = time.perf_counter()
    _, passed, reports = run_claim("proper-subspace", 5, np.random.default_rng(1001), 10000, 42,
                                   200, k=3)
    detail = (
        f"nonexpansive holds {reports['nonexpansive'].holds}, "
        f"image complete in span {reports['cosp_image']}"
    )
    return _result(10, "subspace collapse", t0, passed, detail, 10.0)


def criterion_11() -> CriterionResult:
    """Branch decision agrees with brute force and classes are exclusive."""
    t0 = time.perf_counter()
    grid = np.array(unit_grid(256))
    maps = {
        IDENTITY: rotation(1.0),
        CONJUGATION: conjugate_rotation(1.0),
        CONSTANT_ONE: constant(1.0),
    }
    references = {IDENTITY: grid, CONJUGATION: grid.conj(), CONSTANT_ONE: np.ones_like(grid)}
    failures = []
    for expected, g in maps.items():
        values = g.batch(grid)
        matches = {name for name, ref in references.items() if (np.abs(values - ref) <= 1e-6).all()}
        if matches != {expected}:
            failures.append(f"{expected}: grid matches {sorted(matches)}")
        if classify_homomorphism(g) != expected:
            failures.append(f"{expected}: branch decision disagrees")
    detail = "oracle and decision agree, classes exclusive" if not failures else "; ".join(failures)
    return _result(11, "circle branch oracle", t0, not failures, detail, 2.0)


ALL_CRITERIA = [
    criterion_01,
    criterion_02,
    criterion_03,
    criterion_04,
    criterion_05,
    criterion_06,
    criterion_07,
    criterion_08,
    criterion_09,
    criterion_10,
    criterion_11,
]


def run_all() -> list[CriterionResult]:
    """Run every acceptance criterion in order."""
    return [fn() for fn in ALL_CRITERIA]
