"""Acceptance criteria for the package, runnable as a self-test.

Each criterion is a function returning a :class:`CriterionResult`; the
test suite asserts them one by one and the CLI selftest prints them as a
table.  Seeds and tolerances are fixed so results are reproducible.
The paper's counterexamples are declared once, in COUNTEREXAMPLES:
criteria 08-10 and the CLI demo both run them.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from typing import Callable

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
    PROBE_GRID,
    STANDARD_DIM2,
    WIGNER_ANTIUNITARY,
    WIGNER_UNITARY,
    classify,
    classify_dim2,
)
from .descriptors import map_to_json
from .maps import (
    StateMap,
    block_embed,
    composed_phi_form,
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
)
from .verify import (
    _METRIC_CHECKS,
    INJECTIVITY_SAMPLES,
    basis_image_completes_span,
    check_inclusion_lemma,
    check_isometry,
    check_nonexpansive,
    max_image_overlap,
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
    elapsed = time.time() - t0
    if elapsed >= budget:
        passed = False
        detail += f"; runtime {elapsed:.1f}s exceeded budget {budget}s"
    return CriterionResult(num, name, bool(passed), detail, elapsed)


def criterion_01() -> CriterionResult:
    """Metric identity between the overlap formula and the spectral norm."""
    t0 = time.time()
    worst = 0.0
    for dim in (2, 3, 4, 8):
        rng = np.random.default_rng(np.random.SeedSequence((101, dim)))
        # pair i is draws 2i and 2i + 1 of 2000 sample_pure_state calls
        rows = _sample_state_rows(rng, 2000, dim)
        p, q = rows[0::2], rows[1::2]
        via_trace = np.sqrt(1.0 - _row_transition_probabilities(p, q))
        outer = lambda v: v[:, :, None] * v.conj()[:, None, :]
        # one stacked spectral-norm call for the dimension's 1000 pairs
        via_norm = np.linalg.norm(outer(p) - outer(q), 2, axis=(1, 2))
        worst = max(worst, float(np.max(np.abs(via_trace - via_norm))))
    return _result(
        1, "metric identity", t0, worst <= 1e-10, f"worst |diff| {worst:.2e}", 5.0
    )


def criterion_02() -> CriterionResult:
    """Entrywise-absolute-value map is nonexpansive in dims 2..6."""
    t0 = time.time()
    worst = -math.inf
    witnesses = 0
    for dim in range(2, 7):
        rep = check_nonexpansive(entrywise_abs(dim), dim, 10000, seed=42)
        worst = max(worst, rep.worst_gap)
        witnesses += 0 if rep.holds else 1
    passed = witnesses == 0 and worst <= 1e-12
    return _result(
        2,
        "abs map nonexpansive",
        t0,
        passed,
        f"witnesses {witnesses}, worst gap {worst:.2e}",
        10.0,
    )


def criterion_03() -> CriterionResult:
    """Entrywise-absolute-value map contracts strictly somewhere in dim 2."""
    t0 = time.time()
    rep = check_isometry(entrywise_abs(2), 2, 10000, seed=42)
    gap = rep.witness.gap if rep.witness is not None else 0.0
    return _result(
        3, "abs map not an isometry", t0, gap >= 0.5, f"witness |gap| {gap:.3f}", 5.0
    )


def criterion_04() -> CriterionResult:
    """Phase-map lifts inherit circle behaviour: each lift's verdict is its
    circle map's, fold and constant 1 pass, squaring fails."""
    t0 = time.time()
    cases = [
        ("fold", fold(), 10000),
        ("constant", constant(1.0), 10000),
        ("squaring", power(2), 1000),
    ]
    lifts = {name: check_nonexpansive(standard_map(g), 2, n, seed=42) for name, g, n in cases}
    circles = {name: check_nonexpansive_circle(g) is None for name, g, _ in cases}
    witness = lifts["squaring"].witness
    gap = witness.gap if witness is not None else 0.0
    agree = all(lifts[name].holds == circles[name] for name in lifts)
    passed = agree and lifts["fold"].holds and lifts["constant"].holds and gap >= 0.25
    verdicts = ", ".join(f"{name} {lifts[name].holds}/{circles[name]}" for name in lifts)
    detail = f"lift/circle holds: {verdicts}; squaring gap {gap:.3f}"
    return _result(4, "phase-lift equivalence", t0, passed, detail, 10.0)


def _classifier_cases():
    for i in range(50):
        dim = (3, 4, 5)[i % 3]
        u = random_unitary(dim, 1000 + i)
        yield WIGNER_UNITARY, dim, wigner_map(u), None
        u = random_unitary(dim, 2000 + i)
        yield WIGNER_ANTIUNITARY, dim, wigner_map(u, antiunitary=True), None
        pre = random_unitary(dim, 3000 + i)
        post = random_unitary(dim, 4000 + i)
        # the preimage system: the columns of pre*, that is the rows of conj(pre)
        hint = OrthoSystem(tuple(map(_trusted_state, _canonical_rows(pre.conj()))))
        yield ENTRYWISE_ABS, dim, composed_phi_form(pre, post), hint


def criterion_05() -> CriterionResult:
    """Classifier recovers branch, model, and diagonal gauge on 150 models."""
    t0 = time.time()
    correct = 0
    total = 0
    worst_residual = 0.0
    for expected, dim, model, hint in _classifier_cases():
        total += 1
        res = classify(model, dim, preimage_hint=hint)
        if (
            res.branch == expected
            and res.residual <= 1e-8
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
    t0 = time.time()
    cases = [
        (rotation(cmath.exp(1j * math.pi / 3)), "rotation"),
        (conjugate_rotation(1.0), "conj_rotation"),
        (constant(1.0), "half_circle"),
        (fold(), "half_circle"),
    ]
    failures = []
    for g, expected_kind in cases:
        res = classify_dim2(standard_map(g))
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
    t0 = time.time()
    rng = np.random.default_rng(701)
    dim = 4
    cases = []
    q1, q2 = _disjoint_support_pair(rng, dim)
    cases.append(("abs", entrywise_abs(dim), OrthoSystem((q1, q2))))
    pre = random_unitary(dim, 702)
    post = random_unitary(dim, 703)
    r1, r2 = _disjoint_support_pair(rng, dim)
    cases.append(
        (
            "composed",
            composed_phi_form(pre, post),
            OrthoSystem(
                (pure_state(pre.conj().T @ r1.vec), pure_state(pre.conj().T @ r2.vec))
            ),
        )
    )
    pair = _orthogonal_pair_rows(lambda n: _sample_state_rows(rng, n, dim), 1)
    cases.append(
        ("wigner", wigner_map(random_unitary(dim, 704)), OrthoSystem(tuple(map(pure_state, pair))))
    )
    worst = -math.inf
    for _, map_, preimages in cases:
        rep = check_inclusion_lemma(map_, preimages, 1000, seed=42)
        worst = max(worst, rep.worst_gap)
    passed = worst <= 1e-9
    return _result(7, "inclusion of dominated states", t0, passed, f"worst gap {worst:.2e}", 10.0)


def _run_check(name, map_, dim, rng, samples, seed, refine_steps):
    """One check of a counterexample.

    Returns whether it holds, its report, its demo-bundle JSON (None: the
    check shows in the summary only) and its summary label on failure.
    """
    if name == "injectivity":
        overlap, distinct = max_image_overlap(map_, rng)
        shown = {"samples": INJECTIVITY_SAMPLES, "max_image_overlap": overlap, "distinct": distinct}
        return distinct, overlap, shown, "collision"
    if name == "cosp_image":
        complete = basis_image_completes_span(map_, map_.params["k"])
        return complete, complete, None, "fail"
    report = _METRIC_CHECKS[name](map_, dim, samples, refine_steps=refine_steps, seed=seed)
    return report.holds, report, report.to_json(), "witness"


@dataclass(frozen=True)
class Counterexample:
    """A counterexample of the paper, declared once for demo and criterion.

    build(rng, dim, **params) returns the map; expect gives, in run
    order, whether each check must hold; params names the demo options
    build takes; shown names map params repeated atop the demo bundle.
    """

    build: Callable[..., StateMap]
    expect: dict[str, bool]
    params: tuple[str, ...] = ()
    shown: tuple[str, ...] = ()


def _anchor_states(rng, dim, count):
    """count sample_pure_state draws from rng, made as one block; none for count < 1."""
    rows = _sample_state_rows(rng, count, dim) if count > 0 else ()
    return [_trusted_state(r) for r in rows]


COUNTEREXAMPLES = {
    "block-embed": Counterexample(
        lambda rng, dim: block_embed(dim), {"noncontractive": True, "isometry": False}
    ),
    "separable-embed": Counterexample(
        lambda rng, dim, anchors: separable_embed(
            _anchor_states(rng, dim, 32 if anchors is None else anchors)
        ),
        {"nonexpansive": True, "injectivity": True, "isometry": False},
        params=("anchors",),
    ),
    "proper-subspace": Counterexample(
        lambda rng, dim, k: proper_subspace_map(dim, dim - 1 if k is None else k),
        {"nonexpansive": True, "cosp_image": True},
        params=("k",),
        shown=("k",),
    ),
}


def run_counterexample(target, dim, rng, samples, seed, refine_steps, **params):
    """Build a counterexample and run its checks.

    samples is the metric checks' budget, or a dict with one per check.
    Returns the demo bundle, whether every check came out as expected,
    and the report of each check.
    """
    entry = COUNTEREXAMPLES[target]
    map_ = entry.build(rng, dim, **params)
    bundle = {"target": target, "map": map_to_json(map_), "checks": {}, "summary": {}}
    bundle.update((name, map_.params[name]) for name in entry.shown)
    ok, reports = True, {}
    for name, expected in entry.expect.items():
        n = samples.get(name) if isinstance(samples, dict) else samples
        holds, reports[name], shown, on_fail = _run_check(
            name, map_, dim, rng, n, seed, refine_steps
        )
        if shown is not None:
            bundle["checks"][name] = shown
        bundle["summary"][name] = "pass" if holds else on_fail
        ok = ok and holds == expected
    return bundle, ok, reports


def criterion_08() -> CriterionResult:
    """Block embedding is noncontractive yet tears a boundary pair apart."""
    t0 = time.time()
    _, ok, reports = run_counterexample(
        "block-embed", 3, np.random.default_rng(801), 10000, 42, 200
    )
    w = reports["isometry"].witness
    passed = ok and w.d_in < 0.5 and abs(w.d_out - 1.0) <= 1e-12
    detail = (
        f"noncontractive holds {reports['noncontractive'].holds}, witness d_in "
        f"{w.d_in if w else float('nan'):.2e}, d_out {w.d_out if w else float('nan')}"
    )
    return _result(8, "block embedding", t0, passed, detail, 10.0)


def criterion_09() -> CriterionResult:
    """Overlap-profile embedding: nonexpansive, injective, never isometric."""
    t0 = time.time()
    _, ok, reports = run_counterexample(
        "separable-embed", 4, np.random.default_rng(901),
        {"nonexpansive": 10000, "isometry": 1000}, 42, 200, anchors=32,
    )
    w = reports["isometry"].witness
    strict = w is not None and w.d_out < w.d_in - 1e-9
    passed = ok and strict
    detail = (
        f"nonexpansive holds {reports['nonexpansive'].holds}, max image overlap "
        f"{reports['injectivity']:.4f}, strict witness {strict}"
    )
    return _result(9, "overlap-profile embedding", t0, passed, detail, 30.0)


def criterion_10() -> CriterionResult:
    """Subspace collapse is nonexpansive and completes the designated system."""
    t0 = time.time()
    _, passed, reports = run_counterexample(
        "proper-subspace", 5, np.random.default_rng(1001), 10000, 42, 200, k=3
    )
    detail = (
        f"nonexpansive holds {reports['nonexpansive'].holds}, "
        f"image complete in span {reports['cosp_image']}"
    )
    return _result(10, "subspace collapse", t0, passed, detail, 10.0)


def criterion_11() -> CriterionResult:
    """Branch decision agrees with brute force and classes are exclusive."""
    t0 = time.time()
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
