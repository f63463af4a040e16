"""Witness search: determinism, soundness, and the documented outcomes."""

from __future__ import annotations

import dataclasses
import importlib.util
import inspect
import itertools
import json
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from wignerlab import (
    OrthoSystem,
    PureState,
    StateMap,
    basis_state,
    block_embed,
    composed_phi_form,
    constant_map,
    check_inclusion_lemma,
    check_injective,
    check_isometry,
    check_noncontractive,
    check_nonexpansive,
    check_orthogonality_preserving,
    check_nonexpansive_circle,
    distance,
    entrywise_abs,
    fold,
    opaque_map,
    power,
    proper_subspace_map,
    pure_state,
    random_unitary,
    rotation,
    sample_pure_state,
    sample_unitary,
    separable_embed,
    standard_map,
    state_from_json,
    state_from_params,
    transition_probability,
    wigner_map,
)
from wignerlab import cli, map_from_json, maps, verify
from wignerlab.acceptance import CLAIMS
from wignerlab.states import (
    _canonical_rows,
    _pairwise_transition_probabilities,
    _row_distances,
    _row_overlaps,
    _row_transition_probabilities,
    _sample_state_rows,
)
from wignerlab.verify import (
    REFINE_FLOOR,
    REFINE_SHRINK,
    REFINE_START_STEP,
    REFINE_TOL,
    WITNESS_TOL,
    _chunk_rng,
    _refine_pair,
    _search,
    basis_image_completes_span,
    find_cosp_in_image,
)

from planted import COVERAGE, dented_abs, fold_counts, folded


def test_abs_map_has_no_nonexpansive_witness():
    report = check_nonexpansive(entrywise_abs(4), 4, n_samples=2000, seed=42)
    assert report.holds
    assert report.worst_gap <= 1e-12
    assert report.samples == 2000 and report.seed == 42


def test_wigner_map_passes_every_metric_check():
    u = random_unitary(3, 30)
    phi = wigner_map(u)
    for check in (check_nonexpansive, check_noncontractive, check_isometry):
        report = check(phi, 3, n_samples=1500, seed=42)
        assert report.holds
        assert abs(report.worst_gap) <= 1e-12
    assert check_orthogonality_preserving(phi, 3, n_samples=1500).holds


def test_phase_lift_of_squaring_yields_large_witness():
    report = check_nonexpansive(standard_map(power(2)), 2, n_samples=1000, seed=42)
    assert not report.holds
    assert report.witness.gap >= 0.25


def test_witness_is_sound():
    # every reported number must be recomputable from the witness pair
    phi = standard_map(power(2))
    report = check_nonexpansive(phi, 2, n_samples=500, seed=1)
    w = report.witness
    assert w is not None
    assert distance(w.P, w.Q) == pytest.approx(w.d_in, abs=1e-12)
    assert distance(phi(w.P), phi(w.Q)) == pytest.approx(w.d_out, abs=1e-12)
    assert w.d_out - w.d_in == pytest.approx(w.gap, abs=1e-12)


def test_circle_witness_lifts_to_the_phase_map():
    circle_violation = check_nonexpansive_circle(power(2))
    assert circle_violation is not None
    # the same phases at balanced weight violate the state-map inequality
    p = state_from_params(0.5, circle_violation.z1)
    q = state_from_params(0.5, circle_violation.z2)
    tau = standard_map(power(2))
    assert distance(tau(p), tau(q)) > distance(p, q) + 1e-9


def test_balanced_states_realize_circle_chords():
    # tr(T_u T_w) = (1 + Re(u * conj(w))) / 2
    rng = np.random.default_rng(31)
    for _ in range(20):
        u, w = np.exp(2j * np.pi * rng.random(2))
        tp = transition_probability(state_from_params(0.5, u), state_from_params(0.5, w))
        assert tp == pytest.approx((1.0 + (u * np.conj(w)).real) / 2.0, abs=1e-12)


def test_block_embed_is_noncontractive_but_not_isometric():
    phi = block_embed(2)
    assert check_noncontractive(phi, 2, n_samples=2000, seed=42).holds
    report = check_isometry(phi, 2, n_samples=2000, seed=42)
    assert not report.holds
    assert report.witness.d_out == pytest.approx(1.0)


def test_identity_map_passes_noncontractive():
    assert check_noncontractive(wigner_map(np.eye(2)), 2, n_samples=1000).holds


def test_abs_map_contracts_an_orthogonal_pair_to_zero():
    plus = pure_state([1.0, 1.0])
    minus = pure_state([1.0, -1.0])
    assert distance(plus, minus) == pytest.approx(1.0)
    phi = entrywise_abs(2)
    assert phi(plus) == phi(minus)
    report = check_noncontractive(phi, 2, n_samples=2000, seed=42)
    assert not report.holds
    assert report.witness.gap >= 0.9  # refinement drives the pair to collapse


def test_abs_map_is_not_orthogonality_preserving_in_dim2():
    report = check_orthogonality_preserving(entrywise_abs(2), 2, n_samples=2000)
    assert not report.holds
    w = report.witness
    assert transition_probability(w.P, w.Q) <= 1e-9
    assert w.gap == pytest.approx(
        transition_probability(entrywise_abs(2)(w.P), entrywise_abs(2)(w.Q))
    )


def test_noncontractive_map_preserves_orthogonality():
    assert check_orthogonality_preserving(block_embed(2), 2, n_samples=2000).holds


def test_separable_embed_is_strictly_contracting_somewhere():
    rng = np.random.default_rng(32)
    phi = separable_embed([sample_pure_state(rng, 3) for _ in range(6)])
    report = check_isometry(phi, 3, n_samples=1000, seed=42)
    assert not report.holds
    assert report.witness.d_out < report.witness.d_in


def test_inclusion_holds_for_abs_and_wigner_maps():
    pre = OrthoSystem((basis_state(3, 0), basis_state(3, 1)))
    assert check_inclusion_lemma(entrywise_abs(3), pre, n_samples=400).holds
    assert check_inclusion_lemma(wigner_map(random_unitary(3, 33)), pre, 400).holds
    basis = OrthoSystem(tuple(basis_state(3, k) for k in range(3)))
    assert check_inclusion_lemma(wigner_map(np.eye(3)), basis, 400).holds


def test_inclusion_finds_a_leaky_map():
    # identity on the basis, but superpositions escape the span entirely
    def leak(s):
        if max(abs(s.vec[0]), abs(s.vec[1]), abs(s.vec[2])) > 1.0 - 1e-9:
            return s
        return basis_state(3, 2)

    phi = opaque_map(leak, 3, 3)
    pre = OrthoSystem((basis_state(3, 0), basis_state(3, 1)))
    report = check_inclusion_lemma(phi, pre, n_samples=400)
    assert not report.holds
    assert report.witness.gap == pytest.approx(1.0)


def test_inclusion_requires_an_orthogonal_image_family():
    collapse = opaque_map(lambda s: basis_state(3, 0), 3, 3)
    pre = OrthoSystem((basis_state(3, 0), basis_state(3, 1)))
    with pytest.raises(ValueError):
        check_inclusion_lemma(collapse, pre, n_samples=100)


def test_cosp_search_outcomes():
    found = find_cosp_in_image(entrywise_abs(3), 3)
    assert found is not None and len(found) == 3
    assert find_cosp_in_image(wigner_map(random_unitary(3, 34)), 3) is not None
    collapse = opaque_map(lambda s: basis_state(3, 0), 3, 3)
    assert find_cosp_in_image(collapse, 3) is None


def test_cosp_search_tries_only_the_standard_basis():
    calls = []

    def counted(map_):
        return dataclasses.replace(map_, fn=lambda rows: calls.append(len(rows)) or map_.fn(rows))

    # the standard basis hits, in one call of its dim rows
    assert find_cosp_in_image(counted(entrywise_abs(4)), 4) is not None
    assert find_cosp_in_image(counted(wigner_map(random_unitary(4, 35))), 4) is not None
    assert calls == [4, 4]
    # a composed form whose qualifying frame is a Haar one: only its own
    # frame, a set of measure zero, has a COSP image, and no frame but the
    # basis is tried
    frame = random_unitary(4, 37)
    composed = counted(composed_phi_form(frame.conj().T, random_unitary(4, 36)))
    calls.clear()
    assert find_cosp_in_image(composed, 4) is None
    assert calls == [4]


def test_reports_are_seed_deterministic():
    a = check_nonexpansive(entrywise_abs(3), 3, n_samples=1200, seed=7)
    b = check_nonexpansive(entrywise_abs(3), 3, n_samples=1200, seed=7)
    assert a.to_json() == b.to_json()
    c = check_nonexpansive(entrywise_abs(3), 3, n_samples=1200, seed=8)
    assert c.worst_gap != a.worst_gap


def test_check_validates_arguments():
    with pytest.raises(ValueError):
        check_nonexpansive(entrywise_abs(3), 2, n_samples=100)
    with pytest.raises(ValueError):
        check_nonexpansive(entrywise_abs(3), 3, n_samples=0)
    with pytest.raises(ValueError):
        check_nonexpansive(entrywise_abs(3), 3, n_samples=100, seed=-1)
    with pytest.raises(ValueError, match="refinement cap"):
        check_isometry(entrywise_abs(3), 3, n_samples=100, refine_steps=-1)


def test_report_json_shape():
    report = check_isometry(entrywise_abs(2), 2, n_samples=600, seed=42)
    obj = report.to_json()
    assert set(obj) == {"property", "samples", "worst_gap", "witness", "seed"}
    assert obj["property"] == "isometry"
    assert set(obj["witness"]) == {"P", "Q", "d_in", "d_out", "gap"}


def test_non_finite_map_is_an_error_not_a_pass():
    nan_map = opaque_map(lambda s: pure_state(np.full(2, np.nan)), 2, 2)
    with pytest.raises(ValueError):
        check_nonexpansive(nan_map, 2, n_samples=600)


def test_partly_non_finite_map_cannot_hide_its_witness():
    # expanding where the first weight exceeds 1/2, NaN elsewhere: every
    # chunk meets a NaN image, which must stop the search
    tau = standard_map(power(2))

    def half_nan(s):
        if abs(s.vec[0]) ** 2 > 0.5:
            return tau(s)
        return pure_state([np.nan, np.nan])

    with pytest.raises(ValueError):
        check_nonexpansive(opaque_map(half_nan, 2, 2), 2, n_samples=1000)


def test_cosp_search_reports_an_invalid_image_as_an_error():
    nan_map = opaque_map(lambda s: pure_state(np.full(3, np.nan)), 3, 3)
    with pytest.raises(ValueError):
        find_cosp_in_image(nan_map, 3)


def test_wrong_dimension_image_is_rejected():
    wide = opaque_map(lambda s: pure_state(np.append(s.vec, 0.0)), 3, 3)
    with pytest.raises(ValueError, match="dimension 4"):
        wide(basis_state(3, 0))
    with pytest.raises(ValueError):
        check_isometry(wide, 3, n_samples=600)


def test_checks_take_refinement_and_seed_by_keyword_only():
    phi = entrywise_abs(2)
    for check in (check_nonexpansive, check_noncontractive, check_isometry):
        with pytest.raises(TypeError):
            check(phi, 2, 100, 0)
    with pytest.raises(TypeError):
        check_orthogonality_preserving(phi, 2, 100, 1)
    with pytest.raises(TypeError):
        check_inclusion_lemma(phi, OrthoSystem((basis_state(2, 0), basis_state(2, 1))), 100, 1)


def test_shared_probes_of_the_embeddings():
    collision = check_injective(entrywise_abs(2), 2, 1000, seed=32).witness
    assert collision.d_in >= 0.5 and collision.d_out <= 1e-9
    assert check_injective(wigner_map(np.eye(3)), 3, 1000, seed=32).holds
    # k, the longest basis prefix with pairwise orthogonal images, is read
    # from the map: 3 for the collapse, the whole basis for a Wigner map, and
    # the whole basis for block_embed too, whose images leave the first 3
    # coordinates
    assert basis_image_completes_span(proper_subspace_map(5, 3))
    assert basis_image_completes_span(wigner_map(random_unitary(3, 35)))
    assert not basis_image_completes_span(block_embed(3))


def _anchored(dim, anchors):
    """The overlap-profile embedding of anchors states, drawn as its claim draws them."""
    build = CLAIMS["separable-embed"].build
    return lambda seed: build(np.random.default_rng(seed), dim, anchors=anchors)


# (label, build(seed), dim, seeds, injective).  Not injective: at most
# 2 (dim - 1) anchors cannot separate the 2 (dim - 1)-real-dimensional ray
# space, a collapse or a constant map forgets coordinates, phi forgets
# phases, and the fold lift folds.  Injective: Wigner symmetries, the rotation lift, criterion
# 09's 32-anchor map and 4 dim - 4 generic anchors (as in phase retrieval).
# The 2 (dim - 1)-anchor maps of dim4/6, of seed 215 of dim5/8 and of
# dim6/10 are those whose refined scan winner polishes to no collision:
# only the winner of another offset group finds theirs
COLLISION_CASES = [
    *((f"separable_embed dim{d}/{a}", _anchored(d, a), d, range(1, 6), False)
      for d in (3, 4, 5) for a in (1, 2)),
    ("separable_embed dim4/6", _anchored(4, 6), 4, [251], False),
    ("proper_subspace 3/1", lambda seed: proper_subspace_map(3, 1), 3, range(1, 6), False),
    ("proper_subspace 4/2", lambda seed: proper_subspace_map(4, 2), 4, range(1, 6), False),
    ("tau-fold", lambda seed: standard_map(fold()), 2, range(1, 6), False),
    ("constant dim4", lambda seed: constant_map(4), 4, range(1, 6), False),
    *((f"phi dim{d}", lambda seed, d=d: entrywise_abs(d), d, range(1, 6), False)
      for d in (3, 4, 5, 6)),
    ("proper_subspace 5/3", lambda seed: proper_subspace_map(5, 3), 5, range(1, 6), False),
    ("separable_embed dim5/8", _anchored(5, 8), 5, [*range(1, 6), 215], False),
    ("separable_embed dim6/10", _anchored(6, 10), 6, [23, 45, 78, 88, 146, 171, 195, 252, 258], False),
    *((f"wigner dim{d}", lambda seed, d=d: wigner_map(sample_unitary(np.random.default_rng(seed), d)),
       d, range(1, 6), True) for d in (2, 4, 6)),
    ("tau-rotation", lambda seed: standard_map(rotation(1j)), 2, range(1, 6), True),
    ("criterion 09", lambda seed: _anchored(4, 32)(901), 4, [42], True),
    *((f"separable_embed dim{d}/{4 * d - 4}", _anchored(d, 4 * d - 4), d, range(20), True)
      for d in range(2, 7)),
]


@pytest.mark.parametrize(
    "build, dim, seeds, injective", [case[1:] for case in COLLISION_CASES],
    ids=[case[0] for case in COLLISION_CASES],
)
def test_the_collision_search_finds_exactly_the_maps_that_collide(build, dim, seeds, injective):
    # criterion 09's budget: 1000 pairs, then 200 steps of refinement and the polish
    for seed in seeds:
        report = check_injective(build(seed), dim, 1000, seed=seed)
        assert report.holds == injective, seed
        if not injective:
            w = report.witness
            assert w.d_in >= 0.5 and w.d_out <= WITNESS_TOL and w.gap == w.d_in, seed


ISOMETRY_ROWS = [
    case for case in COLLISION_CASES
    if case[0] in ("wigner dim2", "wigner dim4", "wigner dim6", "tau-rotation")
]


@pytest.mark.parametrize(
    "build, dim, seeds", [case[1:4] for case in ISOMETRY_ROWS], ids=[case[0] for case in ISOMETRY_ROWS]
)
def test_an_isometry_passes_with_the_collision_threshold_as_its_gap(build, dim, seeds):
    # an isometry keeps every distance, so the closest images of two states
    # at least 0.5 apart are 0.5 apart: the search pulls its pair in to the
    # threshold and reports minus that image distance
    for seed in seeds:
        report = check_injective(build(seed), dim, 1000, seed=seed)
        assert report.holds and abs(report.worst_gap + 0.5) <= WITNESS_TOL, seed


def test_the_extra_polishes_start_from_the_other_group_winners_best_first(monkeypatch):
    # an injective map polishes its refined pair to no collision, then the
    # unrefined scan winners of the other three offset groups, whose scan
    # gaps are distinct, in order of descending gap
    search, least_squares = verify._search, verify._least_squares
    searched, starts = [], []

    def searching(*args):
        searched.append(search(*args))
        return searched[-1]

    def polishing(map_, rows, *args):
        starts.append(rows)
        return least_squares(map_, rows, *args)

    monkeypatch.setattr(verify, "_search", searching)
    monkeypatch.setattr(verify, "_least_squares", polishing)
    assert check_injective(wigner_map(random_unitary(4, 3)), 4, 1000, seed=42).holds
    ((worst, groups, compared),) = searched
    assert compared == 1000
    others = sorted((w for w in groups.values() if w is not worst), key=lambda w: w[0], reverse=True)
    assert [w[0] for w in others] == pytest.approx([-4.674, -4.688, -5.070], abs=1e-3)
    assert len(starts) == 4
    for start, (_, rows, _) in zip(starts[1:], others, strict=True):
        assert np.array_equal(start, rows)


@pytest.mark.parametrize("seed", [4, 5, 7, 9, 10])
def test_a_pass_from_a_pair_closer_than_the_threshold_reports_minus_one(seed):
    # one unrefined pair closer than COLLISION_D_IN is never compared: its
    # image distance is no collision evidence, so the gap is -1.0, below
    # minus every image distance, and there is no witness
    pair = verify._pair_rows(_chunk_rng(seed, 0), 1, 2)
    assert _row_distances(pair[:1], pair[1:2])[0] < verify.COLLISION_D_IN
    report = check_injective(entrywise_abs(2), 2, 1, refine_steps=0, seed=seed)
    assert report.holds and report.worst_gap == -1.0


def _start_pair(rng, dim):
    """Two canonical state rows from a (2, 2, dim) draw, both real parts and
    then both imaginary parts: the start pairs that the refinement cases
    below were pinned on, kept as they were drawn."""
    z = rng.standard_normal((2, 2, dim))
    return _canonical_rows(z[0] + 1j * z[1])


def _sequential_refine(map_, oriented, pair, images, steps, stall=False):
    """Reference pattern search: one candidate at a time, in (which, coord,
    delta) order, with per-state map calls and the row kernels on single
    rows.  When the best candidate gains more than REFINE_TOL, it takes the
    first one within REFINE_TOL of the best; stops below REFINE_FLOOR or
    after steps steps.  Once one candidate has won two steps in a row, a
    step also tries its move from the current row at step * 2**j, j = 1 to
    12; when the best of these beats the current gap and the step's own
    best by more than REFINE_TOL, the first within REFINE_TOL of it is
    taken, the step size stays and the streak goes on.  A failed step ends
    the streak.  With stall, the search also stops before a step once its
    gap exceeds WITNESS_TOL + REFINE_TOL and the last REFINE_STALL_STEPS
    gains raised it by less than REFINE_STALL_GAIN of itself."""

    def d(a, b):
        return _row_distances(a[None], b[None])[0]

    def tried(which, coord, delta):
        base, other, f_other = (p, q, fq) if which == 0 else (q, p, fp)
        vec = base.copy()
        vec[coord] += delta
        cand = _canonical_rows(vec[None])[0]
        f_cand = map_(PureState(cand)).vec
        return oriented(d(cand, other), d(f_cand, f_other)), which, cand, f_cand

    (p, q), (fp, fq) = pair, images
    gap = oriented(d(p, q), d(fp, fq))
    step = REFINE_START_STEP
    used = streak = 0
    last = None  # (which, coord, unit move) of the streak's winner
    gains = [gap]
    while used < steps and step >= REFINE_FLOOR:
        if stall and gap > WITNESS_TOL + REFINE_TOL and len(gains) > verify.REFINE_STALL_STEPS:
            if gap - gains[-1 - verify.REFINE_STALL_STEPS] < verify.REFINE_STALL_GAIN * gap:
                break
        used += 1
        moves, keys = [], []
        for which in (0, 1):
            for coord in range(len(p)):
                for unit in (1, -1, 1j, -1j):
                    moves.append(tried(which, coord, unit * step))
                    keys.append((which, coord, unit))
        extended = []
        if streak >= 2:
            which, coord, unit = last
            extended = [tried(which, coord, unit * (step * 2.0**j)) for j in range(1, 13)]
        best_gap = max(move[0] for move in moves)
        top = max((move[0] for move in extended), default=-np.inf)
        if top > max(gap, best_gap) + REFINE_TOL:
            gap, which, cand, f_cand = next(m for m in extended if m[0] >= top - REFINE_TOL)
            streak += 1
        elif best_gap > gap + REFINE_TOL:
            i = next(i for i, m in enumerate(moves) if m[0] >= best_gap - REFINE_TOL)
            gap, which, cand, f_cand = moves[i]
            streak = streak + 1 if keys[i] == last else 1
            last = keys[i]
        else:
            step *= REFINE_SHRINK
            streak = 0
            continue
        gains.append(gap)
        if which == 0:
            p, fp = cand, f_cand
        else:
            q, fq = cand, f_cand
    return gap, np.array([p, q]), np.array([fp, fq]), used


def _separable_embed_of_distinct_anchors():
    rng = np.random.default_rng(901)
    return separable_embed([sample_pure_state(rng, 4) for _ in range(32)])


# name: (map builder, dim, oriented gap, whether the search runs to the 200-step cap)
REFINE_CASES = {
    "tau power2 nonexpansive": (
        lambda: standard_map(power(2)), 2, lambda d_in, d_out: d_out - d_in, False
    ),
    "phi dim 2 isometry": (
        lambda: entrywise_abs(2), 2, lambda d_in, d_out: abs(d_out - d_in), False
    ),
    # the isometry gap of 32 distinct anchors climbs on every step
    "separable_embed isometry": (
        _separable_embed_of_distinct_anchors, 4, lambda d_in, d_out: abs(d_out - d_in), True
    ),
}


@pytest.mark.parametrize("name", sorted(REFINE_CASES))
def test_batched_refinement_matches_the_sequential_search(name):
    build, dim, oriented, capped = REFINE_CASES[name]
    map_ = build()
    pair = _start_pair(np.random.default_rng(17), dim)
    images = map_.batch(pair)
    ref_gap, ref_pair, _, ref_used = _sequential_refine(map_, oriented, pair, images, 200)
    gap, got_pair, got_images, used = _refine_pair(map_, oriented, pair, images, 200)
    assert np.array_equal(got_pair, ref_pair)
    assert np.array_equal(got_images, map_.batch(got_pair))
    assert abs(gap - ref_gap) <= 1e-12
    if capped:
        assert used == ref_used == 200
    else:
        assert used == ref_used < 200
    assert gap > oriented(distance(*map(PureState, pair)), distance(*map(PureState, images)))


def _bench_scan_winner(seed, name):
    """The map and oriented gap of bench verify op name of seed, with its
    scan winner's pair and images."""
    op = next(op for op in _bench_inputs().build("verify", seed) if op.name == name)
    map_, oriented = map_from_json(op.map), ORIENTED[op.prop]
    pair, images, _, _ = verify._refined_pair(
        map_, op.dim, op.samples, 0, op.check_seed, oriented, verify._local_pair_rows, False
    )
    return map_, oriented, pair, images


def test_a_stalled_witness_climb_stops_as_the_sequential_search_does():
    # bench verify seed 11's phi dim 2 noncontractive witness creeps to the
    # 200-step cap when the stall rule is off; with it on, both searches stop
    # at the same step with the same pair and images
    map_, oriented, pair, images = _bench_scan_winner(11, "noncontractive phi dim2")
    assert _refine_pair(map_, oriented, pair, images, 200)[3] == 200
    ref_gap, ref_pair, ref_images, ref_used = _sequential_refine(
        map_, oriented, pair, images, 200, stall=True
    )
    gap, got_pair, got_images, used = _refine_pair(map_, oriented, pair, images, 200, stall=True)
    assert gap == ref_gap and used == ref_used < 200
    assert np.array_equal(got_pair, ref_pair)
    assert got_images.dtype == ref_images.dtype and np.array_equal(got_images, ref_images)


ORIENTED = {
    "nonexpansive": lambda d_in, d_out: d_out - d_in,
    "noncontractive": lambda d_in, d_out: d_in - d_out,
    "isometry": lambda d_in, d_out: abs(d_out - d_in),
}
# the verify and demo invocations whose reports CI compares byte for byte
CI_REPORTS = [
    "verify --property noncontractive --map phi --dim 2",
    "verify --property nonexpansive --map tau-power2 --dim 2",
    "verify --property nonexpansive --map phi --dim 4",
    "verify --property isometry --map wigner-random --dim 4 --refine-steps 17",
    "demo block-embed --dim 3",
    "demo separable-embed --dim 4 --anchors 32",
    "demo separable-embed --dim 8 --anchors 64",
    "demo proper-subspace --dim 5 --k 3",
]


def _bench_inputs():
    """bench/inputs.py, the benchmark's seeded operations (numpy only)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = sys.modules.setdefault("bench_inputs", importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


def _metric_reports(capsys):
    for argv in CI_REPORTS:
        cli.main(argv.split())
        doc = json.loads(capsys.readouterr().out)
        yield from ([doc] if "property" in doc else doc["checks"].values())
    inputs = _bench_inputs()
    for seed in (1, 2, 3):
        for op in inputs.build("verify", seed):
            if op.kind == "check" and op.prop in ORIENTED:
                check = verify._REPORT_CHECKS[op.prop]
                yield check(map_from_json(op.map), op.dim, n_samples=op.samples,
                            refine_steps=op.refine_steps, seed=op.check_seed).to_json()
    for name, (build, dim, _, _) in REFINE_CASES.items():
        yield verify._REPORT_CHECKS[name.split()[-1]](build(), dim).to_json()


def _scope_reports(capsys, refine_steps=None):
    """(key, report JSON) of every report in the stall rule's scope: the
    CI_REPORTS invocations, the bench verify checks of seeds 1-3 and the
    first seed of each COLLISION_CASES row at criterion 09's budget.  A
    refine_steps overrides every refinement cap, and leaves out the
    collision searches."""
    cap = [] if refine_steps is None else ["--refine-steps", str(refine_steps)]
    for argv in CI_REPORTS:
        cli.main(argv.split() + cap)
        doc = json.loads(capsys.readouterr().out)
        yield from ((f"{argv} {k}", r) for k, r in ({"": doc} if "property" in doc else doc["checks"]).items())
    inputs = _bench_inputs()
    for seed in (1, 2, 3):
        for i, op in enumerate(inputs.build("verify", seed)):
            if op.kind == "check":
                steps = op.refine_steps if refine_steps is None else refine_steps
                yield f"seed {seed} op {i}", verify._REPORT_CHECKS[op.prop](
                    map_from_json(op.map), op.dim, n_samples=op.samples, refine_steps=steps,
                    seed=op.check_seed,
                ).to_json()
    for name, build, dim, seeds, _ in () if refine_steps is not None else COLLISION_CASES:
        yield name, check_injective(build(seeds[0]), dim, 1000, seed=seeds[0]).to_json()


def test_the_stall_rule_moves_only_witnesses_and_only_their_gaps_down(monkeypatch, capsys):
    # with REFINE_STALL_GAIN 0 no gain is small enough to stall a climb, so
    # the rule is off: every report that holds and every collision search is
    # byte for byte the same, and a witness keeps its verdict, with a gap
    # between its scan winner's and the one of the climb the rule cut short
    default = dict(_scope_reports(capsys))
    scan = dict(_scope_reports(capsys, refine_steps=0))
    monkeypatch.setattr(verify, "REFINE_STALL_GAIN", 0.0)
    off = dict(_scope_reports(capsys))
    assert default.keys() == off.keys()
    stalled = 0
    for key, report in default.items():
        if report["witness"] is None or report["property"] == "injectivity":
            assert json.dumps(report) == json.dumps(off[key]), key
        else:
            assert off[key]["witness"] is not None, key
            assert scan[key]["worst_gap"] <= report["worst_gap"] <= off[key]["worst_gap"], key
            stalled += report["worst_gap"] < off[key]["worst_gap"]
    assert stalled >= 10, stalled


def _whole_budget_searches(monkeypatch):
    """Make every search map its whole budget: _search with no proof test."""
    search = verify._search
    monkeypatch.setattr(verify, "_search", lambda *args: search(*args[:5], None))


def test_the_first_proven_witness_changes_no_verdict_and_no_report_that_holds(monkeypatch, capsys):
    # with no proof test a search maps its whole budget: every report that
    # holds and every collision search is byte for byte the same, and a
    # witness stays a witness
    stopped = dict(_scope_reports(capsys))
    _whole_budget_searches(monkeypatch)
    full = dict(_scope_reports(capsys))
    assert stopped.keys() == full.keys()
    witnesses = 0
    for key, report in stopped.items():
        assert (report["witness"] is None) == (full[key]["witness"] is None), key
        if report["witness"] is None or report["property"] == "injectivity":
            assert json.dumps(report) == json.dumps(full[key]), key
        else:
            witnesses += 1
    assert witnesses >= 20, witnesses


def test_a_scan_that_holds_measures_no_winner_again(monkeypatch):
    # the proof test screens a winner on its scan gap first, so a metric
    # scan that finds no witness calls _row_distances for none of its winners
    search, calls, searches = verify._search, [], []

    def counting(*args):
        calls.append(len(args[0]))
        return _row_distances(*args)

    def searching(*args):
        with monkeypatch.context() as scope:
            scope.setattr(verify, "_row_distances", counting)
            searches.append(search(*args))
        return searches[-1]

    monkeypatch.setattr(verify, "_search", searching)
    assert check_nonexpansive(entrywise_abs(4), 4).holds
    assert check_isometry(wigner_map(random_unitary(4, 3)), 4).holds
    assert len(searches) == 2 and calls == []


def _bench_report(op, n_samples):
    """The report JSON of bench verify check or inclusion op at a budget of n_samples."""
    map_ = map_from_json(op.map)
    if op.kind == "inclusion":
        system = OrthoSystem(tuple(map(state_from_json, op.states)))
        return check_inclusion_lemma(map_, system, n_samples, seed=op.check_seed).to_json()
    return verify._REPORT_CHECKS[op.prop](
        map_, op.dim, n_samples, refine_steps=op.refine_steps, seed=op.check_seed
    ).to_json()


def _budget_runs(capsys):
    """(key, budget, run) for every report of the CI_REPORTS invocations and
    of the bench verify checks and inclusion checks of seeds 1-3: run(n)
    is that report's JSON at a budget of n samples."""

    def cli_run(argv, key):
        def run(n):
            cli.main([*argv.split(), "--samples", str(n)])
            doc = json.loads(capsys.readouterr().out)
            return doc if key is None else doc["checks"][key]
        return run

    budget = inspect.signature(check_nonexpansive).parameters["n_samples"].default
    for argv in CI_REPORTS:
        cli.main(argv.split())
        doc = json.loads(capsys.readouterr().out)
        for key in [None] if "property" in doc else list(doc["checks"]):
            yield f"{argv} {key}", budget, cli_run(argv, key)
    for seed in (1, 2, 3):
        for i, op in enumerate(_bench_inputs().build("verify", seed)):
            if op.kind in ("check", "inclusion"):
                yield f"seed {seed} op {i}", op.samples, lambda n, op=op: _bench_report(op, n)


def test_a_report_counts_the_samples_it_compared(capsys):
    # a search ends with the first chunk that proves a witness, and its
    # report is the report of the search given exactly the samples it
    # compared, byte for byte; a report that holds, and every collision
    # search, compared its whole budget
    stopped = 0
    for key, budget, run in list(_budget_runs(capsys)):
        report = run(budget)
        if report["witness"] is None or report["property"] == "injectivity":
            assert report["samples"] == budget, key
            continue
        assert report["samples"] == budget or report["samples"] % verify.CHUNK_SIZE == 0, key
        stopped += report["samples"] < budget
        assert json.dumps(run(report["samples"])) == json.dumps(report), key
    assert stopped >= 20, stopped


# unrefined scans with a witness: (property, map builder, dim)
UNREFINED_SCANS = [
    ("noncontractive", lambda: entrywise_abs(4), 4),
    ("nonexpansive", lambda: standard_map(power(2)), 2),
    ("isometry", _separable_embed_of_distinct_anchors, 4),
]


def test_a_witness_gap_is_the_gap_of_its_own_distances(capsys):
    # refinement measures a moved row as d(Q', P), the report as d(P, Q'):
    # the reported gap is the one of the reported distances, bit for bit
    witnesses = 0
    for report in _metric_reports(capsys):
        witness = report.get("witness")
        if report.get("property") in ORIENTED and witness is not None:
            assert witness["gap"] == ORIENTED[report["property"]](witness["d_in"], witness["d_out"])
            assert report["worst_gap"] == witness["gap"]
            witnesses += 1
    # a scan ranks pairs by their overlaps, and its report measures the
    # winner again: unrefined, the reported gap is the residual kernel's
    # gap of the witness pair and its images
    for prop, build, dim in UNREFINED_SCANS:
        map_ = build()
        report = verify._REPORT_CHECKS[prop](map_, dim, 20000, refine_steps=0, seed=5)
        w = report.witness
        assert w is not None
        pair = np.array([w.P.vec, w.Q.vec])
        d_in, d_out = (float(_row_distances(r[:1], r[1:])[0]) for r in (pair, map_.batch(pair)))
        assert report.worst_gap == w.gap == ORIENTED[prop](d_in, d_out)
        assert (w.d_in, w.d_out) == (d_in, d_out)
        witnesses += 1
    assert witnesses >= 18


@pytest.mark.parametrize("dim", range(2, 17))
def test_the_scan_ranking_agrees_with_the_residual_kernel(dim):
    # a scan ranks pairs by sqrt(1 - transition probability), which loses
    # digits only for nearly equal states: within 1e-12 of the residual
    # kernel for pairs at least 1e-3 apart, complex rows and the real
    # images of entrywise_abs alike
    rng = np.random.default_rng(dim)
    n = 500
    d = np.geomspace(1e-3, 1, n)
    p, r = _sample_state_rows(rng, n, dim), _sample_state_rows(rng, n, dim)
    r -= _row_overlaps(r, p)[:, None] * p
    r /= np.linalg.norm(r, axis=1)[:, None]
    q = _canonical_rows(np.sqrt(1 - d**2)[:, None] * p + d[:, None] * r)
    images = entrywise_abs(dim).batch(np.concatenate([p, q]))
    for v, w in ((p, q), (images[:n], images[n:])):
        exact = _row_distances(v, w)
        apart = exact >= 1e-3
        assert apart.sum() > n // 2
        ranked = np.sqrt(1.0 - _row_transition_probabilities(v, w))
        assert np.abs(ranked - exact)[apart].max() <= 1e-12


@pytest.mark.parametrize("dim", range(2, 9))
def test_the_search_sampler_follows_the_cap_law(dim):
    # a Haar state lies within distance r of a fixed state with probability
    # r^(2(d-1)), the law behind the README's "What a verdict covers" radii;
    # r is chosen so that the probability is 0.05.  The metric scans' local
    # rows, each a move of an independent Haar row, are Haar too
    n, p = 20000, 0.05
    r = p ** (1 / (2 * (dim - 1)))
    center = _sample_state_rows(np.random.default_rng(1000 + dim), 1, dim)
    plain = _sample_state_rows(np.random.default_rng(dim), n, dim)
    # 2n - 4 anchors: 2n rows, n of them moved
    local = verify._local_pair_rows(np.random.default_rng(dim), 4 * (2 * n - 4), dim)[1::2]
    for rows in (plain, local):
        assert len(rows) == n
        share = np.mean(_row_distances(rows, np.repeat(center, n, axis=0)) <= r)
        assert abs(share - p) <= 5 * np.sqrt(p * (1 - p) / n)


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 16])
def test_a_metric_scan_pairs_each_even_draw_with_a_local_partner(dim):
    # row 2m + 1 is row 2m moved by LOCAL_STEPS[m % 4] z / sqrt(2 dim), a
    # move of norm about that step, so the offset-1 pair at each even
    # anchor lies at a distance of the step's order, and the pair at each
    # odd anchor is two independent Haar states
    rows = verify._local_pair_rows(np.random.default_rng(dim), 4 * 4000, dim)
    local = _row_distances(rows[0:-1:2], rows[1::2])
    steps = verify.LOCAL_STEPS[np.arange(len(local)) % len(verify.LOCAL_STEPS)]
    ratio = local / steps
    assert ratio.max() < 2.5
    for k in range(len(verify.LOCAL_STEPS)):
        assert 0.5 < np.median(ratio[k :: len(verify.LOCAL_STEPS)]) < 1.1
    assert np.median(_row_distances(rows[1:-1:2], rows[2::2])) > 0.7


@pytest.mark.parametrize("count, dim", [(100, 2), (2048, 3), (7, 16)])
def test_a_local_pair_draw_spends_every_normal(count, dim):
    # one (L + 4, 2, dim) Gaussian block and no other draw: even rows are
    # its rows canonicalized, and each odd row a move of the even row
    # before it by the block's own raw row
    rng, twin = np.random.default_rng(count), np.random.default_rng(count)
    rows = verify._local_pair_rows(rng, count, dim)
    z = twin.standard_normal((-(-count // 4) + 4, 2, dim))
    assert rng.bit_generator.state == twin.bit_generator.state
    raw = z[:, 0] + 1j * z[:, 1]
    assert len(rows) == len(raw)
    for i in range(len(rows)):
        if i % 2 == 0:
            want = _canonical_rows(raw[i][None])[0]
        else:
            step = verify.LOCAL_STEPS[(i // 2) % 4] / np.sqrt(2 * dim)
            want = _canonical_rows((rows[i - 1] + step * raw[i])[None])[0]
        assert rows[i].tobytes() == want.tobytes()


def test_only_the_metric_checks_draw_local_partners():
    # the collision search's ranking puts a pair closer than COLLISION_D_IN
    # below every other pair, so it draws plain rows; unrefined, each
    # check maps exactly its chunks' draws
    n, dim, seed = verify.CHUNK_SIZE + 100, 3, 6
    for check, draw in ((check_nonexpansive, verify._local_pair_rows), (check_injective, verify._pair_rows)):
        blocks = []
        map_ = entrywise_abs(dim)
        recording = dataclasses.replace(map_, fn=lambda rows: blocks.append(rows.copy()) or map_.fn(rows))
        check(recording, dim, n, refine_steps=0, seed=seed)
        want = [draw(_chunk_rng(seed, 0), verify.CHUNK_SIZE, dim), draw(_chunk_rng(seed, 1), 100, dim)]
        assert [b.tobytes() for b in blocks] == [w.tobytes() for w in want]
    plain = verify._pair_rows(_chunk_rng(seed, 0), 100, dim)
    assert plain.tobytes() == _sample_state_rows(_chunk_rng(seed, 0), 25 + 4, dim).tobytes()


@pytest.mark.parametrize("seed", [42, 1, 2])
def test_a_violation_confined_to_a_cap_is_found(seed):
    # the scan needs a state in the dent's cap paired with a local partner
    # or with another state in the cap; in dim 3 the default 10000 pairs
    # find it on all three seeds.  In dims 4 and 5 the cap holds a share
    # 0.3^6 or 0.3^8 of the states, and the default finds the dent only in
    # dim 4 on seed 1: the cap law's limit, recorded here and not asserted
    report = check_nonexpansive(dented_abs(3, seed), 3)
    assert report.witness is not None
    assert report.worst_gap > 0.2


# every planted row of the README's coverage table but the dent, which
# test_a_violation_confined_to_a_cap_is_found checks on its own centres
_CAPPED = [(plant, check) for plant, check in COVERAGE if plant is not dented_abs]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("plant, check", _CAPPED, ids=[check.__name__ for _, check in _CAPPED])
def test_a_pinch_confined_to_a_cap_is_found(plant, check, seed):
    # the pinch pulls the cap of radius 0.3 about its centre towards the
    # centre, and the fold folds the cap about t onto s; at their defaults
    # in dim 3 each check reports a witness on centres 0-2 (worst gaps
    # about 0.06, 0.03-0.06, 8e-4 and 0.52-0.74), and each fold counts:
    # its s and t lie at least 0.5 apart, where the collision search looks
    assert plant is not folded or fold_counts(3, seed)
    report = check(plant(3, seed), 3)
    assert not report.holds
    assert report.witness is not None


def test_refinement_with_split_candidate_batches_matches_the_sequential_search():
    # 256 anchors in dim 8: 512-dim images, 32 rows per map batch, so the
    # 64 candidates of a step are mapped in two batches.  The isometry gap
    # of this map climbs for every step of a long search, so the searches
    # are compared over a fixed number of steps
    rng = np.random.default_rng(902)
    map_ = separable_embed([sample_pure_state(rng, 8) for _ in range(256)])
    assert verify.MAP_ENTRIES // map_.dim_out < 8 * 8

    def oriented(d_in, d_out):
        return abs(d_out - d_in)

    pair = _start_pair(np.random.default_rng(17), 8)
    images = map_.batch(pair)
    ref_gap, ref_pair, _, ref_used = _sequential_refine(map_, oriented, pair, images, 40)
    gap, got_pair, got_images, used = _refine_pair(map_, oriented, pair, images, 40)
    assert np.array_equal(got_pair, ref_pair)
    assert np.array_equal(got_images, map_.batch(got_pair))
    assert abs(gap - ref_gap) <= 1e-12
    assert used == ref_used == 40
    assert gap > oriented(distance(*map(PureState, pair)), distance(*map(PureState, images)))


def test_refinement_takes_the_first_candidate_within_tolerance_of_the_best():
    # candidates 0 and 5 tie up to rounding; 5 is larger in the last bits,
    # but the first within REFINE_TOL of the best is taken: candidate 0,
    # row 0 moved by +step at coordinate 0
    map_ = entrywise_abs(2)
    pair = _start_pair(np.random.default_rng(20), 2)

    def oriented(d_in, d_out):
        gaps = np.zeros(len(d_in))
        if len(gaps) > 1:
            gaps[0], gaps[5] = 0.5, 0.5 + 4e-16
        return gaps

    gap, got, _, used = _refine_pair(map_, oriented, pair, map_.batch(pair), 1)
    assert gap == 0.5 and used == 1
    moved = pair[0] + np.array([REFINE_START_STEP, 0.0])
    assert np.array_equal(got, np.array([_canonical_rows(moved[None])[0], pair[1]]))


# name: (map, dim, oriented gap, start seed, refine_steps, map batches);
# every search runs into halvings, which are batched after a stall
HALVING_CASES = {
    # no candidate ever gains: 30 halvings in batches of 1, 1, 2, 4, 8 and
    # 14 levels, so caps 3, 7 and 17 cut a batch short
    **{
        f"wigner isometry, cap {steps}": (
            lambda: wigner_map(random_unitary(4, 36)), 4,
            lambda d_in, d_out: abs(d_out - d_in), 18, steps, batches,
        )
        for steps, batches in ((3, 3), (7, 4), (17, 6), (30, 6), (31, 6))
    },
    # a climb that extends its winning move five times, then a final run of
    # 30 halvings: a failed extension step, then batches of 1, 2, 4, 8 and 14
    "phi dim 3 nonexpansive": (
        lambda: entrywise_abs(3), 3, lambda d_in, d_out: d_out - d_in, 17, 200, 13
    ),
    # four extensions, then the same final run
    "phi dim 4 nonexpansive": (
        lambda: entrywise_abs(4), 4, lambda d_in, d_out: d_out - d_in, 17, 200, 13
    ),
    # the cap of 30 falls 24 halvings into the final run, cutting its batch
    # of 14 levels to 8
    "phi dim 4 nonexpansive, capped": (
        lambda: entrywise_abs(4), 4, lambda d_in, d_out: d_out - d_in, 18, 30, 12
    ),
    # after 8 failed steps, a batch cut to 7 levels by the floor gains at its
    # last level, 15 halvings into the run; one more failed step ends the search
    "proper_subspace 4/2 noncontractive": (
        lambda: proper_subspace_map(4, 2), 4, lambda d_in, d_out: d_in - d_out, 2, 200, 70
    ),
}


@pytest.mark.parametrize("name", list(HALVING_CASES))
def test_batched_halvings_match_the_sequential_search(name):
    build, dim, oriented, seed, steps, expected_batches = HALVING_CASES[name]
    map_ = build()
    pair = _start_pair(np.random.default_rng(seed), dim)
    images = map_.batch(pair)
    ref_gap, ref_pair, ref_images, ref_used = _sequential_refine(
        map_, oriented, pair, images, steps
    )
    shapes = []
    gap, got_pair, got_images, used = _refine_pair(
        _recording(map_, shapes), oriented, pair, images, steps
    )
    assert gap == ref_gap and used == ref_used
    assert np.array_equal(got_pair, ref_pair)
    assert got_images.dtype == ref_images.dtype and np.array_equal(got_images, ref_images)
    assert len(shapes) == expected_batches


def test_a_stalled_search_takes_the_first_level_that_gains():
    # two steps fail, then one batch holds the next two step sizes: level 0
    # gains a little at candidate 3 and level 1 more at candidate 5.  Level 0
    # is taken, as its own step would take it, and is the third step; the
    # fourth, one level again, gains nothing
    map_ = entrywise_abs(2)
    pair = _start_pair(np.random.default_rng(20), 2)
    sizes = []

    def oriented(d_in, d_out):
        sizes.append(len(d_in))
        gaps = np.zeros(len(d_in))
        if len(sizes) == 4:
            gaps[3], gaps[16 + 5] = 1e-6, 1e-3
        return gaps

    gap, got, _, used = _refine_pair(map_, oriented, pair, map_.batch(pair), 4)
    assert sizes == [1, 16, 16, 32, 16]
    assert gap == 1e-6 and used == 4
    # candidate 3: row 0 moved by -i step at coordinate 0, at the third step size
    moved = pair[0] + np.array([-1j * REFINE_START_STEP * REFINE_SHRINK**2, 0.0])
    assert np.array_equal(got, np.array([_canonical_rows(moved[None])[0], pair[1]]))


def _isometry_refinement(steps):
    map_ = wigner_map(random_unitary(4, 36))
    pair = _start_pair(np.random.default_rng(18), 4)
    return _refine_pair(map_, lambda d_in, d_out: abs(d_out - d_in), pair, map_.batch(pair), steps)


def test_refinement_of_an_isometry_only_halves_its_step():
    # no candidate gains more than rounding noise, so every step halves:
    # 0.1 / 2**29 is still above the 1e-10 floor, 0.1 / 2**30 is below it
    assert REFINE_START_STEP * REFINE_SHRINK**29 >= REFINE_FLOOR
    assert REFINE_START_STEP * REFINE_SHRINK**30 < REFINE_FLOOR
    gap, pair, _, used = _isometry_refinement(200)
    assert used == 30
    assert gap <= 1e-12
    assert np.array_equal(pair, _start_pair(np.random.default_rng(18), 4))


def test_refine_steps_caps_the_steps_used():
    assert _isometry_refinement(7)[3] == 7
    assert _isometry_refinement(0)[3] == 0
    tau = standard_map(power(2))
    pair = _start_pair(np.random.default_rng(19), 2)

    def used(steps):
        return _refine_pair(tau, lambda d_in, d_out: d_out - d_in, pair, tau.batch(pair), steps)[3]

    assert 12 < used(200) < 200
    assert used(12) == 12


def test_criterion_02s_phi_checks_climb_in_few_steps(monkeypatch):
    # phi holds, so refinement climbs from the scan's gap to about -1e-12.
    # One step length at a time that took 85 to 195 steps; a move that wins
    # twice in a row is also tried at 2 to 4096 times the step, which
    # collapses the climb
    used = []

    def recording(*args):
        result = _refine_pair(*args)
        used.append(result[3])
        return result

    monkeypatch.setattr(verify, "_refine_pair", recording)
    for dim in range(2, 7):
        assert check_nonexpansive(entrywise_abs(dim), dim, 10000, seed=42).holds
    assert len(used) == 5 and max(used) <= 45, used


def _gemm_apply(mat, rows):
    return rows @ mat.T


def _norm_row_distances(v, w):
    residual = v - _row_overlaps(v, w)[:, None] * w
    return np.minimum(np.linalg.norm(residual, axis=1), 1.0)


WITNESS_CASES = {
    "tau power2 nonexpansive": lambda: check_nonexpansive(standard_map(power(2)), 2),
    "phi dim 2 isometry": lambda: check_isometry(entrywise_abs(2), 2),
    "block_embed dim 3 isometry": lambda: check_isometry(block_embed(3), 3),
}


@pytest.mark.parametrize(
    "target, mutation",
    [(maps, ("_apply", _gemm_apply)), (verify, ("_row_distances", _norm_row_distances))],
    ids=["gemm apply", "norm row distances"],
)
@pytest.mark.parametrize("name", sorted(WITNESS_CASES))
def test_witnesses_survive_a_change_of_rounding(monkeypatch, name, target, mutation):
    # the same arithmetic in another order must not move a refined witness:
    # refinement ignores gains at the rounding level
    run = WITNESS_CASES[name]
    before = run().witness
    monkeypatch.setattr(target, *mutation)
    after = run().witness
    assert before is not None and after is not None
    for a, b in ((before.P, after.P), (before.Q, after.Q)):
        assert np.max(np.abs(a.vec - b.vec)) <= 1e-12


def _wide_separable_embed():
    # 64 anchors in dim 8: 128-dim images, so a chunk maps in batches of 128 rows
    rng = np.random.default_rng(8)
    return separable_embed([sample_pure_state(rng, 8) for _ in range(64)])


def test_row_blocking_bounds_the_scan_memory():
    # one unblocked batch of a chunk's 516 rows would hold all its
    # temporaries at once: 2.2 MB here, against 1.2 MB in 128-row map
    # batches.  The gaps, one call per 512-pair offset group, add nothing
    # to either peak
    map_ = _wide_separable_embed()
    tracemalloc.start()
    try:
        report = check_nonexpansive(map_, 8, 20000, refine_steps=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.holds
    assert peak < 3.8e6


def test_an_orthogonal_chunk_bounds_the_scan_memory(monkeypatch):
    # a chunk of 2048 orthogonal pairs is 4096 rows, whose 128-wide float64
    # images fill a 4.2 MB image block; the gaps and the next chunk's draw
    # add under 2 MB to it (5.8 MB here), and the last chunk's rows would
    # add 0.5 MB more if they were not freed before the draw.  The witness
    # would end the search after its first chunk, so the proof test is off
    _whole_budget_searches(monkeypatch)
    map_ = _wide_separable_embed()
    tracemalloc.start()
    try:
        report = check_orthogonality_preserving(map_, 8, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not report.holds
    assert peak < 6.2e6


def _recording(map_, shapes):
    """map_ with an fn that also records the shape of every block it maps."""

    def fn(rows):
        shapes.append(rows.shape)
        return map_.fn(rows)

    return dataclasses.replace(map_, fn=fn)


# n pairs are n // 2048 chunks of 2048 pairs and a short last one, each
# chunk of count pairs ceil(count / 4) + 4 states: 516 for a full chunk,
# within one map batch of 16384 // dim rows in dims 4 and 16.  An
# orthogonal-pair chunk is 2 count rows, 4096 for a full one, which is a
# whole batch in dim 4; the orthogonality witness of entrywise_abs(4) is
# proven in the first chunk, which ends the search
@pytest.mark.parametrize("prop, dim, n_samples, holds, want", [
    ("nonexpansive", 4, 10000, True, [(516, 4)] * 4 + [(456, 4)]),
    ("nonexpansive", 16, 20000, True, [(516, 16)] * 9 + [(396, 16)]),
    ("orthogonality", 4, 10000, False, [(4096, 4)]),
])
def test_a_narrow_map_takes_one_call_per_chunk(prop, dim, n_samples, holds, want):
    shapes = []
    report = verify._REPORT_CHECKS[prop](
        _recording(entrywise_abs(dim), shapes), dim, n_samples, refine_steps=0, seed=42
    )
    assert report.holds is holds
    assert shapes == want
    assert report.samples == (n_samples if holds else verify.CHUNK_SIZE)
    # no rows make no call, so a map need not accept an empty block
    identity = opaque_map(lambda state: state, 3, 3)
    assert verify._map_rows(identity, np.empty((0, 3), dtype=complex)).shape == (0, 3)


def test_a_scan_maps_a_quarter_of_a_state_per_pair_and_four_per_chunk():
    # a chunk of count pairs pairs each of its first L = ceil(count / 4)
    # draws with its next four, so 10000 pairs in 5 chunks map
    # 4 * (512 + 4) + (452 + 4) = 2520 states when the map holds
    shapes = []
    phi = _recording(entrywise_abs(2), shapes)
    report = check_nonexpansive(phi, 2, 10000, refine_steps=0, seed=4)
    assert report.holds and report.samples == 10000
    chunks = -(-10000 // verify.CHUNK_SIZE)
    counts = [min(verify.CHUNK_SIZE, 10000 - index * verify.CHUNK_SIZE) for index in range(chunks)]
    assert sum(n for n, _ in shapes) == sum(-(-count // 4) + 4 for count in counts) == 2520
    # a witness is one of the pairs of the chunks its search compared, and
    # the search ends with the first chunk that proves one
    shapes = []
    tau = _recording(standard_map(power(2)), shapes)
    report = check_nonexpansive(tau, 2, 10000, refine_steps=0, seed=4)
    assert report.samples == verify.CHUNK_SIZE and shapes == [(516, 2)]
    counts = counts[:1]
    w = report.witness
    assert w is not None
    pairs = []
    for index, count in enumerate(counts):
        span = -(-count // 4)
        # the draw of a metric check, local rows included
        rows = verify._local_pair_rows(_chunk_rng(4, index), count, 2)
        pairs += [
            (index, i, k) for i in range(span) for k in range(1, 5)
            if np.array_equal(rows[i], w.P.vec) and np.array_equal(rows[i + k], w.Q.vec)
        ]
    assert len(pairs) == 1


def test_a_wide_map_batch_stays_within_the_entry_budget():
    map_ = _wide_separable_embed()
    shapes = []
    check_nonexpansive(_recording(map_, shapes), 8, 1000, refine_steps=5)
    assert max(n * max(map_.dim_in, map_.dim_out) for n, _ in shapes) <= verify.MAP_ENTRIES
    assert max(n for n, _ in shapes) == 128


def test_map_block_size_cannot_change_a_report(monkeypatch):
    # chunk substreams are fixed by CHUNK_SIZE; MAP_ENTRIES only splits the
    # rows of a chunk, and refinement's candidates, into map batches, and
    # caps how many halved levels refinement maps in one batch, so no
    # report may depend on it.  A full chunk and a short one, so that the
    # image block is reused by a shorter chunk
    n = verify.CHUNK_SIZE + 64

    def reports():
        rng = np.random.default_rng(9)
        sep = separable_embed([sample_pure_state(rng, 4) for _ in range(8)])
        disjoint = OrthoSystem((pure_state([1.0, 1j, 0.0]), pure_state([0.0, 0.0, 1.0])))
        cases = [
            (entrywise_abs(3), 3, disjoint),
            (sep, 4, OrthoSystem((sample_pure_state(rng, 4),))),
            (standard_map(power(2)), 2, OrthoSystem((basis_state(2, 0), basis_state(2, 1)))),
        ]
        out = []
        for map_, dim, pre in cases:
            out += [
                check_nonexpansive(map_, dim, n, seed=3),
                check_isometry(map_, dim, n, seed=3),
                check_orthogonality_preserving(map_, dim, n, seed=3),
                check_inclusion_lemma(map_, pre, n, seed=3),
            ]
        # the collision search's polish maps its Jacobian and line-search batches
        # through the same blocks
        out.append(check_injective(sep, 4, n, seed=3))
        return [json.dumps(r.to_json(), sort_keys=True) for r in out]

    # the budgets: one-row batches; 7 rows of the widest map (8 anchors:
    # 16-dim images), an odd split of every chunk; 128 rows of it, an even
    # split of a 4096-row orthogonal chunk and an uneven one of a 516-row
    # metric chunk, while the narrow maps' scans take a whole chunk per
    # call; the default, a whole metric chunk per call in every check
    budgets = (7 * 16, 128 * 16, verify.MAP_ENTRIES)
    monkeypatch.setattr(verify, "MAP_ENTRIES", 1)
    reference = reports()
    for entries in budgets:
        monkeypatch.setattr(verify, "MAP_ENTRIES", entries)
        assert reports() == reference, f"MAP_ENTRIES {entries}"


def _fresh_search(map_, n_samples, seed, sample, gap):
    """_search with fresh image arrays for every chunk and one gap call on
    copies of the whole chunk's sample rows: the reference for its reused
    block, its one gap call per offset group and its row views, and for
    its overall and group winners, each found on its own."""
    worst, groups = (-np.inf, None, None), {}
    for index in range(-(-n_samples // verify.CHUNK_SIZE)):
        count = min(verify.CHUNK_SIZE, n_samples - index * verify.CHUNK_SIZE)
        rows, layout = sample(_chunk_rng(seed, index), count)
        images = verify._map_rows(map_, rows)
        # (k, count) row indices: sample s is rows (s mod L) + o for o in
        # group s // L of the layout, L = ceil(count / groups)
        span = -(-count // len(layout))
        at = np.array([np.add(layout[s // span], s % span) for s in range(count)]).T
        rows, images = rows[at], images[at]
        gaps = gap(rows, images)
        i = int(np.argmax(gaps))
        if gaps[i] > worst[0]:
            worst = (gaps[i], rows[:, i], images[:, i])
        for group, first in enumerate(range(0, count, span)):
            i = first + int(np.argmax(gaps[first : first + span]))
            if gaps[i] > groups.get(group, (-np.inf,))[0]:
                groups[group] = (gaps[i], rows[:, i], images[:, i])
    return worst, groups


def _winner_bytes(found):
    """The bytes of _search's overall winner and of each group's, by group."""
    worst, groups = found
    return [np.asarray(a).tobytes() for w in (worst, *groups.values()) for a in w], list(groups)


def _isometry_gap(rows, images):
    return abs(_row_distances(*images) - _row_distances(*rows))


def _overlap_mass_gap(rows, images):
    # the inclusion gap's kernel: each pair's first input row against 3
    # fixed states (input rows, as they are complex where both maps' images
    # are real)
    targets = _sample_state_rows(np.random.default_rng(3), 3, rows[0].shape[1])
    return np.sum(_pairwise_transition_probabilities(rows[0], targets), axis=1)


def _recorded(gap, gaps, calls):
    """gap, also recording in gaps the bytes of every sample's gap, keyed by
    the bytes of the sample's input rows, and appending to calls the number
    of samples of each call."""

    def recorded(rows, images):
        out = gap(rows, images)
        calls.append(len(out))
        gaps.update(zip((r.tobytes() for r in np.stack(list(rows), axis=1)), (g.tobytes() for g in out)))
        return out

    return recorded


# 129 samples are one group of 129 as adjacent rows or two blocks, one
# sample more than the 128 rows of a map batch of the 128-wide map; in
# groups of offsets 1 to 4 they are three groups of 33 samples and one of
# 30, and 1 sample is one group of one.  The others end just before, at
# and after a chunk's end, and one sample into a fourth chunk
@pytest.mark.parametrize(
    "n_samples", [1, 129, *(verify.CHUNK_SIZE + k for k in (-1, 0, 1)), 3 * verify.CHUNK_SIZE + 1]
)
@pytest.mark.parametrize(
    "build, dim",
    [(_wide_separable_embed, 8), (lambda: entrywise_abs(4), 4)],
    ids=["separable_embed dim8/64", "entrywise_abs dim4"],
)
def test_the_reused_image_block_never_reaches_a_result(build, dim, n_samples):
    # every chunk maps into one block, a short last chunk into its prefix;
    # at the seed given with each pair layout the winner of 3 * CHUNK_SIZE
    # + 1 samples of the wide map is in the first of four chunks, whose
    # images the later chunks overwrite in the block, under both gaps: seed
    # 5 for each of ceil(count / 4) rows with its next four, as the
    # metric and collision scans pair their draws, and seed 12 for adjacent
    # rows of count + 1 and for two blocks of count, as the orthogonal
    # pairs.  Each map's gaps are measured by one gap call per nonempty
    # offset group of each chunk, however wide its images (CHUNK_SIZE + 1
    # samples in groups of offsets 1 to 4 are four groups of 512 and one
    # of 1: 5 calls), and no gap may differ from one gap call on copies
    # of the whole chunk's rows
    map_ = build()
    layouts = (
        (lambda rng, count: (
            _sample_state_rows(rng, -(-count // 4) + 4, dim), ((0, 1), (0, 2), (0, 3), (0, 4))
        ), 5),
        (lambda rng, count: (_sample_state_rows(rng, count + 1, dim), ((0, 1),)), 12),
        (lambda rng, count: (_sample_state_rows(rng, 2 * count, dim), ((0, count),)), 12),
    )
    for (sample, seed), gap in ((s, g) for s in layouts for g in (_isometry_gap, _overlap_mass_gap)):
        got_gaps, want_gaps, got_calls = {}, {}, []
        *got, compared = _search(
            map_, n_samples, seed, sample, _recorded(gap, got_gaps, got_calls), None
        )
        want = _fresh_search(map_, n_samples, seed, sample, _recorded(gap, want_gaps, []))
        # the overall winner and every group's, in group order
        assert _winner_bytes(got) == _winner_bytes(want)
        assert compared == n_samples
        # every sample's gap, not only the winner's, is the whole-chunk gap bit
        # for bit, and no other pair is measured
        assert len(want_gaps) == n_samples
        assert got_gaps == want_gaps
        # one call per nonempty offset group of each chunk, on the whole group
        n_groups = len(sample(np.random.default_rng(0), 1)[1])
        groups = []
        for index in range(-(-n_samples // verify.CHUNK_SIZE)):
            count = min(verify.CHUNK_SIZE, n_samples - index * verify.CHUNK_SIZE)
            span = -(-count // n_groups)
            groups += [min(span, count - first) for first in range(0, count, span)]
        assert got_calls == groups


def test_the_earliest_of_equal_gaps_wins():
    # every sample ties: the winner is sample 0 of chunk 0, not the first
    # sample of a later chunk (three full chunks and one more sample), and
    # it is the one group's winner
    def sample(rng, count):
        return _sample_state_rows(rng, count + 1, 3), ((0, 1),)

    (worst, rows, _), groups, _ = _search(
        entrywise_abs(3), 3 * verify.CHUNK_SIZE + 1, 5, sample,
        lambda rows, images: np.zeros(len(rows[0])), None,
    )
    assert worst == 0.0
    assert rows.tobytes() == sample(_chunk_rng(5, 0), verify.CHUNK_SIZE)[0][:2].tobytes()
    assert list(groups) == [0] and groups[0][1].tobytes() == rows.tobytes()

    # groups 1 and 2 of one chunk tie above group 0: the winner is group 1's
    # first sample, rows 0 and 2, not group 2's, and each group's winner is
    # its own first sample: rows [0, 1], [0, 2] and [0, 3]
    def three_groups(rng, count):
        return _sample_state_rows(rng, -(-count // 3) + 3, 3), ((0, 1), (0, 2), (0, 3))

    calls = itertools.count()
    (worst, rows, _), groups, _ = _search(
        entrywise_abs(3), 30, 5, three_groups,
        lambda rows, images: np.full(len(rows[0]), float(next(calls) > 0)), None,
    )
    drawn = three_groups(_chunk_rng(5, 0), 30)[0]
    assert worst == 1.0
    assert rows.tobytes() == drawn[[0, 2]].tobytes()
    assert [(g, w[0], w[1].tobytes()) for g, w in groups.items()] == [
        (0, 0.0, drawn[[0, 1]].tobytes()), (1, 1.0, drawn[[0, 2]].tobytes()),
        (2, 1.0, drawn[[0, 3]].tobytes()),
    ]

    # group 1 of chunk 0 ties group 0 of chunk 1 above every other gap: the
    # overall winner is chunk 0's sample, while group 0's winner is chunk 1's
    def two_groups(rng, count):
        return _sample_state_rows(rng, -(-count // 2) + 2, 3), ((0, 1), (0, 2))

    calls = itertools.count()
    (worst, rows, _), groups, _ = _search(
        entrywise_abs(3), 2 * verify.CHUNK_SIZE, 5, two_groups,
        lambda rows, images: np.full(len(rows[0]), float(next(calls) in (1, 2))), None,
    )
    first, second = (two_groups(_chunk_rng(5, i), verify.CHUNK_SIZE)[0] for i in (0, 1))
    assert worst == 1.0
    assert rows.tobytes() == first[[0, 2]].tobytes()
    assert groups[0][1].tobytes() == second[[0, 1]].tobytes()
    assert groups[1][1].tobytes() == first[[0, 2]].tobytes()


def _rotated_block_embed(dim: int) -> StateMap:
    """x -> U block_embed(x), U a fixed unitary of dimension 2 dim."""
    embed, u = block_embed(dim), random_unitary(2 * dim, 7)
    return StateMap("custom", dim, 2 * dim, lambda rows: maps._apply(u, embed.fn(rows)))


def test_an_inclusion_witness_gap_is_one_minus_its_own_d_out():
    # a state of the span of e_0 and e_1 with first weight above 1/2 lands
    # in the other block, where only e_0's image covers it.  The search
    # measures the gap of a block of samples, the report the witness's
    # d_out alone, and the two kernels must agree bit for bit
    for dim in range(2, 6):
        map_ = _rotated_block_embed(dim)
        pre = OrthoSystem((basis_state(dim, 0), basis_state(dim, 1)))
        for seed in range(20):
            report = check_inclusion_lemma(map_, pre, 1000, seed=seed)
            w = report.witness
            assert w is not None and w.gap == report.worst_gap == 1.0 - w.d_out, (dim, seed)


def test_a_witness_from_the_first_of_several_chunks_keeps_its_images():
    map_ = _wide_separable_embed()
    # at seed 5 (the first seed from 0 on) the winner of three full chunks
    # and one more pair is in the first of the four chunks
    report = check_isometry(map_, 8, 3 * verify.CHUNK_SIZE + 1, refine_steps=0, seed=5)
    first_chunk = check_isometry(map_, 8, verify.CHUNK_SIZE, refine_steps=0, seed=5)
    assert report.worst_gap == first_chunk.worst_gap
    w = report.witness
    assert w.d_out == distance(map_(w.P), map_(w.Q))


def _nearest_basis_state_map(dim: int) -> StateMap:
    """P -> the basis projection of P's largest weight, as a float64 image
    and as a complex one (i times it) on alternate calls of fn.

    Both forms canonicalize to the same bits, so a state's image does not
    depend on the call that mapped it.
    """
    calls = []

    def fn(rows):
        calls.append(len(rows))
        images = np.eye(dim)[np.abs(rows).argmax(axis=1)]
        return images if len(calls) % 2 else 1j * images

    return StateMap("custom", dim, dim, fn)


# 100 pairs are one real map batch, so refinement starts from real images
# and meets complex candidates; a full chunk and 100 more pairs promote the
# search's block
@pytest.mark.parametrize("n_samples", [100, verify.CHUNK_SIZE + 100])
def test_real_and_complex_image_batches_mix_without_a_complex_warning(monkeypatch, n_samples):
    # 600-row map batches, real and complex in turn: the metric scan's first
    # chunk of 516 rows is one real batch and the short chunk after it a
    # complex one, so a real image block is promoted across chunks, and a
    # 4096-row orthogonal chunk is promoted within itself; refinement's
    # candidates alternate too
    monkeypatch.setattr(verify, "MAP_ENTRIES", 3 * 600)
    map_ = _nearest_basis_state_map(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ComplexWarning would drop an imaginary part
        report = check_nonexpansive(map_, 3, n_samples, refine_steps=20, seed=1)
        ortho = check_orthogonality_preserving(map_, 3, n_samples, seed=1)
        collision = check_injective(map_, 3, n_samples, refine_steps=20, seed=1)
    w = report.witness
    assert w is not None and w.d_out == distance(map_(w.P), map_(w.Q))
    assert ortho.witness is not None and ortho.worst_gap == 1.0
    w = collision.witness
    assert w is not None and w.d_in >= 0.5 and w.d_out == 0.0

