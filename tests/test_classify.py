"""Constructive classification: probes, pair maps, branches, round trips.

The package probes every coordinate pair of a map in one batch.  The
oracles probe_state, extract_pair_map and induced_homomorphism below
restate the paper's construction one state at a time (a pure_state
probe, one map call per phase, scalar circle-map products), and the
batched path must agree with them.
"""

from __future__ import annotations

import cmath
import copy
import importlib
import json
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerlab import (
    ENTRYWISE_ABS,
    NOT_CLASSIFIED,
    STANDARD_DIM2,
    WIGNER_ANTIUNITARY,
    WIGNER_UNITARY,
    NOT_APPLICABLE,
    OrthoSystem,
    ProbeError,
    basis_state,
    block_embed,
    classify,
    classify_homomorphism,
    composed_phi_form,
    conjugate_rotation,
    constant,
    constant_map,
    entrywise_abs,
    fold,
    opaque_map,
    power,
    PROBE_GRID,
    proper_subspace_map,
    pure_state,
    random_unitary,
    reduce_to_canonical,
    rotation,
    sample_pure_state,
    sampled,
    standard_map,
    transition_probability,
    wigner_map,
)
from wignerlab.acceptance import CLAIMS
from wignerlab.classify import (
    _BRANCH_OF_HOM,
    _REFUSALS,
    CANONICAL_TOL,
    VALIDATION_STATES,
    _classify_branch,
    classify_canonical,
    classify_dim2,
    _lift_grid,
    _pair_values,
    _probe_rows,
    _probe_table,
    _validation_rows,
)
from wignerlab.circle import _phases, _sampled_table
from wignerlab.maps import StateMap
from wignerlab.states import ORTHO_TOL, _basis_system


def probe_state(u: complex, i: int, j: int, dim: int):
    """The balanced superposition of coordinates i and j with relative phase u."""
    vec = np.zeros(dim, dtype=complex)
    vec[i], vec[j] = 1.0, np.conj(u)
    return pure_state(vec)


def extract_pair_map(map_, i: int, j: int, grid):
    """The phase action of map_ on the pair (i, j), one map call per state.

    map_ must fix every basis projection; then the image of each probe
    must be balanced on {i, j}, and its scaled (i, j) matrix entry is
    the value at the probe's phase.  A moved basis projection is a
    ValueError; a failing probe raises the package's coded ProbeError
    for the first failure.
    """
    dim = map_.dim_in
    for k in range(dim):
        e_k = basis_state(dim, k)
        if transition_probability(map_(e_k), e_k) < 1.0 - CANONICAL_TOL:
            raise ValueError(f"map does not fix basis projection {k} within {CANONICAL_TOL}")
    images = np.array([map_(probe_state(u, i, j, dim)).vec for u in grid])
    out_i, out_j = images[:, i], images[:, j]
    # numpy's complex arithmetic, not Python's, which rounds differently
    values = 2.0 * out_i * out_j.conj()
    for w_i, w_j, size in zip(np.abs(out_i) ** 2, np.abs(out_j) ** 2, np.abs(values)):
        if abs(w_i - 0.5) > CANONICAL_TOL or abs(w_j - 0.5) > CANONICAL_TOL:
            raise ProbeError("probe_unbalanced", i=i, j=j)
        if abs(size - 1.0) > CANONICAL_TOL:
            raise ProbeError("probe_off_block", i=i, j=j)
    return sampled(zip(grid, values / np.abs(values)))


def induced_homomorphism(f_1j, f_1k, f_jk):
    """The circle map z -> conj(f_1k(1)) f_1j(1) f_jk(z) on f_jk's inputs,
    renormalized to the circle, by scalar calls."""
    c = f_1k(1.0 + 0j).conjugate() * f_1j(1.0 + 0j)
    values = [c * f_jk(z) for z in f_jk.inputs.tolist()]
    return sampled((z, w / abs(w)) for z, w in zip(f_jk.inputs.tolist(), values))


def test_probe_state_examples():
    t_1 = probe_state(1.0 + 0j, 0, 1, 2)
    assert np.allclose(t_1.projector(), 0.5 * np.ones((2, 2)))
    t_i = probe_state(1j, 0, 1, 2)
    assert np.allclose(t_i.projector(), [[0.5, 0.5j], [-0.5j, 0.5]])
    wide = probe_state(1.0 + 0j, 0, 2, 3)
    assert transition_probability(wide, basis_state(3, 0)) == pytest.approx(0.5)
    assert transition_probability(wide, basis_state(3, 1)) == 0.0


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 8), n=st.integers(1, 20))
def test_probe_rows_are_the_per_state_probes_bit_for_bit(seed, dim, n):
    rng = np.random.default_rng(seed)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=n))
    i, j = np.array([rng.choice(dim, size=2, replace=False) for _ in range(n)]).T
    expected = [probe_state(z, a, b, dim).vec for z, a, b in zip(phases, i, j)]
    assert _probe_rows(phases, i, j, dim).tobytes() == np.array(expected).tobytes()


def test_probe_grid_shape():
    assert len(PROBE_GRID) == 17
    # the branch test reads entry 4 as i and entry 8 as -1
    assert abs(PROBE_GRID[4] - 1j) < 1e-12
    assert abs(PROBE_GRID[8] + 1.0) < 1e-12


def test_pair_map_of_identity_is_identity():
    f = extract_pair_map(wigner_map(np.eye(3)), 0, 1, PROBE_GRID)
    for z in PROBE_GRID:
        assert abs(f(z) - z) <= 1e-12


def test_pair_map_of_abs_map_is_constant_one():
    f = extract_pair_map(entrywise_abs(3), 0, 2, PROBE_GRID)
    for z in PROBE_GRID:
        assert abs(f(z) - 1.0) <= 1e-12


def test_pair_map_of_diagonal_conjugation_is_a_rotation():
    theta = 0.9
    u = np.diag([1.0, np.exp(1j * theta)]).astype(complex)
    f = extract_pair_map(wigner_map(u), 0, 1, PROBE_GRID)
    for z in PROBE_GRID:
        assert abs(f(z) - np.exp(-1j * theta) * z) <= 1e-12


def test_pair_map_rejects_non_canonical_maps():
    with pytest.raises(ValueError, match="basis projection"):
        extract_pair_map(wigner_map(random_unitary(3, 40)), 0, 1, PROBE_GRID)


def test_pair_map_checks_every_basis_projection():
    # the (0, 1) block is fixed, but e_2 and e_3 trade places
    swap = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    with pytest.raises(ValueError, match="basis projection 2"):
        extract_pair_map(wigner_map(swap), 0, 1, PROBE_GRID)


def test_induced_homomorphism_examples():
    grid = PROBE_GRID
    ident = extract_pair_map(wigner_map(np.eye(3)), 0, 1, grid)
    g = induced_homomorphism(ident, ident, ident)
    assert all(abs(g(z) - z) <= 1e-12 for z in grid)

    ones = extract_pair_map(entrywise_abs(3), 0, 1, grid)
    g = induced_homomorphism(ones, ones, ones)
    assert all(abs(g(z) - 1.0) <= 1e-12 for z in grid)


def test_induced_homomorphism_cancels_diagonal_phases():
    # conjugation by diag(1, a, b): the induced combination must be z -> z
    a, b = cmath.exp(0.7j), cmath.exp(-1.2j)
    u = np.diag([1.0, a, b]).astype(complex)
    phi = wigner_map(u)
    grid = PROBE_GRID
    f01 = extract_pair_map(phi, 0, 1, grid)
    f02 = extract_pair_map(phi, 0, 2, grid)
    f12 = extract_pair_map(phi, 1, 2, grid)
    # closed forms first: f01(z) = conj(a) z, f02(z) = conj(b) z, f12 = a conj(b) z
    assert abs(f01(1.0 + 0j) - a.conjugate()) <= 1e-12
    assert abs(f02(1.0 + 0j) - b.conjugate()) <= 1e-12
    assert abs(f12(1.0 + 0j) - a * b.conjugate()) <= 1e-12
    g = induced_homomorphism(f01, f02, f12)
    assert all(abs(g(z) - z) <= 1e-12 for z in grid)


@pytest.mark.parametrize(
    "make_map",
    [
        lambda u: wigner_map(u),
        lambda u: wigner_map(u, antiunitary=True),
        lambda u: composed_phi_form(np.eye(3, dtype=complex), u),
    ],
)
def test_pair_maps_satisfy_the_coherence_relation(make_map):
    # f01(z) * f12(conj(z) * w) == f02(w) on every canonical branch
    u = np.diag([1.0, cmath.exp(0.4j), cmath.exp(1.9j)]).astype(complex)
    phi = make_map(u)
    grid = PROBE_GRID
    f01 = extract_pair_map(phi, 0, 1, grid)
    f02 = extract_pair_map(phi, 0, 2, grid)
    f12 = extract_pair_map(phi, 1, 2, grid)
    roots = [cmath.exp(2j * math.pi * k / 16) for k in range(16)]
    for z in roots[::3]:
        for w in roots[::5]:
            assert abs(f01(z) * f12(z.conjugate() * w) - f02(w)) <= 1e-7


def test_canonical_classification_identity():
    res = classify(wigner_map(np.eye(3)), 3)
    assert res.branch == WIGNER_UNITARY
    assert np.allclose(res.U, np.eye(3))
    assert res.residual <= 1e-10


def test_canonical_classification_antiunitary_diagonal():
    u = np.diag([1.0, 1j, -1.0]).astype(complex)
    res = classify(wigner_map(u, antiunitary=True), 3)
    assert res.branch == WIGNER_ANTIUNITARY
    assert np.max(np.abs(res.diag_u - u)) <= 1e-8
    assert res.residual <= 1e-8


def test_canonical_classification_abs_map():
    res = classify(entrywise_abs(3), 3)
    assert res.branch == ENTRYWISE_ABS
    assert np.allclose(res.U, np.eye(3))


def test_canonical_diag_gauge_is_exact():
    u = np.diag([1.0, cmath.exp(2.1j), cmath.exp(-0.8j), 1j]).astype(complex)
    res = classify(wigner_map(u), 4)
    assert res.diag_u[0, 0] == 1.0
    assert np.allclose(res.diag_u, np.diag(np.diagonal(res.diag_u)))
    assert np.max(np.abs(res.diag_u - u)) <= 1e-8


def test_a_classification_maps_the_basis_once():
    basis = [basis_state(4, k).vec for k in range(4)]
    hits = [0] * 4
    ident = wigner_map(np.eye(4))

    def counted(s):
        for k, e_k in enumerate(basis):
            hits[k] += np.array_equal(s.vec, e_k)
        return ident(s)

    res = classify(opaque_map(counted, 4, 4), 4)
    assert res.branch == WIGNER_UNITARY
    assert hits == [1, 1, 1, 1]


@pytest.mark.parametrize(
    "classify_one, dim",
    [
        (lambda m: classify(m, 4), 4),
        (lambda m: classify_canonical(m, 4), 4),
        (lambda m: classify(m, 2), 2),
        (classify_dim2, 2),
    ],
    ids=["classify-dim4", "canonical-dim4", "classify-dim2", "dim2"],
)
def test_a_classification_maps_the_basis_the_probes_and_the_validation_states(classify_one, dim):
    # the basis in one call, every pair probe in a second, the validation
    # states (dimension 2: the lift's weight/phase grid) in a third
    calls = []
    opaque = opaque_map(wigner_map(np.eye(dim)), dim, dim)

    def counted(rows):
        calls.append(len(rows))
        return opaque.fn(rows)

    res = classify_one(replace(opaque, fn=counted))
    assert res.classified
    n_pairs = dim * (dim - 1) // 2
    checked = VALIDATION_STATES if dim > 2 else len(_lift_grid())
    assert calls == [dim, n_pairs * len(PROBE_GRID), checked]


def test_entrywise_phase_fold_is_not_classified():
    # fixes every basis projection yet folds phases non-multiplicatively
    def phase_fold(s):
        out = np.abs(s.vec) * np.exp(1j * np.abs(np.angle(s.vec)))
        return pure_state(out)

    res = classify(opaque_map(phase_fold, 3, 3), 3)
    assert res.branch == NOT_CLASSIFIED
    assert res.reason


def test_dim2_classification_examples():
    res = classify(wigner_map(np.eye(2)), 2)
    assert res.branch == STANDARD_DIM2
    assert res.g_form.kind == "rotation" and abs(res.g_form.c - 1.0) <= 1e-9

    res = classify(standard_map(fold()), 2)
    assert res.branch == STANDARD_DIM2
    assert res.g_form.kind == "half_circle"
    assert res.g_form.spread == pytest.approx(math.pi, abs=1e-9)


def test_dim2_diagonal_conjugation_recovers_the_rotation():
    u = np.diag([1.0, cmath.exp(1j * math.pi / 3)]).astype(complex)
    res = classify(wigner_map(u), 2)
    assert res.branch == STANDARD_DIM2
    assert res.g_form.kind == "rotation"
    assert abs(res.g_form.c - cmath.exp(-1j * math.pi / 3)) <= 1e-9


def test_dim2_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        classify_dim2(entrywise_abs(3))
    with pytest.raises(ValueError):
        classify_dim2(block_embed(2))


def test_the_bench_stage_names_are_classify():
    assert classify_canonical is classify
    map_ = standard_map(fold())
    assert classify_dim2(map_).to_json() == classify(map_, 2).to_json()


@pytest.mark.parametrize("dim", range(2, 7))
def test_a_wigner_symmetry_that_moves_the_basis_is_classified(dim):
    # the reversal e_k -> e_(d-1-k) carries the basis onto itself, permuted
    res = classify(StateMap("custom", dim, dim, lambda rows: rows[:, ::-1]), dim)
    assert res.branch == (STANDARD_DIM2 if dim == 2 else WIGNER_UNITARY), res.reason


def test_reduction_produces_a_basis_fixing_map():
    w = random_unitary(3, 42)
    phi = wigner_map(w)
    basis = OrthoSystem(tuple(basis_state(3, k) for k in range(3)))
    u, v, canonical = reduce_to_canonical(phi, basis)
    for k in range(3):
        e_k = basis_state(3, k)
        assert transition_probability(canonical(e_k), e_k) >= 1.0 - 1e-10
    assert np.allclose(u, np.eye(3))
    # sandwich identity: phi(P) = V canonical(U P U*) V*
    s = sample_pure_state(np.random.default_rng(43), 3)
    lifted = pure_state(v @ canonical(s).vec)
    assert lifted == phi(s)


def test_reduction_handles_rotated_preimages_for_composed_forms():
    pre = random_unitary(4, 44)
    post = random_unitary(4, 45)
    phi = composed_phi_form(pre, post)
    hint = OrthoSystem(tuple(pure_state(pre.conj().T[:, j]) for j in range(4)))
    _, _, canonical = reduce_to_canonical(phi, hint)
    for k in range(4):
        e_k = basis_state(4, k)
        assert transition_probability(canonical(e_k), e_k) >= 1.0 - 1e-10


def test_reduction_validates_its_preimages():
    phi = wigner_map(np.eye(3))
    with pytest.raises(ValueError):
        reduce_to_canonical(phi, OrthoSystem((basis_state(3, 0),)))  # incomplete


def _fresh_states(dim, seed, count=100):
    rng = np.random.default_rng(seed)
    return [sample_pure_state(rng, dim) for _ in range(count)]


def test_full_classification_wigner_unitary():
    w = random_unitary(3, 46)
    phi = wigner_map(w)
    res = classify(phi, 3)
    assert res.branch == WIGNER_UNITARY
    assert res.residual <= 1e-8
    for s in _fresh_states(3, 47):
        assert transition_probability(res.model(s), phi(s)) >= 1.0 - 1e-9


def test_full_classification_wigner_antiunitary():
    w = random_unitary(4, 48)
    phi = wigner_map(w, antiunitary=True)
    res = classify(phi, 4)
    assert res.branch == WIGNER_ANTIUNITARY
    assert res.residual <= 1e-8
    for s in _fresh_states(4, 49):
        assert transition_probability(res.model(s), phi(s)) >= 1.0 - 1e-9


def test_full_classification_composed_abs_form_with_hint():
    pre = random_unitary(3, 50)
    post = random_unitary(3, 51)
    phi = composed_phi_form(pre, post)
    hint = OrthoSystem(tuple(pure_state(pre.conj().T[:, j]) for j in range(3)))
    res = classify(phi, 3, preimage_hint=hint)
    assert res.branch == ENTRYWISE_ABS
    assert res.residual <= 1e-8
    for s in _fresh_states(3, 52):
        assert transition_probability(res.model(s), phi(s)) >= 1.0 - 1e-9


def test_full_classification_dim2_goes_through_the_phase_map():
    w = random_unitary(2, 53)
    phi = wigner_map(w)
    res = classify(phi, 2)
    assert res.branch == STANDARD_DIM2
    assert res.g_form.kind == "rotation"
    assert res.residual <= 1e-8
    for s in _fresh_states(2, 54):
        assert transition_probability(res.model(s), phi(s)) >= 1.0 - 1e-9


def test_classification_without_a_cosp_gives_a_reason():
    collapse = opaque_map(lambda s: basis_state(3, 0), 3, 3)
    res = classify(collapse, 3)
    assert res.branch == NOT_CLASSIFIED
    assert not res.classified
    assert "COSP" in res.reason


def _counted(map_, calls):
    """map_ with a fn that appends its batch's row count to calls."""
    return replace(map_, fn=lambda rows: calls.append(len(rows)) or map_.fn(rows))


@pytest.mark.parametrize(
    "make_map, dim, branch, batches",
    [
        (lambda: wigner_map(random_unitary(4, 57)), 4, WIGNER_UNITARY, 3),
        (lambda: entrywise_abs(5), 5, ENTRYWISE_ABS, 3),
        (lambda: standard_map(fold()), 2, STANDARD_DIM2, 3),
        (lambda: proper_subspace_map(5, 3), 5, NOT_CLASSIFIED, 1),
        (lambda: constant_map(4), 4, NOT_CLASSIFIED, 1),
    ],
    ids=["wigner", "phi", "tau-fold", "proper-subspace", "constant"],
)
def test_classification_maps_the_black_box_once_per_stage(make_map, dim, branch, batches):
    # the basis once, one probe batch, the validation states; a basis
    # whose image is not a COSP ends the run after its one batch
    calls = []
    res = classify(_counted(make_map(), calls), dim)
    assert res.branch == branch
    assert len(calls) == batches
    assert calls[0] == dim
    if not res.classified:
        assert res.reason == "COSP-image hypothesis unverified"


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_a_map_broken_at_a_basis_state_is_not_classified(dim):
    # a Wigner symmetry whose cap of radius 0.05 around e_0 collapses onto
    # the image of e_1: F(e_0) = F(e_1), so the basis image is not a COSP,
    # although F agrees with the symmetry on every frame that misses the cap
    u = random_unitary(dim, 90 + dim)

    def fn(rows):
        images = rows @ u.T
        images[np.abs(rows[:, 0]) ** 2 > 1.0 - 0.05**2] = u[:, 1]
        return images

    res = classify(StateMap("dented", dim, dim, fn), dim)
    assert res.branch == NOT_CLASSIFIED
    assert res.reason == "COSP-image hypothesis unverified"


def test_reduction_reports_an_invalid_image_as_itself():
    nan_map = StateMap("nan", 3, 3, lambda rows: np.full(rows.shape, np.nan))
    basis = OrthoSystem(tuple(basis_state(3, k) for k in range(3)))
    with pytest.raises(ValueError, match="^cannot build a state from a non-finite vector"):
        reduce_to_canonical(nan_map, basis)


def test_a_refuted_hint_is_a_result_and_only_malformed_input_raises():
    # a hint whose image is not a COSP refutes the hypothesis as the basis
    # does: cosp_not_found, for the collapse onto e_0 and for a composed
    # form given a Haar frame in place of its own
    collapse = opaque_map(lambda s: basis_state(3, 0), 3, 3)
    basis = OrthoSystem(tuple(basis_state(3, k) for k in range(3)))
    haar = OrthoSystem(tuple(map(pure_state, random_unitary(4, 87))))
    composed = composed_phi_form(random_unitary(4, 88), random_unitary(4, 89))
    for map_, hint in ((collapse, basis), (composed, haar)):
        res = classify(map_, map_.dim_in, preimage_hint=hint)
        assert (res.branch, res.reason_code) == (NOT_CLASSIFIED, "cosp_not_found")
        assert res.reason == _REFUSALS["cosp_not_found"]
    # the reduction raises the coded refusal, caused by the pair that overlaps
    with pytest.raises(ProbeError) as err:
        reduce_to_canonical(collapse, basis)
    assert err.value.code == "cosp_not_found"
    assert str(err.value.__cause__) == f"members 0 and 1 are not orthogonal within {ORTHO_TOL}"
    # malformed input is a ValueError, never a refusal
    nan_map = StateMap("nan", 3, 3, lambda rows: np.full(rows.shape, np.nan))
    for map_, dim, hint in (
        (block_embed(2), 2, None),  # not an endomap
        (wigner_map(np.eye(3)), 3, OrthoSystem((basis_state(3, 0),))),  # incomplete hint
        (nan_map, 3, None),  # non-finite image
    ):
        with pytest.raises(ValueError) as err:
            classify(map_, dim, preimage_hint=hint)
        assert not isinstance(err.value, ProbeError)


def test_a_refusal_survives_pickle_and_copy():
    refusal = ProbeError("residual_exceeded", what="model", residual=3e-6, tol=1e-8)
    for twin in (pickle.loads(pickle.dumps(refusal)), copy.copy(refusal)):
        assert type(twin) is ProbeError
        assert (twin.code, str(twin)) == (refusal.code, str(refusal))


def test_classification_result_json_shape():
    res = classify(wigner_map(random_unitary(3, 55)), 3)
    obj = res.to_json()
    assert obj["branch"] == WIGNER_UNITARY
    assert obj["residual"] <= 1e-8
    assert len(obj["U"]) == 9 and len(obj["V"]) == 9
    assert obj["reason"] is None

    res2 = classify(standard_map(fold()), 2)
    obj2 = res2.to_json()
    assert obj2["g_class"]["kind"] == "half_circle"
    assert len(obj2["g"]) == 17


def test_classify_validates_dimensions():
    with pytest.raises(ValueError):
        classify(entrywise_abs(3), 4)


def _broken_pairs_map(dim: int) -> StateMap:
    """Fixes every basis projection; breaks the probes of pairs (0, 2) and (1, 2).

    On pair (0, 2) the probes with Im u > 0.6 (grid phases 2..6) leak
    1.8e-8 of weight to coordinate 3, which keeps them balanced within
    1e-8 but shrinks the pair entry (off-block weight); those with
    Im u < -0.6 are unbalanced 0.6 / 0.4.  Every probe of pair (1, 2) is
    unbalanced.
    """

    def fn(rows):
        out = rows.copy()
        support = np.abs(rows) > 1e-12
        on = lambda i, j: support[:, i] & support[:, j] & (support.sum(axis=1) == 2)
        # a probe row of (i, j) at phase u is gauge-fixed to (1, conj(u)) / sqrt(2)
        u_imag = -np.sqrt(2.0) * rows[:, 2].imag
        leak = on(0, 2) & (u_imag > 0.6)
        out[leak, 0] *= np.sqrt(1.0 - 1.8e-8)
        out[leak, 2] *= np.sqrt(1.0 - 1.8e-8)
        out[leak, 3] = np.sqrt(1.8e-8)
        tilt = (on(0, 2) & (u_imag < -0.6)) | on(1, 2)
        first = np.where(on(0, 2), 0, 1)[tilt]
        out[tilt, first] *= np.sqrt(1.2)
        out[tilt, 2] *= np.sqrt(0.8)
        return out

    return StateMap("broken_pairs", dim, dim, fn)


def test_probe_errors_name_the_first_failing_pair_and_phase():
    # all probes go in one batch, yet the error is the one of the first
    # failing (pair, phase) in pair order: (0, 2) at phase 2, off-block
    broken = _broken_pairs_map(4)
    grid = PROBE_GRID
    res = classify(broken, 4)
    assert res.branch == NOT_CLASSIFIED
    assert res.reason == "probe image of pair (0, 2) has off-block weight"
    for (i, j), reason in (
        ((0, 2), "probe image of pair (0, 2) has off-block weight"),
        ((1, 2), "probe image of pair (1, 2) is not balanced on the pair"),
    ):
        with pytest.raises(ProbeError) as err:
            extract_pair_map(broken, i, j, grid)
        assert str(err.value) == reason
    assert extract_pair_map(broken, 0, 1, grid).table is not None


@pytest.mark.parametrize(
    "make_map",
    [
        lambda: wigner_map(np.eye(5)),
        lambda: entrywise_abs(5),
        lambda: reduce_to_canonical(
            wigner_map(random_unitary(5, 56)),
            OrthoSystem(tuple(basis_state(5, k) for k in range(5))),
        )[2],
    ],
    ids=["identity", "phi", "canonical-wigner"],
)
def test_extract_pair_map_matches_the_all_pairs_batch(make_map):
    # a pair map does not depend on the batch its probes were mapped in;
    # the batch probes every pair of the dimension, in row-major order
    map_ = make_map()
    grid = PROBE_GRID
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    angles = _phases(grid)  # as sampled() records them
    for (i, j), row in zip(pairs, _pair_values(map_), strict=True):
        assert extract_pair_map(map_, i, j, grid).table == _sampled_table(angles, row).table


def _hinted(make_map, dim):
    """A map of one branch and a preimage COSP whose image is a COSP."""
    map_, pre = make_map(dim)
    return map_, OrthoSystem(tuple(pure_state(pre.conj().T[:, j]) for j in range(dim)))


BRANCH_CASES = {
    "wigner": lambda d: (wigner_map(random_unitary(d, 81)), np.eye(d)),
    "antiunitary": lambda d: (wigner_map(random_unitary(d, 82), antiunitary=True), np.eye(d)),
    "composed": lambda d: (
        composed_phi_form(random_unitary(d, 83), random_unitary(d, 84)), random_unitary(d, 83)
    ),
    "phi": lambda d: (entrywise_abs(d), np.eye(d)),
}


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
@pytest.mark.parametrize("kind", sorted(BRANCH_CASES))
def test_branch_decision_matches_the_induced_homomorphism_path(kind, dim):
    # the probe-array decision against one sampled pair map per pair and
    # one induced circle map per triple
    map_, hint = _hinted(BRANCH_CASES[kind], dim)
    u, v, canonical = reduce_to_canonical(map_, hint)
    res = _classify_branch(map_, canonical, u, v)
    grid = PROBE_GRID
    f = {
        (i, j): extract_pair_map(canonical, i, j, grid)
        for i in range(dim)
        for j in range(i + 1, dim)
    }
    homs = {
        classify_homomorphism(induced_homomorphism(f[0, j], f[0, k], f[j, k]))
        for j in range(1, dim)
        for k in range(j + 1, dim)
    }
    assert len(homs) == 1
    assert res.branch == _BRANCH_OF_HOM[homs.pop()]
    diag = np.diag([1.0 + 0j] + [f[0, j](1.0 + 0j).conjugate() for j in range(1, dim)])
    assert np.array_equal(res.diag_u, diag)


def test_a_non_multiplicative_canonical_map_keeps_its_reason():
    # squares every amplitude's phase: fixes the basis, keeps probes
    # balanced, and every induced circle map is z -> z**2
    square = StateMap("phase_square", 4, 4, lambda rows: rows**2 / np.maximum(np.abs(rows), 1e-300))
    grid = PROBE_GRID
    f = {(i, j): extract_pair_map(square, i, j, grid) for i in range(3) for j in range(i + 1, 3)}
    hom = induced_homomorphism(f[0, 1], f[0, 2], f[1, 2])
    assert classify_homomorphism(hom) == NOT_APPLICABLE
    res = classify(square, 4)
    assert res.branch == NOT_CLASSIFIED
    assert res.reason == "an induced circle map is not multiplicative"


def test_validation_rows_are_drawn_once_per_dimension_and_read_only(monkeypatch):
    rows = _validation_rows(4)
    assert _validation_rows(4) is rows
    assert np.array_equal(rows, _validation_rows.__wrapped__(4))
    with pytest.raises(ValueError):
        rows[0, 0] = 1.0
    # the same reports as with rows drawn afresh on every classification
    maps = [wigner_map(random_unitary(4, 85)), entrywise_abs(4), wigner_map(random_unitary(3, 86), True)]
    cached = [classify(m, m.dim_in).to_json() for m in maps]
    module = importlib.import_module("wignerlab.classify")  # the name classify is the function
    monkeypatch.setattr(module, "_validation_rows", _validation_rows.__wrapped__)
    assert [classify(m, m.dim_in).to_json() for m in maps] == cached


def _bench_family_cases():
    """One map of each bench classify family, dims 2-8, with its hint.

    The hinted composed forms carry the columns of pre* as their COSP;
    the squaring lift and the proper subspace map are rejections.
    """
    cases = [
        (wigner_map(random_unitary(8, 91)), None),
        (wigner_map(random_unitary(7, 92), antiunitary=True), None),
        (entrywise_abs(3), None),
        (proper_subspace_map(5, 3), None),
    ]
    for dim, seed in ((4, 93), (6, 94)):
        pre, post = random_unitary(dim, seed), random_unitary(dim, seed + 10)
        hint = OrthoSystem(tuple(pure_state(row) for row in pre.conj()))
        cases.append((composed_phi_form(pre, post), hint))
    for g in (fold(), constant(1.0), rotation(cmath.exp(0.7j)), conjugate_rotation(cmath.exp(2.1j)), power(2)):
        cases.append((standard_map(g), None))
    return cases


def test_the_cached_probe_constants_leave_every_report_unchanged():
    cases = _bench_family_cases()
    assert sorted({m.dim_in for m, _ in cases}) == list(range(2, 9))

    def reports():
        return [
            json.dumps(classify(m, m.dim_in, preimage_hint=hint).to_json(), sort_keys=True)
            for m, hint in cases
        ]

    warm = reports()
    assert sum('"not_classified"' in r for r in warm) == 2
    assert reports() == warm
    for cached in (_probe_table, _basis_system, _lift_grid):
        cached.cache_clear()
    assert reports() == warm


@pytest.mark.parametrize("dim", range(2, 9))
def test_the_cached_probe_constants_are_read_only(dim):
    table = _probe_table(dim)
    assert _probe_table(dim) is table and _basis_system(dim) is _basis_system(dim)
    system = _basis_system(dim)
    arrays = [table.i, table.j, table.rows, *table.triples, system.rows]
    arrays += [m.vec for m in system] + [_lift_grid()]
    for array in arrays:
        with pytest.raises(ValueError):
            array[...] = 0
    assert table.rows.shape == (len(PROBE_GRID) * len(table.pairs), dim)
    assert table.pairs == tuple((i, j) for i in range(dim) for j in range(i + 1, dim))


def _scale_coordinate_0(rows):
    out = rows.copy()
    out[:, 0] *= 2
    return out


def _conjugate_coordinate_3(rows):
    out = rows.copy()
    out[:, 3] = out[:, 3].conj()
    return out


def _warp_weight(rows):
    # p -> p**2 / (p**2 + (1 - p)**2) on a dimension-2 row, keeping its phase
    # (entry 0 of a gauged row is real and nonnegative)
    p = np.abs(rows[:, 0]) ** 2
    q = p**2 / (p**2 + (1 - p) ** 2)
    return np.column_stack([np.sqrt(q), np.sqrt(1 - q) * np.exp(1j * np.angle(rows[:, 1]))])


def _lean_coordinate_2(rows):
    # e_2 -> e_2 + 1e-9 e_1: basis images 2 and 1 overlap by 1e-9, past ORTHO_TOL
    m = np.eye(3)
    m[1, 2] = 1e-9
    return rows @ m.T


def _lean_every_coordinate(rows):
    # e_k -> e_k + 1.55e-5 (every other e_j) in dim 12: each pair of basis
    # images overlaps by 3.1e-5, past ORTHO_TOL, and eleven such overlaps
    # would move a canonical basis projection by 1.06e-8, past CANONICAL_TOL
    return rows @ (np.eye(12) + 1.55e-5 * (1 - np.eye(12))).T


# (I + eps (J - I)) H / 2 for the 4x4 Hadamard matrix H and eps = 3 * 2**-37:
# its rows overlap by 2 eps = 4.4e-11, within ORTHO_TOL, but its columns'
# Gram matrix is I + eps (8 e_0 e_0^T - 2 I), whose entry (0, 0) is off by
# 6 eps = 1.3e-10.  Every entry is dyadic and every product it takes is exact
# but for its eps**2 part, which rounds away, so the defect reads 6 eps
# under every BLAS kernel
_HADAMARD = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
_LEANING_FRAME = (np.eye(4) + 3 * 2.0**-37 * (1 - np.eye(4))) @ _HADAMARD / 2


def _phi_of_leaning_frame(rows):
    # phi(F P F*) for the frame F above: the rows of F map onto a COSP, and
    # the model's pre = F fails require_unitary on the columns' Gram entries
    return np.abs(rows @ _LEANING_FRAME.T)


def _hinted_by_leaning_frame(map_, dim):
    return classify(map_, dim, preimage_hint=OrthoSystem(tuple(map(pure_state, _LEANING_FRAME))))


def _rejection(fn, dim, code, reason, id, run=classify):
    """One refusal case: run(map, dim) on StateMap("custom", dim, dim, fn)."""
    return pytest.param(fn, dim, code, reason, run, id=id)


# one black-box map per refusal code, with its exact reason; the code of a
# map refused at the COSP check is cosp_not_found, so model_invalid is
# reached through a hint
REJECTIONS = [
    _rejection(lambda rows: np.ones_like(rows), 3, "cosp_not_found",
               "COSP-image hypothesis unverified", "no-cosp"),
    _rejection(_lean_every_coordinate, 12, "cosp_not_found",
               "COSP-image hypothesis unverified", "basis-moved"),
    _rejection(_scale_coordinate_0, 3, "probe_unbalanced",
               "probe image of pair (0, 1) is not balanced on the pair", "unbalanced-probe"),
    # dimension 2: the lift's probe fails
    _rejection(_scale_coordinate_0, 2, "probe_unbalanced",
               "probe image of pair (0, 1) is not balanced on the pair", "unbalanced-lift-probe"),
    _rejection(_broken_pairs_map(4).fn, 4, "probe_off_block",
               "probe image of pair (0, 2) has off-block weight", "off-block-probe"),
    # squares every amplitude's phase: each induced circle map is z -> z**2
    _rejection(lambda rows: rows**2 / np.maximum(np.abs(rows), 1e-300), 4,
               "branch_not_multiplicative", "an induced circle map is not multiplicative",
               "not-multiplicative"),
    _rejection(_conjugate_coordinate_3, 4, "branch_disagree",
               "induced circle maps disagree across coordinate triples", "triples-disagree"),
    _rejection(_warp_weight, 2, "residual_exceeded",
               "phase-lift residual 2.169e-01 exceeds 1.0e-08", "lift-residual"),
    _rejection(_lean_coordinate_2, 3, "cosp_not_found",
               "COSP-image hypothesis unverified", "model-invalid"),
    _rejection(_phi_of_leaning_frame, 4, "model_invalid",
               "recovered unitaries fail validation: map param 'pre' is not unitary within "
               "1e-10, got largest |U*U - I| entry 1.3096723705530167e-10",
               "hinted-model-invalid", _hinted_by_leaning_frame),
    # the lift of z -> z**2 is probed and validated, but its image fits no half-circle
    _rejection(standard_map(power(2)).fn, 2, "not_half_circle",
               "image spread exceeds a half-circle; map cannot be nonexpansive",
               "wider-than-half-circle"),
]


@pytest.mark.parametrize("fn, dim, code, reason, run", REJECTIONS)
def test_each_rejection_keeps_its_reason(fn, dim, code, reason, run):
    res = run(StateMap("custom", dim, dim, fn), dim)
    assert res.branch == NOT_CLASSIFIED
    assert (res.reason_code, res.reason) == (code, reason)


def test_the_leaning_frame_passes_as_rows_and_fails_as_columns():
    gram = _LEANING_FRAME @ _LEANING_FRAME.T - np.eye(4)
    assert np.abs(gram).max() <= ORTHO_TOL < np.abs(_LEANING_FRAME.T @ _LEANING_FRAME - np.eye(4)).max()
    # and its rows are canonical states as they stand
    assert all((pure_state(row).vec == row).all() for row in _LEANING_FRAME)


def test_the_rejections_reach_every_refusal_code():
    assert {case.values[2] for case in REJECTIONS} == set(_REFUSALS)
