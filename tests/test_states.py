"""State representation, gauge fixing, and the projection metric."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerlab import (
    OrthoSystem,
    PureState,
    basis_state,
    block_embed,
    check_isometry,
    distance,
    pure_state,
    random_unitary,
    sample_pure_state,
    state_from_json,
    state_from_params,
    state_to_json,
    transition_probability,
    two_by_two_params,
)
from wignerlab.states import (
    GAUGE_TOL,
    ORTHO_TOL,
    _canonical_rows,
    _checked_norms,
    _pairwise_transition_probabilities,
    _require_orthogonal,
    _sample_state_rows,
)

T_1 = state_from_params(0.5, 1.0 + 0j)


def test_projector_examples():
    assert np.allclose(basis_state(2, 0).projector(), [[1, 0], [0, 0]])
    assert np.allclose(T_1.projector(), [[0.5, 0.5], [0.5, 0.5]])
    p = pure_state([1.0, 1j]).projector()
    assert np.allclose(p, [[0.5, -0.5j], [0.5j, 0.5]])


def test_transition_probability_examples():
    p = pure_state([3.0, 4.0])
    assert transition_probability(p, p) == 1.0
    assert transition_probability(basis_state(2, 0), basis_state(2, 1)) == 0.0
    assert transition_probability(basis_state(2, 0), T_1) == pytest.approx(0.5)


def test_distance_examples():
    p = pure_state([1.0, 2.0, 3.0])
    assert distance(p, p) == 0.0
    assert distance(basis_state(2, 0), basis_state(2, 1)) == pytest.approx(1.0)
    # tr(PQ) = 0.5 pair -> sqrt(0.5)
    assert distance(basis_state(2, 0), T_1) == pytest.approx(math.sqrt(0.5))


def test_metric_identity_against_spectral_oracle():
    # d(P, Q) must equal the largest |eigenvalue| of P - Q
    rng = np.random.default_rng(11)
    for dim in (2, 3, 5):
        for _ in range(50):
            p = sample_pure_state(rng, dim)
            q = sample_pure_state(rng, dim)
            eigs = np.linalg.eigvalsh(p.projector() - q.projector())
            assert distance(p, q) == pytest.approx(
                float(np.max(np.abs(eigs))), abs=1e-10
            )


def test_distance_stays_accurate_for_nearly_equal_states():
    v = pure_state([1.0, 1.0, 1.0])
    w = pure_state(v.vec + np.array([0.0, 1e-8j, -1e-8j]))
    d = distance(v, w)
    eigs = np.linalg.eigvalsh(v.projector() - w.projector())
    assert d == pytest.approx(float(np.max(np.abs(eigs))), abs=1e-12)
    assert 1e-9 < d < 1e-7


def test_gauge_phase_invariance():
    rng = np.random.default_rng(13)
    raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    base = pure_state(raw)
    for phase in (1j, -1.0, np.exp(0.7j)):
        regauged = pure_state(phase * raw)
        assert np.allclose(regauged.vec, base.vec, atol=1e-15)
        assert regauged == base
    k = np.flatnonzero(np.abs(base.vec) > 1e-12)[0]
    assert abs(base.vec[k].imag) <= 1e-12 and base.vec[k].real > 0.0


def test_gauge_pivot_skips_leading_zeros():
    s = pure_state([0.0, -2j, 0.0])
    assert np.allclose(s.vec, [0.0, 1.0, 0.0])


def test_every_complex_pivot_is_exactly_real():
    # a Haar block takes the pivot-0 path; with column 0 zero in alternate
    # rows, the pivots are gathered.  On both paths each pivot is written as
    # its modulus, not left with an imaginary part of rounding size
    rng = np.random.default_rng(14)
    haar = rng.standard_normal((1000, 5)) + 1j * rng.standard_normal((1000, 5))
    alternate = haar.copy()
    alternate[::2, 0] = 0.0
    for raw, first_pivots in ((haar, [0, 0]), (alternate, [1, 0])):
        out = _canonical_rows(raw)
        piv = (np.abs(raw) > 0.0).argmax(axis=1)
        assert (piv == np.tile(first_pivots, 500)).all()
        pivots = out[np.arange(len(out)), piv]
        assert (pivots.imag == 0.0).all() and (pivots.real > 0.0).all()


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), dim=st.integers(2, 16),
    scale=st.integers(-20, 20),
)
def test_real_blocks_stay_real_and_take_the_sign_of_their_pivot(seed, n, dim, scale):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, dim)) * 2.0**scale  # negative pivots among them
    # before each row's pivot column: +0.0, -0.0, or entries below GAUGE_TOL
    # of the pivot; after it, a few +0.0 and -0.0
    cols, lead = np.arange(dim), rng.integers(0, dim, size=(n, 1))
    pivots = np.abs(np.take_along_axis(raw, lead, axis=1))
    small = rng.choice([0.0, -0.0, 1e-14, -1e-14], size=(n, dim)) * pivots
    raw = np.where(cols < lead, small, raw)
    raw = np.where((cols > lead) & (rng.random((n, dim)) < 0.2), small * 0.0, raw)
    out = _canonical_rows(raw)
    assert out.dtype == np.float64
    assert np.abs(np.sqrt(np.einsum("ij,ij->i", out, out)) - 1.0).max() <= 4.5e-16
    norms = np.sqrt(np.einsum("ij,ij->i", raw, raw))
    piv = (np.abs(raw) > GAUGE_TOL * norms[:, None]).argmax(axis=1)
    assert (piv == lead[:, 0]).all() and (out[np.arange(n), piv] > 0.0).all()
    # a row whose column 0 is the positive pivot is only divided by its norm
    positive = raw[:, 0] > GAUGE_TOL * norms
    assert out[positive].tobytes() == (raw[positive] / norms[positive, None]).tobytes()
    # and every row is within 4 ulps of a unit entry of the complex path
    assert np.abs(out - _canonical_rows(raw.astype(complex))).max() <= 4.5e-16


def test_pure_state_rejects_degenerate_input():
    with pytest.raises(ValueError):
        pure_state([0.0, 0.0])
    with pytest.raises(ValueError):
        pure_state([1.0])
    with pytest.raises(ValueError):
        pure_state(np.ones((2, 2)))


def test_pure_state_rejects_non_finite_input():
    with pytest.raises(ValueError, match="non-finite"):
        pure_state([np.nan, np.nan])
    with pytest.raises(ValueError, match="non-finite"):
        pure_state([1.0, np.inf])


def test_checked_norms_pass_an_empty_block_and_name_each_failure():
    assert _checked_norms(np.empty((0, 4))).shape == (0,)
    non_finite = "cannot build a state from a non-finite vector"
    zero = "cannot build a state from a (near) zero vector"
    cases = [
        ([[1.0, np.nan]], non_finite),
        ([[np.inf, 0.0]], non_finite),
        ([[-np.inf, 1.0], [1.0, 0.0]], non_finite),
        # a non-finite row is named before a zero one
        ([[0.0, 0.0], [np.nan, 0.0]], non_finite),
        ([[0.0, 0.0]], zero),
        ([[1.0, 0.0], [GAUGE_TOL / 2, 0.0]], zero),
    ]
    for parts, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            _checked_norms(np.array(parts))


def test_constructor_rejects_a_nan_norm():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, np.nan], dtype=complex))


def test_constructor_enforces_canonical_form():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0], dtype=complex))  # not normalized
    with pytest.raises(ValueError):
        PureState(np.array([1j, 0.0], dtype=complex))  # gauge violated


def test_state_vector_is_immutable():
    s = pure_state([1.0, 2.0])
    with pytest.raises(ValueError):
        s.vec[0] = 0.0


def test_ray_equality_tolerance():
    s = pure_state([1.0, 1.0])
    t = pure_state([1.0 + 1e-7, 1.0])
    assert s == t
    assert s != basis_state(2, 0)
    assert s != pure_state([1.0, 1.0, 0.0])  # dimension mismatch


def test_orthogonality_examples():
    # ORTHO_TOL bounds the overlap, so a transition probability meets its square
    assert transition_probability(basis_state(2, 0), basis_state(2, 1)) <= ORTHO_TOL**2
    p = pure_state([2.0, 1.0])
    assert transition_probability(p, p) > ORTHO_TOL**2
    assert transition_probability(pure_state([1.0, 1.0]), pure_state([1.0, -1.0])) <= ORTHO_TOL**2


def test_ortho_system_examples():
    cosp = OrthoSystem((basis_state(2, 0), basis_state(2, 1)))
    assert len(cosp) == 2
    assert len(OrthoSystem((basis_state(2, 0),))) == 1
    mixed = OrthoSystem(
        (
            pure_state([1.0, 1.0, 0.0]),
            pure_state([1.0, -1.0, 0.0]),
            basis_state(3, 2),
        )
    )
    assert len(mixed) == 3
    assert len(OrthoSystem(tuple(basis_state(4, k) for k in range(4)))) == 4


def test_ortho_system_rejects_non_orthogonal_members():
    with pytest.raises(ValueError):
        OrthoSystem((basis_state(2, 0), pure_state([1.0, 1.0])))
    with pytest.raises(ValueError):
        OrthoSystem((basis_state(2, 0), basis_state(3, 0)))
    with pytest.raises(ValueError):
        OrthoSystem(())


def test_ortho_system_names_the_first_overlapping_pair_in_row_major_order():
    # (0, 3) and (1, 2) overlap: row-major order meets (0, 3) first
    members = (
        basis_state(4, 0),
        basis_state(4, 1),
        pure_state([0.0, 1.0, 1.0, 0.0]),
        pure_state([1.0, 0.0, 0.0, 1.0]),
    )
    with pytest.raises(ValueError) as err:
        OrthoSystem(members)
    assert str(err.value) == "members 0 and 3 are not orthogonal within 1e-10"


def test_the_orthogonality_check_names_a_lone_overlapping_pair():
    # only (1, 3) overlaps: the check searches past the orthogonal pairs for it
    rows = np.eye(4, dtype=complex)
    rows[3] = pure_state([0.0, 1.0, 0.0, 1.0]).vec
    with pytest.raises(ValueError) as err:
        _require_orthogonal(rows)
    assert str(err.value) == "members 1 and 3 are not orthogonal within 1e-10"
    _require_orthogonal(np.eye(4, dtype=complex))


def test_pairwise_transition_probabilities_are_a_row_kernel():
    # a row alone has the bits of the same row in its block, under any BLAS
    # kernel, as the inclusion check needs: its report measures the scan's
    # winner again on its own row
    rng = np.random.default_rng(0)
    rows, targets = _sample_state_rows(rng, 512, 4), _sample_state_rows(rng, 2, 4)
    block = _pairwise_transition_probabilities(rows, targets)
    for i in range(len(rows)):
        alone = _pairwise_transition_probabilities(rows[i : i + 1], targets)
        assert alone.tobytes() == block[i].tobytes(), i
    # a family against itself gives a symmetric matrix, real rows or complex,
    # so _require_orthogonal's first entry in row-major order is its first pair i < j
    for dim in range(2, 17):
        family = _sample_state_rows(rng, dim, dim)
        for a in (family, np.abs(family)):
            gram = _pairwise_transition_probabilities(a, a)
            assert np.array_equal(gram, gram.T), dim


def test_two_by_two_params_examples():
    assert two_by_two_params(basis_state(2, 0)) == (1.0, 1.0 + 0j)
    assert two_by_two_params(basis_state(2, 1)) == (0.0, 1.0 + 0j)
    p, z = two_by_two_params(state_from_params(0.5, 1j))
    assert p == pytest.approx(0.5) and z == pytest.approx(1j)


def test_two_by_two_params_generic_matrix():
    z = np.exp(1j * np.pi / 4)
    s = state_from_params(0.25, z)
    expected = np.array(
        [
            [0.25, z * math.sqrt(0.1875)],
            [np.conj(z) * math.sqrt(0.1875), 0.75],
        ]
    )
    assert np.allclose(s.projector(), expected, atol=1e-12)
    p_out, z_out = two_by_two_params(s)
    assert p_out == pytest.approx(0.25) and z_out == pytest.approx(z)


def test_state_from_params_examples():
    assert state_from_params(1.0, -1j) == basis_state(2, 0)
    assert np.allclose(T_1.projector(), 0.5 * np.ones((2, 2)))
    t_i = state_from_params(0.5, 1j)
    assert np.allclose(t_i.projector(), [[0.5, 0.5j], [-0.5j, 0.5]])


def test_state_from_params_validates_inputs():
    with pytest.raises(ValueError):
        state_from_params(1.5, 1.0)
    with pytest.raises(ValueError):
        state_from_params(0.5, 2.0)


def test_sampling_is_seed_deterministic():
    a = sample_pure_state(np.random.default_rng(99), 5)
    b = sample_pure_state(np.random.default_rng(99), 5)
    assert np.array_equal(a.vec, b.vec)


def test_sampling_law_is_unbiased_on_first_coordinate():
    rng = np.random.default_rng(15)
    mean = np.mean(
        [transition_probability(sample_pure_state(rng, 2), basis_state(2, 0))
         for _ in range(10000)]
    )
    assert abs(mean - 0.5) < 0.02


def test_sampled_states_satisfy_invariants():
    rng = np.random.default_rng(16)
    for dim in (2, 4):
        s = sample_pure_state(rng, dim)
        PureState(s.vec)  # re-validates norm and gauge


def test_random_unitary_is_unitary_and_deterministic():
    u = random_unitary(4, 21)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12
    assert np.array_equal(u, random_unitary(4, 21))
    assert not np.allclose(u, random_unitary(4, 22))


def test_state_json_round_trip():
    rng = np.random.default_rng(17)
    for dim in (2, 5):
        s = sample_pure_state(rng, dim)
        obj = state_to_json(s)
        assert obj["dim"] == dim
        assert all(len(pair) == 2 for pair in obj["vec"])
        restored = state_from_json(obj)
        assert np.allclose(restored.vec, s.vec, atol=1e-15)
        assert restored == s


def test_state_from_json_restores_gauge():
    # serialized amplitudes with a global phase are re-canonicalized
    s = pure_state([1.0, 1j])
    rotated = {
        "dim": 2,
        "vec": [[float((1j * c).real), float((1j * c).imag)] for c in s.vec],
    }
    assert state_from_json(rotated) == s
    with pytest.raises(ValueError):
        state_from_json({"dim": 3, "vec": [[1.0, 0.0]]})


def test_state_from_json_requires_an_integer_dim():
    vec = state_to_json(pure_state([1.0, 1j]))["vec"]
    assert state_from_json({"dim": 2, "vec": vec}) == pure_state([1.0, 1j])
    for dim in ("2", 2.5, 2.0, True, None):
        with pytest.raises(ValueError, match="'dim' must be an integer"):
            state_from_json({"dim": dim, "vec": vec})


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"dim": 2, "vec": [[True, 0], [0, False]]},
         "state JSON 'vec' must be a list of [re, im] pairs of numbers, got [True, 0]"),
        ({"dim": 2, "vec": [[1, 0], ["0", 0]]},
         "state JSON 'vec' must be a list of [re, im] pairs of numbers, got ['0', 0]"),
        ({"dim": 2, "vec": [[1, 0], [0]]},
         "state JSON 'vec' must be a list of [re, im] pairs of numbers, got [0]"),
        ({"dim": 2, "vec": 5},
         "state JSON 'vec' must be a list of [re, im] pairs of numbers, got 5"),
        ({"dim": 2, "vec": [[1, 0], [0, 0]], "dims": 2}, "state JSON has no key 'dims'"),
    ],
    ids=["bool-entry", "string-entry", "one-number-entry", "scalar-vec", "extra-key"],
)
def test_state_from_json_refuses_malformed_objects(obj, message):
    with pytest.raises(ValueError) as err:
        state_from_json(obj)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"dim": 1, "vec": [[1, 0]]}, "state JSON 'dim' must be at least 2, got 1"),
        ({"dim": 0, "vec": []}, "state JSON 'dim' must be at least 2, got 0"),
        ({"dim": 2, "vec": [[0, 0], [0, 0]]},
         "state JSON 'vec' is a (near) zero vector, got [[0, 0], [0, 0]]"),
        ({"dim": 2, "vec": [[1e-13, 0], [0, -0.0]]},
         "state JSON 'vec' is a (near) zero vector, got [[1e-13, 0], [0, -0.0]]"),
    ],
    ids=["dim-1", "dim-0", "zero-vec", "near-zero-vec"],
)
def test_state_from_json_refusals_name_their_field(obj, message):
    with pytest.raises(ValueError) as err:
        state_from_json(obj)
    assert str(err.value) == message


def test_a_short_vector_above_the_gauge_tolerance_still_loads():
    state = state_from_json({"dim": 2, "vec": [[2 * GAUGE_TOL, 0], [0, 0]]})
    assert state.vec.tobytes() == np.array([1, 0], dtype=complex).tobytes()
    # pure_state keeps its own message for Python callers
    with pytest.raises(ValueError, match=r"^state vector must be one-dimensional with dim >= 2$"):
        pure_state([1.0])


def test_state_from_json_keeps_canonical_amplitudes():
    # block_embed's isometry witness sits on the weight-1/2 boundary; a
    # renormalized reload can land in the other block and lose d_out = 1
    phi = block_embed(2)
    witness = check_isometry(phi, 2, n_samples=500, seed=1).witness
    obj = json.loads(json.dumps(witness.to_json()))
    p, q = state_from_json(obj["P"]), state_from_json(obj["Q"])
    assert np.array_equal(p.vec, witness.P.vec)
    assert np.array_equal(q.vec, witness.Q.vec)
    assert distance(phi(p), phi(q)) == pytest.approx(1.0, abs=1e-12)
