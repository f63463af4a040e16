"""Map families: symmetries, amplitude-modulus maps, embeddings, collapses."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from wignerlab import (
    basis_state,
    block_embed,
    composed_phi_form,
    constant,
    constant_map,
    distance,
    entrywise_abs,
    fold,
    opaque_map,
    proper_subspace_map,
    pure_state,
    random_unitary,
    rotation,
    sample_pure_state,
    separable_embed,
    standard_map,
    state_from_params,
    transition_probability,
    wigner_map,
)
from wignerlab.maps import require_unitary
from wignerlab.states import _canonical_rows, _row_distances
from wignerlab.verify import WITNESS_TOL


def test_wigner_identity_fixes_states():
    phi = wigner_map(np.eye(3))
    s = sample_pure_state(np.random.default_rng(0), 3)
    assert phi(s) == s


def test_transpose_conjugates_amplitudes():
    s = pure_state([1.0, 1j])
    out = wigner_map(np.eye(2), antiunitary=True)(s)
    assert np.allclose(out.vec, pure_state([1.0, -1j]).vec)


def test_wigner_conjugation_matches_matrix_oracle():
    u = np.diag([1.0, 1j])
    t_1 = state_from_params(0.5, 1.0 + 0j)
    image = wigner_map(u)(t_1)
    assert np.allclose(image.projector(), [[0.5, -0.5j], [0.5j, 0.5]])
    # generic case: image projector equals U P U*
    w = random_unitary(3, 3)
    s = sample_pure_state(np.random.default_rng(4), 3)
    assert np.allclose(
        wigner_map(w)(s).projector(), w @ s.projector() @ w.conj().T, atol=1e-12
    )


def test_antiunitary_matches_transpose_oracle():
    u = random_unitary(3, 5)
    s = sample_pure_state(np.random.default_rng(6), 3)
    image = wigner_map(u, antiunitary=True)(s)
    assert np.allclose(
        image.projector(), u @ s.projector().T @ u.conj().T, atol=1e-12
    )


def test_wigner_maps_are_isometries():
    rng = np.random.default_rng(7)
    u = random_unitary(4, 8)
    for anti in (False, True):
        phi = wigner_map(u, antiunitary=anti)
        for _ in range(100):
            p, q = sample_pure_state(rng, 4), sample_pure_state(rng, 4)
            assert abs(distance(phi(p), phi(q)) - distance(p, q)) <= 1e-12


def test_wigner_map_rejects_non_unitary():
    with pytest.raises(ValueError):
        wigner_map(np.ones((2, 2)))


def test_wigner_map_rejects_a_non_finite_matrix():
    u = np.eye(3, dtype=complex)
    u[1, 2] = np.nan
    with pytest.raises(ValueError, match="not unitary"):
        wigner_map(u)


def test_a_matrix_entry_too_large_for_its_gram_is_refused_without_a_warning():
    # no unitary has an entry of modulus above 1: it is refused before the
    # Gram product, which would overflow with a RuntimeWarning
    u = np.eye(3, dtype=complex)
    u[1, 2] = 1e308 + 1e308j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not unitary"):
            wigner_map(u)


def test_an_empty_matrix_is_not_a_unitary():
    # refused by the package's own check, not by numpy's zero-size reduction
    for call in (lambda u: require_unitary(u, "matrix"), wigner_map,
                 lambda u: composed_phi_form(u, u)):
        with pytest.raises(ValueError, match="nonempty square matrix"):
            call(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="nonempty square matrix"):
        entrywise_abs(2, basis=np.zeros((0, 0)))


def test_constant_map_sends_every_state_to_the_first_basis_state():
    map_ = constant_map(3)
    rows = np.array([sample_pure_state(np.random.default_rng(7), 3).vec for _ in range(5)])
    assert np.array_equal(map_.batch(rows), np.tile(basis_state(3, 0).vec, (5, 1)))


def test_abs_map_examples():
    phi = entrywise_abs(2)
    assert phi(pure_state([1.0, -1.0])) == pure_state([1.0, 1.0])
    nonneg = pure_state([3.0, 4.0])
    assert phi(nonneg) == nonneg
    out = entrywise_abs(3)(pure_state([1.0, 1j, -1.0]))
    assert np.allclose(out.projector(), np.full((3, 3), 1.0 / 3.0))


def test_abs_map_takes_entrywise_moduli_of_the_projection():
    rng = np.random.default_rng(9)
    phi = entrywise_abs(4)
    s = sample_pure_state(rng, 4)
    assert np.allclose(phi(s).projector(), np.abs(s.projector()), atol=1e-12)
    assert phi(phi(s)) == phi(s)  # idempotent


def test_abs_map_in_rotated_basis():
    b = random_unitary(3, 10)
    phi_b = entrywise_abs(3, basis=b)
    s = sample_pure_state(np.random.default_rng(11), 3)
    expected = pure_state(b @ np.abs(b.conj().T @ s.vec))
    assert phi_b(s) == expected
    with pytest.raises(ValueError):
        entrywise_abs(2, basis=b)  # dimension mismatch


def test_phase_lift_fixed_points():
    tau = standard_map(fold())
    assert tau(basis_state(2, 0)) == basis_state(2, 0)
    assert tau(basis_state(2, 1)) == basis_state(2, 1)
    assert standard_map(rotation(1.0))(state_from_params(0.3, 1j)) == state_from_params(
        0.3, 1j
    )


def test_phase_lift_substitutes_the_phase():
    tau = standard_map(constant(1.0))
    assert tau(state_from_params(0.5, 1j)) == state_from_params(0.5, 1.0 + 0j)
    g = rotation(np.exp(0.4j))
    s = state_from_params(0.2, np.exp(1.1j))
    assert standard_map(g)(s) == state_from_params(0.2, g(np.exp(1.1j)))


@pytest.mark.parametrize("g", [constant(1.0), fold()], ids=["constant", "fold"])
def test_phase_lift_is_nonexpansive_to_rounding_near_the_basis_states(g):
    # p = |v_0|^2 rounds to 0 or 1 within about 1e-8 of a basis state, where
    # sqrt(1 - p) lost the smaller amplitude's digits and let refinement
    # report a false nonexpansive witness: pairs of states 1e-10 to 1e-5
    # from e_0 or e_1, 200 per basis state
    rng = np.random.default_rng(24)
    tau = standard_map(g)
    for k in (0, 1):
        center = np.eye(2, dtype=complex)[k]

        def near():
            z = rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))
            radii = 10.0 ** rng.uniform(-10, -5, 200) / np.linalg.norm(z, axis=1)
            return _canonical_rows(center + radii[:, None] * z)

        p, q = near(), near()
        gaps = _row_distances(tau.batch(p), tau.batch(q)) - _row_distances(p, q)
        assert gaps.max() <= WITNESS_TOL, k


def test_composed_form_reduces_to_abs_map_at_identity():
    eye = np.eye(3, dtype=complex)
    phi = composed_phi_form(eye, eye)
    s = sample_pure_state(np.random.default_rng(12), 3)
    assert phi(s) == entrywise_abs(3)(s)
    nonneg = pure_state([1.0, 2.0, 3.0])
    assert phi(nonneg) == nonneg


def test_composed_form_is_nonexpansive_on_sampled_pairs():
    rng = np.random.default_rng(13)
    phi = composed_phi_form(random_unitary(3, 14), random_unitary(3, 15))
    for _ in range(100):
        p, q = sample_pure_state(rng, 3), sample_pure_state(rng, 3)
        assert distance(phi(p), phi(q)) <= distance(p, q) + 1e-12


def test_block_embed_tears_pairs_across_the_boundary():
    phi = block_embed(2)
    # d(P, Q) = |cos 2a| for the swap pair; pick a so the input distance is 0.3
    a = math.acos(0.3) / 2.0
    p = pure_state([math.cos(a), math.sin(a)])
    q = pure_state([math.sin(a), math.cos(a)])
    assert distance(p, q) == pytest.approx(0.3)
    assert distance(phi(p), phi(q)) == pytest.approx(1.0)
    assert transition_probability(phi(p), phi(q)) == 0.0


def test_separable_embed_single_anchor_examples():
    x = pure_state([1.0, 1j, -1.0])
    phi = separable_embed([x])
    assert np.allclose(phi(x).vec, [1.0, 0.0])  # t = 1 after renormalization
    perp = pure_state([1.0, -1j, 0.0])
    assert transition_probability(x, perp) <= 1e-12
    assert np.allclose(phi(perp).vec, [0.0, 1.0])


def test_separable_embed_never_shrinks_transition_probability():
    rng = np.random.default_rng(17)
    anchors = [sample_pure_state(rng, 3) for _ in range(4)]
    phi = separable_embed(anchors)
    for _ in range(100):
        p, q = sample_pure_state(rng, 3), sample_pure_state(rng, 3)
        assert transition_probability(phi(p), phi(q)) >= (
            transition_probability(p, q) - 1e-12
        )


def test_separable_embed_is_nonexpansive_to_rounding_near_its_anchors():
    # sqrt(1 - t^2) has no correct digits left within about 1e-8 of an
    # anchor, where it let refinement report a false nonexpansive witness:
    # pairs of states 1e-10 to 1e-5 from one of 4 anchors, 200 per dimension
    rng = np.random.default_rng(23)
    for dim in (2, 4, 6):
        anchors = [sample_pure_state(rng, dim) for _ in range(4)]
        phi = separable_embed(anchors)
        centers = np.array([anchors[i].vec for i in rng.integers(4, size=200)])

        def near():
            z = rng.standard_normal((200, dim)) + 1j * rng.standard_normal((200, dim))
            radii = 10.0 ** rng.uniform(-10, -5, 200) / np.linalg.norm(z, axis=1)
            return _canonical_rows(centers + radii[:, None] * z)

        p, q = near(), near()
        gaps = _row_distances(phi.batch(p), phi.batch(q)) - _row_distances(p, q)
        assert gaps.max() <= WITNESS_TOL, dim


def test_separable_embed_validates_anchors():
    with pytest.raises(ValueError):
        separable_embed([])
    with pytest.raises(ValueError):
        separable_embed([basis_state(2, 0), basis_state(3, 0)])


def test_subspace_collapse_examples():
    phi = proper_subspace_map(3, 2, alpha0=0)
    inside = pure_state([0.6, 0.8, 0.0])
    assert phi(inside) == inside  # nonnegative, already in the span
    assert phi(basis_state(3, 0)) == basis_state(3, 0)
    assert phi(pure_state([0.0, 0.0, 1.0])) == basis_state(3, 0)
    # inside the span the collapse acts as the amplitude-modulus map
    s = pure_state([1.0, -1j, 0.0])
    assert phi(s) == pure_state([1.0, 1.0, 0.0])


def test_subspace_collapse_absorbs_outside_weight_at_alpha0():
    phi = proper_subspace_map(4, 2, alpha0=1)
    s = pure_state([0.5, 0.5j, 0.5, -0.5])
    out = phi(s)
    assert out.vec[2] == 0.0 and out.vec[3] == 0.0
    assert abs(out.vec[0]) == pytest.approx(0.5)
    # alpha0 soaks up its own weight plus everything outside the span
    assert abs(out.vec[1]) == pytest.approx(math.sqrt(0.25 + 0.5))


def test_subspace_collapse_validates_parameters():
    with pytest.raises(ValueError):
        proper_subspace_map(3, 3)
    with pytest.raises(ValueError):
        proper_subspace_map(3, 0)
    with pytest.raises(ValueError):
        proper_subspace_map(4, 2, alpha0=2)


def test_maps_below_dimension_two_are_rejected():
    with pytest.raises(ValueError, match="at least 2"):
        entrywise_abs(1)
    with pytest.raises(ValueError, match="at least 2"):
        opaque_map(lambda s: s, 1, 1)


def test_state_map_validates_input_dimension():
    phi = entrywise_abs(3)
    with pytest.raises(ValueError):
        phi(basis_state(2, 0))
    wrapped = opaque_map(lambda s: s, 2, 2)
    assert wrapped(basis_state(2, 1)) == basis_state(2, 1)
    with pytest.raises(ValueError):
        wrapped(basis_state(4, 0))
