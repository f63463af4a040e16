"""Property tests of the projection metric d(P, Q) = ||P - Q||.

Every way the package computes the distance must agree, and the
distance must be a metric on rays: symmetric, subadditive, and blind to
the phase of the representatives.  Each state formula has one row
kernel, and the function on single states is its one-row call, bit for
bit.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerlab import (
    OrthoSystem,
    distance,
    pure_state,
    random_unitary,
    sample_pure_state,
    state_from_params,
    transition_probability,
)
from wignerlab.states import (
    GAUGE_TOL,
    _canonical_rows,
    _param_rows,
    _row_distances,
    _row_transition_probabilities,
    _sample_state_rows,
)

SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.integers(2, 8)
PHASES = st.floats(0.0, 2.0 * math.pi)


def _states(seed: int, dim: int, count: int):
    rng = np.random.default_rng(seed)
    return [sample_pure_state(rng, dim) for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, dim=DIMS)
def test_distance_is_symmetric_and_subadditive(seed, dim):
    p, q, r = _states(seed, dim, 3)
    # the residual formula is symmetric up to rounding
    assert abs(distance(p, q) - distance(q, p)) <= 1e-15
    assert distance(p, r) <= distance(p, q) + distance(q, r) + 1e-12
    assert distance(p, p) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, dim=DIMS)
def test_the_four_distance_formulas_agree(seed, dim):
    # Haar pairs: sqrt(1 - tr PQ) is only accurate away from d = 0
    p, q = _states(seed, dim, 2)
    d = distance(p, q)
    via_trace = math.sqrt(1.0 - np.trace(p.projector() @ q.projector()).real)
    via_rows = _row_distances(p.vec[None], q.vec[None])[0]
    via_norm = np.linalg.norm(p.projector() - q.projector(), 2)
    for other in (via_trace, via_rows, via_norm):
        assert abs(d - other) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, dim=DIMS, a=PHASES, b=PHASES)
def test_distance_does_not_see_the_gauge(seed, dim, a, b):
    p, q = _states(seed, dim, 2)
    p2 = pure_state(cmath.exp(1j * a) * p.vec)
    q2 = pure_state(cmath.exp(1j * b) * q.vec)
    # equal rays: zero apart, and equally far from every other state
    assert distance(p, p2) <= 1e-15 and distance(q, q2) <= 1e-15
    assert abs(distance(p2, q2) - distance(p, q)) <= 1e-15
    # the row kernel takes representatives in any gauge
    raw = _row_distances(cmath.exp(1j * a) * p.vec[None], cmath.exp(1j * b) * q.vec[None])[0]
    assert abs(raw - distance(p, q)) <= 1e-15


def _same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, dim=DIMS, weight=st.floats(0.0, 1.0), angle=PHASES)
def test_each_scalar_state_function_is_a_one_row_kernel_call(seed, dim, weight, angle):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((2, dim)) + 1j * rng.standard_normal((2, dim))
    p, q = pure_state(raw[0]), pure_state(raw[1])
    assert _same_bits(p.vec, _canonical_rows(raw[:1])[0])
    assert _same_bits(distance(p, q), _row_distances(p.vec[None], q.vec[None])[0])
    assert _same_bits(
        transition_probability(p, q), _row_transition_probabilities(p.vec[None], q.vec[None])[0]
    )
    # count rows of the sampler are count sample_pure_state calls on one generator
    calls = np.random.default_rng(seed)
    drawn = [sample_pure_state(calls, dim).vec for _ in range(3)]
    assert _same_bits(drawn, _sample_state_rows(np.random.default_rng(seed), 3, dim))
    z = cmath.exp(1j * angle)
    assert _same_bits(state_from_params(weight, z).vec, _canonical_rows(_param_rows(weight, z))[0])
    system = OrthoSystem(tuple(pure_state(col) for col in random_unitary(dim, seed).T))
    assert _same_bits(system.rows, np.array([m.vec for m in system.members]))
    assert not system.rows.flags.writeable


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, dim=DIMS)
def test_rows_of_disjoint_support_are_at_distance_one_up_to_a_few_ulps(seed, dim):
    # the overlap of disjoint supports is exactly 0, so the residual is the
    # first row and the distance is its computed norm: 1, or a few ulps
    # below it (at most 4 * 2**-53 seen in dims 2-16; the bound is twice that)
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((2, 200, dim)) + 1j * rng.standard_normal((2, 200, dim))
    split = int(rng.integers(1, dim))
    raw[0, :, split:] = 0.0
    raw[1, :, :split] = 0.0
    d = _row_distances(_canonical_rows(raw[0]), _canonical_rows(raw[1]))
    assert np.all((1.0 - 2.0**-50 <= d) & (d <= 1.0))


@settings(max_examples=100, deadline=None)
@given(
    seed=SEEDS,
    dim=DIMS,
    n=st.integers(1, 40),
    at=st.integers(0, 40),
    entry0=st.sampled_from([0.0, 5e-324, 1e-300, 1e-13, 0.5 * GAUGE_TOL]),
)
def test_both_gauge_paths_give_the_same_bits(seed, dim, n, at, entry0):
    # a block whose every entry 0 is above GAUGE_TOL takes the pivot-0 fast
    # path; one more row whose entry 0 is at or below it forces the general
    # path on the whole block, and no other row may change by a bit
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-6.0, 6.0, size=(n, 1))
    rows = scale * (rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim)))
    assert np.all(np.abs(rows[:, 0]) > GAUGE_TOL * np.linalg.norm(rows, axis=1))
    extra = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    extra[0] = entry0 * np.linalg.norm(extra[1:]) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    at = min(at, n)
    mixed = _canonical_rows(np.insert(rows, at, extra, axis=0))
    assert _same_bits(_canonical_rows(rows), np.delete(mixed, at, axis=0))
    # the extra row is gauged on its first entry above GAUGE_TOL, entry 1
    assert abs(mixed[at, 1].imag) <= 1e-15 < mixed[at, 1].real
