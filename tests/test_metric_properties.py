"""Property tests of the projection metric d(P, Q) = ||P - Q||.

Every way the package computes the distance must agree, and the
distance must be a metric on rays: symmetric, subadditive, and blind to
the phase of the representatives.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerlab import distance, operator_norm_distance, pure_state, sample_pure_state
from wignerlab.verify import _row_distances

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
    via_norm = operator_norm_distance(p.projector(), q.projector())
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
