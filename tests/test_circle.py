"""Circle self-maps: chord nonexpansiveness, homomorphism branches, forms."""

from __future__ import annotations

import cmath
import itertools
import json
import math
import re

import numpy as np
import pytest

from wignerlab import (
    CONJUGATION,
    CONSTANT_ONE,
    IDENTITY,
    NOT_APPLICABLE,
    CircleMap,
    check_nonexpansive,
    check_nonexpansive_circle,
    classify_circle_map,
    classify_homomorphism,
    conjugate_rotation,
    constant,
    fold,
    power,
    rotation,
    sampled,
    sampled_from_json,
    sampled_to_json,
    standard_map,
    unit_grid,
)
from wignerlab.circle import CIRCLE_WITNESS_TOL, GOLDEN_PHASES, HOM_BRANCH_TOL, _hom_branches
from wignerlab.descriptors import circle_map_from_json, circle_map_to_json
from wignerlab.states import UNIT_NORM_TOL


def test_closed_form_values():
    assert rotation(1j)(1.0 + 0j) == pytest.approx(1j)
    assert conjugate_rotation(1.0)(1j) == pytest.approx(-1j)
    assert constant(1.0)(cmath.exp(0.3j)) == 1.0
    assert power(2)(1j) == pytest.approx(-1.0)
    # fold reflects the lower half-circle onto the upper one
    assert fold()(cmath.exp(-0.5j * math.pi)) == pytest.approx(1j)
    assert fold()(cmath.exp(0.5j * math.pi)) == pytest.approx(1j)


def test_closed_forms_match_their_tags_on_grid():
    for g in (rotation(cmath.exp(0.4j)), conjugate_rotation(-1j), constant(1j)):
        for z in unit_grid(32):
            if g.kind == "rotation":
                ref = g.param * z
            elif g.kind == "conj_rotation":
                ref = g.param * z.conjugate()
            else:
                ref = g.param
            assert abs(g(z) - ref) <= 1e-12


def test_constructors_reject_non_unit_coefficients():
    with pytest.raises(ValueError):
        rotation(2.0)
    with pytest.raises(ValueError):
        constant(0.0)
    for build in (rotation, conjugate_rotation, constant):
        for c in (complex(math.nan, 0.0), complex(0.0, math.nan)):
            with pytest.raises(ValueError, match="modulus 1"):
                build(c)


def test_evaluator_output_is_validated():
    bad = CircleMap("scaled", lambda zs: 2.0 * zs)
    with pytest.raises(ValueError):
        bad(1.0 + 0j)


def test_circle_batch_rejects_non_unit_values_and_off_table_queries():
    with pytest.raises(ValueError, match=r"scaled map produced a non-unit value \(2\+0j\)"):
        CircleMap("scaled", lambda zs: 2.0 * zs).batch(np.array([1.0, 1j]))
    g = sampled([(1.0 + 0j, 1j), (1j, -1.0 + 0j)])
    assert np.array_equal(g.batch(np.array([1j, 1.0, 1j])), [-1.0, 1j, -1.0])
    # the first point without an entry names the error, by its angle
    message = f"sampled circle map has no entry at angle {cmath.phase(-1j)}"
    with pytest.raises(ValueError, match=re.escape(message)):
        g.batch(np.array([1.0, -1j, -1.0]))
    with pytest.raises(ValueError, match="1-d array"):
        g.batch(np.ones((2, 2), dtype=complex))
    # of two entries within 1e-9 of a query angle, the first one answers
    close = sampled([(1.0 + 0j, 1j), (cmath.exp(5e-10j), -1j)])
    assert np.array_equal(close.batch(np.array([1.0, cmath.exp(5e-10j)])), [1j, 1j])


def _first_strictly_largest(gaps):
    worst = None
    for k, gap in enumerate(gaps):
        if gap > CIRCLE_WITNESS_TOL and (worst is None or gap > gaps[worst]):
            worst = k
    return worst


def test_circle_checks_report_the_first_strictly_largest_gap():
    # the pair-by-pair search written out: same pairs, same order, same pick
    square = power(2)
    points = unit_grid(64) + list(GOLDEN_PHASES)
    n = len(points)
    pairs = [(points[i], points[j]) for i in range(n) for j in range(i + 1, n)]
    assert len(pairs) == 2556
    re_dot = lambda a, b: a.real * b.real + a.imag * b.imag
    gaps = [re_dot(z1, z2) - re_dot(square(z1), square(z2)) for z1, z2 in pairs]
    k = _first_strictly_largest(gaps)
    violation = check_nonexpansive_circle(square)
    assert (violation.z1, violation.z2, violation.gap) == (*pairs[k], gaps[k])


def test_unit_grid():
    grid = unit_grid(8)
    assert len(grid) == 8
    assert grid[0] == 1.0
    assert all(abs(abs(z) - 1.0) <= 1e-12 for z in grid)
    with pytest.raises(ValueError):
        unit_grid(0)


def test_nonexpansive_circle_examples():
    assert check_nonexpansive_circle(rotation(1j)) is None
    assert check_nonexpansive_circle(constant(1.0)) is None
    assert check_nonexpansive_circle(fold()) is None
    # a sampled map is checked on pairs of its recorded inputs
    assert check_nonexpansive_circle(sampled((z, z) for z in unit_grid(12))) is None
    assert check_nonexpansive_circle(sampled((z, z**2) for z in unit_grid(12))) is not None


def test_squaring_expands_chords():
    # z1=1, z2=i: chord sqrt(2) grows to |1-(-1)| = 2
    assert abs(1 - 1j) == pytest.approx(math.sqrt(2))
    assert abs(power(2)(1.0 + 0j) - power(2)(1j)) == pytest.approx(2.0)
    violation = check_nonexpansive_circle(power(2))
    assert violation is not None
    z1, z2 = violation.z1, violation.z2
    recomputed = (z1 * z2.conjugate()).real - (
        power(2)(z1) * power(2)(z2).conjugate()
    ).real
    assert recomputed == pytest.approx(violation.gap)
    assert violation.gap > 1e-9


@pytest.mark.parametrize(
    "k", [10**4, 10**5, 2**53, -(2**53)], ids=["10**4", "10**5", "2**53", "-2**53"]
)
def test_a_large_power_evaluates_and_expands(k):
    # numpy's z**k drifts off the unit circle for large |k|, and power
    # renormalizes such an image instead of refusing it
    g = power(k)
    assert check_nonexpansive_circle(g) is not None
    assert not check_nonexpansive(standard_map(g), 2, 1000).holds


@pytest.mark.parametrize("k", [2, -5, 17, 99, 100, 1000, 10**4, 2**53])
def test_a_power_image_on_the_unit_circle_keeps_its_bits(k):
    z = np.exp(2j * np.pi * np.arange(1000) / 1000)
    w = z**k
    kept = np.abs(np.abs(w) - 1.0) <= UNIT_NORM_TOL
    assert kept.any()
    assert np.array_equal(power(k).batch(z)[kept], w[kept])


def test_homomorphism_branch_decision():
    assert classify_homomorphism(rotation(1.0)) == IDENTITY
    assert classify_homomorphism(conjugate_rotation(1.0)) == CONJUGATION
    assert classify_homomorphism(constant(1.0)) == CONSTANT_ONE
    assert classify_homomorphism(rotation(1j)) == NOT_APPLICABLE
    assert classify_homomorphism(power(2)) == NOT_APPLICABLE


def test_the_branch_of_each_value_is_the_first_branch_that_matches():
    # the oracle is np.select over the three branch tests, in order
    near = lambda a, b: np.abs(a - b) <= HOM_BRANCH_TOL
    steps = [0.0, 0.5 * HOM_BRANCH_TOL, -0.5 * HOM_BRANCH_TOL, 2.0 * HOM_BRANCH_TOL, 1e-3]
    values = [c + s * d for c in (1j, -1j, 1.0, -1.0) for s in steps for d in (1.0, 1j)]
    values.append(math.nan)  # classify_homomorphism off the constant branch
    at_i, at_minus_one = (np.array(v, dtype=complex) for v in zip(*itertools.product(values, values)))
    oracle = np.select(
        [near(at_i, 1j), near(at_i, -1j), near(at_i, 1.0) & near(at_minus_one, 1.0)],
        [IDENTITY, CONJUGATION, CONSTANT_ONE],
        NOT_APPLICABLE,
    )
    branches = _hom_branches(at_i, at_minus_one).tolist()
    assert branches == oracle.tolist()
    assert set(branches) == {IDENTITY, CONJUGATION, CONSTANT_ONE, NOT_APPLICABLE}


def test_structural_classification():
    c = cmath.exp(1j * math.pi / 3)
    form = classify_circle_map(rotation(c))
    assert form.kind == "rotation" and form.c == pytest.approx(c)
    form = classify_circle_map(conjugate_rotation(1.0))
    assert form.kind == "conj_rotation" and form.c == pytest.approx(1.0)
    form = classify_circle_map(constant(1.0))
    assert form.kind == "half_circle" and form.spread == pytest.approx(0.0)
    form = classify_circle_map(fold())
    assert form.kind == "half_circle"
    assert form.spread == pytest.approx(math.pi, abs=1e-9)


def test_expanding_map_fails_structural_classification():
    # the squaring image covers the full circle, impossible when nonexpansive
    with pytest.raises(ValueError):
        classify_circle_map(power(2))


def test_sampled_map_lookup():
    g = sampled([(1.0 + 0j, 1j), (1j, -1.0 + 0j)])
    assert g(1.0 + 0j) == 1j
    assert g(1j) == -1.0
    assert g.inputs is not None and len(g.inputs) == 2
    with pytest.raises(ValueError):
        g(-1j)  # angle not recorded


def test_sampled_map_rejects_bad_values():
    with pytest.raises(ValueError):
        sampled([(1.0 + 0j, 2.0 + 0j)])
    with pytest.raises(ValueError):
        sampled([])


def test_sampled_json_round_trip():
    g = sampled([(z, rotation(1j)(z)) for z in unit_grid(8)])
    pairs = sampled_to_json(g)
    assert all(len(p) == 2 and len(p[1]) == 2 for p in pairs)
    back = sampled_from_json(pairs)
    assert back.table == g.table
    with pytest.raises(ValueError):
        sampled_to_json(rotation(1.0))
    # the earlier [theta_in, theta_out] radian form is refused
    with pytest.raises(ValueError, match="theta_in"):
        sampled_from_json([[0.0, 0.5]])
    with pytest.raises(ValueError, match="modulus"):
        sampled_from_json([[0.0, [2.0, 0.0]]])
    with pytest.raises(ValueError, match="finite"):
        sampled_from_json([[math.nan, [1.0, 0.0]]])


def test_sampled_tables_re_encode_to_the_same_bytes():
    # the wire form is the stored table itself: input angles, [re, im] outputs
    rng = np.random.default_rng(71)
    for angles in rng.uniform(-math.pi, math.pi, size=(1000, 2, 3)):
        g = sampled(zip(np.exp(1j * angles[0]), np.exp(1j * angles[1])))
        text = json.dumps(circle_map_to_json(g))
        back = circle_map_from_json(json.loads(text))
        assert back.table == g.table
        assert json.dumps(circle_map_to_json(back)) == text
