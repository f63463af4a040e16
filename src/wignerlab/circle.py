"""Self-maps of the unit circle and their metric classification.

A map g is nonexpansive for the chord metric exactly when
Re(g(z1) * conj(g(z2))) >= Re(z1 * conj(z2)) for all inputs, and every
nonexpansive map is a rotation, a conjugate rotation, or has image inside
a closed half-circle.  Multiplicative maps reduce further to the
identity, conjugation, or the constant 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "UNIT_TOL",
    "CIRCLE_WITNESS_TOL",
    "FORM_MATCH_TOL",
    "HOM_BRANCH_TOL",
    "IDENTITY",
    "CONJUGATION",
    "CONSTANT_ONE",
    "NOT_APPLICABLE",
    "CircleMap",
    "CircleViolation",
    "HomViolation",
    "CircleMapForm",
    "rotation",
    "conjugate_rotation",
    "constant",
    "fold",
    "power",
    "sampled",
    "opaque",
    "unit_grid",
    "check_nonexpansive_circle",
    "check_homomorphism",
    "classify_homomorphism",
    "classify_circle_map",
    "sampled_to_json",
    "sampled_from_json",
]

UNIT_TOL = 1e-12
CIRCLE_WITNESS_TOL = 1e-9
FORM_MATCH_TOL = 1e-8
HOM_BRANCH_TOL = 1e-6
SPREAD_TOL = 1e-6

IDENTITY = "identity"
CONJUGATION = "conjugation"
CONSTANT_ONE = "constant_one"
NOT_APPLICABLE = "not_applicable"


def _require_unit(c: complex) -> complex:
    c = complex(c)
    if abs(abs(c) - 1.0) > UNIT_TOL:
        raise ValueError("circle values must have modulus 1 within 1e-12")
    return c


def _require_units(values: np.ndarray) -> None:
    """The array form of _require_unit."""
    if not (np.abs(np.abs(values) - 1.0) <= UNIT_TOL).all():  # NaN fails too
        raise ValueError("circle values must have modulus 1 within 1e-12")


@dataclass(frozen=True)
class CircleMap:
    """A self-map of the unit circle with a structural form tag.

    The evaluator must return unit-modulus values; every call verifies
    this.  Sampled maps are defined only on their recorded input angles.
    """

    kind: str
    fn: Callable[[complex], complex] = field(repr=False, compare=False)
    param: complex | int | None = None
    table: tuple[tuple[float, complex], ...] | None = None

    def __call__(self, z: complex) -> complex:
        w = self.fn(complex(z))
        if abs(abs(w) - 1.0) > UNIT_TOL:
            raise ValueError(f"{self.kind} map produced a non-unit value {w!r}")
        return w

    @property
    def inputs(self) -> tuple[complex, ...] | None:
        """Recorded input points of a sampled map, None otherwise."""
        if self.table is None:
            return None
        return tuple(cmath.exp(1j * theta) for theta, _ in self.table)


def rotation(c: complex) -> CircleMap:
    """z -> c*z for a fixed unit c."""
    c = _require_unit(c)
    return CircleMap("rotation", lambda z: c * z, param=c)


def conjugate_rotation(c: complex) -> CircleMap:
    """z -> c*conj(z) for a fixed unit c."""
    c = _require_unit(c)
    return CircleMap("conj_rotation", lambda z: c * z.conjugate(), param=c)


def constant(c: complex) -> CircleMap:
    """z -> c for a fixed unit c."""
    c = _require_unit(c)
    return CircleMap("constant", lambda z: c, param=c)


def fold() -> CircleMap:
    """Reflect the lower half-circle up: exp(i*t) -> exp(i*|t|)."""
    return CircleMap("fold", lambda z: cmath.exp(1j * abs(cmath.phase(z))))


def power(k: int) -> CircleMap:
    """z -> z**k for an integer k; expanding for |k| >= 2."""
    if int(k) != k:
        raise ValueError(f"power exponent must be an integer, got {k!r}")
    k = int(k)
    return CircleMap("power", lambda z: z**k, param=k)


def _table_lookup(table: tuple[tuple[float, complex], ...], z: complex) -> complex:
    theta = cmath.phase(z)
    for t_in, w in table:
        delta = abs(theta - t_in) % (2.0 * math.pi)
        if min(delta, 2.0 * math.pi - delta) <= 1e-9:
            return w
    raise ValueError(f"sampled circle map has no entry at angle {theta}")


def _sampled_table(angles, values) -> CircleMap:
    """Tabulated map from an array of input angles and one of unit output values."""
    angles = np.asarray(angles, dtype=float)
    values = np.asarray(values, dtype=complex)
    if not angles.size:
        raise ValueError("sampled circle map needs at least one entry")
    if not np.isfinite(angles).all():
        raise ValueError("sampled circle map input angles must be finite")
    _require_units(values)
    table = tuple(zip(angles.tolist(), values.tolist()))
    return CircleMap("sampled", lambda z: _table_lookup(table, z), table=table)


def _table_arrays(g: CircleMap) -> tuple[np.ndarray, np.ndarray]:
    """Input angles and output values of a sampled map, as two arrays."""
    columns = np.array(g.table, dtype=complex)
    return columns[:, 0].real, columns[:, 1]


def sampled(pairs) -> CircleMap:
    """Tabulated map from (input point, output point) unit-complex pairs."""
    points = np.array(list(pairs), dtype=complex)
    if not points.size:
        raise ValueError("sampled circle map needs at least one entry")
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("sampled circle map entries must be (input, output) pairs")
    _require_units(points[:, 0])
    # cmath.phase, not np.angle: the table angles must not depend on the SIMD build
    angles = [cmath.phase(z) for z in points[:, 0].tolist()]
    return _sampled_table(angles, points[:, 1])


def opaque(fn: Callable[[complex], complex]) -> CircleMap:
    """Wrap an arbitrary unit-circle evaluator without structural claims."""
    return CircleMap("opaque", fn)


def unit_grid(n: int) -> list[complex]:
    """n equispaced points on the unit circle starting at 1."""
    if n < 1:
        raise ValueError("grid size must be positive")
    return [cmath.exp(2j * math.pi * k / n) for k in range(n)]


@dataclass(frozen=True)
class CircleViolation:
    """Input pair whose image chord exceeds the input chord."""

    z1: complex
    z2: complex
    gap: float


@dataclass(frozen=True)
class HomViolation:
    """Input pair witnessing g(z*w) != g(z)*g(w)."""

    z: complex
    w: complex
    gap: float


def _sample_points(g: CircleMap, rng: np.random.Generator, count: int) -> list[complex]:
    if g.table is not None:
        points = list(g.inputs)
        picks = rng.integers(0, len(points), size=count)
        return [points[i] for i in picks]
    angles = rng.uniform(0.0, 2.0 * math.pi, size=count)
    return [cmath.exp(1j * a) for a in angles]


def _grid_points(g: CircleMap, grid_size: int) -> list[complex]:
    if g.table is not None:
        return list(g.inputs)
    return unit_grid(grid_size)


def check_nonexpansive_circle(
    g: CircleMap, n_samples: int = 1000, seed: int = 42, grid_size: int = 32
) -> CircleViolation | None:
    """Search for a chord-expanding input pair; None when none is found.

    Tests all pairs from a deterministic grid plus seeded random pairs.
    The gap of a pair is Re(z1*conj(z2)) - Re(g(z1)*conj(g(z2))), positive
    exactly when the image chord is longer.
    """
    rng = np.random.default_rng(seed)
    points = _grid_points(g, grid_size)
    pairs = [(points[i], points[j]) for i in range(len(points)) for j in range(i + 1, len(points))]
    extra = _sample_points(g, rng, 2 * n_samples)
    pairs.extend(zip(extra[:n_samples], extra[n_samples:]))
    worst: CircleViolation | None = None
    for z1, z2 in pairs:
        gap = (z1 * z2.conjugate()).real - (g(z1) * g(z2).conjugate()).real
        if gap > CIRCLE_WITNESS_TOL and (worst is None or gap > worst.gap):
            worst = CircleViolation(z1, z2, gap)
    return worst


def _product_closed_pairs(g: CircleMap) -> list[tuple[complex, complex]]:
    """Pairs of recorded inputs whose product is also recorded."""
    points = list(g.inputs)
    pairs = []
    for z in points:
        for w in points:
            try:
                _table_lookup(g.table, z * w)
            except ValueError:
                continue
            pairs.append((z, w))
    return pairs


def check_homomorphism(
    g: CircleMap, n_samples: int = 1000, seed: int = 42, grid_size: int = 16
) -> HomViolation | None:
    """Search for a pair violating g(z*w) = g(z)*g(w); None when none found."""
    rng = np.random.default_rng(seed)
    if g.table is not None:
        pairs = _product_closed_pairs(g)
    else:
        points = unit_grid(grid_size)
        pairs = [(z, w) for z in points for w in points]
        extra = _sample_points(g, rng, 2 * n_samples)
        pairs.extend(zip(extra[:n_samples], extra[n_samples:]))
    worst: HomViolation | None = None
    for z, w in pairs:
        gap = abs(g(z * w) - g(z) * g(w))
        if gap > CIRCLE_WITNESS_TOL and (worst is None or gap > worst.gap):
            worst = HomViolation(z, w, gap)
    return worst


def classify_homomorphism(g: CircleMap) -> str:
    """Decide which nonexpansive multiplicative branch g lies on.

    The value at i separates the identity (i) from conjugation (-i); the
    constant branch is confirmed at -1.  Anything else reports
    NOT_APPLICABLE, signalling a failed precondition.
    """
    at_i = g(1j)
    if abs(at_i - 1j) <= HOM_BRANCH_TOL:
        return IDENTITY
    if abs(at_i + 1j) <= HOM_BRANCH_TOL:
        return CONJUGATION
    if abs(at_i - 1.0) <= HOM_BRANCH_TOL and abs(g(-1.0 + 0j) - 1.0) <= HOM_BRANCH_TOL:
        return CONSTANT_ONE
    return NOT_APPLICABLE


@dataclass(frozen=True)
class CircleMapForm:
    """Structural class of a nonexpansive circle map.

    kind is "rotation", "conj_rotation", or "half_circle"; c carries the
    rotation coefficient, spread the angular width of a half-circle image.
    """

    kind: str
    c: complex | None = None
    spread: float | None = None


def _angular_spread(values: list[complex]) -> float:
    """Width of the smallest arc containing all given unit values."""
    angles = sorted(cmath.phase(v) % (2.0 * math.pi) for v in values)
    if len(angles) == 1:
        return 0.0
    gaps = [b - a for a, b in zip(angles, angles[1:])]
    gaps.append(2.0 * math.pi - angles[-1] + angles[0])
    return 2.0 * math.pi - max(gaps)


def classify_circle_map(g: CircleMap, n_grid: int = 64) -> CircleMapForm:
    """Sort a nonexpansive map into rotation / conjugate rotation / half-circle.

    Matches the closed forms z -> c*z and z -> c*conj(z) with c = g(1) on
    an evaluation grid; otherwise the image must fit in a closed
    half-circle, and a wider image raises ValueError because it
    contradicts nonexpansiveness.
    """
    points = _grid_points(g, n_grid)
    c = g(1.0 + 0j)
    values = [g(z) for z in points]
    if all(abs(v - c * z) <= FORM_MATCH_TOL for z, v in zip(points, values)):
        return CircleMapForm("rotation", c=c)
    if all(abs(v - c * z.conjugate()) <= FORM_MATCH_TOL for z, v in zip(points, values)):
        return CircleMapForm("conj_rotation", c=c)
    spread = _angular_spread(values)
    if spread > math.pi + SPREAD_TOL:
        raise ValueError(
            "image spread exceeds a half-circle; map cannot be nonexpansive"
        )
    return CircleMapForm("half_circle", spread=spread)


def sampled_to_json(g: CircleMap) -> list[list]:
    """[theta_in, [re, im]] pairs of a sampled map: its stored input angle
    and output value, so that decoding gives back the same table."""
    if g.table is None:
        raise ValueError("only sampled circle maps serialize to a table")
    return [[t, [w.real, w.imag]] for t, w in g.table]


def sampled_from_json(pairs) -> CircleMap:
    """Rebuild a sampled map from [theta_in, [re, im]] pairs."""
    try:
        angles = [float(t) for t, _ in pairs]
        values = [complex(float(re), float(im)) for _, (re, im) in pairs]
    except (TypeError, ValueError) as err:
        raise ValueError(
            f"sampled circle map table must be [theta_in, [re, im]] pairs: {err}"
        ) from err
    return _sampled_table(angles, values)
