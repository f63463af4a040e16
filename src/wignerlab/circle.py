"""Self-maps of the unit circle and their metric classification.

A map g is nonexpansive for the chord metric exactly when
Re(g(z1) * conj(g(z2))) >= Re(z1 * conj(z2)) for all inputs, and every
nonexpansive map is a rotation, a conjugate rotation, or has image inside
a closed half-circle.  Multiplicative maps reduce further to the
identity, conjugation, or the constant 1.

Every kind (rotation, conjugate rotation, constant, fold, power and
sampled tables) has an array form.  check_nonexpansive_circle searches
seeded pairs for an expanding chord, classify_homomorphism reads a
multiplicative map's branch off its values at i and -1, and
classify_circle_map sorts a nonexpansive map into the three forms.
A circle map's JSON form is read and written in wignerlab.descriptors.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .states import UNIT_NORM_TOL, _is_integer

__all__ = [
    "CIRCLE_WITNESS_TOL",
    "FORM_MATCH_TOL",
    "HOM_BRANCH_TOL",
    "IDENTITY",
    "CONJUGATION",
    "CONSTANT_ONE",
    "NOT_APPLICABLE",
    "CircleMap",
    "CircleViolation",
    "CircleMapForm",
    "rotation",
    "conjugate_rotation",
    "constant",
    "fold",
    "power",
    "sampled",
    "unit_grid",
    "check_nonexpansive_circle",
    "classify_homomorphism",
    "classify_circle_map",
]

CIRCLE_WITNESS_TOL = 1e-9
FORM_MATCH_TOL = 1e-8
HOM_BRANCH_TOL = 1e-6
SPREAD_TOL = 1e-6
# the chord check's seeded random pairs, beside its grid pairs, for a map
# that is not a sampled table
CIRCLE_SAMPLES = 1000
CIRCLE_SEED = 42

IDENTITY = "identity"
CONJUGATION = "conjugation"
CONSTANT_ONE = "constant_one"
NOT_APPLICABLE = "not_applicable"


def _require_unit(c: complex) -> complex:
    """c as a complex number of modulus 1, the parameter c of a circle map."""
    c = complex(c)
    _require_units(np.array([c]), "circle map param 'c'")
    return c


def _require_units(values: np.ndarray, what: str, entries=None) -> None:
    """Refuse a 1-d array of values of modulus other than 1: the ValueError
    names what they are and the first refused value, or its entry of
    entries (entries[i], the source of values[i]) if given."""
    off = np.flatnonzero(~(np.abs(np.abs(values) - 1.0) <= UNIT_NORM_TOL))  # NaN is off too
    if off.size:
        got = complex(values[off[0]]) if entries is None else entries[off[0]]
        raise ValueError(f"{what} must have modulus 1 within {UNIT_NORM_TOL}, got {got!r}")


@dataclass(frozen=True)
class CircleMap:
    """A self-map of the unit circle with a structural form tag.

    fn is the array form: it takes an (n,) complex array of unit points
    and returns their (n,) images.  :meth:`batch` is the validation
    boundary every evaluation goes through, and a scalar call is a
    one-point batch.  Sampled maps are defined only on their recorded
    input angles.
    """

    kind: str
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False)
    param: complex | int | None = None
    table: tuple[tuple[float, complex], ...] | None = None

    def batch(self, zs) -> np.ndarray:
        """Images of a 1-d array of unit points; a non-unit image is a ValueError."""
        zs = np.asarray(zs, dtype=complex)
        if zs.ndim != 1:
            raise ValueError(f"circle maps take a 1-d array of points, got shape {zs.shape}")
        w = np.asarray(self.fn(zs), dtype=complex)
        if w.shape != zs.shape:
            raise ValueError(f"{self.kind} map returned shape {w.shape} for {zs.size} points")
        off = ~(np.abs(np.abs(w) - 1.0) <= UNIT_NORM_TOL)  # NaN is off too
        if off.any():
            raise ValueError(f"{self.kind} map produced a non-unit value {complex(w[off][0])!r}")
        return w

    def __call__(self, z: complex) -> complex:
        """The image of one point: a one-point batch."""
        return complex(self.batch([z])[0])

    @property
    def inputs(self) -> np.ndarray | None:
        """Recorded input points of a sampled map, None otherwise."""
        if self.table is None:
            return None
        return np.exp(1j * np.array([theta for theta, _ in self.table]))


def rotation(c: complex) -> CircleMap:
    """z -> c*z for a fixed unit c."""
    c = _require_unit(c)
    return CircleMap("rotation", lambda z: c * z, param=c)


def conjugate_rotation(c: complex) -> CircleMap:
    """z -> c*conj(z) for a fixed unit c."""
    c = _require_unit(c)
    return CircleMap("conj_rotation", lambda z: c * z.conj(), param=c)


def constant(c: complex) -> CircleMap:
    """z -> c for a fixed unit c."""
    c = _require_unit(c)
    return CircleMap("constant", lambda z: np.full(z.shape, c), param=c)


def fold() -> CircleMap:
    """Reflect the lower half-circle up: exp(i*t) -> exp(i*|t|).

    Computed as z on the upper half-circle and conj(z) on the lower one,
    so no angle is taken and the bits do not depend on numpy's build.
    """
    return CircleMap("fold", lambda z: np.where(z.imag >= 0.0, z, z.conj()))


def power(k: int) -> CircleMap:
    """z -> z**k for an integer k with |k| <= 2**53; expanding for |k| >= 2.

    A larger exponent is refused: it need not be exact as a float64, and
    numpy's z**k overflows, with warnings, on some (2**62).  For |k| >= 100
    numpy computes z**k as exp(k log z), whose modulus drifts from 1 by
    about k roundings of |z|: an image more than UNIT_NORM_TOL off the
    circle is divided by its modulus, and every other keeps its bits.
    """
    if not _is_integer(k):
        raise ValueError(f"power exponent must be an integer, got {k!r}")
    k = int(k)
    if abs(k) > 2**53:
        raise ValueError(f"power exponent k must be at most 2**53 in absolute value, got {k}")

    def fn(z: np.ndarray) -> np.ndarray:
        w = z**k
        off = np.abs(np.abs(w) - 1.0) > UNIT_NORM_TOL
        w[off] /= np.abs(w[off])
        return w

    return CircleMap("power", fn, param=k)


def _phases(zs) -> np.ndarray:
    """cmath.phase of every point.

    Not np.angle: recorded angles and spreads must not depend on numpy's
    SIMD build.
    """
    return np.array([cmath.phase(z) for z in np.asarray(zs, dtype=complex).tolist()])


def _sampled_table(angles, values, entries=None) -> CircleMap:
    """Tabulated map from an array of finite input angles and one of unit output
    values; a refused value is named by its entry of entries if given."""
    angles = np.array(angles, dtype=float)
    values = np.array(values, dtype=complex)
    if not angles.size:
        raise ValueError("sampled circle map needs at least one entry")
    _require_units(values, "sampled circle map table values", entries)
    table = tuple(zip(angles.tolist(), values.tolist()))

    def fn(zs: np.ndarray) -> np.ndarray:
        # per query point, the first table angle within 1e-9 of its angle
        delta = np.abs(np.angle(zs)[:, None] - angles) % (2.0 * math.pi)
        hit = np.minimum(delta, 2.0 * math.pi - delta) <= 1e-9
        missing = np.flatnonzero(~hit.any(axis=1))
        if missing.size:
            theta = cmath.phase(zs[missing[0]])
            raise ValueError(f"sampled circle map has no entry at angle {theta}")
        return values[hit.argmax(axis=1)]

    return CircleMap("sampled", fn, table=table)


def sampled(pairs) -> CircleMap:
    """Tabulated map from (input point, output point) unit-complex pairs."""
    pairs = list(pairs)
    points = np.array(pairs, dtype=complex)
    if not points.size:
        raise ValueError("sampled circle map needs at least one entry")
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("sampled circle map entries must be (input, output) pairs")
    _require_units(points[:, 0], "sampled circle map inputs", pairs)
    return _sampled_table(_phases(points[:, 0]), points[:, 1], pairs)


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


def _grid_points(g: CircleMap, grid_size: int) -> np.ndarray:
    if g.table is not None:
        return g.inputs
    return np.array(unit_grid(grid_size))


def _expanding_chord(z1, z2, w1, w2) -> CircleViolation | None:
    """The pair of inputs z1[k], z2[k] whose images w1[k], w2[k] expand their
    chord most, if by more than CIRCLE_WITNESS_TOL; None otherwise.

    The gap of a pair is Re(z1 conj(z2)) - Re(w1 conj(w2)), positive
    exactly when the image chord is longer; the witness is the first
    strictly largest gap.  No pairs give None.
    """
    # Re(a * conj(b)), written out
    gaps = (z1.real * z2.real + z1.imag * z2.imag) - (w1.real * w2.real + w1.imag * w2.imag)
    if not gaps.size or gaps.max() <= CIRCLE_WITNESS_TOL:
        return None
    k = int(np.argmax(gaps))
    return CircleViolation(complex(z1[k]), complex(z2[k]), float(gaps[k]))


def check_nonexpansive_circle(g: CircleMap) -> CircleViolation | None:
    """Search for a chord-expanding input pair; None when none is found.

    Tests all pairs from a grid of 32 points plus CIRCLE_SAMPLES random
    pairs seeded by CIRCLE_SEED, by _expanding_chord.  A sampled map
    tests all pairs of its recorded inputs, which are all the pairs it
    can evaluate.
    """
    points = _grid_points(g, 32)
    first, second = np.triu_indices(len(points), k=1)
    z1, z2 = points[first], points[second]
    if g.table is None:
        extra = np.exp(1j * np.random.default_rng(CIRCLE_SEED).uniform(
            0.0, 2.0 * math.pi, size=(2, CIRCLE_SAMPLES)))
        z1, z2 = np.concatenate([z1, extra[0]]), np.concatenate([z2, extra[1]])
    return _expanding_chord(z1, z2, g.batch(z1), g.batch(z2))


def _hom_branches(at_i: np.ndarray, at_minus_one: np.ndarray) -> np.ndarray:
    """The branch of each multiplicative map from its values at i and -1.

    The value at i separates the identity (i) from conjugation (-i); the
    constant branch is confirmed at -1.  Anything else is NOT_APPLICABLE,
    signalling a failed precondition.
    """
    near = lambda a, b: np.abs(a - b) <= HOM_BRANCH_TOL
    # the first branch that matches, as np.select picks it
    constant = np.where(near(at_i, 1.0) & near(at_minus_one, 1.0), CONSTANT_ONE, NOT_APPLICABLE)
    return np.where(near(at_i, 1j), IDENTITY, np.where(near(at_i, -1j), CONJUGATION, constant))


def classify_homomorphism(g: CircleMap) -> str:
    """Decide which nonexpansive multiplicative branch g lies on (see _hom_branches)."""
    at_i = g(1j)
    # the value at -1 matters, and is evaluated, only on the constant branch
    at_minus_one = g(-1.0 + 0j) if abs(at_i - 1.0) <= HOM_BRANCH_TOL else math.nan
    return str(_hom_branches(np.array([at_i]), np.array([at_minus_one]))[0])


@dataclass(frozen=True)
class CircleMapForm:
    """Structural class of a nonexpansive circle map.

    kind is "rotation", "conj_rotation", or "half_circle"; c carries the
    rotation coefficient, spread the angular width of a half-circle image.
    """

    kind: str
    c: complex | None = None
    spread: float | None = None


def _angular_spread(values: np.ndarray) -> float:
    """Width of the smallest arc containing all given unit values."""
    angles = np.sort(_phases(values) % (2.0 * math.pi))
    if angles.size == 1:
        return 0.0
    gaps = np.append(np.diff(angles), 2.0 * math.pi - angles[-1] + angles[0])
    return float(2.0 * math.pi - gaps.max())


def classify_circle_map(g: CircleMap) -> CircleMapForm:
    """Sort a nonexpansive map into rotation / conjugate rotation / half-circle.

    Matches the closed forms z -> c*z and z -> c*conj(z) with c = g(1) on
    a grid of 64 points (a sampled map's recorded inputs instead);
    otherwise the image must fit in a closed half-circle, and a wider
    image raises ValueError because it contradicts nonexpansiveness.
    """
    points = _grid_points(g, 64)
    c = g(1.0 + 0j)
    values = g.batch(points)
    if (np.abs(values - c * points) <= FORM_MATCH_TOL).all():
        return CircleMapForm("rotation", c=c)
    if (np.abs(values - c * points.conj()) <= FORM_MATCH_TOL).all():
        return CircleMapForm("conj_rotation", c=c)
    spread = _angular_spread(values)
    if spread > math.pi + SPREAD_TOL:
        raise ValueError(
            "image spread exceeds a half-circle; map cannot be nonexpansive"
        )
    return CircleMapForm("half_circle", spread=spread)
