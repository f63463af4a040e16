"""The batched map protocol: StateMap.batch is the one evaluation path.

Every family maps an (n, dim) block of gauge-fixed unit rows in one call;
per-state calls are one-row batches, so both must agree bit for bit, and
every invalid image block is rejected at the batch boundary.  Circle maps
follow the same protocol on (n,) arrays of points (CircleMap.batch).
"""

from __future__ import annotations

import cmath
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerlab import (
    OrthoSystem,
    PureState,
    StateMap,
    block_embed,
    classify,
    composed_phi_form,
    conjugate_rotation,
    constant,
    constant_map,
    entrywise_abs,
    fold,
    opaque_map,
    power,
    proper_subspace_map,
    pure_state,
    random_unitary,
    reduce_to_canonical,
    rotation,
    sample_pure_state,
    sampled,
    separable_embed,
    standard_map,
    unit_grid,
    wigner_map,
)
from wignerlab.states import _canonical_rows, _param_rows


def _canonical_model(dim: int) -> StateMap:
    pre, post = random_unitary(dim, 61), random_unitary(dim, 62)
    hint = OrthoSystem(tuple(pure_state(pre.conj().T[:, j]) for j in range(dim)))
    return reduce_to_canonical(composed_phi_form(pre, post), hint)[2]


def _reduced_tau_model() -> StateMap:
    model = classify(wigner_map(random_unitary(2, 63)), 2).model
    assert model.family == "reduced_tau"
    return model


def _square_entries(s: PureState) -> PureState:
    return pure_state(s.vec**2 + 0.1)


FAMILIES = {
    "phi": (3, lambda: entrywise_abs(3)),
    "phi basis": (3, lambda: entrywise_abs(3, random_unitary(3, 51))),
    "wigner unitary": (4, lambda: wigner_map(random_unitary(4, 52))),
    "wigner antiunitary": (4, lambda: wigner_map(random_unitary(4, 53), antiunitary=True)),
    "composed": (3, lambda: composed_phi_form(random_unitary(3, 54), random_unitary(3, 55))),
    "tau fold": (2, lambda: standard_map(fold())),
    "tau constant": (2, lambda: standard_map(constant(1.0))),
    "tau power2": (2, lambda: standard_map(power(2))),
    "tau power-3": (2, lambda: standard_map(power(-3))),
    "tau rotation": (2, lambda: standard_map(rotation(cmath.exp(0.7j)))),
    "tau conj_rotation": (2, lambda: standard_map(conjugate_rotation(1j))),
    "block_embed": (3, lambda: block_embed(3)),
    "separable_embed": (
        4, lambda: separable_embed([sample_pure_state(np.random.default_rng(56), 4) for _ in range(16)])
    ),
    "proper_subspace": (5, lambda: proper_subspace_map(5, 3, alpha0=1)),
    "opaque": (3, lambda: opaque_map(_square_entries, 3, 3)),
    "constant": (3, lambda: constant_map(3)),
    "canonical": (3, lambda: _canonical_model(3)),
    "reduced_tau": (2, _reduced_tau_model),
}
# the families whose fn returns a real image: their rows stay float64
REAL_FAMILIES = {"phi", "separable_embed", "proper_subspace"}


def _rows(seed: int, n: int, dim: int, special: bool) -> np.ndarray:
    """n state rows; with special, basis states and a weight-1/2 boundary row too."""
    rng = np.random.default_rng(seed)
    rows = np.array([sample_pure_state(rng, dim).vec for _ in range(n)]).reshape(n, dim)
    if special and n:
        rows[: min(n, dim)] = np.eye(dim, dtype=complex)[: min(n, dim)]
        rows[-1] = pure_state(np.r_[1.0, np.exp(0.3j), np.zeros(dim - 2)]).vec
    return rows


@pytest.mark.parametrize("name", sorted(FAMILIES))
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), n=st.integers(0, 40), special=st.booleans()
)
def test_batch_rows_equal_per_state_images_bit_for_bit(name, seed, n, special):
    dim, build = FAMILIES[name]
    map_ = build()
    rows = _rows(seed, n, dim, special)
    images = map_.batch(rows)
    assert images.shape == (n, map_.dim_out)
    assert images.dtype == (float if name in REAL_FAMILIES else complex)
    for k in range(n):
        image = map_(PureState(rows[k])).vec
        assert image.dtype == images.dtype and image.tobytes() == images[k].tobytes()
        # the image is a canonical state: unit norm, gauge-fixed
        PureState(images[k])


CIRCLES = {
    "rotation": lambda: rotation(cmath.exp(0.7j)),
    "conj_rotation": lambda: conjugate_rotation(1j),
    "constant": lambda: constant(cmath.exp(-0.4j)),
    "fold": fold,
    "power 2": lambda: power(2),
    "power -3": lambda: power(-3),
    "sampled": lambda: sampled((z, z**3) for z in unit_grid(12)),
}


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=complex).view(np.uint64)


@pytest.mark.parametrize("name", sorted(CIRCLES))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
def test_circle_batch_entries_equal_scalar_calls_bit_for_bit(name, seed, n):
    g = CIRCLES[name]()
    rng = np.random.default_rng(seed)
    if g.table is None:
        zs = np.exp(1j * rng.uniform(-np.pi, np.pi, size=n))
        zs[:4] = np.array([1.0, 1j, -1.0, -1j])[: min(n, 4)]
    else:  # a sampled map is defined on its recorded inputs only
        zs = g.inputs[rng.integers(0, len(g.table), size=n)]
    values = g.batch(zs)
    assert values.shape == (n,) and values.dtype == complex
    for k in range(n):
        assert np.array_equal(_bits([g(zs[k])]), _bits(values[k : k + 1]))
    # the lift of g, on states with these phases: one batch against per-state calls
    p = rng.uniform(0.05, 0.95, size=n)
    rows = _canonical_rows(_param_rows(p, zs))
    lift = standard_map(g)
    images = lift.batch(rows)
    for k in range(n):
        assert np.array_equal(_bits(images[k]), _bits(lift(PureState(rows[k])).vec))


class _Raw:
    """What a misbehaving black box returns in place of a valid state."""

    def __init__(self, vec, dtype=complex):
        self.vec = np.asarray(vec, dtype=dtype)


def _nan_row(rows):
    out = rows.copy()
    out[-1] = np.nan
    return out


def _zero_row(rows):
    out = rows.copy()
    out[-1] = 0.0
    return out


def _inf_row(rows):
    out = rows.copy()
    out[-1] = np.inf
    return out


def _too_wide(rows):
    return np.hstack([rows, rows[:, :1]])


def _real(array_fn):
    """The same invalid row in a nonnegative float64 image block."""
    return lambda rows: array_fn(np.abs(rows))


INVALID = {
    "nan": (_nan_row, lambda s: _Raw(np.full(3, np.nan))),
    "zero": (_zero_row, lambda s: _Raw(np.zeros(3))),
    "too wide": (_too_wide, lambda s: _Raw(np.append(s.vec, 1.0))),
    "nan real": (_real(_nan_row), lambda s: _Raw(np.full(3, np.nan), float)),
    "inf real": (_real(_inf_row), lambda s: _Raw(np.full(3, np.inf), float)),
    "zero real": (_real(_zero_row), lambda s: _Raw(np.zeros(3), float)),
}


@pytest.mark.parametrize("kind", sorted(INVALID))
@pytest.mark.parametrize("form", ["array", "opaque"])
def test_batch_rejects_invalid_image_blocks(kind, form):
    array_fn, state_fn = INVALID[kind]
    if form == "array":
        map_ = StateMap("custom", 3, 3, array_fn)
    else:
        map_ = opaque_map(state_fn, 3, 3)
    rows = _rows(7, 5, 3, special=False)
    with pytest.raises(ValueError):
        map_.batch(rows)
    with pytest.raises(ValueError):
        map_(PureState(rows[-1]))


def test_non_finite_images_raise_without_a_numpy_warning():
    # a non-finite image is a ValueError, with no RuntimeWarning before it
    for inf in (np.inf + 0j, np.inf):  # a complex image, and a real one
        inf_map = StateMap("custom", 3, 3, lambda rows: np.full(rows.shape, inf))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                inf_map.batch(_rows(7, 5, 3, special=False))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            pure_state([np.inf, 0])


def test_batch_checks_its_input_shape():
    phi = entrywise_abs(3)
    with pytest.raises(ValueError):
        phi.batch(np.zeros((4, 2), dtype=complex))
    with pytest.raises(ValueError):
        phi.batch(np.zeros(3, dtype=complex))


def test_batch_never_writes_into_the_image_block_of_fn():
    # a read-only broadcast image, complex and real
    for target in (np.eye(3, dtype=complex)[1], np.eye(3)[1]):
        map_ = StateMap("custom", 3, 3, lambda rows: np.broadcast_to(2.0 * target, rows.shape))
        images = map_.batch(_rows(3, 4, 3, special=False))
        assert images.dtype == target.dtype
        assert np.array_equal(images, np.broadcast_to(target, (4, 3)))
        images[0, 0] = 5.0  # a fresh, writable array


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), dim=st.integers(2, 16),
    zeros=st.integers(0, 15), scale=st.integers(-20, 20),
)
def test_nonnegative_real_blocks_are_normalized_without_a_phase_step(seed, n, dim, zeros, scale):
    rng = np.random.default_rng(seed)
    x = np.abs(rng.standard_normal((n, dim))) * 2.0**scale
    x[:, : min(zeros, dim - 1)] = 0.0  # zero leading columns move every pivot
    out = _canonical_rows(x)
    # float64, and each row only divided by its norm, pivot in column 0 or not
    assert out.dtype == np.float64
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    assert out.tobytes() == (x / norms[:, None]).tobytes()
    # the phase step of the complex path rounds conj(x0)/|x0| to within an
    # ulp of 1: the two paths agree to within 4 ulps of a unit entry
    assert np.abs(out - _canonical_rows(x.astype(complex))).max() <= 4.5e-16
    # a float32 image is taken as its float64 cast
    rows = np.broadcast_to(np.eye(dim, dtype=complex)[0], (n, dim))
    x32 = x.astype(np.float32)
    images = StateMap("custom", dim, dim, lambda rows: x32).batch(rows)
    cast = StateMap("custom", dim, dim, lambda rows: x32.astype(float)).batch(rows)
    assert images.dtype == np.float64 and images.tobytes() == cast.tobytes()
