"""JSON wire formats round-trip every serializable family."""

from __future__ import annotations

import cmath
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wignerlab import (
    block_embed,
    composed_phi_form,
    conjugate_rotation,
    constant,
    constant_map,
    entrywise_abs,
    fold,
    map_from_json,
    map_to_json,
    power,
    proper_subspace_map,
    pure_state,
    rotation,
    random_unitary,
    sample_pure_state,
    sampled,
    sampled_from_json,
    sampled_to_json,
    separable_embed,
    standard_map,
    state_from_json,
    state_from_params,
    state_to_json,
    unit_grid,
    wigner_map,
)
from wignerlab.descriptors import (
    _complex_values,
    circle_map_from_json,
    circle_map_to_json,
    matrix_from_json,
    matrix_to_json,
)


def test_matrix_round_trip():
    u = random_unitary(3, 60)
    back = matrix_from_json(matrix_to_json(u))
    assert np.array_equal(back, u)
    with pytest.raises(ValueError):
        matrix_from_json([[1.0, 0.0]] * 3)  # 3 entries, not a square


def test_circle_map_round_trip():
    for g in (rotation(1j), fold(), power(3)):
        back = circle_map_from_json(circle_map_to_json(g))
        assert back.kind == g.kind
        for z in (1.0 + 0j, 1j, np.exp(0.3j)):
            assert abs(back(z) - g(z)) <= 1e-12
    with pytest.raises(ValueError):
        circle_map_from_json({"kind": "mystery"})


# every finite float: -0.0, subnormals and the largest magnitudes included
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# unit values, with signed zeros and subnormal parts among them
_UNITS = st.one_of(
    st.floats(-math.pi, math.pi).map(lambda t: cmath.exp(1j * t)),
    st.sampled_from([complex(1.0, -0.0), complex(-0.0, 1.0), complex(1.0, 5e-324),
                     complex(-1.0, -2.2250738585072014e-308)]),
)


def _decodes_to_complex_bits(pairs) -> bool:
    expected = np.array([complex(re, im) for re, im in pairs], dtype=complex)
    return _complex_values(pairs, "pairs").tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 5),
    entries=st.lists(st.tuples(_FLOATS, _FLOATS), min_size=25, max_size=25),
    state_parts=st.lists(_FLOATS, min_size=4, max_size=4),
    table=st.lists(st.tuples(_FLOATS, _UNITS), min_size=1, max_size=6),
    ints=st.lists(st.tuples(st.integers(-2**80, 2**80), _FLOATS), max_size=4),
)
def test_wire_values_round_trip_to_the_same_text(n, entries, state_parts, table, ints):
    # encode -> json text -> decode -> encode gives the same text, and every
    # [re, im] pair decodes to the bits of complex(re, im)
    mat = np.array([complex(re, im) for re, im in entries[: n * n]]).reshape(n, n)
    text = json.dumps(matrix_to_json(mat))
    back = matrix_from_json(json.loads(text))
    assert back.tobytes() == mat.tobytes()
    assert json.dumps(matrix_to_json(back)) == text
    assert _decodes_to_complex_bits(json.loads(text))

    scale = max(map(abs, state_parts))
    if scale > 0.0:  # scaled to parts of at most 1, so that the norm is finite
        parts = np.array(state_parts) / scale
        state = pure_state(parts[:2] + 1j * parts[2:])
        text = json.dumps(state_to_json(state))
        back = state_from_json(json.loads(text))
        assert back.vec.tobytes() == state.vec.tobytes()
        assert json.dumps(state_to_json(back)) == text
        assert _decodes_to_complex_bits(json.loads(text)["vec"])

    g = sampled_from_json([[theta, [w.real, w.imag]] for theta, w in table])
    text = json.dumps(sampled_to_json(g))
    back = sampled_from_json(json.loads(text))
    assert back.table == g.table
    assert json.dumps(sampled_to_json(back)) == text
    assert _decodes_to_complex_bits([w for _, w in json.loads(text)])
    # a JSON integer is a number too, rounded as complex() rounds it
    assert _decodes_to_complex_bits(json.loads(json.dumps(ints)))


# the smallest integer that float64 does not hold: it and every larger one round to infinity
_FLOAT_LIMIT = 2**1024 - 2**970


def _number_type(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _in_float_range(x) -> bool:
    return not isinstance(x, int) or abs(x) < _FLOAT_LIMIT


def _finite_number(x) -> bool:
    """Reference rule of a wire number: an int or a float, not a bool, finite as a float64."""
    return _number_type(x) and _in_float_range(x) and abs(x) < math.inf


def _valid_pair(entry) -> bool:
    return isinstance(entry, (list, tuple)) and len(entry) == 2 and all(map(_finite_number, entry))


_TABLE_FAULT = "sampled circle map table entries must be [theta_in, [re, im]] pairs of numbers"
_ANGLE_FAULT = "sampled circle map input angles must be finite"


def _table_fault(entry) -> str | None:
    """Reference rule of a table entry: the message that refuses it, or None."""
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2 and _valid_pair(entry[1])
            and _number_type(entry[0]) and _in_float_range(entry[0])):
        return _TABLE_FAULT
    return None if _finite_number(entry[0]) else _ANGLE_FAULT


# numbers every field accepts (three branches of four), and ones that none accepts
_WIRE_NUMBERS = st.one_of(
    _FLOATS, st.integers(-2**64, 2**64), st.sampled_from([_FLOAT_LIMIT - 1, -0.0, 5e-324]),
    st.sampled_from([True, False, "1", None, math.nan, math.inf, -math.inf,
                     10**400, -(10**400), _FLOAT_LIMIT, -_FLOAT_LIMIT]),
)
_REFUSED_SHAPES = st.one_of(
    st.lists(_WIRE_NUMBERS, min_size=1, max_size=1),
    st.lists(_WIRE_NUMBERS, min_size=3, max_size=3),
    _WIRE_NUMBERS, st.just({}),
)
_WIRE_PAIRS = st.one_of(st.lists(_WIRE_NUMBERS, min_size=2, max_size=2),
                        st.tuples(_WIRE_NUMBERS, _WIRE_NUMBERS), _REFUSED_SHAPES)


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(_WIRE_PAIRS, max_size=5))
@example(pairs=[[math.nan, 0], [True, 0]])
@example(pairs=[[1, 0], [10**400, 0], ["x", 0]])
def test_the_first_refused_pair_is_named(pairs):
    refused = [entry for entry in pairs if not _valid_pair(entry)]
    try:
        _complex_values(pairs, "pairs")
    except ValueError as err:
        assert refused and str(err) == f"pairs, got {refused[0]!r}"
    else:
        assert not refused and _decodes_to_complex_bits(pairs)


_TABLE_VALUES = st.one_of(_UNITS.map(lambda w: [w.real, w.imag]), _WIRE_PAIRS)
_TABLE = st.lists(st.one_of(st.tuples(_WIRE_NUMBERS, _TABLE_VALUES).map(list), _REFUSED_SHAPES),
                  min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(table=_TABLE)
@example(table=[[math.nan, [1, 0]], [True, [1, 0]]])
@example(table=[[0, [1, 0]], [10**400, [1, 0]], [math.inf, [0, 1]]])
@example(table=[[0, [1, math.nan]]])
def test_the_first_refused_table_entry_is_named_whole(table):
    faults = [(entry, fault) for entry in table if (fault := _table_fault(entry))]
    try:
        g = sampled_from_json(table)
    except ValueError as err:
        if not faults:  # well-formed, but a value is off the unit circle: the first is named
            # hypot: the modulus of a value near the float limit is inf, not an OverflowError
            off = next(entry for entry in table if abs(math.hypot(*entry[1]) - 1.0) > 1e-12)
            assert str(err) == (
                f"sampled circle map table values must have modulus 1 within 1e-12, got {off!r}"
            )
            return
        entry, fault = faults[0]
        assert str(err) == f"{fault}, got {entry!r}"
    else:
        assert not faults
        angles, values = map(np.array, zip(*g.table))
        assert angles.tobytes() == np.array([float(t) for t, _ in table]).tobytes()
        assert values.tobytes() == np.array([complex(*w) for _, w in table]).tobytes()


def _rows(dim: int, g=None) -> np.ndarray:
    """Sample rows: random states, or in dimension 2 the weight/phase grid
    (at a sampled phase map's recorded inputs, where it is defined)."""
    if dim == 2:
        phases = unit_grid(8) if g is None or g.inputs is None else g.inputs
        grid = [state_from_params(p, z) for p in (0.25, 0.5, 0.75) for z in phases]
        return np.array([s.vec for s in grid] + [np.eye(2)[0], np.eye(2)[1]], dtype=complex)
    rng = np.random.default_rng(67)
    return np.array([sample_pure_state(rng, dim).vec for _ in range(25)])


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, allow_nan=False)


_SAMPLED = sampled((z, z**2) for z in unit_grid(8))


@pytest.mark.parametrize(
    "build,dim",
    [
        (lambda: wigner_map(random_unitary(3, 61)), 3),
        (lambda: wigner_map(random_unitary(3, 62), antiunitary=True), 3),
        (lambda: entrywise_abs(4), 4),
        (lambda: entrywise_abs(3, basis=random_unitary(3, 63)), 3),
        (lambda: standard_map(rotation(np.exp(0.8j))), 2),
        (lambda: composed_phi_form(random_unitary(3, 64), random_unitary(3, 65)), 3),
        (lambda: block_embed(3), 3),
        (
            lambda: separable_embed(
                [sample_pure_state(np.random.default_rng(66), 3) for _ in range(4)]
            ),
            3,
        ),
        (lambda: proper_subspace_map(4, 2, alpha0=1), 4),
        pytest.param(lambda: constant_map(3), 3, id="constant"),
        pytest.param(lambda: block_embed(3, threshold=0.3), 3, id="block_embed-threshold"),
        pytest.param(
            lambda: standard_map(conjugate_rotation(np.exp(-0.3j))), 2, id="tau-conj_rotation"
        ),
        pytest.param(lambda: standard_map(constant(1j)), 2, id="tau-constant"),
        pytest.param(lambda: standard_map(fold()), 2, id="tau-fold"),
        pytest.param(lambda: standard_map(power(3)), 2, id="tau-power"),
        pytest.param(lambda: standard_map(_SAMPLED), 2, id="tau-sampled"),
    ],
)
def test_map_descriptor_round_trip(build, dim):
    original = build()
    obj = map_to_json(original)
    assert set(obj["params"]) == set(original.params)  # wire keys are the params
    text = _dumps(obj)
    rebuilt = map_from_json(json.loads(text))
    assert rebuilt.family == original.family
    assert rebuilt.dim_in == original.dim_in == dim
    assert rebuilt.dim_out == original.dim_out
    g = original.params.get("g")
    rows = _rows(dim, g)
    assert _dumps(map_to_json(rebuilt)) == text
    assert np.array_equal(rebuilt.batch(rows), original.batch(rows))


def test_descriptor_dim_must_match_the_map():
    obj = map_to_json(wigner_map(random_unitary(3, 68)))
    obj["params"]["dim"] = 2
    with pytest.raises(ValueError):
        map_from_json(obj)
    tau = {"family": "tau", "params": {"dim": 3, "g": {"kind": "fold"}}}
    with pytest.raises(ValueError, match="dim"):
        map_from_json(tau)


def test_power_exponent_must_be_an_integer():
    for k in (2.7, 2.0, True):  # a whole float or a bool is not a JSON integer
        with pytest.raises(ValueError, match="integer"):
            circle_map_from_json({"kind": "power", "k": k})
    assert circle_map_from_json({"kind": "power", "k": 2}).param == 2


def test_power_exponent_is_at_most_two_to_the_53():
    for k in (2**53, -(2**53)):
        assert power(k).param == k
    for k in (2**53 + 1, -(2**53 + 1), 10**30):
        message = re.escape(f"power exponent k must be at most 2**53 in absolute value, got {k}")
        with pytest.raises(ValueError, match=message):
            power(k)
        with pytest.raises(ValueError, match=message):
            map_from_json({"family": "tau", "params": {"g": {"kind": "power", "k": k}}})


def test_map_from_json_rejects_malformed_descriptors():
    with pytest.raises(ValueError):
        map_from_json({"params": {}})
    with pytest.raises(ValueError):
        map_from_json({"family": "nope", "params": {}})
    with pytest.raises(ValueError):
        map_from_json({"family": "phi", "params": [3]})
    with pytest.raises(ValueError):
        map_from_json({"family": "tau", "params": {"g": 5}})
    for dim in ("2", 2.5):  # an anchor state's dim must be a JSON integer
        anchor = {"dim": dim, "vec": [[1.0, 0.0], [0.0, 0.0]]}
        with pytest.raises(ValueError, match="'dim' must be an integer"):
            map_from_json({"family": "separable_embed", "params": {"anchors": [anchor]}})


_HUGE = 10**400  # a Python integer that no float64 holds


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"family": "block_embed", "params": {"dim": 3, "threshold": _HUGE}},
         f"threshold must be a number in the float range, got {_HUGE}"),
        ({"family": "wigner", "params": {"unitary": [[1, 0], [0, 0], [0, 0], [-_HUGE, 0]]}},
         f"map param 'unitary' must be a list of [re, im] pairs of numbers, got [{-_HUGE}, 0]"),
        ({"family": "tau", "params": {"g": {"kind": "sampled", "table": [[0, [1, 0]], [_HUGE, [1, 0]]]}}},
         "sampled circle map table entries must be [theta_in, [re, im]] pairs of numbers, "
         f"got [{_HUGE}, [1, 0]]"),
        ({"family": "tau", "params": {"g": {"kind": "rotation", "c": [1, _HUGE]}}},
         f"circle map param 'c' must be an [re, im] pair of numbers, got [1, {_HUGE}]"),
        ({"family": "constant", "params": {"dim": _HUGE}},
         f"map dimensions must be integers in the float range, got {_HUGE} -> {_HUGE}"),
    ],
    ids=["threshold", "unitary-entry", "table-angle", "rotation-c", "constant-dim"],
)
def test_integers_beyond_the_float_range_name_their_field(obj, message):
    # float() of such an integer raises OverflowError, which is not a descriptor error
    with pytest.raises(ValueError) as err:
        map_from_json(obj)
    assert str(err.value) == message


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_a_non_finite_table_angle_is_refused_by_its_entry(angle):
    with pytest.raises(ValueError) as err:
        sampled_from_json([[0.0, [1.0, 0.0]], [angle, [0.0, 1.0]]])
    assert str(err.value) == (
        f"sampled circle map input angles must be finite, got [{angle!r}, [0.0, 1.0]]"
    )


def test_a_state_whose_norm_overflows_is_refused_by_its_field():
    # every amplitude is finite, but the squared norm that normalizing divides by is not
    for vec in ([[1e308, 0], [1e308, 1e308]], [[1e200, 0], [0, 0]]):
        with pytest.raises(ValueError) as err:
            state_from_json({"dim": 2, "vec": vec})
        assert str(err.value) == f"state JSON 'vec' norm overflows float64, got {vec!r}"
    # a norm whose square stays in the float range still loads
    state = state_from_json({"dim": 2, "vec": [[1e153, 0], [0, 1e153]]})
    assert np.abs(state.vec - [2**-0.5, 2**-0.5 * 1j]).max() <= 1e-15


_NOT_UNITARY = "is not unitary within 1e-10, got largest |U*U - I| entry"
_DIAG_2_1 = [[2, 0], [0, 0], [0, 0], [1, 0]]  # diag(2, 1): its U*U - I is diag(3, 0)
_IDENTITY_2 = [[1, 0], [0, 0], [0, 0], [1, 0]]


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"family": "tau", "params": {"g": {"kind": "sampled", "table": [[0, [0, 0]]]}}},
         "sampled circle map table values must have modulus 1 within 1e-12, got [0, [0, 0]]"),
        ({"family": "tau", "params": {"g": {"kind": "sampled",
                                             "table": [[0, [1, 0]], [1, [0.6, 0.8]], [2, [1, 1]]]}}},
         "sampled circle map table values must have modulus 1 within 1e-12, got [2, [1, 1]]"),
        *(
            ({"family": "tau", "params": {"g": {"kind": kind, "c": [2, 0]}}},
             "circle map param 'c' must have modulus 1 within 1e-12, got (2+0j)")
            for kind in ("rotation", "conj_rotation", "constant")
        ),
        ({"family": "wigner", "params": {"unitary": _DIAG_2_1}},
         f"map param 'unitary' {_NOT_UNITARY} 3.0"),
        ({"family": "phi", "params": {"dim": 2, "basis": _DIAG_2_1}},
         f"map param 'basis' {_NOT_UNITARY} 3.0"),
        ({"family": "composed", "params": {"pre": _DIAG_2_1, "post": _IDENTITY_2}},
         f"map param 'pre' {_NOT_UNITARY} 3.0"),
        ({"family": "composed", "params": {"pre": _IDENTITY_2, "post": _DIAG_2_1}},
         f"map param 'post' {_NOT_UNITARY} 3.0"),
    ],
    ids=["table-zero", "table-third", "rotation", "conj_rotation", "constant", "wigner",
         "phi-basis", "composed-pre", "composed-post"],
)
def test_off_circle_and_non_unitary_values_name_their_field(obj, message):
    with pytest.raises(ValueError) as err:
        map_from_json(obj)
    assert str(err.value) == message


def test_builders_name_the_value_they_refuse():
    # a Python caller gets the same ValueError as a descriptor
    for build in (rotation, conjugate_rotation, constant):
        with pytest.raises(ValueError) as err:
            build(0.5j)
        assert str(err.value) == "circle map param 'c' must have modulus 1 within 1e-12, got 0.5j"
    with pytest.raises(ValueError) as err:
        sampled([(1, 1j), (1j, 2)])
    assert str(err.value) == (
        "sampled circle map table values must have modulus 1 within 1e-12, got (1j, 2)"
    )
    with pytest.raises(ValueError) as err:
        sampled([(2, 1)])
    assert str(err.value) == "sampled circle map inputs must have modulus 1 within 1e-12, got (2, 1)"
    with pytest.raises(ValueError) as err:
        wigner_map(np.diag([2.0, 1.0]))
    assert str(err.value) == f"map param 'unitary' {_NOT_UNITARY} 3.0"


def test_block_embed_refuses_a_non_finite_threshold():
    # a NaN threshold sent every state to one block, and its descriptor was not JSON
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="threshold must be finite, got non-finite"):
            block_embed(3, value)


# wire numbers, the ones no descriptor may hold included
_NUMBERS = st.one_of(
    st.floats(), st.integers(-3, 6), st.integers(),
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400), 0.5, 1, -1]),
)
_DESCRIPTORS = st.one_of(
    st.builds(lambda d, t: {"family": "block_embed", "params": {"dim": d, "threshold": t}},
              st.one_of(st.integers(2, 5), _NUMBERS), _NUMBERS),
    st.builds(lambda d: {"family": "phi", "params": {"dim": d}},
              st.one_of(st.integers(-1, 5), st.sampled_from([math.nan, math.inf, 10**400]))),
    st.builds(lambda d, k, a: {"family": "proper_subspace", "params": {"dim": d, "k": k, "alpha0": a}},
              st.integers(2, 5), _NUMBERS, _NUMBERS),
    st.builds(lambda x, y: {"family": "wigner",
                            "params": {"unitary": [[1, 0], [0, 0], [0, 0], [x, y]]}},
              _NUMBERS, _NUMBERS),
    st.builds(lambda x, y: {"family": "tau", "params": {"g": {"kind": "rotation", "c": [x, y]}}},
              _NUMBERS, _NUMBERS),
    st.builds(lambda k: {"family": "tau", "params": {"g": {"kind": "power", "k": k}}}, _NUMBERS),
    st.builds(lambda es: {"family": "tau", "params": {"g": {"kind": "sampled", "table": es}}},
              st.lists(st.tuples(_NUMBERS, st.tuples(_NUMBERS, _NUMBERS)).map(
                  lambda e: [e[0], list(e[1])]), min_size=1, max_size=3)),
    st.builds(lambda x, y: {"family": "separable_embed",
                            "params": {"anchors": [{"dim": 2, "vec": [[1, 0], [x, y]]}]}},
              _NUMBERS, _NUMBERS),
)


@settings(max_examples=300, deadline=None)
@given(obj=_DESCRIPTORS)
@example(obj={"family": "block_embed", "params": {"dim": 3, "threshold": math.nan}})
@example(obj={"family": "block_embed", "params": {"dim": 3, "threshold": -math.inf}})
def test_every_accepted_descriptor_is_strict_json(obj):
    # the decoder refuses every number the strict encoder cannot write
    try:
        map_ = map_from_json(obj)
    except ValueError:
        return
    text = json.dumps(map_to_json(map_), allow_nan=False)
    assert json.dumps(map_to_json(map_from_json(json.loads(text))), allow_nan=False) == text


def test_descriptor_errors_name_the_family_and_the_param():
    cases = [
        ({"family": "phi", "params": {"dim": 3, "foo": 1}}, "map family 'phi' has no param 'foo'"),
        ({"family": "tau", "params": {"g": {"kind": "fold"}, "bar": 1}}, "map family 'tau' has no param 'bar'"),
        ({"family": "proper_subspace", "params": {"dim": 5}}, "map family 'proper_subspace' needs param 'k'"),
        ({"family": "wigner", "params": {"dim": 3}}, "map family 'wigner' needs param 'unitary'"),
    ]
    for obj, message in cases:
        with pytest.raises(ValueError) as err:
            map_from_json(obj)
        assert str(err.value) == message


def test_circle_descriptor_errors_name_the_kind_and_the_param():
    cases = [
        ({"kind": "fold", "c": [0, 1]}, "circle map kind 'fold' has no param 'c'"),
        ({"kind": "rotation", "c": [0, 1], "k": 3}, "circle map kind 'rotation' has no param 'k'"),
        ({"kind": "power", "k": 2, "table": []}, "circle map kind 'power' has no param 'table'"),
        ({"kind": "rotation"}, "circle map kind 'rotation' needs param 'c'"),
        ({"kind": "sampled"}, "circle map kind 'sampled' needs param 'table'"),
    ]
    for obj, message in cases:
        with pytest.raises(ValueError) as err:
            circle_map_from_json(obj)
        assert str(err.value) == message


def test_opaque_maps_have_no_descriptor():
    from wignerlab import opaque_map

    with pytest.raises(ValueError):
        map_to_json(opaque_map(lambda s: s, 2, 2))
