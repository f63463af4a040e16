"""JSON wire formats: complex numbers, matrices, states, circle maps, map descriptors.

The only module that reads or writes the wire form.  A complex number is
an [re, im] pair of two finite JSON numbers (not bools or strings, nor
integers beyond the float range), written by _pairs and read by _complex_values;
a matrix is a flat row-major list of pairs, a state {"dim": d, "vec":
[pairs]} (a real or complex vector, written the same way), a circle map
{"kind": ..., <param>: ...} (one entry per kind in _CIRCLE_KINDS) and a
map descriptor {"family": ..., "params": ...} (one builder per family in
_FAMILIES).  An unknown key is refused at every level, and the entries of
a list are checked once, in order: a refusal names the first refused one.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from . import circle, maps
from .circle import CircleMap, _sampled_table
from .maps import StateMap
from .states import (
    GAUGE_TOL,
    UNIT_NORM_TOL,
    PureState,
    _float,
    _is_integer,
    _trusted_state,
    pure_state,
)

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "state_to_json",
    "state_from_json",
    "sampled_to_json",
    "sampled_from_json",
    "circle_map_to_json",
    "circle_map_from_json",
    "map_to_json",
    "map_from_json",
]


def _pairs(values) -> list[list[float]]:
    """[re, im] pairs of floats, one per complex value: the one encoder of the wire form."""
    flat = np.ascontiguousarray(values, dtype=complex).reshape(-1)
    return flat.view(float).reshape(-1, 2).tolist()


def _finite_pair(pair) -> bool:
    """pair is a list or tuple of two finite numbers (see _float)."""
    if type(pair) not in (list, tuple) or len(pair) != 2:
        return False
    re, im = _float(pair[0]), _float(pair[1])
    return re is not None and im is not None and math.isfinite(re) and math.isfinite(im)


def _complex_values(pairs, what: str) -> np.ndarray:
    """The complex numbers of a list of [re, im] pairs of finite numbers, each
    the bits of complex(re, im): the one decoder of the wire form.  The first
    entry that is not such a pair is a ValueError "<what>, got <entry>"."""
    if not isinstance(pairs, (list, tuple)):
        raise ValueError(f"{what}, got {pairs!r}")
    flat = []
    for pair in pairs:
        if not _finite_pair(pair):
            raise ValueError(f"{what}, got {pair!r}")
        flat += pair
    return np.array(flat, dtype=float).view(complex)


def matrix_to_json(mat: np.ndarray) -> list[list[float]]:
    """Flat row-major [re, im] pairs of a square complex matrix."""
    return _pairs(mat)


def _square_matrix(data, name: str) -> np.ndarray:
    flat = _complex_values(data, f"{name} must be a list of [re, im] pairs of numbers")
    n = math.isqrt(flat.size)
    if n == 0 or n * n != flat.size:
        raise ValueError(f"{name} entry count {flat.size} is not a nonzero square")
    return flat.reshape(n, n)


def matrix_from_json(data) -> np.ndarray:
    """Rebuild a square matrix from flat row-major [re, im] pairs."""
    return _square_matrix(data, "matrix")


def state_to_json(state: PureState) -> dict:
    """JSON object for a state: dimension plus [re, im] amplitude pairs."""
    return {"dim": state.dim, "vec": _pairs(state.vec)}


def state_from_json(obj: dict) -> PureState:
    """Rebuild a state from its JSON object, whose only keys are 'dim' and 'vec'.

    Canonical amplitudes are kept exactly, so a witness on a decision
    boundary reloads on its side; others are renormalized and re-gauged.
    """
    if not isinstance(obj, dict) or "dim" not in obj or "vec" not in obj:
        raise ValueError("state JSON must carry 'dim' and 'vec'")
    for name in obj:
        if name not in ("dim", "vec"):
            raise ValueError(f"state JSON has no key {name!r}")
    dim = obj["dim"]
    if not _is_integer(dim):
        raise ValueError(f"state JSON 'dim' must be an integer, got {dim!r}")
    vec = _complex_values(
        obj["vec"], "state JSON 'vec' must be a list of [re, im] pairs of numbers"
    )
    if vec.size != dim:
        raise ValueError(f"state JSON length {vec.size} does not match dim {dim}")
    if dim < 2:
        raise ValueError(f"state JSON 'dim' must be at least 2, got {dim}")
    norm = np.sqrt(np.einsum("i,i", vec.view(float), vec.view(float)))
    if not np.isfinite(norm):
        # every amplitude is finite, but the squared norm pure_state divides by is not
        raise ValueError(f"state JSON 'vec' norm overflows float64, got {obj['vec']!r}")
    if not norm > GAUGE_TOL:
        raise ValueError(f"state JSON 'vec' is a (near) zero vector, got {obj['vec']!r}")
    state = pure_state(vec)
    # PureState's test of a canonical vector, without a second canonicalization
    return _trusted_state(vec) if np.abs(state.vec - vec).max() <= UNIT_NORM_TOL else state


def sampled_to_json(g: CircleMap) -> list[list]:
    """[theta_in, [re, im]] pairs of a sampled map: its stored input angle
    and output value, so that decoding gives back the same table."""
    if g.table is None:
        raise ValueError("only sampled circle maps serialize to a table")
    angles, values = zip(*g.table)
    return [[t, w] for t, w in zip(angles, _pairs(values))]


_TABLE_ENTRIES = "sampled circle map table entries must be [theta_in, [re, im]] pairs of numbers"


def sampled_from_json(table) -> CircleMap:
    """Rebuild a sampled map from [theta_in, [re, im]] pairs of finite numbers.
    The first refused entry is named whole: "input angles must be finite" if
    its only fault is a NaN or infinite angle, else _TABLE_ENTRIES.  Once
    every entry is such a pair, the first whose value is off the unit circle
    is named."""
    if not isinstance(table, (list, tuple)):
        raise ValueError(f"{_TABLE_ENTRIES}, got {table!r}")
    angles, flat = [], []
    for entry in table:
        angle = _float(entry[0]) if type(entry) in (list, tuple) and len(entry) == 2 else None
        if angle is None or not _finite_pair(entry[1]):
            raise ValueError(f"{_TABLE_ENTRIES}, got {entry!r}")
        if not math.isfinite(angle):
            raise ValueError(f"sampled circle map input angles must be finite, got {entry!r}")
        angles.append(entry[0])
        flat += entry[1]
    return _sampled_table(angles, np.array(flat, dtype=float).view(complex), table)


def _unit_kind(build):
    """A circle kind with one unit-complex parameter c, as an [re, im] pair."""
    decode = lambda c: build(
        _complex_values([c], "circle map param 'c' must be an [re, im] pair of numbers")[0]
    )
    return "c", lambda g: _pairs([g.param])[0], decode


# kind -> (wire parameter or None, its encoder, constructor from its wire value)
_CIRCLE_KINDS = {
    "rotation": _unit_kind(circle.rotation),
    "conj_rotation": _unit_kind(circle.conjugate_rotation),
    "constant": _unit_kind(circle.constant),
    "fold": (None, None, circle.fold),
    "power": ("k", lambda g: int(g.param), circle.power),
    "sampled": ("table", sampled_to_json, sampled_from_json),
}


def circle_map_to_json(g: CircleMap) -> dict:
    """Tagged JSON for a circle map with known structure."""
    if g.kind not in _CIRCLE_KINDS:
        raise ValueError(f"circle map kind {g.kind!r} has no JSON form")
    key, encode, _ = _CIRCLE_KINDS[g.kind]
    return {"kind": g.kind} if key is None else {"kind": g.kind, key: encode(g)}


def circle_map_from_json(obj: dict) -> CircleMap:
    """Rebuild a circle map from its tagged JSON: "kind" and that kind's own key."""
    if not isinstance(obj, dict):
        raise ValueError("circle map must be an object with a 'kind' tag")
    kind = obj.get("kind")
    if kind not in _CIRCLE_KINDS:
        raise ValueError(f"unknown circle map kind {kind!r}")
    key, _, build = _CIRCLE_KINDS[kind]
    for name in obj:
        if name not in ("kind", key):
            raise ValueError(f"circle map kind {kind!r} has no param {name!r}")
    if key is None:
        return build()
    if key not in obj:
        raise ValueError(f"circle map kind {kind!r} needs param {key!r}")
    return build(obj[key])


def _anchors(data, name: str) -> list[PureState]:
    if not isinstance(data, list):
        raise ValueError(f"{name} must be a list of states, got {data!r}")
    return [state_from_json(s) for s in data]


# family -> builder taking the decoded wire params as keywords; a
# builder without a dim parameter gets its dimension from the other
# params, and map_from_json checks a dim in the descriptor against it
_FAMILIES = {
    "wigner": maps.wigner_map,
    "phi": maps.entrywise_abs,
    "tau": maps.standard_map,
    "composed": maps.composed_phi_form,
    "block_embed": maps.block_embed,
    "separable_embed": maps.separable_embed,
    "proper_subspace": maps.proper_subspace_map,
    "constant": maps.constant_map,
}

# parameter name -> (encoder, decoder given the value and the param's name)
# of the params that are not JSON scalars
_CODECS = {
    **dict.fromkeys(("unitary", "basis", "pre", "post"), (matrix_to_json, _square_matrix)),
    "anchors": (lambda a: [state_to_json(s) for s in a], _anchors),
    "g": (circle_map_to_json, lambda g, name: circle_map_from_json(g)),
}


def _encode(name: str, value):
    if value is None or isinstance(value, (bool, int, float)):
        return value
    if name not in _CODECS:
        raise ValueError(f"map parameter {name!r} has no JSON form")
    return _CODECS[name][0](value)


def _decode(name: str, value):
    if value is None or name not in _CODECS:
        return value
    return _CODECS[name][1](value, f"map param {name!r}")


def map_to_json(map_: StateMap) -> dict:
    """Tagged JSON descriptor of a serializable map family."""
    if map_.family not in _FAMILIES:
        raise ValueError(f"map family {map_.family!r} has no JSON form")
    params = {name: _encode(name, value) for name, value in map_.params.items()}
    return {"family": map_.family, "params": params}


def map_from_json(obj: dict) -> StateMap:
    """Build a map from its tagged JSON descriptor; a dim in params must be the map's."""
    if not isinstance(obj, dict) or "family" not in obj:
        raise ValueError("map descriptor must be an object with a 'family' tag")
    for name in obj:
        if name not in ("family", "params"):
            raise ValueError(f"map descriptor has no key {name!r}")
    family = obj["family"]
    if family not in _FAMILIES:
        raise ValueError(f"unknown map family {family!r}")
    wire = obj.get("params", {})
    if not isinstance(wire, dict):
        raise ValueError("map descriptor params must be an object")
    build = _FAMILIES[family]
    accepted = inspect.signature(build).parameters
    for name in wire:
        if name != "dim" and name not in accepted:
            raise ValueError(f"map family {family!r} has no param {name!r}")
    for name, param in accepted.items():
        if param.default is param.empty and name not in wire:
            raise ValueError(f"map family {family!r} needs param {name!r}")
    params = {name: _decode(name, value) for name, value in wire.items()}
    map_ = build(**{name: value for name, value in params.items() if name in accepted})
    dim = params.get("dim")
    if dim is not None and dim != map_.dim_in:
        raise ValueError(f"descriptor dim {dim} is not the map's dimension {map_.dim_in}")
    return map_
