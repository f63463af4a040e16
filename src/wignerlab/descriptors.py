"""JSON wire formats for matrices, circle maps, and map descriptors.

Complex matrices serialize as flat row-major lists of [re, im] pairs.
Circle maps are tagged objects {"kind": ..., <param>: ...}, declared once
per kind in _CIRCLE_KINDS; map descriptors {"family": ..., "params": ...}
carry a family's StateMap.params, one builder per family in _FAMILIES.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from . import circle, maps
from .circle import CircleMap, sampled_from_json, sampled_to_json
from .maps import StateMap
from .states import _is_number_pair, state_from_json, state_to_json

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "circle_map_to_json",
    "circle_map_from_json",
    "map_to_json",
    "map_from_json",
]


def matrix_to_json(mat: np.ndarray) -> list[list[float]]:
    """Flat row-major [re, im] pairs of a square complex matrix."""
    mat = np.asarray(mat, dtype=complex)
    return [[float(c.real), float(c.imag)] for c in mat.reshape(-1)]


def matrix_from_json(data) -> np.ndarray:
    """Rebuild a square matrix from flat row-major [re, im] pairs."""
    flat = np.array([complex(re, im) for re, im in data])
    n = math.isqrt(flat.size)
    if n * n != flat.size:
        raise ValueError(f"matrix entry count {flat.size} is not a square")
    return flat.reshape(n, n)


def _unit_kind(build):
    """A circle kind with one unit-complex parameter c, as an [re, im] pair."""

    def decode(c) -> CircleMap:
        if not _is_number_pair(c):
            raise ValueError(f"circle map param 'c' must be an [re, im] pair of numbers, got {c!r}")
        return build(complex(*c))

    return "c", lambda g: [g.param.real, g.param.imag], decode


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

# parameter name -> (encoder, decoder) of the params that are not JSON scalars
_CODECS = {
    **dict.fromkeys(("unitary", "basis", "pre", "post"), (matrix_to_json, matrix_from_json)),
    "anchors": (lambda a: [state_to_json(s) for s in a], lambda a: [state_from_json(s) for s in a]),
    "g": (circle_map_to_json, circle_map_from_json),
}


def _encode(name: str, value):
    if value is None or isinstance(value, (bool, int, float)):
        return value
    if name not in _CODECS:
        raise ValueError(f"map parameter {name!r} has no JSON form")
    return _CODECS[name][0](value)


def _decode(name: str, value):
    return value if value is None or name not in _CODECS else _CODECS[name][1](value)


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
