"""Metric geometry of pure states: map families, verification, classification.

The package represents rank-one projections by gauge-fixed unit vectors,
builds the studied families of maps between state spaces, searches for
violations of metric properties with seeded reproducible sampling, and
classifies black-box nonexpansive maps into unitary, antiunitary, and
entrywise-absolute-value branches by constructive probing.
"""

from .circle import (
    CONJUGATION,
    CONSTANT_ONE,
    IDENTITY,
    NOT_APPLICABLE,
    CircleMap,
    CircleMapForm,
    CircleViolation,
    check_nonexpansive_circle,
    classify_circle_map,
    classify_homomorphism,
    conjugate_rotation,
    constant,
    fold,
    power,
    rotation,
    sampled,
    unit_grid,
)
from .classify import (
    ENTRYWISE_ABS,
    NOT_CLASSIFIED,
    PROBE_GRID,
    STANDARD_DIM2,
    WIGNER_ANTIUNITARY,
    WIGNER_UNITARY,
    ClassificationResult,
    ProbeError,
    classify,
    reduce_to_canonical,
)
from .descriptors import (
    map_from_json,
    map_to_json,
    sampled_from_json,
    sampled_to_json,
    state_from_json,
    state_to_json,
)
from .maps import (
    StateMap,
    block_embed,
    composed_phi_form,
    constant_map,
    entrywise_abs,
    opaque_map,
    proper_subspace_map,
    separable_embed,
    standard_map,
    wigner_map,
)
from .states import (
    OrthoSystem,
    PureState,
    basis_state,
    distance,
    pure_state,
    random_unitary,
    sample_pure_state,
    sample_unitary,
    state_from_params,
    transition_probability,
    two_by_two_params,
)

__version__ = "0.1.0"

# The witness search loads on the first use of one of its names, so that
# `wignerlab classify` and `import wignerlab` never compile it.  classify
# stays eager: importing a submodule binds its name on the package, and the
# lazy import of wignerlab.classify would replace the function classify.
_VERIFY_EXPORTS = (
    "CheckReport",
    "ViolationWitness",
    "check_inclusion_lemma",
    "check_injective",
    "check_isometry",
    "check_noncontractive",
    "check_nonexpansive",
    "check_orthogonality_preserving",
)

__all__ = [
    # circle
    "CONJUGATION", "CONSTANT_ONE", "IDENTITY", "NOT_APPLICABLE", "CircleMap", "CircleMapForm",
    "CircleViolation", "check_nonexpansive_circle", "classify_circle_map",
    "classify_homomorphism", "conjugate_rotation", "constant", "fold", "power", "rotation",
    "sampled", "unit_grid",
    # classify
    "ENTRYWISE_ABS", "NOT_CLASSIFIED", "PROBE_GRID", "STANDARD_DIM2", "WIGNER_ANTIUNITARY",
    "WIGNER_UNITARY", "ClassificationResult", "ProbeError", "classify", "reduce_to_canonical",
    # descriptors
    "map_from_json", "map_to_json", "sampled_from_json", "sampled_to_json", "state_from_json",
    "state_to_json",
    # maps
    "StateMap", "block_embed", "composed_phi_form", "constant_map", "entrywise_abs",
    "opaque_map", "proper_subspace_map", "separable_embed", "standard_map", "wigner_map",
    # states
    "OrthoSystem", "PureState", "basis_state", "distance", "pure_state", "random_unitary",
    "sample_pure_state", "sample_unitary", "state_from_params", "transition_probability",
    "two_by_two_params",
    # verify, imported on first use
    *_VERIFY_EXPORTS,
]


def __getattr__(name: str):
    """Import a name of the witness search on its first use (PEP 562)."""
    if name not in _VERIFY_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import verify

    value = globals()[name] = getattr(verify, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
