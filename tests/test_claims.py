"""The table of the paper's claims, checked on draws of dims, params and seeds."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerlab import (
    NOT_CLASSIFIED,
    STANDARD_DIM2,
    StateMap,
    check_nonexpansive,
    check_nonexpansive_circle,
    classify,
    map_from_json,
    power,
    standard_map,
)
from wignerlab.acceptance import CLAIMS
from wignerlab.verify import _basis_prefix, _run_check

SAMPLES = 2000
# refinement's later steps only chase rounding-level gaps on maps that hold
REFINE_STEPS = 50

# the demo options a family's builder takes: anchors of the overlap-profile
# embedding, at least the 4 dim - 4 generic anchors that make a profile of
# overlap moduli injective (as in phase retrieval), and the collapse's k
PARAMS = {
    "anchors": lambda dim: st.integers(4 * dim, 40),
    "k": lambda dim: st.integers(1, dim - 1),
}


@pytest.mark.parametrize("name", CLAIMS)
@settings(max_examples=5, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_family_behaves_as_its_claim_says(name, data):
    # every family, then a draw of its dim, params and seed: each declared
    # check, on SAMPLES pairs, and classify must give the claimed verdicts
    claim = CLAIMS[name]
    dim = data.draw(st.sampled_from(claim.dims), label="dim")
    params = {key: data.draw(PARAMS[key](dim), label=key) for key in claim.params}
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    map_ = claim.build(rng, dim, **params)
    verdicts = {
        check: _run_check(check, map_, dim, SAMPLES, seed, REFINE_STEPS)[0]
        for check in claim.expect
    }
    assert verdicts == claim.expect
    if claim.branch is None:
        with pytest.raises(ValueError, match="endomap"):
            classify(map_, dim)
    else:
        hint = claim.hint(map_) if claim.hint else None
        result = classify(map_, dim, preimage_hint=hint)
        # in dimension 2 every classified map is a phase lift
        classified = claim.branch != NOT_CLASSIFIED
        assert result.branch == (STANDARD_DIM2 if dim == 2 and classified else claim.branch), (
            result.reason
        )
        assert result.reason_code == claim.refusal
    if map_.family == "tau":
        # a lift tau_g is as nonexpansive as its circle map g
        assert (check_nonexpansive_circle(map_.params["g"]) is None) == claim.expect["nonexpansive"]


# the lifts of z -> z**k in dimension 2: every power with 2 <= |k| <= 200
# and three large ones
POWER_LIFTS = [k for k in range(-200, 201) if abs(k) >= 2] + [10**4, 10**4 + 1, 10**5]


def test_no_phase_lift_is_both_classified_and_refuted():
    # a standard_dim2 verdict says the lift is nonexpansive, and a
    # nonexpansive witness on the same map says it is not.  Every power
    # with |k| >= 2 expands a chord, so classification must refuse each
    # one (it checks the phase map on more phases than the roots of unity
    # that powers with k = 0 or +-1 mod 80 fix), and no check runs
    contradictions = []
    for k in POWER_LIFTS:
        map_ = standard_map(power(k))
        if classify(map_, 2).classified and not check_nonexpansive(map_, 2).holds:
            contradictions.append(k)
    assert contradictions == []


@pytest.mark.parametrize(
    "name, dim",
    [(name, dim) for name, claim in CLAIMS.items() if claim.refusal for dim in claim.dims],
)
def test_every_refused_family_is_refused_for_its_reason_in_each_dim(name, dim):
    claim = CLAIMS[name]
    params = dict.fromkeys(claim.params)
    result = classify(claim.build(np.random.default_rng(dim), dim, **params), dim)
    assert (result.branch, result.reason_code) == (NOT_CLASSIFIED, claim.refusal), result.reason


# whether the images of the longest basis prefix with pairwise orthogonal
# images complete the span of its coordinates (verify.basis_image_completes_span)
COSP_IMAGE = {
    "wigner-random": True, "wigner-antiunitary": True, "phi": True, "composed": False,
    "tau-fold": True, "tau-constant": True, "tau-power2": True, "block-embed": False,
    "separable-embed": False, "proper-subspace": True, "constant": True,
}
# the collapse onto the first k coordinates, loaded from JSON, for every k
# and alpha0 of dims 2-6
COLLAPSES = [
    (dim, k, alpha0) for dim in range(2, 7) for k in range(1, dim) for alpha0 in range(k)
]


def _cosp_image(map_, dim):
    return _run_check("cosp_image", map_, dim, SAMPLES, 0, REFINE_STEPS)[0]


@pytest.mark.parametrize(
    "name, dim", [(name, dim) for name, claim in CLAIMS.items() for dim in claim.dims]
)
def test_the_cosp_image_check_reads_only_the_black_box(name, dim):
    claim = CLAIMS[name]
    map_ = claim.build(np.random.default_rng(dim), dim, **dict.fromkeys(claim.params))
    # the same map with no family params: the verdict comes from its images alone
    opaque = StateMap("custom", map_.dim_in, map_.dim_out, map_.fn)
    assert _cosp_image(map_, dim) is _cosp_image(opaque, dim) is COSP_IMAGE[name]


@pytest.mark.parametrize("dim, k, alpha0", COLLAPSES)
def test_a_collapse_completes_the_span_of_its_k_coordinates(dim, k, alpha0):
    map_ = map_from_json(
        {"family": "proper_subspace", "params": {"dim": dim, "k": k, "alpha0": alpha0}}
    )
    assert _basis_prefix(map_)[1] == k
    opaque = StateMap("custom", dim, dim, map_.fn)
    assert _cosp_image(map_, dim) is _cosp_image(opaque, dim) is True
