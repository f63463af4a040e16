"""The named tolerances of the package, each with the quantity it bounds.

CHAIN is the table: for every module-level *_TOL and *_FLOOR constant of
wignerlab, the quantity it bounds and the later stages that measure that
quantity again.  The census fails until a new tolerance has its row.  A
later stage that compares the quantity with the same constant imports it
from the module that defines it; one that measures it under another bound,
or by other arithmetic, has a test here showing that what the earlier stage
accepts the later one accepts too.
"""

from __future__ import annotations

import ast
import importlib
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from wignerlab import STANDARD_DIM2, WIGNER_UNITARY, StateMap, classify, cli, sampled
from wignerlab.classify import CANONICAL_TOL
from wignerlab.states import ORTHO_TOL, UNIT_NORM_TOL
from wignerlab.verify import REFINE_FLOOR, REFINE_STALL_GAIN, REFINE_STALL_STEPS, REFINE_TOL, WITNESS_TOL

from test_readme import exponent_form

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wignerlab"

# name: (the quantity it bounds, the later stages that measure that quantity again)
CHAIN = {
    "UNIT_NORM_TOL": (
        "| |z| - 1 | of a unit value (a circle map's param, table values and images, "
        "the phase of state_from_params) and a PureState vector's entrywise distance "
        "from its canonical form",
        ["circle.CircleMap.batch, on the values of a table that circle._require_units accepted"],
    ),
    "GAUGE_TOL": (
        "an amplitude or a norm that counts as zero: the gauge pivot, a zero vector, "
        "a degenerate dimension-2 row, an entry outside the span in "
        "verify.basis_image_completes_span",
        [],
    ),
    "ORTHO_TOL": (
        "every Gram entry of a frame: |<v_j, v_k>| of two state rows (states._overlapping, "
        "read by OrthoSystem, the COSP check of classify.reduce_to_canonical, "
        "verify._basis_prefix and verify.check_inclusion_lemma) and |U*U - I| of a "
        "matrix param (maps.require_unitary)",
        ["maps.require_unitary, on the model's V, whose Gram entries are the image's"],
    ),
    "STATE_EQ_TOL": ("1 - the transition probability of two equal states (PureState ==)", []),
    "CIRCLE_WITNESS_TOL": ("the chord gap of a circle map's expanding pair", []),
    "FORM_MATCH_TOL": ("|g(z) - c z| or |g(z) - c conj(z)| of a rotation form's match", []),
    "HOM_BRANCH_TOL": (
        "the distance of a multiplicative map's values at i and -1 from a branch's", []
    ),
    "SPREAD_TOL": ("the excess of a phase map image's angular spread over pi", []),
    "CANONICAL_TOL": (
        "the probe responses of classify._pair_values: |w - 1/2| of a probe image's "
        "pair weights and | |value| - 1 | of a pair value",
        [],
    ),
    "RESIDUAL_TOL": (
        "the largest state distance between a classification model and the black box",
        ["acceptance.criterion_05, on each result's residual"],
    ),
    "WITNESS_TOL": (
        "a search's worst gap (a witness above it) and a collision's d_out",
        ["acceptance.criterion_07, on the inclusion checks' worst gap"],
    ),
    "REFINE_TOL": ("the least gain refinement takes", []),
    "REFINE_FLOOR": ("the step size below which refinement stops", []),
}

# later stages that compare a quantity with the same constant, in another
# module than the one defining it: (that module, name, the defining module)
SHARED = [
    ("circle", "UNIT_NORM_TOL", "states"),
    ("maps", "ORTHO_TOL", "states"),
    ("acceptance", "RESIDUAL_TOL", "classify"),
    ("acceptance", "WITNESS_TOL", "verify"),
]


def census() -> dict[str, list[str]]:
    """Every module-level *_TOL and *_FLOOR assignment of the package: name -> modules."""
    found: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            for target in targets:
                if isinstance(target, ast.Name) and re.fullmatch(r"[A-Z_]+_(TOL|FLOOR)", target.id):
                    found.setdefault(target.id, []).append(path.stem)
    return found


def module(name: str):
    # the package's name classify is the function, so modules are imported by path
    return importlib.import_module(f"wignerlab.{name}")


def near_identity(dim: int, eps: float) -> StateMap:
    """rows @ (I + eps (J - I)).T: each pair of basis images overlaps by about 2 eps."""
    m = np.eye(dim) + eps * (1 - np.eye(dim))
    return StateMap("custom", dim, dim, lambda rows: rows @ m.T)


def outcome(dim: int, eps: float) -> str:
    res = classify(near_identity(dim, eps), dim)
    return res.branch if res.classified else res.reason_code


def test_every_tolerance_is_defined_once_and_has_its_row():
    found = census()
    assert {name: modules for name, modules in found.items() if len(modules) > 1} == {}
    assert set(found) == set(CHAIN)


@pytest.mark.parametrize("later, name, home", SHARED, ids=[f"{m}.{n}" for m, n, _ in SHARED])
def test_a_later_stage_reads_the_constant_of_the_stage_it_follows(later, name, home):
    assert census()[name] == [home]
    assert getattr(module(later), name) is getattr(module(home), name)


def test_the_cosp_check_implies_the_basis_weights():
    # reduce_to_canonical maps basis state k to (<f(e_j), f(e_k)>)_j, normalized,
    # so its weight on e_k is 1 / (1 + the sum of d - 1 squared overlaps), at
    # least 1 - (d - 1) ORTHO_TOL**2: within CANONICAL_TOL for d up to 10**12.
    # So the probe stage does not weigh the basis: the COSP check is its one test
    assert (10**12 - 1) * Fraction(ORTHO_TOL) ** 2 <= Fraction(CANONICAL_TOL)


CLASSIFIED = [0.0, 1e-12, 4e-11]
REFUSED = [6e-11, 1e-10, 3e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1.55e-5, 2e-5, 3.1e-5, 1e-4]


@pytest.mark.parametrize("dim", range(2, 17))
def test_a_near_identity_map_is_classified_or_refused_at_the_cosp_check(dim):
    # overlaps up to 8e-11 classify; from 1.2e-10 on, each map is refused by
    # the stage that first measures its overlaps, whatever its size
    expected = STANDARD_DIM2 if dim == 2 else WIGNER_UNITARY
    assert [outcome(dim, eps) for eps in CLASSIFIED] == [expected] * len(CLASSIFIED)
    assert [outcome(dim, eps) for eps in REFUSED] == ["cosp_not_found"] * len(REFUSED)


@pytest.mark.parametrize("dim", range(3, 17))
def test_the_model_is_unitary_wherever_the_cosp_check_passes(dim):
    # overlaps about 2 eps, from 9e-11 to 1.1e-10: the COSP check and the
    # model's require_unitary bound the same Gram entries, so no map reaches
    # model_invalid, and the 10 whose overlaps are below 1e-10 are classified
    outcomes = [outcome(dim, eps) for eps in np.linspace(4.5e-11, 5.5e-11, 21)]
    assert outcomes == [WIGNER_UNITARY] * 10 + ["cosp_not_found"] * 11


def test_a_table_of_unit_values_evaluates():
    # circle._require_units accepts a table value and CircleMap.batch then
    # measures the same value under the same constant
    value = (1.0 + 0.9 * UNIT_NORM_TOL) * np.exp(0.3j)
    g = sampled([(1.0, value)])
    assert g.batch(np.array([1.0 + 0j]))[0] == value
    with pytest.raises(ValueError, match="modulus 1 within 1e-12"):
        sampled([(1.0, (1.0 + 1.1 * UNIT_NORM_TOL) * np.exp(0.3j))])


def test_the_cli_help_states_the_refinement_constants(capsys):
    # the CLI cannot import wignerlab.verify to build its help
    # (tests/test_startup.py), so the help restates the refinement constants
    assert cli.main(["verify", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"only gains above {REFINE_TOL:g} and stops once its step is below {REFINE_FLOOR:g} " in help_text
    assert (
        f"(gap above {exponent_form(WITNESS_TOL)} + {exponent_form(REFINE_TOL)}), once its last "
        f"{REFINE_STALL_STEPS} gains raised the gap by less than {exponent_form(REFINE_STALL_GAIN)} of it"
    ) in help_text
