"""CLI contract: exit codes, JSON-only stdout, deterministic bytes."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wignerlab import (
    cli, distance, map_from_json, map_to_json, opaque_map, pure_state, random_unitary,
    state_from_json, verify, wigner_map,
)
from wignerlab.acceptance import CLAIMS

from invocations import INVOCATIONS

TIMEOUT = 120
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "wignerlab", *args],
        capture_output=True,
        text=True,
        check=False,
        timeout=TIMEOUT,
    )


def test_verify_nonexpansive_phi_exits_zero():
    result = run_cli(
        "verify", "--property", "nonexpansive", "--map", "phi",
        "--dim", "3", "--samples", "1500",
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["witness"] is None
    assert payload["worst_gap"] <= 1e-12


def test_verify_noncontractive_phi_dim2_exits_one_with_witness():
    result = run_cli(
        "verify", "--property", "noncontractive", "--map", "phi",
        "--dim", "2", "--samples", "1500",
    )
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["witness"] is not None
    assert payload["witness"]["gap"] > 1e-9
    assert len(payload["witness"]["P"]["vec"]) == 2


def test_verify_rejects_malformed_descriptor():
    result = run_cli("verify", "--property", "isometry", "--map", "{bad json")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "error" in result.stderr


def test_descriptor_error_names_the_family_and_the_param():
    result = run_cli(
        "verify", "--property", "isometry", "--dim", "3",
        "--map", '{"family": "phi", "params": {"dim": 3, "foo": 1}}',
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: invalid map descriptor: map family 'phi' has no param 'foo'\n"


def test_descriptors_must_be_strict_json():
    for number in ("NaN", "Infinity", "-Infinity", "1e999"):
        desc = '{"family": "block_embed", "params": {"dim": 3, "threshold": %s}}' % number
        result = run_cli("verify", "--property", "nonexpansive", "--map", desc)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "non-finite" in result.stderr


@pytest.mark.parametrize(
    "desc, field",
    [
        ({"family": "block_embed", "params": {"dim": 3, "threshold": 10**400}}, "threshold"),
        ({"family": "tau", "params": {"g": {"kind": "sampled", "table": [[-10**400, [1, 0]]]}}},
         "sampled circle map table entries"),
        ({"family": "wigner", "params": {"unitary": [[10**400, 0], [0, 0], [0, 0], [1, 0]]}},
         "map param 'unitary'"),
    ],
    ids=["threshold", "table-angle", "matrix-entry"],
)
def test_integers_beyond_the_float_range_exit_two(desc, field, capsys):
    # as JSON floats such numbers are infinite; as integers they used to crash a float()
    code = cli.main([
        "verify", "--property", "nonexpansive", "--dim", "3", "--samples", "100",
        "--map", json.dumps(desc),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: invalid map descriptor: {field} must be ")
    assert captured.err.count("\n") == 1


# a descriptor per wire number a field holds, X standing for the number,
# with (a pattern of) the field its refusal names
_NUMBER_FIELDS = {
    "threshold": ("threshold", '{"family": "block_embed", "params": {"dim": 3, "threshold": X}}'),
    "matrix-entry": ("map param 'unitary'",
                     '{"family": "wigner", "params": {"unitary": [[1, 0], [0, 0], [0, 0], [X, 0]]}}'),
    "state-amplitude": ("state JSON 'vec'", '{"family": "separable_embed", "params": '
                        '{"anchors": [{"dim": 2, "vec": [[1, 0], [X, 0]]}]}}'),
    "circle-c": ("circle map param 'c'",
                 '{"family": "tau", "params": {"g": {"kind": "rotation", "c": [1, X]}}}'),
    "table-angle": ("sampled circle map (input angles|table entries)", '{"family": "tau", "params": '
                    '{"g": {"kind": "sampled", "table": [[0, [1, 0]], [X, [1, 0]]]}}}'),
    "table-value": ("sampled circle map table entries", '{"family": "tau", "params": '
                    '{"g": {"kind": "sampled", "table": [[0, [1, X]]]}}}'),
    "dim": ("map dimensions", '{"family": "phi", "params": {"dim": X}}'),
}
_UNWIRED_NUMBERS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "1e999": "1e999",
                    "10**400": str(10**400)}


@pytest.mark.parametrize("number", sorted(_UNWIRED_NUMBERS))
@pytest.mark.parametrize("where", sorted(_NUMBER_FIELDS))
def test_every_field_refuses_non_finite_and_overflowing_numbers(where, number, capsys):
    # one rule for CLI and Python callers: the codec or the builder refuses
    # the number, and its message names the field
    field, template = _NUMBER_FIELDS[where]
    text = template.replace("X", _UNWIRED_NUMBERS[number])
    with pytest.raises(ValueError) as err:
        map_from_json(json.loads(text))
    assert re.match(f"{field} must be ", str(err.value))
    code = cli.main(["verify", "--property", "nonexpansive", "--samples", "100", "--map", text])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: invalid map descriptor: {err.value}\n"


def test_an_integer_of_too_many_digits_is_a_malformed_descriptor(capsys):
    desc = '{"family": "block_embed", "params": {"dim": 3, "threshold": %s}}' % ("1" * 5000)
    code = cli.main(["verify", "--property", "nonexpansive", "--map", desc])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: malformed map descriptor: ")
    assert captured.err.count("\n") == 1
    assert "set_int_max_str_digits" not in captured.err


def test_constant_descriptor_matches_the_builtin():
    desc = json.dumps({"family": "constant", "params": {"dim": 3}})
    from_json = run_cli("classify", "--map", desc, "--dim", "3")
    builtin = run_cli("classify", "--map", "constant", "--dim", "3")
    assert from_json.returncode == builtin.returncode == 1
    assert from_json.stdout == builtin.stdout


def test_verify_rejects_unknown_builtin_and_bad_usage():
    result = run_cli("verify", "--property", "isometry", "--map", "nope")
    assert result.returncode == 2
    result = run_cli("verify", "--map", "phi")  # missing --property
    assert result.returncode == 2
    result = run_cli("frobnicate")
    assert result.returncode == 2


def test_main_returns_the_code_of_a_usage_error_and_of_help(capsys):
    # argparse exits on a usage error and on --help; main returns the code
    # instead, so an in-process caller reads what `python -m wignerlab` exits with
    assert cli.main(["verify", "--map", "phi"]) == cli.EXIT_ERROR
    assert "the following arguments are required: --property" in capsys.readouterr().err
    assert cli.main(["--help"]) == cli.EXIT_HOLDS
    assert capsys.readouterr().out.startswith("usage: wignerlab")


def test_the_property_choices_are_the_checks_that_give_a_report():
    # the parser keeps its own names so that start-up need not load verify
    assert cli._PROPERTIES == tuple(verify._REPORT_CHECKS)
    map_ = CLAIMS["phi"].build(None, 2)
    for name in cli._PROPERTIES:
        holds, report, shown, _ = verify._run_check(name, map_, 2, 50, 0, 0)
        assert isinstance(report, verify.CheckReport) and shown == report.to_json()


def test_verify_accepts_inline_json_descriptor():
    desc = json.dumps(map_to_json(wigner_map(random_unitary(3, 70))))
    result = run_cli(
        "verify", "--property", "isometry", "--map", desc,
        "--dim", "3", "--samples", "800",
    )
    assert result.returncode == 0


def test_verify_reads_descriptor_from_file(tmp_path):
    desc_file = tmp_path / "map.json"
    desc_file.write_text(json.dumps(map_to_json(wigner_map(random_unitary(3, 71)))))
    result = run_cli(
        "verify", "--property", "nonexpansive", "--map", f"@{desc_file}",
        "--dim", "3", "--samples", "800",
    )
    assert result.returncode == 0
    missing = run_cli(
        "verify", "--property", "nonexpansive", "--map", "@/no/such/file"
    )
    assert missing.returncode == 2


def test_verify_out_flag_writes_file_and_keeps_stdout_clean(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli(
        "verify", "--property", "nonexpansive", "--map", "phi",
        "--dim", "2", "--samples", "800", "--out", str(out),
    )
    assert result.returncode == 0
    assert result.stdout == ""
    assert json.loads(out.read_text())["property"] == "nonexpansive"


@pytest.mark.parametrize(
    "args, code",
    [
        (("nonexpansive", "--dim", "3", "--seed", "11"), 0),
        # phi in dim 2 is not noncontractive: the report holds a refined witness
        (("noncontractive", "--dim", "2"), 1),
    ],
    ids=["holds", "witness"],
)
def test_identical_invocations_are_byte_identical(args, code):
    args = ("verify", "--map", "phi", "--samples", "1200", "--property", *args)
    first, second = run_cli(*args), run_cli(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == code


@pytest.mark.parametrize("argv, code", INVOCATIONS)
def test_each_pinned_invocation_exits_as_declared_with_the_same_bytes_twice(argv, code, tmp_path):
    # the report of the first run is removed, so a run that writes none
    # fails at the read, whatever its exit code
    out, reports = tmp_path / "report.json", []
    for _ in range(2):
        out.unlink(missing_ok=True)
        assert cli.main([*argv.split(), "--out", str(out)]) == code
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_selftest_runs_are_identical_apart_from_timings(tmp_path):
    docs = []
    for run in range(2):
        out = tmp_path / f"selftest-{run}.json"
        result = run_cli("selftest", "--out", str(out))
        assert result.returncode == 0, result.stderr
        doc = json.loads(out.read_text())
        for criterion in doc["criteria"]:
            del criterion["seconds"]
        docs.append(doc)
    assert docs[0] == docs[1]


def test_classify_phi_reports_abs_branch():
    result = run_cli("classify", "--map", "phi", "--dim", "4")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["branch"] == "entrywise_abs"
    assert payload["residual"] <= 1e-8


def test_classify_builtin_wigner():
    result = run_cli("classify", "--map", "wigner-random", "--dim", "3", "--seed", "5")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["branch"] == "wigner_unitary"
    assert payload["residual"] <= 1e-8


def test_classify_constant_map_exits_one():
    result = run_cli("classify", "--map", "constant", "--dim", "3")
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["branch"] == "not_classified"
    assert payload["reason"]


@pytest.mark.parametrize("flag", ["--samples", "--refine-steps"])
def test_classify_has_no_search_options(flag):
    result = run_cli("classify", "--map", "phi", flag, "-1")
    assert result.returncode == 2
    assert result.stdout == ""


def test_verify_rejects_a_negative_refinement_cap():
    result = run_cli(
        "verify", "--property", "nonexpansive", "--map", "phi", "--refine-steps", "-1",
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: refinement cap must be nonnegative\n"


@pytest.mark.parametrize(
    "argv",
    ["verify --property orthogonality --map phi", "demo block-embed"],
    ids=["verify-orthogonality", "demo-block-embed"],
)
def test_a_negative_refinement_cap_exits_two_in_every_search(argv, capsys):
    # the orthogonality search refines nothing, yet the cap is checked at the boundary
    assert cli.main([*argv.split(), "--refine-steps", "-1"]) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: refinement cap must be nonnegative\n"


@pytest.mark.parametrize(
    "argv",
    [
        "verify --property nonexpansive --map phi",
        "classify --map phi",
        "classify --map wigner-random",
        "demo block-embed",
    ],
    ids=lambda argv: argv.split()[0] + "-" + argv.split()[-1],
)
def test_a_negative_seed_exits_two_in_every_subcommand(argv, capsys):
    assert cli.main([*argv.split(), "--seed", "-5"]) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be nonnegative\n"


@pytest.mark.parametrize("dim", ["-1", "0"])
@pytest.mark.parametrize("command", ["verify --property isometry", "classify"])
def test_a_random_unitary_of_no_positive_dimension_exits_two(command, dim, capsys):
    # the unitary sampler refuses the dimension before numpy or the map builder sees it
    assert cli.main([*command.split(), "--map", "wigner-random", "--dim", dim]) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: dimension must be positive\n"


def test_classify_rejects_non_endomap():
    result = run_cli("classify", "--map", "block-embed", "--dim", "3")
    assert result.returncode == 2


def test_demo_block_embed():
    result = run_cli("demo", "block-embed", "--dim", "2", "--samples", "1500")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["summary"] == {"noncontractive": "pass", "isometry": "witness"}
    assert payload["checks"]["isometry"]["witness"]["d_out"] == pytest.approx(1.0)


def test_demo_separable_embed():
    result = run_cli(
        "demo", "separable-embed", "--dim", "3", "--anchors", "8",
        "--samples", "1500",
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["summary"] == {"nonexpansive": "pass", "injectivity": "pass", "isometry": "witness"}
    # the collision search's closest pair of images stays far from a collision
    collision = payload["checks"]["injectivity"]
    assert collision["property"] == "injectivity" and collision["samples"] == 1500
    assert collision["witness"] is None and collision["worst_gap"] < -1e-2


def test_demo_separable_embed_with_two_anchors_finds_a_collision():
    # two overlap moduli cannot separate the 6-real-dimensional ray space of C^4
    result = run_cli("demo", "separable-embed", "--dim", "4", "--anchors", "2")
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["summary"] == {"nonexpansive": "pass", "injectivity": "witness",
                                  "isometry": "witness"}
    w = payload["checks"]["injectivity"]["witness"]
    assert w["d_in"] >= 0.5 and w["d_out"] <= 1e-9 and w["gap"] == w["d_in"]
    p, q = (state_from_json(w[key]) for key in "PQ")
    map_ = map_from_json(payload["map"])
    assert (distance(p, q), distance(map_(p), map_(q))) == (w["d_in"], w["d_out"])


def test_demo_proper_subspace():
    result = run_cli(
        "demo", "proper-subspace", "--dim", "5", "--k", "3", "--samples", "1500"
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["k"] == 3
    assert payload["summary"] == {"nonexpansive": "pass", "cosp_image": "pass"}


@pytest.mark.parametrize(
    "invocation",
    [
        "block-embed --dim 3",
        "separable-embed --dim 4 --anchors 32",
        "proper-subspace --dim 5 --k 3",
    ],
    ids=lambda invocation: invocation.split()[0],
)
def test_demo_reports_the_declared_outcome(invocation, capsys):
    subs = next(a for a in cli.build_parser()._actions if a.dest == "subcommand")
    target = next(a for a in subs.choices["demo"]._actions if a.dest == "target")
    assert sorted(target.choices) == ["block-embed", "proper-subspace", "separable-embed"]
    assert f"wignerlab demo {invocation}\n" in README.read_text(encoding="utf-8")
    assert cli.main(["demo", *invocation.split()]) == cli.EXIT_HOLDS
    summary = json.loads(capsys.readouterr().out)["summary"]
    expect = CLAIMS[invocation.split()[0]].expect
    assert {name: label == "pass" for name, label in summary.items()} == expect


def test_demo_rejects_unknown_target():
    assert run_cli("demo", "nope").returncode == 2


def test_demo_refuses_options_its_target_does_not_take(capsys):
    # only separable-embed reads --anchors, and only proper-subspace reads --k
    for argv, refused in [
        ("block-embed --anchors 0 --k 99 --samples 300", "--anchors, --k"),
        ("separable-embed --k 99 --samples 300 --dim 2 --anchors 2", "--k"),
        ("proper-subspace --anchors 32 --samples 300", "--anchors"),
    ]:
        assert cli.main(["demo", *argv.split()]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        target = argv.split()[0]
        assert captured.err == f"error: demo {target} takes no {refused}\n"


def test_every_builtin_map_name_is_a_claimed_family(capsys):
    names = "phi, block-embed, wigner-random, constant, tau-fold, tau-constant, tau-power2"
    assert set(names.split(", ")) <= set(CLAIMS)
    assert cli.main(["verify", "--property", "isometry", "--map", "nope"]) == cli.EXIT_ERROR
    assert f"use a name from {{{names}}}" in capsys.readouterr().err


def test_an_overflowing_state_norm_exits_two_naming_the_field(capsys):
    desc = ('{"family": "separable_embed", "params": {"anchors": '
            '[{"dim": 2, "vec": [[1e308, 0], [1e308, 1e308]]}]}}')
    code = cli.main(["verify", "--property", "nonexpansive", "--dim", "2", "--map", desc])
    captured = capsys.readouterr()
    assert code == cli.EXIT_ERROR
    assert captured.out == ""
    assert captured.err == ("error: invalid map descriptor: state JSON 'vec' norm overflows "
                            "float64, got [[1e+308, 0], [1e+308, 1e+308]]\n")


def test_builtin_tau_maps_require_dim_two():
    good = run_cli(
        "verify", "--property", "nonexpansive", "--map", "tau-fold",
        "--dim", "2", "--samples", "800",
    )
    assert good.returncode == 0
    bad = run_cli("verify", "--property", "nonexpansive", "--map", "tau-fold")
    assert bad.returncode == 2  # default dim is 3


def test_builtin_tau_power2_finds_witness():
    result = run_cli(
        "verify", "--property", "nonexpansive", "--map", "tau-power2",
        "--dim", "2", "--samples", "1000",
    )
    assert result.returncode == 1
    assert json.loads(result.stdout)["witness"]["gap"] >= 0.25


def test_maps_below_dimension_two_exit_two():
    # in dimension 1 every redrawn partner of a state is parallel to it, so an
    # orthogonality search could never draw a pair: the map itself is refused
    for dim in ("1", "0"):
        result = run_cli(
            "verify", "--property", "orthogonality", "--map", "phi", "--dim", dim,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert "at least 2" in result.stderr


@pytest.mark.parametrize(
    "params",
    [
        {"family": "phi", "params": {"dim": 3.0}},
        {"family": "block_embed", "params": {"dim": 3.0}},
        {"family": "proper_subspace", "params": {"dim": 3.0, "k": 1, "alpha0": 0}},
        {"family": "proper_subspace", "params": {"dim": 3, "k": 1.5}},
        {"family": "proper_subspace", "params": {"dim": 3, "k": True}},
        {"family": "wigner", "params": {"unitary": [[1, 0], [0, 0], [0, 0], [1, 0]],
                                        "antiunitary": "no"}},
        {"family": "wigner", "params": {"unitary": [[1, 0], [0, 0], [0, 0], [1, 0]],
                                        "antiunitary": 0}},
        {"family": "block_embed", "params": {"dim": 3, "threshold": True}},
        {"family": "block_embed", "params": {"dim": 3, "threshold": "0.5"}},
    ],
    ids=["phi-dim", "block_embed-dim", "proper_subspace-dim", "proper_subspace-k",
         "proper_subspace-bool-k", "wigner-string-antiunitary", "wigner-int-antiunitary",
         "block_embed-bool-threshold", "block_embed-string-threshold"],
)
def test_non_integer_descriptor_params_exit_two(params, capsys):
    code = cli.main([
        "verify", "--property", "nonexpansive", "--dim", "3", "--samples", "100",
        "--map", json.dumps(params),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: invalid map descriptor: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "g, message",
    [
        ({"kind": "power", "k": 2.0}, "power exponent must be an integer, got 2.0"),
        ({"kind": "power", "k": True}, "power exponent must be an integer, got True"),
        ({"kind": "fold", "c": [0, 1]}, "circle map kind 'fold' has no param 'c'"),
        ({"kind": "rotation", "c": [0, 1], "k": 3}, "circle map kind 'rotation' has no param 'k'"),
        ({"kind": "rotation"}, "circle map kind 'rotation' needs param 'c'"),
        *(
            ({"kind": "rotation", "c": c},
             f"circle map param 'c' must be an [re, im] pair of numbers, got {c!r}")
            for c in ([1], [True, 0], 5, [0, 1, 2], ["1", "0"])
        ),
        *(
            ({"kind": "sampled", "table": [entry]},
             "sampled circle map table entries must be [theta_in, [re, im]] pairs of "
             f"numbers, got {entry!r}")
            for entry in ([True, [1, 0]], ["1.5", [1, 0]], [0, [True, 0]], [0, ["1", 0]])
        ),
        ({"kind": "rotation", "c": [2, 0]},
         "circle map param 'c' must have modulus 1 within 1e-12, got (2+0j)"),
        ({"kind": "sampled", "table": [[1, [0, 1]], [0, [0, 0]]]},
         "sampled circle map table values must have modulus 1 within 1e-12, got [0, [0, 0]]"),
    ],
    ids=["power-float-k", "power-bool-k", "fold-extra-key", "rotation-extra-key",
         "rotation-missing-key", "c-one-number", "c-bool", "c-scalar", "c-three-numbers",
         "c-strings", "table-bool-angle", "table-string-angle", "table-bool-value",
         "table-string-value", "c-off-circle", "table-value-off-circle"],
)
def test_invalid_circle_descriptors_exit_two(g, message, capsys):
    # in dimension 2, where a valid tau descriptor would be verified
    code = cli.main([
        "verify", "--property", "nonexpansive", "--dim", "2", "--samples", "100",
        "--map", json.dumps({"family": "tau", "params": {"g": g}}),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: invalid map descriptor: {message}\n"


@pytest.mark.parametrize("k", [2**53 + 1, 10**30], ids=["2**53+1", "10**30"])
def test_a_power_exponent_beyond_two_to_the_53_exits_two_with_one_line(k):
    # in a fresh process, so a numpy warning would reach stderr too
    g = {"kind": "power", "k": k}
    result = run_cli(
        "verify", "--property", "nonexpansive", "--dim", "2", "--samples", "100",
        "--map", json.dumps({"family": "tau", "params": {"g": g}}),
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (
        "error: invalid map descriptor: power exponent k must be at most 2**53 "
        f"in absolute value, got {k}\n"
    )


def test_a_lift_of_a_large_power_exits_one_with_a_witness(capsys):
    # its images are evaluated, not refused as non-unit values
    tau = {"family": "tau", "params": {"g": {"kind": "power", "k": 10000}}}
    code = cli.main(
        ["verify", "--property", "nonexpansive", "--map", json.dumps(tau), "--dim", "2"]
    )
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    assert json.loads(captured.out)["witness"] is not None


_UNITARY = "map param 'unitary' must be a list of [re, im] pairs of numbers, got "
_VEC = "state JSON 'vec' must be a list of [re, im] pairs of numbers, got "
_ANCHOR = {"dim": 2, "vec": [[1.0, 0.0], [0.0, 0.0]]}


def _wigner(*entries):
    return {"family": "wigner", "params": {"unitary": [*entries]}}


def _anchored(anchor):
    return {"family": "separable_embed", "params": {"anchors": [anchor, _ANCHOR]}}


@pytest.mark.parametrize(
    "desc, message",
    [
        (_wigner([True, 0], [0, 0], [0, 0], [True, False]), _UNITARY + "[True, 0]"),
        (_wigner(["1", 0], [0, 0], [0, 0], [1, 0]), _UNITARY + "['1', 0]"),
        (_wigner([1, 0], [0], [0, 0], [1, 0]), _UNITARY + "[0]"),
        (_wigner([1, 0], [0, 0, 0], [0, 0], [1, 0]), _UNITARY + "[0, 0, 0]"),
        ({"family": "wigner", "params": {"unitary": 5}}, _UNITARY + "5"),
        ({"family": "wigner", "params": {"unitary": {}}}, _UNITARY + "{}"),
        ({"family": "wigner", "params": {"unitary": []}},
         "map param 'unitary' entry count 0 is not a nonzero square"),
        ({"family": "phi", "params": {"dim": 2}, "famliy": "wigner"},
         "map descriptor has no key 'famliy'"),
        (_anchored({"dim": 2, "vec": [[True, 0], [0, False]]}), _VEC + "[True, 0]"),
        (_anchored({**_ANCHOR, "dims": 2}), "state JSON has no key 'dims'"),
        (_anchored({"dim": 2, "vec": 5}), _VEC + "5"),
        ({"family": "separable_embed", "params": {"anchors": 5}},
         "map param 'anchors' must be a list of states, got 5"),
        (_wigner([2, 0], [0, 0], [0, 0], [1, 0]),
         "map param 'unitary' is not unitary within 1e-10, got largest |U*U - I| entry 3.0"),
    ],
    ids=["entry-bool", "entry-string", "entry-one-number", "entry-three-numbers",
         "unitary-scalar", "unitary-object", "unitary-empty",
         "unknown-top-level-key", "anchor-bool", "anchor-extra-key", "anchor-vec-scalar",
         "anchors-scalar", "not-unitary"],
)
def test_invalid_wire_values_exit_two(desc, message, capsys):
    # in dimension 2, where either valid descriptor would be verified
    code = cli.main([
        "verify", "--property", "isometry", "--dim", "2", "--samples", "100",
        "--map", json.dumps(desc),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: invalid map descriptor: {message}\n"


@pytest.mark.parametrize(
    "dim, message",
    [("3.0", "must be integers"), ("true", "must be integers"), ("1", "must be at least 2")],
)
def test_constant_descriptor_dim_is_checked_before_the_target_is_built(dim, message):
    # the same messages as every other family, not numpy's or the state constructor's
    result = run_cli(
        "verify", "--property", "nonexpansive", "--dim", "3",
        "--map", f'{{"family":"constant","params":{{"dim":{dim}}}}}',
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: invalid map descriptor: map dimensions {message}")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "anchor, message",
    [
        ({"dim": 1, "vec": [[1, 0]]}, "state JSON 'dim' must be at least 2, got 1"),
        ({"dim": 2, "vec": [[0, 0], [0, 0]]},
         "state JSON 'vec' is a (near) zero vector, got [[0, 0], [0, 0]]"),
    ],
    ids=["dim-1", "zero-vec"],
)
def test_anchor_refusals_name_their_field(anchor, message, capsys):
    code = cli.main([
        "verify", "--property", "isometry", "--dim", "2", "--samples", "100",
        "--map", json.dumps(_anchored(anchor)),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: invalid map descriptor: {message}\n"


def test_running_out_of_memory_exits_two(capsys):
    # 10**17 anchors in dimension 4 ask for 6.4e18 bytes of normal draws,
    # beyond any address space, so the allocation fails before it starts
    code = cli.main(["demo", "separable-embed", "--dim", "4", "--anchors", str(10**17)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory")
    assert captured.err.count("\n") == 1


def test_emit_refuses_non_finite_numbers(capsys):
    with pytest.raises(ValueError):
        cli._emit({"worst_gap": float("-inf")}, None)
    assert capsys.readouterr().out == ""


def test_invalid_map_image_exits_two(monkeypatch, capsys):
    nan_map = opaque_map(lambda s: pure_state(np.full(3, np.nan)), 3, 3)
    monkeypatch.setattr(cli, "_load_map", lambda source, dim, seed: nan_map)
    code = cli.main(
        ["verify", "--property", "nonexpansive", "--map", "nan", "--samples", "600"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error" in captured.err
