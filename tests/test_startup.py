"""Start-up loads only what a command runs: each case is a fresh interpreter."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

TIMEOUT = 120
PHI3 = json.dumps({"family": "phi", "params": {"dim": 3}}, separators=(",", ":"))


def _run(source: str) -> tuple[list[str], set[str]]:
    """The lines source printed, and the wignerlab modules loaded once it ran."""
    report = "\nimport sys\nprint(*(m for m in sys.modules if m.startswith('wignerlab')))\n"
    result = subprocess.run([sys.executable, "-c", source + report], capture_output=True,
                            text=True, check=True, timeout=TIMEOUT)
    *lines, modules = result.stdout.splitlines()
    return lines, set(modules.split())


def _main(*argv: str) -> str:
    """Source that runs the CLI on argv and prints its exit code."""
    return f"from wignerlab import cli\nprint(cli.main({list(argv)!r}))"


def test_importing_the_cli_loads_neither_the_acceptance_suite_nor_the_search():
    _, modules = _run("import wignerlab.cli")
    assert "wignerlab.cli" in modules
    assert not modules & {"wignerlab.acceptance", "wignerlab.verify"}


@pytest.mark.parametrize(
    "argv, loads, skips",
    [
        (("classify", "--map", PHI3), set(), {"wignerlab.acceptance", "wignerlab.verify"}),
        (("verify", "--property", "nonexpansive", "--samples", "100", "--map", PHI3),
         {"wignerlab.verify"}, {"wignerlab.acceptance"}),
        # a builtin name is a family of acceptance.CLAIMS
        (("classify", "--map", "phi"), {"wignerlab.acceptance"}, set()),
    ],
    ids=["classify-json", "verify-json", "classify-builtin"],
)
def test_a_command_loads_what_it_runs(argv, loads, skips):
    lines, modules = _run(_main(*argv))
    assert lines[-1] == "0"  # phi is nonexpansive and classifies
    assert loads <= modules
    assert not modules & skips


def test_importing_the_acceptance_suite_keeps_classify_the_function():
    # importing a submodule binds its name on the package: wignerlab.classify
    # must stay the function that the package exports
    lines, _ = _run(
        "import wignerlab.acceptance, wignerlab\nprint(type(wignerlab.classify).__name__)"
    )
    assert lines == ["function"]


def test_every_exported_name_resolves_and_is_listed():
    lines, modules = _run(
        "import wignerlab, sys\n"
        "print('wignerlab.verify' in sys.modules)\n"
        "missing = [n for n in wignerlab.__all__ if n not in dir(wignerlab)]\n"
        "unset = [n for n in wignerlab.__all__ if getattr(wignerlab, n, None) is None]\n"
        "print(missing, unset, len(wignerlab.__all__) == len(set(wignerlab.__all__)))"
    )
    assert lines == ["False", "[] [] True"]
    assert "wignerlab.verify" in modules  # loaded by the first lazy name


def test_an_unknown_name_is_an_attribute_error():
    import wignerlab

    with pytest.raises(AttributeError, match="no attribute 'check_everything'"):
        wignerlab.check_everything  # noqa: B018
