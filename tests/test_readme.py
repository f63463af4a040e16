"""The README's examples and layout figures, checked against the package.

The fenced python blocks run, and each command of the CLI block exits
with the code its note declares.  Every figure the README states about
the sampler's layout, the map batches, refinement's level rule, the cap
law and the fixed constants is rebuilt here from wignerlab.verify and
wignerlab.classify, and each test asserts the exact phrase the README
prints (whitespace collapsed, so a phrase may wrap).  The figures are
arithmetic, and the layout arithmetic is checked against the samplers'
row counts.  Figures that only a search or a timing can produce carry
their own command in the README instead, and each name those commands
import must exist; the one search that runs here is the coverage
table's leak row, 112 inclusion checks of 1 000 states.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import itertools
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from wignerlab import (
    check_inclusion_lemma,
    check_isometry,
    check_nonexpansive,
    check_orthogonality_preserving,
    cli,
    random_unitary,
    sample_pure_state,
    separable_embed,
    verify,
    wigner_map,
)
from wignerlab.classify import (
    CANONICAL_TOL,
    PROBE_GRID,
    GOLDEN_PHASES,
    RESIDUAL_TOL,
    VALIDATION_STATES,
    _REFUSALS,
    _lift_grid,
    _probe_table,
)
from wignerlab.states import ORTHO_TOL, _orthogonal_pair_rows, _sample_state_rows

from planted import coverage_row, leaky

README = Path(__file__).resolve().parents[1] / "README.md"
SOURCE = README.read_text(encoding="utf-8")
LINES = SOURCE.splitlines()
TEXT = " ".join(" ".join(LINES).split())
DEFAULT_SAMPLES = inspect.signature(check_nonexpansive).parameters["n_samples"].default
WORDS = {1: "one", 2: "two"}


def says(*phrases: str) -> None:
    for phrase in phrases:
        assert phrase in TEXT, phrase


def prose(n: int) -> str:
    """n as the README's prose writes it: thousands set off by a space."""
    return f"{n:,}".replace(",", " ")


def sci(x: float) -> str:
    """x as the README writes a constant: 1e-7, not 1e-07."""
    return f"{x:g}".replace("e-0", "e-")


def exponent_form(x: float) -> str:
    """x in exponent form, as the README writes a share: 1e-3, not 0.001."""
    mantissa, exponent = f"{x:e}".split("e")
    return f"{mantissa.rstrip('0').rstrip('.')}e{int(exponent)}"


def listing(items) -> str:
    """'a, b and c'."""
    *head, last = (str(item) for item in items)
    return f"{', '.join(head)} and {last}"


def chunks(n: int) -> list[int]:
    """The sample counts of the chunks of an n-sample search."""
    return [min(verify.CHUNK_SIZE, n - start) for start in range(0, n, verify.CHUNK_SIZE)]


def anchors(count: int) -> int:
    """L = ceil(count / PAIR_OFFSETS), the draws that start a chunk's pairs."""
    return -(-count // verify.PAIR_OFFSETS)


def scan_rows(count: int) -> int:
    """The states a metric or collision chunk of count pairs draws and maps."""
    return anchors(count) + verify.PAIR_OFFSETS


def states(n: int) -> int:
    return sum(scan_rows(count) for count in chunks(n))


def local_pairs(n: int) -> int:
    """Pairs at offset 1 from an even draw i < L, summed over the chunks."""
    return sum(-(-anchors(count) // 2) for count in chunks(n))


def fewest_samples(target: int, count) -> int:
    """The least --samples whose count(n) reaches target."""
    return next(n for n in itertools.count(1) if count(n) >= target)


def batch_rows(width: int) -> int:
    """Rows per map batch for rows width entries wide."""
    return max(1, verify.MAP_ENTRIES // width)


def calls(rows: int, width: int) -> int:
    return -(-rows // batch_rows(width))


def scan_calls(n: int, width: int) -> int:
    return sum(calls(scan_rows(count), width) for count in chunks(n))


def fewest_states(r: float, d: int) -> int:
    """States that reach a cap of radius r in dimension d with probability 0.95."""
    return math.ceil(math.log(0.05) / math.log(1 - r ** (2 * (d - 1))))


def radius(n: int, d: int) -> float:
    """The cap radius that n states all miss with probability 0.05."""
    return (1 - 0.05 ** (1 / n)) ** (1 / (2 * (d - 1)))


@pytest.mark.parametrize("count", [1, 5, 1965, verify.CHUNK_SIZE])
def test_the_layout_arithmetic_counts_the_samplers_rows(count):
    rng = np.random.default_rng(count)
    assert len(verify._pair_rows(rng, count, 3)) == scan_rows(count)
    assert len(verify._local_pair_rows(rng, count, 3)) == scan_rows(count)
    assert len(_orthogonal_pair_rows(rng, count, 3)) == 2 * count


def test_the_scan_layout():
    n, full, k = DEFAULT_SAMPLES, verify.CHUNK_SIZE, verify.PAIR_OFFSETS
    says(
        f"in chunks of {prose(full)} samples",
        f"draws L + {k} states from the chunk's generator, L = ⌈`count`/{k}⌉",
        f"pairs draw i with draws {listing(f'i + {o}' for o in range(1, k + 1))} for each i < L",
        f"then those at offsets {listing(range(2, k + 1))}, cut to `count`",
        f"{prose(states(n))} states for {prose(n)} pairs in {len(chunks(n))} chunks",
        f"ε cycling through {listing(f'{s:g}' for s in verify.LOCAL_STEPS)} over m",
        f"{local_pairs(full)} local pairs per full chunk, {prose(local_pairs(n))} of {prose(n)} pairs",
        f"the {prose(local_pairs(n))} states that have a local partner",
        f"a full chunk of {prose(full)} pairs draws {states(full)}, "
        f"{local_pairs(full)} of them with a local partner",
    )


def test_the_map_batches():
    full, entries = verify.CHUNK_SIZE, verify.MAP_ENTRIES
    orthogonal = 2 * full
    wide = separable_embed([sample_pure_state(np.random.default_rng(i), 8) for i in range(64)])
    says(
        f"chunks of {prose(full)} ({scan_rows(full)} rows for the metric and collision checks, "
        f"{prose(orthogonal)} for the orthogonal pairs, {prose(full)} for inclusion)",
        f"`verify.MAP_ENTRIES` = {entries} entries",
        f"a {prose(20000)}-pair scan makes {scan_calls(20000, 16)} calls in dim 16 "
        f"and a {prose(10000)}-pair scan {scan_calls(10000, 4)} in dim 4",
        f"Orthogonal pairs take {WORDS[calls(orthogonal, 4)]} call per chunk in dim 4 "
        f"and {WORDS[calls(orthogonal, 8)]} in dim 8",
        f"`separable_embed` with 64 anchors in dim 8 has {wide.dim_out}-wide images "
        f"and takes {batch_rows(wide.dim_out)} rows per call",
        f"an orthogonal chunk is {prose(orthogonal)} rows, whose {wide.dim_out}-wide float64 "
        f"images take {orthogonal * wide.dim_out * 8 / 1e6:.1f} MB",
    )


def test_the_samples_that_reach_a_cap():
    need = fewest_states(0.3, 4)
    plain, local = fewest_samples(need, states), fewest_samples(need, local_pairs)
    says(
        f"For r = 0.3 in dimension 4 that is n ≥ {need}: `--samples {plain}` "
        f"({prose(plain)} pairs in {len(chunks(plain))} chunks draw {prose(states(plain))} states), "
        f"or `--samples {local}` for {prose(local_pairs(local))} states with a local partner",
    )
    # every --samples of the section is one of the two
    section = TEXT[TEXT.index("### What a verdict covers") : TEXT.index("### Map descriptors")]
    assert set(re.findall(r"`--samples (\d+)`", section)) == {str(plain), str(local)}


def test_the_radii_table():
    n = DEFAULT_SAMPLES
    counts = (states(n), local_pairs(n), VALIDATION_STATES)
    header = (
        f"| dim | `verify` default ({prose(n)} pairs, {prose(states(n))} states) "
        f"| its {prose(local_pairs(n))} states with a local partner "
        f"| `classify` validation ({VALIDATION_STATES} states) |"
    )
    assert header in LINES
    start = LINES.index(header) + 2
    rows = [f"| {d} | " + " | ".join(f"{radius(m, d):.2f}" for m in counts) + " |" for d in (3, 5, 8, 16)]
    assert LINES[start : start + len(rows) + 1] == [*rows, ""]
    assert LINES[start - 1] == "|---|---|---|---|"


def test_the_coverage_table():
    # the one-state law beside the planted counts: one of a default metric
    # or collision scan's states lands in a cap of radius 0.3; the pair
    # checks' counts come from a search, and the README carries its command
    n = states(DEFAULT_SAMPLES)
    hit = [f"{1 - (1 - 0.3 ** (2 * (d - 1))) ** n:.2f}" for d in (3, 4, 5)]
    assert "| a state in the cap | (probability) | " + " | ".join(hit) + " |" in LINES
    orthogonal = inspect.signature(check_orthogonality_preserving).parameters["n_samples"].default
    inclusion = inspect.signature(check_inclusion_lemma).parameters["n_samples"].default
    # the inclusion check's states lie in the (d - 1)-dimensional span of the leak's preimages
    leak_law = [f"{1 - (1 - 0.3 ** (2 * (d - 2))) ** inclusion:.2f}" for d in (3, 4, 5)]
    says(
        f"one of the {prose(n)} states of a metric or collision scan lands in the cap, "
        f"1 − (1 − 0.3^(2(d−1)))^{prose(n)}",
        f"where a state lands in its cap with probability {hit[1]}",
        f"two fresh states per pair, {prose(2 * orthogonal)} in all",
        f"draws {prose(inclusion)} states in the span of the preimages alone, so its one-state "
        f"law is 1 − (1 − 0.3^(2(d−2)))^{prose(inclusion)}: {listing(leak_law)}",
    )
    leak = coverage_row(leaky, check_inclusion_lemma)
    assert "| leak | `check_inclusion_lemma` | " + " | ".join(
        f"{found} of {counted}" for found, counted in leak) + " |" in LINES


def test_the_refinement_steps():
    # a Wigner symmetry is an isometry, so no candidate gains: every step maps
    # one batch of 8·dim candidates and halves the step until the floor
    halvings = math.ceil(math.log(verify.REFINE_FLOOR / verify.REFINE_START_STEP, verify.REFINE_SHRINK))
    for dim in (2, 4, 16):
        assert 8 * dim * dim <= verify.MAP_ENTRIES
        map_, shapes = wigner_map(random_unitary(dim, dim)), []

        def fn(rows, inner=map_.fn):
            shapes.append(rows.shape)
            return inner(rows)

        pair = _sample_state_rows(np.random.default_rng(dim), 2, dim)
        _, got, _, used = verify._refine_pair(
            dataclasses.replace(map_, fn=fn), lambda d_in, d_out: abs(d_out - d_in),
            pair, map_.batch(pair), 200,
        )
        assert used == halvings and np.array_equal(got, pair)
        assert shapes == [(8 * dim, dim)] * used
    says(
        "one batch, its 8·dim candidates",
        "otherwise the step halves",
        f"a climb that never gains stops after {halvings} halvings",
    )


def test_the_refinement_and_polish_constants():
    lengths = verify.LSQ_LENGTHS
    assert verify.REFINE_FLOOR == verify.WITNESS_TOL / 10
    assert (lengths[0], lengths[1]) == (1.0, 0.5)
    exponent = str(int(math.log2(lengths[-1]))).translate(str.maketrans("-0123456789", "⁻⁰¹²³⁴⁵⁶⁷⁸⁹"))
    says(
        f"starting at step {verify.REFINE_START_STEP:g}",
        f"only when it gains more than {sci(verify.REFINE_TOL)}",
        f"the step is below {sci(verify.REFINE_FLOOR)} (a tenth of the {sci(verify.WITNESS_TOL)} "
        "witness tolerance)",
        f"d_in ≥ {verify.COLLISION_D_IN:g}",
        f"at least {verify.COLLISION_D_IN:g} apart by d_in − 10·d_out",
        f"central differences (h = {sci(verify.LSQ_DIFF)})",
        f"drops singular values below {sci(verify.LSQ_RCOND)} of the largest",
        f"lengths 1, 1/2, …, 2{exponent} in one batch",
        f"or after {verify.LSQ_ITERATIONS} iterations",
        f"`WITNESS_TOL` = {sci(verify.WITNESS_TOL)}",
        f"above the {sci(verify.WITNESS_TOL)} witness tolerance by more than {sci(verify.REFINE_TOL)} "
        f"and its last {verify.REFINE_STALL_STEPS} gains together raised the gap by less than "
        f"{exponent_form(verify.REFINE_STALL_GAIN)} of it",
    )


def test_the_classification_constants():
    weights = len(_lift_grid()) // len(PROBE_GRID)
    says(
        f"on {VALIDATION_STATES} fixed states in dimension ≥ 3",
        f"on the {weights}×{len(PROBE_GRID)} weight/phase grid in dimension 2",
        f"the {len(PROBE_GRID) - 1} sixteenth roots of unity",
        f"the {len(GOLDEN_PHASES)} golden-angle phases",
        f"`RESIDUAL_TOL` = {sci(RESIDUAL_TOL)}",
        # the rows of the three map calls: the basis, the pair probes, the validation states
        f"d rows, then {len(PROBE_GRID)}·C(d, 2), then {VALIDATION_STATES} (in dimension 2: "
        f"2, {len(_probe_table(2).rows)} and {len(_lift_grid())})",
    )
    # every phase of PROBE_GRID is an 80th root of unity, and no golden-angle phase is one
    roots = np.exp(2j * np.pi * np.arange(80) / 80)
    assert all(np.abs(roots - z).min() < 1e-12 for z in PROBE_GRID)
    assert all(np.abs(roots - z).min() > 1e-3 for z in GOLDEN_PHASES)


def test_the_cosp_criterion():
    # a COSP image's overlaps meet the unitarity bound, and the d - 1 squared
    # overlaps of one basis image stay inside CANONICAL_TOL up to d = 10**12,
    # so the probe stage does not weigh the basis
    says(
        f"every overlap of two of its states is at most `ORTHO_TOL` = {sci(ORTHO_TOL)}",
        f"a basis projection moves by at most (d − 1)·{sci(ORTHO_TOL**2)}, inside "
        f"`CANONICAL_TOL` = {sci(CANONICAL_TOL)} for d up to 10¹²",
        f"has a Gram entry off by more than {sci(ORTHO_TOL)}",
    )
    assert (10**12 - 1) * ORTHO_TOL**2 <= CANONICAL_TOL < 10**13 * ORTHO_TOL**2


def test_the_refusal_codes():
    # the classify section's list of codes is the table, keys and texts in order
    listed = re.findall(r"^  - `(\w+)`: `(.*)`$", SOURCE, re.M)
    assert listed == list(_REFUSALS.items())


def cli_commands() -> list[tuple[list[str], int]]:
    """The commands of the sh block under "## CLI", each with the code of
    the "# exit N" note on its last line, 0 where it has none.  A command
    goes on over lines inside a quoted argument."""
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", SOURCE, re.S | re.M).group(1)
    commands, pending = [], ""
    for line in block.splitlines():
        pending += line + "\n"
        try:
            words = shlex.split(pending, comments=True)
        except ValueError:  # an open quote: the command goes on
            continue
        if words:
            note = re.search(r"#\s*exit (\d+)", line)
            commands.append((words, int(note.group(1)) if note else 0))
        pending = ""
    assert not pending, pending
    return commands


def test_the_python_blocks_run_in_order_in_one_namespace():
    # "Batched maps" reuses the names of "Library"; each block is padded to
    # its README line, so a traceback names the README's own line
    blocks = list(re.finditer(r"^```python\n(.*?)^```", SOURCE, re.S | re.M))
    assert len(blocks) == 2, len(blocks)
    code = ""
    for block in blocks:
        code += "\n" * (SOURCE.count("\n", 0, block.start(1)) - code.count("\n")) + block.group(1)
    exec(compile(code, str(README), "exec"), {"__name__": "__main__"})


def test_the_cli_block_exits_as_annotated():
    commands = cli_commands()
    assert len(commands) >= 9, commands
    for words, code in commands:
        assert words[0] == "wignerlab", words
        assert cli.main(words[1:]) == code, shlex.join(words)


def test_every_name_a_readme_command_imports_exists(monkeypatch):
    # the sh commands import from the package, from tests/planted.py and
    # the other test modules, and from bench/, on PYTHONPATH=src:tests:bench
    # at most, and none pipes a script in: a name that moves breaks this
    # test, not the README
    for part in ("bench", "tests", "src"):
        monkeypatch.syspath_prepend(str(README.parent / part))
    blocks = re.findall(r"^```sh\n(.*?)^```", SOURCE, re.S | re.M)
    assert not [block for block in blocks if "<<" in block]
    imports = re.findall(r"\bfrom ([\w.]+) import (\w+(?: as \w+)?(?:, \w+(?: as \w+)?)*)", "".join(blocks))
    assert len(imports) >= 8, imports
    for module, names in imports:
        for name in names.split(", "):
            assert hasattr(importlib.import_module(module), name.split(" as ")[0]), (module, name)
