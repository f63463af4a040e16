"""The README's layout figures, recomputed from the package's constants.

Every figure the README states about the sampler's layout, the map
batches, refinement's level rule, the cap law and the fixed constants is
rebuilt here from wignerlab.verify and wignerlab.classify, and each test
asserts the exact phrase the README prints (whitespace collapsed, so a
phrase may wrap).  No search runs: the figures are arithmetic, and the
layout arithmetic is checked against the samplers' row counts.  Figures
that only a search or a timing can produce carry their own command in
the README instead.
"""

from __future__ import annotations

import inspect
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

from wignerlab import check_isometry, check_nonexpansive, sample_pure_state, separable_embed, verify
from wignerlab.classify import PROBE_GRID, RESIDUAL_TOL, VALIDATION_STATES, _lift_grid
from wignerlab.states import _orthogonal_pair_rows

README = Path(__file__).resolve().parents[1] / "README.md"
LINES = README.read_text(encoding="utf-8").splitlines()
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


def halving_batches(dim: int, steps: int) -> list[int]:
    """Step sizes per map batch of a refinement that never gains, in dim -> dim.

    _refine_pair's level rule stepped in arithmetic: after k failed steps
    the next batch holds k halved step sizes (at least one), within the
    remaining steps, the floor and MAP_ENTRIES entries of 8 * dim
    candidates per level.
    """
    max_levels = max(1, batch_rows(dim) // (8 * dim))
    step, used, batches = verify.REFINE_START_STEP, 0, []
    while used < steps and step >= verify.REFINE_FLOOR:
        n = 1
        while n < min(max(used, 1), steps - used, max_levels) and (
            step * verify.REFINE_SHRINK**n >= verify.REFINE_FLOOR
        ):
            n += 1
        batches.append(n)
        used += n
        step *= verify.REFINE_SHRINK**n
    return batches


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


def test_the_refinement_batches():
    steps = inspect.signature(check_isometry).parameters["refine_steps"].default
    batches = halving_batches(4, steps)
    dims = [d for d in range(2, 65) if halving_batches(d, steps) == batches]
    assert dims == list(range(2, dims[-1] + 1))
    says(
        f"an isometry stops after {sum(batches)} halvings",
        f"after two single steps, the batches hold {batches[2]}, {batches[3]}, {batches[4]}… step sizes",
        f"So in dims 2 to {dims[-1]} an isometry's {sum(batches)} halvings take {len(batches)} map "
        f"batches, of {listing(batches)} step sizes",
    )


def test_the_refinement_and_polish_constants():
    extension = verify.REFINE_EXTENSION
    lengths = verify.LSQ_LENGTHS
    assert verify.REFINE_FLOOR == verify.WITNESS_TOL / 10
    assert (lengths[0], lengths[1]) == (1.0, 0.5)
    exponent = str(int(math.log2(lengths[-1]))).translate(str.maketrans("-0123456789", "⁻⁰¹²³⁴⁵⁶⁷⁸⁹"))
    says(
        f"starting at step {verify.REFINE_START_STEP:g}",
        f"only when it gains more than {sci(verify.REFINE_TOL)}",
        f"the step is below {sci(verify.REFINE_FLOOR)} (a tenth of the {sci(verify.WITNESS_TOL)} "
        "witness tolerance)",
        f"{extension[0]:g}, {extension[1]:g}, … {extension[-1]:g} times the step",
        f"d_in ≥ {verify.COLLISION_D_IN:g}",
        f"at least {verify.COLLISION_D_IN:g} apart by d_in − 10·d_out",
        f"central differences (h = {sci(verify.LSQ_DIFF)})",
        f"drops singular values below {sci(verify.LSQ_RCOND)} of the largest",
        f"lengths 1, 1/2, …, 2{exponent} in one batch",
        f"or after {verify.LSQ_ITERATIONS} iterations",
        f"`WITNESS_TOL` = {sci(verify.WITNESS_TOL)}",
    )


def test_the_classification_constants():
    weights = len(_lift_grid()) // len(PROBE_GRID)
    says(
        f"on {VALIDATION_STATES} fixed states in dimension ≥ 3",
        f"on the {weights}×{len(PROBE_GRID)} weight/phase grid in dimension 2",
        f"the {len(PROBE_GRID) - 1} sixteenth roots of unity",
        f"`RESIDUAL_TOL` = {sci(RESIDUAL_TOL)}",
    )
