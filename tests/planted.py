"""Planted violations: maps with a known fault that the searches should find,
and the README's sweeps over them and over the benchmark's inputs.

A helper module, not a test module; the README's dent, coverage,
stall-loss and holding-climb commands import it with PYTHONPATH=src:tests.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import sys
from pathlib import Path
from unittest import mock

import numpy as np

from wignerlab import (
    OrthoSystem,
    StateMap,
    basis_state,
    check_inclusion_lemma,
    check_injective,
    check_isometry,
    check_noncontractive,
    check_nonexpansive,
    check_orthogonality_preserving,
    map_from_json,
    state_from_json,
    verify,
)
from wignerlab.acceptance import CLAIMS
from wignerlab.states import _row_distances, _sample_state_rows
from wignerlab.verify import COLLISION_D_IN

METRIC = ("nonexpansive", "noncontractive", "isometry")


def _cap_weight(rows: np.ndarray, s: np.ndarray) -> np.ndarray:
    """max(0, 1 - d(x, s) / 0.3) for each row x: a bump on the cap of radius 0.3 about s."""
    d = _row_distances(rows, np.repeat(s, len(rows), axis=0))
    return np.maximum(0.0, 1.0 - d / 0.3)


def dented_abs(dim: int, seed: int) -> StateMap:
    """entrywise_abs(dim) with image coordinate 0 raised by
    0.5 max(0, 1 - d(x, s) / 0.3), s a Haar state drawn from default_rng(seed):
    a violation of nonexpansiveness confined to the cap of radius 0.3 about s."""
    s = _sample_state_rows(np.random.default_rng(seed), 1, dim)

    def fn(rows):
        images = np.abs(rows)
        images[:, 0] += 0.5 * _cap_weight(rows, s)
        return images

    return StateMap("custom", dim, dim, fn)


def pinched(dim: int, seed: int) -> StateMap:
    """The identity of dimension dim plus w(x) s, w = 0.5 max(0, 1 - d(x, s) / 0.3),
    s a Haar state drawn from default_rng(seed): the map pulls the cap of
    radius 0.3 about s towards s, a violation of noncontractiveness, of
    isometry and of orthogonality preservation confined to that cap."""
    s = _sample_state_rows(np.random.default_rng(seed), 1, dim)
    return StateMap("custom", dim, dim, lambda rows: rows + 0.5 * _cap_weight(rows, s)[:, None] * s)


def _fold_ends(dim: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """s and t, the first two Haar states drawn from default_rng(seed), as one-row arrays."""
    rows = _sample_state_rows(np.random.default_rng(seed), 2, dim)
    return rows[:1], rows[1:]


def folded(dim: int, seed: int) -> StateMap:
    """The identity of dimension dim, but x -> (1 - w) x + w s inside the cap
    of radius 0.3 about t, w = max(0, 1 - d(x, t) / 0.3), s and t from
    _fold_ends: the map folds t onto s, F(t) = F(s) = s, a collision
    confined to that cap.  A seed counts only when fold_counts holds."""
    s, t = _fold_ends(dim, seed)

    def fn(rows):
        w = _cap_weight(rows, t)[:, None]
        return (1.0 - w) * rows + w * s

    return StateMap("custom", dim, dim, fn)


def fold_counts(dim: int, seed: int) -> bool:
    """Whether folded(dim, seed) has its collision where the collision
    search looks: s and t at least COLLISION_D_IN apart."""
    s, t = _fold_ends(dim, seed)
    return bool(_row_distances(s, t)[0] >= COLLISION_D_IN)


def _leak_centre(dim: int, seed: int) -> np.ndarray:
    """s, a Haar state of the span of e_0, ..., e_{dim-2} drawn from
    default_rng(seed), as a one-row array."""
    s = np.zeros((1, dim), dtype=complex)
    s[:, :-1] = _sample_state_rows(np.random.default_rng(seed), 1, dim - 1)
    return s


def leak_preimages(dim: int) -> OrthoSystem:
    """e_0, ..., e_{dim-2}: the preimage system of leaky(dim, seed)."""
    return OrthoSystem(tuple(basis_state(dim, j) for j in range(dim - 1)))


def leaky(dim: int, seed: int) -> StateMap:
    """entrywise_abs(dim) with image coordinate dim - 1 raised by
    0.5 max(0, 1 - d(x, s) / 0.3), s from _leak_centre: a state of the
    span of leak_preimages(dim) near s has an image that leaks out of the
    span of their images, a violation of the inclusion lemma confined to
    the cap of radius 0.3 about s.  A seed counts only when leak_counts
    holds."""
    s = _leak_centre(dim, seed)

    def fn(rows):
        images = np.abs(rows)
        images[:, -1] += 0.5 * _cap_weight(rows, s)
        return images

    return StateMap("custom", dim, dim, fn)


def leak_counts(dim: int, seed: int) -> bool:
    """Whether every preimage e_j of leaky(dim, seed) is at least 0.3 from
    s, so that its image is e_j and the images stay orthogonal."""
    s = _leak_centre(dim, seed)
    return bool(np.all(np.abs(s[0, :-1]) ** 2 <= 1 - 0.3**2))


# the README's coverage table: each planted map with a check it violates
COVERAGE = (
    (dented_abs, check_nonexpansive),
    (pinched, check_noncontractive),
    (pinched, check_isometry),
    (pinched, check_orthogonality_preserving),
    (folded, check_injective),
    (leaky, check_inclusion_lemma),
)
# the seeds that count, for the plants whose fault may miss where the check looks
_COUNTS = {folded: fold_counts, leaky: leak_counts}


def coverage_row(plant, check) -> list[tuple[int, int]]:
    """Per dim 3, 4 and 5, (found, counted): of the seeds 0-39 that count,
    how many maps the check refutes at its defaults.  The pair checks take
    the dim, and check_inclusion_lemma the plant's preimage system."""
    row = []
    for dim in (3, 4, 5):
        counted = [s for s in range(40) if _COUNTS.get(plant, lambda dim, s: True)(dim, s)]
        second = leak_preimages(dim) if check is check_inclusion_lemma else dim
        row.append((sum(not check(plant(dim, s), second).holds for s in counted), len(counted)))
    return row


def coverage() -> list[list[tuple[int, int]]]:
    """coverage_row of each COVERAGE row."""
    return [coverage_row(plant, check) for plant, check in COVERAGE]


@functools.cache
def bench_inputs():
    """bench/inputs.py, the benchmark's seeded operations (numpy only),
    loaded by path, so that no bench directory need be on the path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = sys.modules.setdefault("bench_inputs", importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


def bench_check(op, n_samples=None, refine_steps=None):
    """The report of bench verify check or inclusion op, at its own budget
    and refinement cap where an argument is None."""
    map_, n_samples = map_from_json(op.map), op.samples if n_samples is None else n_samples
    if op.kind == "inclusion":
        system = OrthoSystem(tuple(map(state_from_json, op.states)))
        return check_inclusion_lemma(map_, system, n_samples, seed=op.check_seed)
    steps = op.refine_steps if refine_steps is None else refine_steps
    return verify._REPORT_CHECKS[op.prop](map_, op.dim, n_samples, refine_steps=steps, seed=op.check_seed)


def stall_losses() -> str:
    """The share of its gap that each refined witness of the bench verify
    checks of seeds 0-29 loses to the stall stop, against the same climb
    with the stop off (REFINE_STALL_GAIN 0): one line per check name, with
    the median and the largest share, the table of _refine_pair's docstring."""
    losses = {}
    for op in (op for seed in range(30) for op in bench_inputs().build("verify", seed)):
        if op.kind == "check" and op.refine_steps and op.expect == "witness":
            stopped = bench_check(op).worst_gap
            with mock.patch.object(verify, "REFINE_STALL_GAIN", 0.0):
                losses.setdefault(op.name, []).append(1 - stopped / bench_check(op).worst_gap)
    return "\n".join(f"{name:34} {np.median(shares):.1e} {max(shares):.1e}" for name, shares in losses.items())


@contextlib.contextmanager
def every_winner_climbs():
    """Make every metric scan winner climb, as before a check climbed only
    from a proven witness: verify._pair_scan climbs from a winner that
    proves none, with the stall stop off for that climb alone, and returns
    the climbed pair as its winner.  The stall stop fires only above
    WITNESS_TOL + REFINE_TOL, so a climb that it would have cut short ends
    in a witness either way."""
    pair_scan = verify._pair_scan

    def climbing(map_, dim, n_samples, refine_steps, seed, score, gap_of, draw):
        winner, others, compared, proven = pair_scan(
            map_, dim, n_samples, refine_steps, seed, score, gap_of, draw)
        if refine_steps > 0 and not proven and draw is verify._local_pair_rows:
            with mock.patch.object(verify, "REFINE_STALL_GAIN", 0.0):
                winner = verify._refine_pair(map_, score, *winner[1:], refine_steps)[:3]
        return winner, others, compared, proven

    with mock.patch.object(verify, "_pair_scan", climbing):
        yield


def holding_climbs() -> str:
    """The README's 1 415 metric checks at their defaults, with every scan
    winner climbing (every_winner_climbs): the 360 of the coverage table,
    the bench verify checks of seeds 0-29 and each CLAIMS family in each of
    its dims at check seeds 0-4.  Of the checks that hold unrefined, counts
    those whose climb finds a witness, and gives the highest worst gap of a
    climb that holds."""
    runs = [functools.partial(check, plant(dim, s), dim) for plant, check in COVERAGE
            if check.__name__[6:] in METRIC for dim in (3, 4, 5) for s in range(40)]
    runs += [functools.partial(bench_check, op)
             for seed in range(30) for op in bench_inputs().build("verify", seed) if op.prop in METRIC]
    for claim in CLAIMS.values():
        for dim in claim.dims:
            map_ = claim.build(np.random.default_rng(dim), dim, **dict.fromkeys(claim.params))
            runs += [functools.partial(verify._REPORT_CHECKS[prop], map_, dim, seed=s)
                     for prop in claim.expect if prop in METRIC for s in range(5)]
    found, top = 0, -np.inf
    with every_winner_climbs():
        for run in runs:
            if run(refine_steps=0).holds:
                climbed = run(refine_steps=200)
                found, top = found + (not climbed.holds), max(top, climbed.worst_gap)
    return f"{len(runs)} metric checks; {found} witnesses found only by a climb; highest climbed pass {top}"
