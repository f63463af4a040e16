"""Planted violations: maps with a known fault that the searches should find.

A helper module, not a test module; the README's dent and coverage
commands import it with PYTHONPATH=src:tests.
"""

from __future__ import annotations

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
)
from wignerlab.states import _row_distances, _sample_state_rows
from wignerlab.verify import COLLISION_D_IN


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
