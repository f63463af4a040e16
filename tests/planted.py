"""Planted violations: maps with a known fault that the searches should find.

A helper module, not a test module; the README's dent command imports it
with PYTHONPATH=src:tests.
"""

from __future__ import annotations

import numpy as np

from wignerlab import StateMap
from wignerlab.states import _row_distances, _sample_state_rows


def dented_abs(dim: int, seed: int) -> StateMap:
    """entrywise_abs(dim) with image coordinate 0 raised by
    0.5 max(0, 1 - d(x, s) / 0.3), s a Haar state drawn from default_rng(seed):
    a violation of nonexpansiveness confined to the cap of radius 0.3 about s."""
    s = _sample_state_rows(np.random.default_rng(seed), 1, dim)

    def fn(rows):
        images = np.abs(rows)
        d = _row_distances(rows, np.repeat(s, len(rows), axis=0))
        images[:, 0] += 0.5 * np.maximum(0.0, 1.0 - d / 0.3)
        return images

    return StateMap("custom", dim, dim, fn)
