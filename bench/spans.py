"""Per-layer timing from outside the package.

Nothing here edits or patches wignerlab.  The black-box map is timed by
handing the program a copy whose function is wrapped
(``dataclasses.replace(map_, fn=...)``: same type, family and params);
every other span times a call the benchmark itself makes into a public
function.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import textwrap
import threading
import time

from wignerlab.classify import classify_canonical, classify_dim2, reduce_to_canonical
from wignerlab.verify import find_cosp_in_image


class MapClock:
    """Counts the states a map is applied to and the time spent mapping.

    The verifier maps from several threads at once, so busy time is the
    wall time during which at least one evaluation is in flight (the
    union over threads).  A layer's self time, its span minus busy time,
    therefore never goes negative.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._active = 0
        self._since = 0.0
        self.states = 0
        self.busy_s = 0.0

    def wrap(self, map_):
        """The same map, with every evaluation counted and timed."""
        fn = map_.fn

        def timed(state):
            with self._lock:
                if self._active == 0:
                    self._since = time.perf_counter()
                self._active += 1
            try:
                return fn(state)
            finally:
                with self._lock:
                    self._active -= 1
                    self.states += 1
                    if self._active == 0:
                        self.busy_s += time.perf_counter() - self._since

        return dataclasses.replace(map_, fn=timed)

    def snapshot(self) -> tuple[int, float]:
        with self._lock:
            return self.states, self.busy_s


@dataclasses.dataclass(frozen=True)
class ClassifyStages:
    cosp_s: float
    reduce_s: float
    canonical_s: float


def classify_stages(map_, dim: int, hint) -> ClassifyStages:
    """Time the stages classify() runs, by calling the same public functions.

    Follows classify(): find_cosp_in_image unless a hint is given, then
    reduce_to_canonical, then classify_dim2 or classify_canonical on the
    reduced map.  Stages that classify() would not reach read 0.
    """
    t0 = time.perf_counter()
    preimages = hint if hint is not None else find_cosp_in_image(map_, dim)
    t1 = time.perf_counter()
    cosp_s = 0.0 if hint is not None else t1 - t0
    if preimages is None:
        return ClassifyStages(cosp_s, 0.0, 0.0)
    _, _, canonical = reduce_to_canonical(map_, preimages)
    t2 = time.perf_counter()
    if dim == 2:
        classify_dim2(canonical)
    else:
        classify_canonical(canonical, dim)
    t3 = time.perf_counter()
    return ClassifyStages(cosp_s, t2 - t1, t3 - t2)


def criterion_budget(fn) -> float:
    """Wall-clock budget of an acceptance criterion, in seconds.

    Read from the criterion's own source: the last argument of its
    ``_result(...)`` call, which is where the criterion compares its
    runtime against the budget.
    """
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "_result"
            and node.args
        ):
            return float(ast.literal_eval(node.args[-1]))
    raise ValueError(f"{fn.__name__} has no _result(..., budget) call")
