"""Passes, figures and the result line of one benchmark run.

Import only after run.py has pinned the thread counts and put the
checkout's src/ on the path: this module loads numpy and wignerlab.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
import wignerlab as api
from wignerlab import acceptance

import calibration
import checks
import inputs
import spans
from run import BENCH, BLAS_THREAD_VARS, ROOT

# seconds of work budgeted per pass; a run makes seconds // budget passes, at least 2
NOMINAL_PASS_S = {"verify": 15.0, "scan": 12.0, "classify": 5.0, "selftest": 15.0}
MIN_PASSES = 2
# set-up probes of an untraced run, spread over the gaps before, between and after passes
SETUP_PROBES = 6
# tenths of a percent, highest first; the tail is the highest with 10 ops beyond
TAIL_PERCENTILES = (999, 990, 950, 900, 750, 500)
TAIL_MIN_BEYOND = 10
# points per order statistic when integrating the Harrell-Davis weights
HD_GRID = 1000

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "maps.states_mapped": "count",
    "maps.busy_s": "s",
    "maps.us_per_state": "us",
    "verify.check_s": "s",
    "verify.self_s": "s",
    "verify.pairs": "count",
    "verify.extra_states_mapped": "count",
    "verify.cosp_search_s": "s",
    "classify.call_s": "s",
    "classify.reduce_s": "s",
    "classify.canonical_s": "s",
    "classify.rest_s": "s",
    "classify.self_s": "s",
    "classify.states_per_model": "count",
    "cli.emit_s": "s",
    "descriptors.load_s": "s",
    **{f"acceptance.c{n:02d}_s": "s" for n in range(1, 12)},
    "acceptance.headroom_min": "1",
    "trace.overhead_s": "s",
}
# per-layer figures that come from re-running a traced pass's classify stages
STAGE_FIGURES = (
    "verify.cosp_search_s", "classify.reduce_s", "classify.canonical_s", "classify.rest_s"
)


def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _openblas() -> tuple[str, int | None]:
    """OpenBLAS version numpy was built with, and its thread count now."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    version = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.restype = ctypes.c_int
                return version, int(getter())
    return version, None


def metadata(args, nproc: int) -> dict:
    openblas, blas_threads = _openblas()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "blas_threads": blas_threads,
        **{var: os.environ[var] for var in ("WIGNERLAB_THREADS", *BLAS_THREAD_VARS)},
        "commit": _commit(),
    }


@dataclass
class Case:
    """An operation with its inputs loaded into program objects."""

    op: inputs.Op
    map: object = None
    system: object = None
    criterion: object = None


@dataclass
class Record:
    """One operation of one pass.  Times are raw seconds; scale, the
    pass's, turns them into reference seconds (see calibration.py)."""

    case: Case
    result: object
    text: str
    call_s: float
    emit_s: float
    states: int = 0
    busy_s: float = 0.0
    error: str | None = None
    scale: float = 1.0
    failed: bool = False

    @property
    def latency_s(self) -> float:
        return self.scale * (self.call_s + self.emit_s)


@dataclass
class Pass:
    traced: bool
    records: list
    clock: spans.MapClock | None = None

    @property
    def wall_s(self) -> float:
        """Time of the pass's operations, in reference seconds."""
        return sum(r.latency_s for r in self.records)

    @property
    def raw_wall_s(self) -> float:
        return sum(r.call_s + r.emit_s for r in self.records)


def load_cases(ops, texts: list[str]) -> list[Case]:
    """Load each map from its descriptor text, as the CLI loads --map '{...}'."""
    cases = []
    for op, text in zip(ops, texts):
        system = None
        if op.states:
            system = api.OrthoSystem(tuple(api.state_from_json(s) for s in op.states))
        cases.append(Case(op, api.map_from_json(json.loads(text)), system))
    return cases


def criterion_cases() -> list[Case]:
    """The selftest operations: each criterion that run_all() runs."""
    return [
        Case(inputs.Op(fn.__name__, "criterion", "passed"), criterion=fn)
        for fn in acceptance.ALL_CRITERIA
    ]


def invoke(case: Case, map_):
    op = case.op
    if op.kind == "criterion":
        return case.criterion()
    if op.kind == "classify":
        return api.classify(map_, op.dim, preimage_hint=case.system)
    if op.kind == "inclusion":
        return api.check_inclusion_lemma(
            map_, case.system, n_samples=op.samples, seed=op.check_seed
        )
    if op.prop == "orthogonality":
        return api.check_orthogonality_preserving(
            map_, op.dim, n_samples=op.samples, seed=op.check_seed
        )
    check = {
        "nonexpansive": api.check_nonexpansive,
        "noncontractive": api.check_noncontractive,
        "isometry": api.check_isometry,
    }[op.prop]
    return check(
        map_, op.dim, n_samples=op.samples, refine_steps=op.refine_steps, seed=op.check_seed
    )


def run_pass(cases: list[Case], traced: bool, calibrator: calibration.Calibrator) -> Pass:
    """Run every operation once."""
    clock = spans.MapClock() if traced else None
    maps = [c.map if clock is None or c.map is None else clock.wrap(c.map) for c in cases]
    records = []
    stretch = calibration.Stretch(calibrator)
    for case, map_ in zip(cases, maps):
        before = clock.snapshot() if clock else (0, 0.0)
        t0 = time.perf_counter()
        try:
            result = invoke(case, map_)
            t1 = time.perf_counter()
            text = json.dumps(result.to_json(), sort_keys=True)
        except Exception as err:  # a raising operation is a failed one
            error = f"{type(err).__name__}: {err}"
            rec = Record(case, None, "", time.perf_counter() - t0, 0.0, error=error)
        else:
            t2 = time.perf_counter()
            after = clock.snapshot() if clock else (0, 0.0)
            rec = Record(
                case, result, text, t1 - t0, t2 - t1,
                after[0] - before[0], after[1] - before[1],
            )
        records.append(rec)
        stretch.between()
    scale = stretch.close()
    for rec in records:
        rec.scale = scale
    return Pass(traced, records, clock)


def time_stages(p: Pass, calibrator: calibration.Calibrator) -> dict:
    """The stage figures of the classify operations of a traced pass.

    Each operation's stages and then a whole classify() call run again
    on a freshly timed map, so that both carry the same wrapper overhead
    and share one scale; the call minus the stages is classify.rest_s.
    """
    f = dict.fromkeys(STAGE_FIGURES, 0.0)
    stretch = calibration.Stretch(calibrator)
    for rec in p.records:
        if rec.case.op.kind == "classify" and not rec.error:
            map_ = spans.MapClock().wrap(rec.case.map)
            stages = spans.classify_stages(map_, rec.case.op.dim, rec.case.system)
            t0 = time.perf_counter()
            invoke(rec.case, map_)
            call_s = time.perf_counter() - t0
            f["verify.cosp_search_s"] += stages.cosp_s
            f["classify.reduce_s"] += stages.reduce_s
            f["classify.canonical_s"] += stages.canonical_s
            f["classify.rest_s"] += call_s - stages.cosp_s - stages.reduce_s - stages.canonical_s
            stretch.between()
    scale = stretch.close()
    return {name: scale * seconds for name, seconds in f.items()}


def check_passes(passes: list[Pass]) -> list[str]:
    """Check every report; a report or count that changes between passes fails."""
    failures = []
    digests, counts = {}, {}
    for n, p in enumerate(passes):
        for i, rec in enumerate(p.records):
            op = rec.case.op
            if rec.error:
                found = [rec.error]
            else:
                found = checks.problems(op, rec.text, rec.result, rec.case.map)
                digest = checks.op_digest(op, rec.text)
                if digests.setdefault(i, digest) != digest:
                    found.append("report differs from the first pass")
                if p.traced and counts.setdefault(i, rec.states) != rec.states:
                    found.append(f"mapped {rec.states} states, first traced pass {counts[i]}")
            failures += [f"pass {n} {op.name}: {msg}" for msg in found]
            rec.failed = bool(found)
    return failures


def layer_figures(p: Pass, budget_log: list) -> dict:
    """Per-layer figures of one traced pass, in reference seconds."""
    f = dict.fromkeys(PER_LAYER, 0.0)
    f["maps.states_mapped"] = p.clock.states
    verify_busy = classify_busy = 0.0
    models = classify_states = 0
    headrooms = []
    for rec in p.records:
        if rec.error:
            continue
        op = rec.case.op
        call_s, busy_s = rec.scale * rec.call_s, rec.scale * rec.busy_s
        f["maps.busy_s"] += busy_s
        f["cli.emit_s"] += rec.scale * rec.emit_s
        if op.kind in ("check", "inclusion"):
            f["verify.check_s"] += call_s
            verify_busy += busy_s
            if op.kind == "check":
                f["verify.pairs"] += op.samples
                scanned = 2 * op.samples
            else:
                scanned = op.samples + len(op.states)
            f["verify.extra_states_mapped"] += rec.states - scanned
        elif op.kind == "classify":
            f["classify.call_s"] += call_s
            classify_busy += busy_s
            models += 1
            classify_states += rec.states
        else:
            # budgets bind the criterion's own wall-clock seconds, unscaled
            res = rec.result
            budget = spans.criterion_budget(rec.case.criterion)
            f[f"acceptance.c{res.num:02d}_s"] = call_s
            headrooms.append(1.0 - res.seconds / budget)
            budget_log.append((res.num, res.name, res.seconds, budget))
    if p.clock.states:
        f["maps.us_per_state"] = 1e6 * f["maps.busy_s"] / p.clock.states
    f["verify.self_s"] = f["verify.check_s"] - verify_busy
    f["classify.self_s"] = f["classify.call_s"] - classify_busy
    if models:
        f["classify.states_per_model"] = classify_states / models
    # 1 where no criterion ran: no budget was used
    f["acceptance.headroom_min"] = min(headrooms, default=1.0)
    return f


def _probe_s(*args: str, text: str = "") -> float:
    out = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), *args], input=text, cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


class SetUp:
    """Times set-up, importing wignerlab and loading the maps, each time in
    a fresh interpreter, scaled by reference imports just before and after."""

    def __init__(self, descriptors: list) -> None:
        self._text = json.dumps(descriptors)
        self._reference_s = None
        self.ratios = []

    def probe(self, count: int) -> None:
        if self._reference_s is None:
            self._reference_s = _probe_s("reference")
        for _ in range(count):
            seconds = _probe_s(text=self._text)
            reference_s = _probe_s("reference")
            self.ratios.append(seconds / statistics.fmean((self._reference_s, reference_s)))
            self._reference_s = reference_s

    @property
    def seconds(self) -> float:
        """Median set-up time, in reference seconds."""
        return calibration.REFERENCE_IMPORT_S * statistics.median(self.ratios)


def percentile(xs: list[float], p10: int) -> tuple[float, int]:
    """Percentile p10 / 10 of xs, and the count beyond its nearest rank.

    The value is the Harrell-Davis estimate: the mean of all order
    statistics, weighted by a Beta((n+1)p, (n+1)(1-p)) distribution.  A
    single order statistic of a few dozen operations of different kinds
    jumps with the noise of one operation; this weighted mean of its
    neighbours holds far steadier.
    """
    x = np.sort(xs)
    n, q = len(x), p10 / 1000
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    t = (np.arange(HD_GRID * n) + 0.5) / (HD_GRID * n)
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    cdf = np.cumsum(np.exp(log_pdf - log_pdf.max()))
    weights = np.diff(cdf[HD_GRID - 1 :: HD_GRID], prepend=0.0) / cdf[-1]
    rank = -(-p10 * n // 1000)  # ceil(p * n)
    return float(weights @ x), n - rank


def tail(latencies: list[float]):
    """(percentile, value, ops beyond) at the highest percentile with 10 ops beyond."""
    for p10 in TAIL_PERCENTILES:
        value, beyond = percentile(latencies, p10)
        if beyond >= TAIL_MIN_BEYOND:
            return p10 / 10, value, beyond
    return None


def end_to_end(workload: str, passes: list[Pass], setup_s: float, lines: list) -> dict:
    latencies = [r.latency_s for p in passes for r in p.records]
    wall = statistics.median(p.wall_s for p in passes)
    m = {
        "setup_s": setup_s,
        "wall_s": wall,
        "op_p50_ms": 1e3 * percentile(latencies, 500)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    found = tail(latencies)
    if found:
        pct, value, beyond = found
        m["op_tail_ms"] = 1e3 * value
        lines.append(f"# op_tail_ms is p{pct:g} of {len(latencies)} ops, {beyond} beyond it")
    else:
        lines.append(f"# op_tail_ms omitted: {len(latencies)} ops leave no percentile with 10 beyond")
    raw = statistics.median(p.raw_wall_s for p in passes)
    scales = [r.scale for p in passes for r in p.records]
    lines.append(f"# unscaled wall_s {raw!r} s; machine speed scale median "
                 f"{statistics.median(scales):.3f}, range {min(scales):.3f}-{max(scales):.3f}")
    if workload in ("verify", "scan"):
        pairs = sum(r.case.op.samples for r in passes[0].records if r.case.op.kind == "check")
        lines.append(f"pairs_per_s {pairs / wall!r} 1/s")
    return m


def per_layer(passes: list[Pass], load_s: float, stages: dict, lines: list) -> dict:
    traced = [p for p in passes if p.traced]
    budget_log = []
    figures = [layer_figures(p, budget_log) for p in traced]
    m = {name: statistics.median(f[name] for f in figures) for name in PER_LAYER}
    m["descriptors.load_s"] = load_s
    m.update(stages)
    m["trace.overhead_s"] = (
        statistics.median(p.wall_s for p in traced)
        - statistics.median(p.wall_s for p in passes if not p.traced)
    )
    for num, name, seconds, budget in budget_log:
        lines.append(
            f"# acceptance c{num:02d} {name}: {seconds:.3f} s of {budget:g} s budget,"
            f" headroom {1 - seconds / budget:.3f}"
        )
    return m


def run(args, nproc: int) -> int:
    ops = inputs.build(args.workload, args.seed)
    descriptors = [op.map for op in ops]
    texts = [json.dumps(d) for d in descriptors]
    n_passes = max(MIN_PASSES, int(args.seconds // NOMINAL_PASS_S[args.workload]))
    setup = None if args.trace else SetUp(descriptors)
    per_gap = -(-SETUP_PROBES // (n_passes + 1))
    with calibration.Calibrator() as calibrator:
        stretch = calibration.Stretch(calibrator)
        t0 = time.perf_counter()
        cases = load_cases(ops, texts)
        load_s = (time.perf_counter() - t0) * stretch.close()
        if args.workload == "selftest":
            cases = criterion_cases()
        passes = []
        for n in range(n_passes):
            if setup:
                setup.probe(per_gap)
            passes.append(run_pass(cases, bool(args.trace and n % 2), calibrator))
        if setup:
            setup.probe(per_gap)
        if args.trace:
            # one traced pass is enough for the re-runs
            stages = time_stages(next(p for p in passes if p.traced), calibrator)
    failures = check_passes(passes)
    attempted = sum(len(p.records) for p in passes)
    failed = sum(r.failed for p in passes for r in p.records)

    lines = ["# meta " + json.dumps(metadata(args, nproc), sort_keys=True)]
    if args.trace:
        metrics, units = per_layer(passes, load_s, stages, lines), PER_LAYER
    else:
        metrics, units = end_to_end(args.workload, passes, setup.seconds, lines), END_TO_END
    n_traced = sum(p.traced for p in passes)
    lines.append(f"# passes {len(passes) - n_traced} untraced, {n_traced} traced")
    lines += [f"{name} {value!r} {units[name]}" for name, value in metrics.items()]
    lines += [f"ops_attempted {attempted} count", f"ops_failed {failed} count"]
    for msg in failures:
        print(f"FAILED {msg}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0
