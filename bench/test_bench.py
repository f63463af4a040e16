"""Tests of the benchmark itself.  Run with: python3 -m pytest bench"""

import json

import numpy as np
import pytest

import run

api = run.import_package()

# after import_package(), so that wignerlab comes from the checkout
import calibration  # noqa: E402
import checks  # noqa: E402
import harness  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
from wignerlab import acceptance  # noqa: E402


def _one_map_per_family():
    seen = {}
    for workload in ("verify", "scan", "classify"):
        for op in inputs.build(workload, 0):
            seen.setdefault(op.map["family"], op)
    return list(seen.values())


@pytest.mark.parametrize("op", _one_map_per_family(), ids=lambda op: op.map["family"])
def test_timed_map_gives_identical_images_and_keeps_metadata(op):
    map_ = api.map_from_json(op.map)
    clock = spans.MapClock()
    timed = clock.wrap(map_)
    assert type(timed) is type(map_)
    assert (timed.family, timed.dim_in, timed.dim_out) == (map_.family, map_.dim_in, map_.dim_out)
    assert timed.params is map_.params
    rng = np.random.default_rng(7)
    for _ in range(20):
        state = api.sample_pure_state(rng, map_.dim_in)
        assert np.array_equal(timed(state).vec, map_(state).vec)
    assert clock.states == 20
    assert clock.busy_s > 0.0


def test_scan_without_refinement_maps_two_states_per_pair():
    clock = spans.MapClock()
    report = api.check_nonexpansive(
        clock.wrap(api.entrywise_abs(3)), 3, n_samples=700, refine_steps=0, seed=5
    )
    assert report.holds
    assert clock.states == 2 * 700


def _expectations(op):
    return (op.name, op.kind, op.expect, op.dim, op.prop, op.samples, op.refine_steps,
            len(op.states), op.unit_d_out, op.phase_class)


def _inputs(op):
    return json.dumps([op.map, op.states, op.check_seed], sort_keys=True)


@pytest.mark.parametrize("workload", ["verify", "scan", "classify"])
def test_seed_changes_inputs_but_not_expected_outcomes(workload):
    a, b = inputs.build(workload, 1), inputs.build(workload, 2)
    assert [_inputs(op) for op in a] == [_inputs(op) for op in inputs.build(workload, 1)]
    assert [_inputs(op) for op in a] != [_inputs(op) for op in b]
    assert [_expectations(op) for op in a] == [_expectations(op) for op in b]


@pytest.mark.parametrize("seed", [11, 12])
def test_classify_outcomes_hold_on_other_seeds(seed):
    ops = inputs.build("classify", seed)
    cases = harness.load_cases(ops, [json.dumps(op.map) for op in ops])
    with calibration.Calibrator() as calibrator:
        passes = [harness.run_pass(cases, traced, calibrator) for traced in (False, True)]
    assert harness.check_passes(passes) == []


def test_tail_is_highest_percentile_with_ten_beyond():
    assert harness.tail(list(range(19))) is None
    assert harness.tail(list(range(20)))[::2] == (50.0, 10)
    assert harness.tail(list(range(44)))[::2] == (75.0, 11)
    assert harness.tail(list(range(1000)))[0] == 99.0


def test_percentile_estimates_weigh_neighbouring_order_statistics():
    assert harness.percentile([3.0] * 7, 500) == pytest.approx((3.0, 3))
    median, beyond = harness.percentile(list(range(21)), 500)
    assert median == pytest.approx(10.0) and beyond == 10
    p90, _ = harness.percentile(list(range(1000)), 900)
    assert 895.0 < p90 < 904.0
    # one value far out moves the estimate only a little
    assert harness.percentile([1.0] * 20 + [1e6], 500)[0] < 1.01


def test_strict_parse_rejects_non_finite_values():
    with pytest.raises(ValueError):
        checks.strict_parse('{"worst_gap": -Infinity}')
    assert checks.strict_parse('{"worst_gap": -1.5}') == {"worst_gap": -1.5}


def test_every_criterion_has_a_budget():
    budgets = [spans.criterion_budget(fn) for fn in acceptance.ALL_CRITERIA]
    assert all(b > 0 for b in budgets)
    assert spans.criterion_budget(acceptance.criterion_05) == 60.0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    for key, reported in (("end_to_end", harness.END_TO_END), ("per_layer", harness.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == reported



def test_calibrator_scales_a_stretch_and_stops_its_processes():
    with calibration.Calibrator() as calibrator:
        stretch = calibration.Stretch(calibrator)
        stretch.between()
        scale = stretch.close()
        procs = calibrator._procs
    assert 0.0 < scale < float("inf")
    assert procs and all(proc.returncode == 0 for proc in procs)


def test_set_up_reads_seconds_of_fresh_interpreters():
    ops = inputs.build("verify", 0)
    setup = harness.SetUp([op.map for op in ops])
    setup.probe(2)
    assert len(setup.ratios) == 2
    assert 0.0 < setup.seconds < 60.0
