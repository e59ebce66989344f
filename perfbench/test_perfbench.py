"""Tests of the benchmark's own code: the tail rule, self time, binding
restoration, failure accounting, scaling to the reference speed, one
end-to-end run and stopping the resource tracker."""

import os
from collections import Counter
from multiprocessing import resource_tracker

import numpy as np
import pytest

import twinforge.dynamics.forces as forces
import twinforge.dynamics.vehicle as vehicle
import twinforge.episode as episode
import twinforge.metrics as metrics
from perfbench import bench, run, tracing
from twinforge.scenarios import builtin_scenario_doc


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = list(range(128))
    value, label, beyond = bench.tail_percentile(samples)
    assert (label, beyond) == ("p90", 12)
    assert value == pytest.approx(np.percentile(samples, 90))
    assert bench.tail_percentile(list(range(1000)))[1] == "p99"
    assert bench.tail_percentile(list(range(20)))[1] == "p50"


def test_tail_falls_back_to_max_and_says_so():
    assert bench.tail_percentile([3.0, 1.0, 2.0] * 6) == (3.0, "max", 0)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4], which holds leaf [2, 3]; root also holds b [5, 9].
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0], dtype=np.int32)
    assert tracing.self_times(end - start, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_tracer_records_nested_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: [inner(), inner()], "outer")
    tracer.begin_case("c")
    outer()
    tracer.end_case()
    samples, spans = tracer.take()
    assert spans["case_id"] == "c"
    assert spans["parent"].tolist() == [-1, 0, 0]
    assert [spans["names"][i] for i in spans["name"]] == ["outer", "inner", "inner"]
    assert (samples["outer"]["nonnull"], samples["inner"]["nonnull"]) == (1, 0)
    outer_dur = float(samples["outer"]["dur_us"][0][0])
    inner_dur = float(samples["inner"]["dur_us"][0].sum())
    assert float(samples["outer"]["self_us"][0][0]) == pytest.approx(outer_dur - inner_dur, abs=1e-3)


def _short_bundle(case_id="short", **kw):
    bundle = episode.default_bundle(case_id, seed=2, **kw)
    bundle["sim"]["t_max"] = 0.5
    return bundle


def test_traced_run_restores_every_binding():
    originals = [(owner, attr, original) for owner, attr, original, _ in tracing.resolve()[0]]
    assert tracing.resolve()[1] == []
    tracer = tracing.Tracer()
    with bench.traced(tracer):
        assert episode.compute_dtc is not metrics.compute_dtc
        out = bench.run_one(_short_bundle(), full_scans=False, keep_csv=False, tracer=tracer)
    assert (out["status"], out["steps"]) == ("done", 50)
    assert len(out["samples"]["Vehicle.step"]["dur_us"][0]) == 50
    assert len(out["samples"]["suspension_step"]["dur_us"][0]) == 200
    with pytest.raises(RuntimeError):
        with bench.traced(tracing.Tracer()):
            raise RuntimeError("body failed")
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original
    assert episode.compute_dtc is metrics.compute_dtc
    assert vehicle.suspension_step is forces.suspension_step


def test_a_raising_case_is_recorded_not_raised():
    doc = builtin_scenario_doc("flat")
    doc["spawn"]["x"] = 5000.0  # off the map: the height query raises
    bad = _short_bundle("off-map", scenario=doc)
    unit = bench.run_unit(bench.WORKLOADS["pinned"], [bad, _short_bundle()], None, keep_csv=True)
    first, second = unit["results"]
    assert (first["status"], first["error_type"]) == ("raised", "TerrainQueryError")
    assert second["status"] == "done"
    assert unit["report"]["infra_failed"] == ["off-map"]


def test_walls_are_scaled_to_the_reference_speed():
    ref = bench.REFERENCE_PROBE_S

    def case(case_id, wall, probe):
        return {"case_id": case_id, "status": "done", "steps": 100, "start": 0.0,
                "end": wall, "probe_s": probe}

    # Case b ran while the probe took twice the reference time.
    unit = {"wall": 3.0, "results": [case("a", 1.0, ref), case("b", 2.0, 2 * ref)]}
    figs = bench.unit_figures(unit)
    assert figs["speed_factor"] == pytest.approx(2.0 / 3.0)
    assert figs["sweep_wall_s"] == pytest.approx(2.0)
    assert figs["raw_sweep_wall_s"] == 3.0
    assert figs["case_wall_p50_s"] == pytest.approx(1.0)
    assert figs["sim_steps_per_s"] == pytest.approx(100.0)
    assert figs["cases_per_min"] == pytest.approx(60.0)


def test_matrix_subset_is_balanced():
    cases = bench.WORKLOADS["matrix"].cases
    assert Counter(c[1] for c in cases) == {p: 4 for p in bench.PRESETS}
    assert Counter(c[3] for c in cases) == {t: 4 for t in bench.TIMES_OF_DAY}
    assert len(set(cases)) == len(cases)


def test_pinned_runs_end_to_end_on_a_second_seed():
    result = bench.run_workload(bench.WORKLOADS["pinned"], seed=2, seconds=1, trace=False)
    assert result["correct"], result["problems"]
    assert (result["attempted"], result["failed"]) == (5, 0)
    assert set(result["metrics"]) == set(bench.END_TO_END_UNITS)
    assert all(v > 0 for v in result["metrics"].values())
    assert result["provenance"]["seed"] == 2


def test_resource_tracker_is_stopped_and_reaped():
    resource_tracker.ensure_running()
    pid = resource_tracker._resource_tracker._pid
    run.stop_resource_tracker()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
