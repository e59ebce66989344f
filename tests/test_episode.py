"""Pinned end-to-end episodes: terminal, step count, verdict and digests.

These digests define "same behaviour" for the episode loop, the sensors,
the environment and the telemetry. A change that moves one of them is a
behaviour change and must say so.
"""

import copy
import dataclasses
import functools
import gc
import hashlib
import itertools
import json
import math
import operator
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import twinforge.episode as episode_module
from twinforge.autonomy import AebPlanner, AutonomyConfig, SurrogateDetector
from twinforge.documents import ConfigurationError, from_doc, to_doc
from twinforge.dynamics import Vehicle, default_vehicle_config
from twinforge.environment import footprint_corners, rectangles_overlap
from twinforge.episode import (MAX_SCAN_SAMPLES, MAX_STEPS, Episode, EpisodeState, SimParams,
                               default_bundle, run_case)
from twinforge.metrics import TelemetryLog, VerdictRecords, aggregate_report, compute_dtc, parse_csv
from twinforge.sensors import CameraConfig, InsSensor, SensorParams

DEFAULT_DIGEST = "39f1c68ec1b52e8f0a586636bddc251f2f8995730c667ec25f2f64fe48a05ee2"


def _bundle(scenario: str) -> dict:
    return default_bundle(f"{scenario}/v3/clear/12:00", "v3", "clear", "12:00",
                          seed=1, scenario=scenario)


@pytest.mark.parametrize("scenario, steps, digest", [
    ("default", 2011, DEFAULT_DIGEST),
    ("slope", 2491, "d2bd004acd1500bca7d4355471b3caf09741cbd2fc58172025c4ea9e8b6a11b9"),
])
def test_pinned_episode_digest(scenario, steps, digest):
    res = run_case(_bundle(scenario))
    assert res.status == "done"
    assert res.terminal == "standstill_after_aeb"
    assert res.steps == steps
    assert res.verdict.passed
    assert res.log.digest() == digest


@pytest.mark.parametrize("model, weather, lights, digest", [
    ("v2_tiny", "heavy_snow", "low_beam",
     "d58afc35b0628156730e1e45bc4964ae7daeb21691bd3140839bdd4c634e4b6f"),
    ("v3", "thick_fog", "high_beam_plus_fog",
     "833cb034ae5afb13dff9745c416bd1b53c5a346fb5c7f22fd0b53437a0e9cc23"),
])
def test_pinned_collision_digest(model, weather, lights, digest):
    res = run_case(default_bundle(f"default/{model}/{weather}/00:00", model, weather, "00:00",
                                  seed=1))
    assert (res.status, res.terminal, res.steps) == ("done", "collision", 1031)
    assert not res.verdict.passed
    assert {r.lights for r in parse_csv(res.log.to_csv())} == {lights}
    assert res.log.digest() == digest


PINNED_CASES = (("default", "v3", "clear", "12:00"), ("default", "v2_tiny", "heavy_snow", "00:00"),
                ("slope", "v3", "clear", "12:00"), ("flat", "v3", "clear", "12:00"))


def test_a_case_without_telemetry_has_the_telemetry_runs_verdict():
    bundles = [default_bundle(f"{sc}/{model}/{weather}/{tod}", model, weather, tod, 1, sc)
               for sc, model, weather, tod in PINNED_CASES]
    verdicts = {}
    for bundle in bundles:
        res = run_case(bundle, collect_telemetry=False)
        assert (res.status, res.log) == ("done", None)
        assert res.verdict == run_case(bundle).verdict
        verdicts[bundle["case_id"]] = res.verdict
    plan = SimpleNamespace(batches=[[SimpleNamespace(case_id=b["case_id"], model=b["model"])
                                     for b in bundles]])
    report = aggregate_report(verdicts, plan)
    assert report.infra_failed == []
    assert report.cumulative == {"passed": 3, "total": 4}


def test_the_log_keeps_text_not_records():
    """A 2,000-step run retains about 216 B per row: the row's text and a
    list slot. A record kept per step would add its tuple and 16 floats
    (463 B per row in all)."""
    bundle = _bundle("flat")
    bundle["sim"]["t_max"] = 20.0
    run_case(bundle)  # first-call caches are not the log's
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = run_case(bundle)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert (res.terminal, res.steps) == ("timeout", 2000)
    assert retained / res.steps < 300


def test_a_contact_cases_stop_margin_is_the_dtc_at_first_contact():
    res = run_case(default_bundle("default/v2_tiny/heavy_snow/00:00", "v2_tiny", "heavy_snow",
                                  "00:00", seed=1))
    rows = parse_csv(res.log.to_csv())
    first = next(r for r in rows if r.collision_count == 1)
    # The CSV holds six decimals, so the verdict's numbers are read back through them.
    assert float(f"{res.verdict.stop_margin:.6f}") == first.dtc
    assert res.verdict.stop_margin <= 1e-6
    assert float(f"{res.verdict.min_dtc:.6f}") == min(r.dtc for r in rows)
    assert res.verdict.min_dtc < res.verdict.stop_margin


def test_pinned_scan_digest():
    bundle = _bundle("default")
    bundle["sim"]["t_max"] = 5.0
    res = run_case(bundle, collect_telemetry=True, full_scans=True)
    assert res.terminal == "timeout"
    assert res.log.digest() == "32cf7a9314723d0eb2fcdbb78274c43c2eb9676c1b1f0ed759b5ea02ad5f533d"
    assert hashlib.sha256(res.scan_dump.encode()).hexdigest() == \
        "a74ec959cdb8e0ebc21896c303596e16b0582ecf8fbf53393adb636e9d3997ac"


def test_pinned_full_length_scan_digest():
    """The whole default run with full scans: its 40 planar sweeps, 15 of which
    see terrain (the only sweeps that bisect a crossing), are cast after the
    run, and its telemetry is the run's without scans."""
    res = run_case(_bundle("default"), collect_telemetry=True, full_scans=True)
    assert (res.terminal, res.steps) == ("standstill_after_aeb", 2011)
    assert res.log.digest() == DEFAULT_DIGEST
    sweeps = res.scan_dump.split("\n# spatial scan (sensor frame)\n")[0].split("\n")
    assert len(sweeps) == 40
    assert sum(any(r != "inf" for r in line.split()[1:]) for line in sweeps) == 15
    assert hashlib.sha256(res.scan_dump.encode()).hexdigest() == \
        "3654b0f9c48f9c2aaf60ee39f6edbd8f158ab65484a8ae0a173031243a408863"


def test_a_dump_of_two_casts_equals_one_cast_per_sweep():
    """At r_max 160 a cast holds 34 sweeps, so the default run's 40 sweeps, 31
    of which see terrain, take two casts; the dump is the one cast sweep by
    sweep gives, and the telemetry is the run's without scans."""
    bundle = _bundle("default")
    bundle["sensors"]["lidar"]["r_max"] = 160.0
    episode = Episode(bundle, full_scans=True)
    assert episode.sweeps_per_cast == 34
    res = episode.run()
    assert (res.terminal, res.steps) == ("standstill_after_aeb", 2011)
    assert res.log.digest() == DEFAULT_DIGEST
    sweeps = res.scan_dump.split("\n# spatial scan (sensor frame)\n")[0].split("\n")
    assert len(sweeps) == 40
    assert sum(any(r != "inf" for r in line.split()[1:]) for line in sweeps) == 31
    episode.sweeps_per_cast = 1
    assert episode.run().scan_dump == res.scan_dump


def test_a_float_error_in_a_scan_cast_is_a_fault(monkeypatch):
    """The sweeps are cast after the run reaches its own terminal, under the
    step loop's float error rules: a cast that raises fails the case."""
    def raising(*args):
        raise FloatingPointError("overflow encountered in multiply")

    monkeypatch.setattr(episode_module, "env_raycast", raising)
    res = run_case(default_bundle(), full_scans=True)
    assert (res.status, res.terminal, res.steps, res.verdict, res.scan_dump) == (
        "failed", "fault", 2011, None, None)
    assert res.error == "FloatingPointError: overflow encountered in multiply"


@pytest.mark.parametrize("scenario, full_scans", [
    ("default", False), ("slope", False), ("default", True),
], ids=["default", "slope", "default-full-scans"])
def test_a_second_run_repeats_the_first(scenario, full_scans):
    """A run builds the state it changes, the detector's stream, the planner
    and the log, so a second run of one Episode starts from spawn again; none
    of that state is left on the Episode."""
    bundle = _bundle(scenario)
    if full_scans:
        bundle["sim"]["t_max"] = 5.0
    episode = Episode(bundle, full_scans=full_scans)
    first, second = episode.run(), episode.run()
    assert first.terminal == ("timeout" if full_scans else "standstill_after_aeb")
    assert (second.steps, second.terminal) == (first.steps, first.terminal)
    assert second.log.digest() == first.log.digest()
    assert second.verdict == first.verdict
    assert second.scan_dump == first.scan_dump and (first.scan_dump is not None) == full_scans
    run_state = (AebPlanner, SurrogateDetector, np.random.Generator, TelemetryLog, VerdictRecords,
                 EpisodeState)
    assert not [name for name, value in vars(episode).items() if isinstance(value, run_state)]


PERIOD = AutonomyConfig().perception_period_steps


def _rng_state(run: EpisodeState) -> str:
    """The detector stream's position: it moves on each frame the run detects."""
    return json.dumps(run.detector.rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


@functools.cache
def _whole_run(full_scans: bool):
    """An Episode of default v3/clear/12:00 seed 1 (5 s with full scans), its
    state advanced in one call and its `run()` result."""
    bundle = _bundle("default")
    if full_scans:
        bundle["sim"]["t_max"] = 5.0
    episode = Episode(bundle, full_scans=full_scans)
    return episode, episode.advance(episode.start()), episode.run()


@settings(max_examples=20, deadline=None)
@given(full_scans=st.booleans(),
       chunks=st.lists(st.one_of(st.integers(1, 400), st.integers(1, 40).map(PERIOD.__mul__)),
                       min_size=1, max_size=8))
@example(full_scans=False, chunks=[79 * PERIOD, 1])
@example(full_scans=True, chunks=[7])
def test_advancing_in_chunks_equals_run(full_scans, chunks):
    """Steps cut anywhere, on a frame boundary or off one, give the run
    `run()` gives: each frame is perceived and detected once."""
    episode, whole, res = _whole_run(full_scans)
    run = episode.start()
    for chunk in itertools.cycle(chunks):
        if run.terminal is not None:
            break
        assert episode.advance(run, until_step=run.steps + chunk) is run
    assert (run.terminal, run.steps, run.log.digest()) == (res.terminal, res.steps, res.log.digest())
    chunked = episode.result(run)
    assert (chunked.verdict, chunked.scan_dump, chunked.duration) == (res.verdict, res.scan_dump,
                                                                      res.duration)
    assert (res.scan_dump is not None) == full_scans
    assert _rng_state(run) == _rng_state(whole)


CRUISE_DIGEST = "af97f10bc61bca130ed143fc29984422ba7545dcffb349bdd9845a171776fa65"


def test_a_fork_forced_to_brake_at_a_frame_is_the_run_that_fires_there():
    """With no threat class the planner never brakes: the cruise trace. A fork
    of it at frame k, its planner's mode set to brake, is a run whose planner
    fires at k; the real run fires at frame 79, so the fork there is that run."""
    bundle = _bundle("default")
    bundle["autonomy"]["aeb"]["threat_classes"] = []
    episode, plain = Episode(bundle), Episode(_bundle("default"))

    def fork(episode, run, frame):
        episode.advance(run, until_step=frame * PERIOD)
        forked = copy.deepcopy(run)
        forked.planner.mode = "brake"
        return episode.advance(forked)

    trace = episode.start()
    forks = [fork(episode, trace, frame) for frame in (39, 79, 80)]
    assert [(f.terminal, f.steps, f.log.digest()) for f in forks] == [
        ("standstill_after_aeb", 1571, "d9aa3621e1f621710425bcc36b964de1dd9cb0fab98e27a2086ee28213dd4ba1"),
        ("standstill_after_aeb", 2011, DEFAULT_DIGEST),
        ("collision", 1988, "3dc22f0ed1703e408dcab36072b4e5f879f436b7b985da9e27ce901989487e75"),
    ]
    # Before frame 79 the two bundles' runs are one run.
    assert fork(plain, plain.start(), 39).log.digest() == forks[0].log.digest()
    # The forks shared no state with the trace they were copied from.
    episode.advance(trace)
    assert (trace.terminal, trace.steps, trace.log.digest()) == ("collision", 1031, CRUISE_DIGEST)


def test_advance_goes_no_further_than_until_step_or_a_terminal():
    bundle = _bundle("flat")
    bundle["sim"]["t_max"] = 0.5
    episode = Episode(bundle)
    run = episode.advance(episode.start(), until_step=49)
    assert (run.terminal, run.steps) == (None, 49)  # a stop short of t_max is no timeout
    rng = _rng_state(run)
    for until_step in (49, 10, 0):
        assert episode.advance(run, until_step) is run
        assert (run.terminal, run.steps, len(run.log.rows), _rng_state(run)) == (None, 49, 49, rng)
    assert (episode.advance(run, until_step=50).terminal, run.steps) == ("timeout", 50)

    episode = Episode(_bundle("default"))
    run = episode.advance(episode.start())
    assert (run.terminal, run.steps) == ("standstill_after_aeb", 2011)
    rng = _rng_state(run)
    for until_step in (None, 2011, 3000):
        assert episode.advance(run, until_step) is run
        assert (run.terminal, run.steps, len(run.log.rows), _rng_state(run)) == (
            "standstill_after_aeb", 2011, 2011, rng)


def test_a_result_needs_a_run_that_ended():
    """A run stopped short of its terminal has no verdict yet, at step 5 or at spawn."""
    episode = Episode(_bundle("default"))
    for steps in (5, 0):
        run = episode.advance(episode.start(), until_step=steps)
        with pytest.raises(ValueError, match=f"a run at step {steps} has no terminal"):
            episode.result(run)


def test_autonomy_document_without_perception_period_uses_the_default():
    bundle = _bundle("default")
    del bundle["autonomy"]["perception_period_steps"]
    res = run_case(bundle)
    assert res.steps == 2011
    assert res.log.digest() == DEFAULT_DIGEST


def test_bundles_do_not_share_the_default_sensors():
    bundle = _bundle("default")
    bundle["sensors"]["camera"]["focal_length"] = 5.0
    assert CameraConfig().focal_length == 1.732
    assert _bundle("default")["sensors"]["camera"]["focal_length"] == 1.732
    assert Episode(_bundle("default")).case.sensors.camera.focal_length == 1.732


def _drop_aeb_fos(bundle):
    del bundle["autonomy"]["aeb"]["fos"]


@pytest.mark.parametrize("edit", [
    lambda b: b.update(sensors={"camera": {"focal_length": 1.732}}),
    _drop_aeb_fos,
    lambda b: b.update(sim={}),
    lambda b: b.update(vehicle={"schema_version": 2}),
], ids=["partial-sensors-camera", "partial-autonomy-aeb", "empty-sim", "versioned-vehicle"])
def test_partial_section_runs_with_the_defaults(edit):
    bundle = _bundle("default")
    edit(bundle)
    res = run_case(bundle)
    assert res.steps == 2011
    assert res.log.digest() == DEFAULT_DIGEST


def test_preset_missing_a_field_names_it():
    bundle = _bundle("default")
    del bundle["autonomy"]["presets"]["v3"]["min_pixel_area"]
    with pytest.raises(ConfigurationError, match="PerceptionModelPreset document lacks min_pixel_area"):
        Episode(bundle)


def _drop_preset_field(bundle):
    del bundle["autonomy"]["presets"]["v3"]["min_pixel_area"]


def _bad_scenario_kind(bundle):
    bundle["scenario"]["terrain"]["kind"] = "lunar"


def _version_1_vehicle_doc():
    """Version 1 stored a steering section with wheelbase, track and a second
    top_speed, tire_radius, and the spline as named knots."""
    doc = to_doc(default_vehicle_config())
    del doc["schema_version"]
    doc["config_version"] = 1
    doc["steering"] = {"limit": 0.55, "sensitivity": 0.8, "speed_factor": 0.6,
                       "wheelbase": 2.9, "track": 1.56, "top_speed": 30.0}
    doc["powertrain"]["diff_torque_drop"] = 0.5
    doc["powertrain"]["tire_radius"] = 0.35
    doc["tires"] = {"knots": {"zero": [0.0, 0.0], "extremum": [0.2, 1.0], "asymptote": [0.8, 0.6]}}
    return doc


def _set(*path_and_value):
    """An edit that sets the field at `path` of the bundle. A path into
    "vehicle" first puts in a partial vehicle document: the schema version and
    the default of the one entry the path leads into, which a dict, a list or
    the spline needs whole."""
    *path, key, value = path_and_value

    def edit(bundle):
        if path[0] == "vehicle":
            default = to_doc(default_vehicle_config())
            bundle["vehicle"] = {"schema_version": 2, **{k: default[k] for k in path[1:2]}}
        functools.reduce(operator.getitem, path, bundle)[key] = value
    return edit


HUGE = 10 ** 400  # beyond the float range


@pytest.mark.parametrize("edit, error", [
    (_drop_preset_field,
     "ConfigurationError: PerceptionModelPreset document lacks min_pixel_area"),
    (lambda b: b.update(model="v9"),
     "ConfigurationError: CaseBundle.model must name a perception preset, got 'v9'"),
    (_bad_scenario_kind, "ConfigurationError: TerrainSpec.kind must be one of "
     "('rolling', 'upslope', 'flat'), got 'lunar'"),
    (lambda b: b["sim"].update(t_max=0),
     "ConfigurationError: SimParams.t_max must be a finite number > 0, got 0.0"),
    (lambda b: b["sim"].update(dt=-0.01),
     "ConfigurationError: SimParams.dt must be a finite number > 0, got -0.01"),
    (lambda b: b["sim"].update(dt=0),
     "ConfigurationError: SimParams.dt must be a finite number > 0, got 0.0"),
    (lambda b: b["autonomy"]["aeb"].update(max_decel=0),
     "ConfigurationError: AebConfig.max_decel must be a finite number > 0, got 0.0"),
    (lambda b: b["autonomy"].update(perception_period_steps=0),
     "ConfigurationError: AutonomyConfig.perception_period_steps must be a finite number >= 1, got 0"),
    (lambda b: b["scenario"]["terrain"].update(cell=0),
     "ConfigurationError: TerrainSpec.cell must be a finite number > 0, got 0.0"),
    (lambda b: b["scenario"]["obstacles"][0].pop("ahead"),
     "ConfigurationError: ObstacleSpec document lacks ahead"),
    (lambda b: b["scenario"]["obstacles"][0].pop("extents"),
     "ConfigurationError: ObstacleSpec document lacks extents"),
    (lambda b: b["scenario"]["spawn"].pop("x"), "ConfigurationError: Spawn document lacks x"),
    (lambda b: b["sim"].update(dt="0.01"),
     "ConfigurationError: SimParams.dt must be float, got '0.01'"),
    (lambda b: b["sim"].update(dt=True), "ConfigurationError: SimParams.dt must be float, got True"),
    (lambda b: b["autonomy"].update(perception_period_steps=2.5),
     "ConfigurationError: AutonomyConfig.perception_period_steps must be int, got 2.5"),
    (lambda b: b["scenario"]["obstacles"][0].update(extents=[0.8, 2.4]),
     "ConfigurationError: ObstacleSpec.extents must be an array of 3, got [0.8, 2.4]"),
    (lambda b: b["sim"].update(contact_window=-1.0),
     "ConfigurationError: SimParams.contact_window must be a finite number >= 0, got -1.0"),
    (lambda b: b["sim"].update(contact_window=math.inf),
     "ConfigurationError: SimParams.contact_window must be a finite number >= 0, got inf"),
    (lambda b: b["sim"].update(post_stop_grace=math.nan),
     "ConfigurationError: SimParams.post_stop_grace must be a finite number >= 0, got nan"),
    (lambda b: b["sim"].update(post_stop_grace=-1.0),
     "ConfigurationError: SimParams.post_stop_grace must be a finite number >= 0, got -1.0"),
    (lambda b: b["sim"].update(post_stop_grace=math.inf),
     "ConfigurationError: SimParams.post_stop_grace must be a finite number >= 0, got inf"),
    (lambda b: b["scenario"].update(cruise_speed=math.nan),
     "ConfigurationError: ScenarioConfig.cruise_speed must be a finite number > 0, got nan"),
    (lambda b: b.update(vehicle=_version_1_vehicle_doc()),
     "ConfigurationError: VehicleConfig.schema_version must be 2, got None"),
    (lambda b: b.update(vehicle={**_version_1_vehicle_doc(), "schema_version": 2}),
     "ConfigurationError: FrictionSpline document lacks s0, f0, se, fe, sa, fa"),
    (_set("autonomy", "presets", "v3", "range_halflife", 0),
     "ConfigurationError: PerceptionModelPreset.range_halflife must be a finite number > 0, got 0.0"),
    (_set("autonomy", "presets", "v3", "range_halflife", -0.001),
     "ConfigurationError: PerceptionModelPreset.range_halflife must be a finite number > 0, "
     "got -0.001"),
    (_set("autonomy", "assumed_frontal_area", -4.3),
     "ConfigurationError: AutonomyConfig.assumed_frontal_area must be a finite number > 0, got -4.3"),
    (_set("vehicle", "powertrain", "rpm_smoothing_tau", 0),
     "ConfigurationError: PowertrainParams.rpm_smoothing_tau must be a finite number > 0, got 0.0"),
    (_set("vehicle", "slip_speed_guard", 0),
     "ConfigurationError: VehicleConfig.slip_speed_guard must be a finite number > 0, got 0.0"),
    (_set("vehicle", "suspension", "wheel_mass", 0),
     "ConfigurationError: SuspensionParams.wheel_mass must be a finite number > 0, got 0.0"),
    (_set("vehicle", "suspension", "natural_frequency", math.inf),
     "ConfigurationError: SuspensionParams.natural_frequency must be a finite number > 0, got inf"),
    (_set("vehicle", "wheel_mounts", "RL", 1, math.nan),
     "ConfigurationError: VehicleConfig.wheel_mounts must be a finite number, got nan"),
    (_set("vehicle", "wheel_mounts", "FL", 0, -math.inf),
     "ConfigurationError: VehicleConfig.wheel_mounts must be a finite number, got -inf"),
    (_set("sim", "t_max", HUGE),
     f"ConfigurationError: SimParams.t_max must be a finite number > 0, got {HUGE}"),
    (_set("sensors", "camera", "focal_length", HUGE),
     f"ConfigurationError: CameraConfig.focal_length must be a finite number > 0, got {HUGE}"),
    (_set("autonomy", "perception_period_steps", HUGE),
     "ConfigurationError: AutonomyConfig.perception_period_steps must be a finite number >= 1, "
     f"got {HUGE}"),
    (_set("sensors", "camera", "focal_length", math.nan),
     "ConfigurationError: CameraConfig.focal_length must be a finite number > 0, got nan"),
    (_set("autonomy", "control", "cruise_kp", math.nan),
     "ConfigurationError: ControlParams.cruise_kp must be a finite number > 0, got nan"),
    (_set("vehicle", "footprint", "length", 0),
     "ConfigurationError: FootprintParams.length must be a finite number > 0, got 0.0"),
    (_set("autonomy", "false_positive_rate", 2),
     "ConfigurationError: AutonomyConfig.false_positive_rate must be a finite number >= 0 and <= 1, "
     "got 2.0"),
    (_set("sensors", "camera", "resolution", [640, 0]),
     "ConfigurationError: CameraConfig.resolution must be a finite number >= 1, got 0"),
    (lambda b: b["sim"].update(dt=1.0, t_max=0.5),
     "ConfigurationError: need dt <= t_max, got dt=1.0, t_max=0.5"),
    (lambda b: b["sim"].update(dt=1e-310),
     "ConfigurationError: need t_max and contact_window <= 10000000 dt, got SimParams(dt=1e-310, "
     "t_max=120.0, post_stop_grace=10.0, contact_window=1.0)"),
    (lambda b: b["sim"].update(t_max=1e300, dt=1e-10),
     "ConfigurationError: need t_max and contact_window <= 10000000 dt, got SimParams(dt=1e-10, "
     "t_max=1e+300, post_stop_grace=10.0, contact_window=1.0)"),
    (lambda b: b["sim"].update(dt=5e-7, t_max=5e-4),
     "ConfigurationError: need dt >= 1e-06 s, the CSV's time resolution, got dt=5e-07"),
    (_set("scenario", "obstacles", 5),
     "ConfigurationError: ScenarioConfig.obstacles must be an array, got 5"),
    (_set("scenario", "obstacles", [5]),
     "ConfigurationError: ScenarioConfig.obstacles must be an object, got 5"),
    (_set("scenario", "terrain", "flat"),
     "ConfigurationError: ScenarioConfig.terrain must be an object, got 'flat'"),
    (_set("scenario", "spawn", [400.0, 0.0]),
     "ConfigurationError: ScenarioConfig.spawn must be an object, got [400.0, 0.0]"),
    (_set("scenario", "spawn", "y", math.inf),
     "ConfigurationError: Spawn.y must be a finite number, got inf"),
    (_set("scenario", "spawn", "yaw", "0"),
     "ConfigurationError: Spawn.yaw must be float, got '0'"),
    (_set("scenario", "obstacles", 0, "yaw", math.nan),
     "ConfigurationError: ObstacleSpec.yaw must be a finite number, got nan"),
    (_set("scenario", "obstacles", 0, "lateral", -math.inf),
     "ConfigurationError: ObstacleSpec.lateral must be a finite number, got -inf"),
    (_set("scenario", "cruise_speed", HUGE),
     f"ConfigurationError: ScenarioConfig.cruise_speed must be a finite number > 0, got {HUGE}"),
    (lambda b: b.update(seed=None), "ConfigurationError: CaseBundle.seed must be int, got None"),
    (lambda b: b.update(seed=1.5), "ConfigurationError: CaseBundle.seed must be int, got 1.5"),
    (lambda b: b.update(seed=-1),
     "ConfigurationError: CaseBundle.seed must be a finite number >= 0, got -1"),
    (lambda b: b.update(seed=2 ** 128), "ConfigurationError: CaseBundle.seed must be below 2**128, "
     "the Philox key size, got 340282366920938463463374607431768211456"),
    (lambda b: b.update(model=["v3"]), "ConfigurationError: CaseBundle.model must be str, got ['v3']"),
    (lambda b: b.pop("weather"), "ConfigurationError: CaseBundle document lacks weather"),
    (lambda b: b.update(sim=5), "ConfigurationError: CaseBundle.sim must be an object, got 5"),
    (lambda b: b.update(sensors=[1]),
     "ConfigurationError: CaseBundle.sensors must be an object, got [1]"),
    (lambda b: b.update(vehicle=None),
     "ConfigurationError: CaseBundle.vehicle must be an object, got None"),
    (lambda b: b.update(autonomy={}),
     "ConfigurationError: AutonomyConfig.schema_version must be 1, got None"),
    (_set("autonomy", "aeb", "threat_classes", "moose"),
     "ConfigurationError: AebConfig.threat_classes must be an array, got 'moose'"),
    (_set("vehicle", "suspension", "wheel_radius", 1e-300), "ZeroDivisionError: float division by zero"),
    (_set("vehicle", "tires", "sa", 1e300), "OverflowError: (34, 'Numerical result out of range')"),
], ids=["preset-missing-field", "model-without-preset", "bad-scenario-kind", "zero-t-max",
        "negative-dt", "zero-dt", "zero-max-decel", "zero-perception-period", "zero-cell",
        "obstacle-without-ahead", "obstacle-without-extents", "spawn-without-x", "string-dt",
        "bool-dt", "fractional-perception-period", "two-extents", "negative-contact-window",
        "infinite-contact-window", "nan-post-stop-grace", "negative-post-stop-grace",
        "infinite-post-stop-grace", "nan-cruise-speed", "vehicle-version-1",
        "vehicle-spline-as-knots", "zero-range-halflife", "negative-range-halflife",
        "negative-frontal-area", "zero-rpm-smoothing-tau", "zero-slip-speed-guard",
        "zero-wheel-mass", "infinite-natural-frequency", "nan-wheel-mount",
        "infinite-wheel-mount", "huge-int-t-max", "huge-int-focal-length",
        "huge-int-perception-period", "nan-focal-length", "nan-cruise-kp",
        "zero-footprint-length", "false-positive-rate-above-1", "zero-px-resolution",
        "dt-above-t-max", "subnormal-dt", "huge-t-max-tiny-dt", "sub-microsecond-dt",
        "number-obstacles", "number-obstacle-entry", "string-terrain", "list-spawn", "infinite-spawn-y",
        "string-spawn-yaw", "nan-obstacle-yaw", "infinite-obstacle-lateral",
        "huge-int-cruise-speed", "none-seed", "fractional-seed", "negative-seed", "seed-2-to-the-128",
        "list-model", "no-weather", "number-sim", "list-sensors", "none-vehicle", "unversioned-autonomy",
        "string-threat-classes", "tiny-wheel-radius", "huge-tyre-knot"])
def test_rejected_bundle_is_a_failed_result(edit, error):
    bundle = _bundle("default")
    edit(bundle)
    res = run_case(bundle)
    assert (res.case_id, res.status, res.terminal) == (bundle["case_id"], "failed", "fault")
    assert (res.steps, res.log, res.verdict) == (0, None, None)
    assert res.error == error


def test_the_largest_seed_keys_a_run():
    bundle = _bundle("default")
    bundle["seed"] = 2 ** 128 - 1
    bundle["sim"]["t_max"] = 0.5
    res = run_case(bundle)
    assert (res.status, res.steps) == ("done", 50)


def test_a_microsecond_dt_run_reads_back_into_a_log():
    # 1e-6 s is the CSV's time resolution: each step still has its own t.
    bundle = _bundle("default")
    bundle["sim"].update(dt=1e-6, t_max=5e-4)
    res = run_case(bundle)
    assert (res.status, res.steps) == ("done", 500)
    log = TelemetryLog()
    for record in parse_csv(res.log.to_csv()):
        log.append(record)
    assert log.to_csv() == res.log.to_csv()


@pytest.mark.parametrize("section, kind", [
    ("autonomy", AutonomyConfig), ("sensors", SensorParams), ("sim", SimParams),
])
def test_default_bundle_section_round_trips(section, kind):
    doc = json.loads(json.dumps(default_bundle()[section]))
    assert doc == default_bundle()[section]
    assert to_doc(from_doc(kind, doc)) == doc


def test_default_bundle_digest():
    text = json.dumps(default_bundle(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "6920a57dc4525c6cedf3b3141496ed95e51d3795b3fbd17050ad7b30cb91a5e9"


def test_an_int_passes_where_a_float_is_hinted():
    assert from_doc(SimParams, {"t_max": 100}).t_max == 100


# -- run_case raises nothing ------------------------------------------------------

def _sweep_bundle() -> dict:
    bundle = _bundle("default")
    bundle["sim"]["t_max"] = 5.0  # the first threat-sized box appears at t = 4.01 s
    bundle["vehicle"] = to_doc(default_vehicle_config())
    return bundle


def _number_paths(doc, path=()) -> list:
    """The path of each int or float leaf of a document, schema_version aside."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return [p for k, v in items if k != "schema_version" for p in _number_paths(v, path + (k,))]
    return [path] if type(doc) in (int, float) else []


NUMBER_PATHS = _number_paths({k: _sweep_bundle()[k]
                              for k in ("sim", "sensors", "autonomy", "vehicle", "scenario")})
EDITS = {"nan": lambda d: math.nan, "inf": lambda d: math.inf, "-inf": lambda d: -math.inf,
         "zero": lambda d: 0, "negated": lambda d: -d, "tenth": lambda d: d * 0.1,
         "tenfold": lambda d: d * 10, "huge-int": lambda d: HUGE,
         "1e300": lambda d: 1e300, "-1e300": lambda d: -1e300,
         "1e-300": lambda d: 1e-300, "-1e-300": lambda d: -1e-300,
         "1e-310": lambda d: 1e-310, "-1e-310": lambda d: -1e-310}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(NUMBER_PATHS), st.sampled_from(sorted(EDITS)))
@example(("scenario", "obstacles", 0, "extents", 2), "1e300")  # overflows the obstacle's range
@example(("sensors", "camera", "sensor_size", 1), "1e-310")  # an invalid value in project_box
def test_run_case_returns_a_result_for_any_one_number_edited(path, edit):
    """No value of one number of the sim, sensors, autonomy, vehicle or
    scenario section makes `run_case` raise: the case is done or failed."""
    bundle = _sweep_bundle()
    *parents, key = path
    node = functools.reduce(operator.getitem, parents, bundle)
    node[key] = EDITS[edit](node[key])
    dt, t_max = bundle["sim"]["dt"], bundle["sim"]["t_max"]
    # at most 1,000 steps, or more than MAX_STEPS, which SimParams rejects before
    # the case runs (as it does a non-finite or huge-int t_max)
    assume(not (type(t_max) is float and t_max < math.inf and 0 < dt < t_max / 1000
                and t_max / dt <= MAX_STEPS))
    res = run_case(bundle)
    assert res.status in ("done", "failed")
    assert (res.error is None) == (res.status == "done")


@pytest.mark.parametrize("path, value", [
    (("scenario", "obstacles", 0, "extents", 2), 1e300),
    (("sensors", "camera", "sensor_size", 1), 1e-310),
])
def test_a_numpy_float_error_in_an_episode_is_a_fault(path, value):
    """A number that makes perception's numpy arithmetic overflow or go
    invalid fails the case instead of running on a non-finite range or
    projection."""
    bundle = _sweep_bundle()
    *parents, key = path
    functools.reduce(operator.getitem, parents, bundle)[key] = value
    res = run_case(bundle)
    assert (res.status, res.terminal, res.verdict) == ("failed", "fault", None)
    assert res.error.startswith("FloatingPointError: ")


def test_an_off_map_wheel_mount_is_a_failed_result():
    """A mount coordinate of +-1e300 that keeps the wheelbase and track positive
    puts its wheel off the map: the first step's terrain query under it fails
    the case. The other mount edits fail as a configuration error."""
    kinds = []
    for name, axis, value in itertools.product(("FL", "FR", "RL", "RR"), (0, 1), (1e300, -1e300)):
        bundle = _sweep_bundle()
        bundle["vehicle"]["wheel_mounts"][name][axis] = value
        res = run_case(bundle)
        assert (res.status, res.terminal, res.verdict) == ("failed", "fault", None)
        kinds.append(res.error.split(":")[0])
        if kinds[-1] == "TerrainQueryError":
            assert res.steps == 0
        else:
            assert res.error == "ConfigurationError: wheel_mounts must give wheelbase and track > 0"
    assert sorted(kinds) == ["ConfigurationError"] * 6 + ["TerrainQueryError"] * 10


def _node_paths(doc, path=()) -> list:
    """The path of every node below the root of a document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    return [p for k, v in items for p in (path + (k,), *_node_paths(v, path + (k,)))]


WRONG_KINDS = (5, None, "x", [], {}, [1])


def test_run_case_returns_a_result_for_any_node_of_the_wrong_kind():
    """Every node of the bundle replaced in turn by each value of WRONG_KINDS,
    and every key deleted: `run_case` returns a done or failed result."""
    base = _sweep_bundle()
    base["sim"]["t_max"] = 0.1
    for path in _node_paths(base):
        *parents, key = path
        for value in (*WRONG_KINDS, "delete"):
            bundle = copy.deepcopy(base)
            node = functools.reduce(operator.getitem, parents, bundle)
            if value != "delete":
                node[key] = copy.deepcopy(value)
            elif isinstance(node, dict):
                del node[key]
            else:
                continue
            res = run_case(bundle)
            assert res.status in ("done", "failed"), (path, value)
            assert (res.error is None) == (res.status == "done"), (path, value)
    for bundle in WRONG_KINDS:  # the root
        res = run_case(bundle)
        assert (res.case_id, res.status, res.terminal) == (None, "failed", "fault")
    del base["case_id"]
    res = run_case(base)
    assert (res.case_id, res.error) == (None, "ConfigurationError: CaseBundle document lacks case_id")


def test_a_scenario_name_is_no_scenario_document():
    """A bundle's scenario is a document: a name in its place fails the case."""
    bundle = _bundle("default")
    bundle["scenario"] = "default"
    res = run_case(bundle)
    assert (res.status, res.terminal) == ("failed", "fault")
    assert res.error == "ConfigurationError: CaseBundle.scenario must be an object, got 'default'"


@pytest.mark.parametrize("key", ["x", "1.5"])
def test_a_gear_ratio_key_that_is_no_int_names_its_field(key):
    bundle = _sweep_bundle()
    bundle["vehicle"]["powertrain"]["gear_ratios"][key] = 1.0
    res = run_case(bundle)
    assert (res.status, res.terminal) == ("failed", "fault")
    assert res.error.startswith("ConfigurationError: PowertrainParams.gear_ratios")
    assert res.error.endswith(f"key must be int, got {key!r}")


@pytest.mark.parametrize("lidar, rays", [
    ({"r_max": 1e300}, "181"), ({"theta_min": -1e300}, "5.72958e+301"),
    ({"theta_max": 1e300}, "5.72958e+301"), ({"theta_res": 1e-300}, "3.14159e+300"),
    ({"theta_min": 0.0, "theta_max": 0.0, "r_max": 3100.0}, "325"),  # a 1-ray sweep
], ids=["huge-r-max", "huge-negative-theta-min", "huge-theta-max", "tiny-theta-res",
        "spatial-scan"])
def test_a_full_scan_too_large_to_cast_is_a_failed_result(lidar, rays):
    """Each cast, of a group of planar sweeps or of the final 325-ray spatial
    scan, marches rays x r_max / (cell / 2) terrain samples, 2**14 at a time;
    MAX_SCAN_SAMPLES bounds that count, and so the rays of a group. A LIDAR
    config past it fails the full-scan case before it runs, and leaves a case
    without full scans alone."""
    bundle = _bundle("default")
    bundle["sim"]["t_max"] = 0.6
    bundle["sensors"]["lidar"].update(lidar)
    res = run_case(bundle, full_scans=True)
    assert (res.status, res.terminal, res.steps, res.scan_dump) == ("failed", "fault", 0, None)
    r_max = bundle["sensors"]["lidar"]["r_max"]
    assert res.error == (f"ConfigurationError: a LIDAR cast of {rays} rays to r_max {r_max} "
                         f"exceeds {MAX_SCAN_SAMPLES} terrain samples")
    assert run_case(bundle).status == "done"


@pytest.mark.parametrize("full_scans", [False, True])
def test_a_lidar_range_under_one_sample_runs(full_scans):
    """A sweep of fewer than one terrain sample still casts whole sweeps
    together (no overflow in the group size), and its rays all miss."""
    bundle = _bundle("default")
    bundle["sim"]["t_max"] = 1.0
    bundle["sensors"]["lidar"].update(r_min=0.0, r_max=1e-310)
    res = run_case(bundle, full_scans=full_scans)
    assert (res.status, res.terminal, res.steps) == ("done", "timeout", 100)
    if full_scans:
        assert res.scan_dump.startswith("t=0.50 inf inf ")


# -- contact ---------------------------------------------------------------------

def _first_overlap_step(res) -> int:
    return next(i for i, r in enumerate(parse_csv(res.log.to_csv()), start=1) if r.collision_count)


@pytest.mark.parametrize("window", [1.0, 0.37])
def test_contact_ends_the_episode_a_window_after_the_first_overlap(window):
    bundle = default_bundle("contact", "v2_tiny", "heavy_snow", "00:00", seed=1)
    bundle["sim"]["contact_window"] = window
    res = run_case(bundle)
    assert (res.status, res.terminal) == ("done", "collision")
    assert res.steps == _first_overlap_step(res) + round(window / 0.01)
    assert {r.collision_count for r in parse_csv(res.log.to_csv())} == {0, 1}
    assert res.verdict.collision_count == 1 and not res.verdict.passed
    assert res.verdict.stop_margin < 0.0  # a penetration: the obstacle does not move


@pytest.mark.parametrize("lateral", [None, 4.0])
def test_no_contact_never_ends_in_collision(lateral):
    bundle = _bundle("default")
    if lateral is not None:  # 4 m to the side; t_max ends the case 3.8 m short of the obstacle
        bundle["scenario"]["obstacles"][0]["lateral"] = lateral
        bundle["sim"]["t_max"] = 12.0
    res = run_case(bundle)
    assert res.terminal == ("standstill_after_aeb" if lateral is None else "timeout")
    assert all(r.collision_count == 0 for r in parse_csv(res.log.to_csv()))
    assert res.verdict.passed


@pytest.mark.parametrize("lateral, terminal", [(2.0, "collision"), (2.1, "timeout")])
def test_a_car_blind_to_an_obstacle_hits_it_or_passes_it_by_centimetres(lateral, terminal):
    # No class is a threat, so nothing brakes. At 2.0 m the obstacle reaches
    # into the lane: past its near edge the DTC is negative, and the
    # separating-axis test decides every step. At 2.1 m it misses the lane by
    # centimetres, so no DTC counts it and the clean pass has no stop margin.
    bundle = _bundle("default")
    bundle["autonomy"]["aeb"]["threat_classes"] = []
    bundle["scenario"]["obstacles"][0]["lateral"] = lateral
    bundle["sim"]["t_max"] = 25.0
    res = run_case(bundle)
    assert (res.status, res.terminal) == ("done", terminal)
    records = parse_csv(res.log.to_csv())
    if terminal == "collision":
        assert records[-1].dtc < -1.0
    else:
        assert {r.dtc for r in records} == {math.inf}
        assert res.verdict.to_dict()["stop_margin"] is None
    assert res.verdict.collision_count == (terminal == "collision")


def test_an_obstacle_is_frozen():
    obs = Episode(_bundle("default")).obstacles[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        obs.position = (0.0, 0.0, 0.0)
    assert not obs.corners_3d().flags.writeable


def _ego_poses(episode, rng):
    """Random poses around the obstacle, plus poses that touch or nearly touch
    it: face to face, and far corner to corner along the bounding circles."""
    fp = episode.case.vehicle.footprint
    obs = episode.obstacles[0]
    ox, oy = obs.position[:2]
    for _ in range(3000):
        yield ox + rng.uniform(-8.0, 8.0), oy + rng.uniform(-8.0, 8.0), rng.uniform(-math.pi, math.pi)
    front = fp.center_x + fp.length / 2.0
    for gap in (0.0, 1e-12, -1e-12, 1e-9, 1e-7, -1e-7, 1e-6, 2e-6):
        yield ox - obs.extents[0] / 2.0 - front - gap, oy, 0.0
    # The ego's far corner on the obstacle's corner, both diagonals on one line:
    # the centres are exactly the two bounding radii apart.
    far = (fp.center_x + math.copysign(fp.length / 2.0, fp.center_x), fp.width / 2.0)
    for k in range(4):
        qx, qy = obs.extents[0] / 2.0 * (-1) ** k, obs.extents[1] / 2.0 * (-1) ** (k // 2)
        heading = math.atan2(qy, qx) + obs.yaw
        reach = math.hypot(*far) + math.hypot(qx, qy)
        for gap in (0.0, 1e-9, -1e-9, 1e-7, 5e-7):
            d = reach + gap
            yield (ox - d * math.cos(heading), oy - d * math.sin(heading),
                   heading - math.atan2(far[1], far[0]))


@pytest.mark.parametrize("center_x", [0.0, 1.1, -0.9])
def test_the_dtc_gate_never_hides_an_overlap(center_x):
    bundle = _bundle("default")
    bundle["vehicle"] = {"schema_version": 2, "footprint": {"center_x": center_x}}
    episode = Episode(bundle)
    fp = episode.case.vehicle.footprint
    obs = episode.obstacles[0]
    decisions = set()
    for ex, ey, eyaw in _ego_poses(episode, np.random.default_rng(3)):
        ego = footprint_corners(ex, ey, eyaw, fp.length, fp.width, fp.center_x)
        want = rectangles_overlap(ego, obs.corners_2d())
        dtc = compute_dtc(ex, ey, eyaw, episode.front_offset, episode.half_width, episode.obstacles)
        assert dtc <= 1e-6 or not want, (ex, ey, eyaw, dtc)
        assert episode._overlaps(ex, ey, eyaw) == want, (ex, ey, eyaw, dtc)
        decisions.add(want)
    assert decisions == {True, False}


def test_each_episode_step_makes_every_traced_call(monkeypatch):
    # The per-layer benchmark figures time these calls by wrapping the names
    # perfbench/tracing.py binds; a loop that inlined one would hide its cost.
    targets = {"origin_pose": Vehicle, "compute_dtc": episode_module,
               "longitudinal_control": episode_module, "read": InsSensor,
               "append": TelemetryLog, "_perceive": Episode}
    counts = dict.fromkeys(targets, 0)

    def counting(fn, name):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name, owner in targets.items():
        monkeypatch.setattr(owner, name, counting(vars(owner)[name], name))
    bundle = _bundle("default")
    bundle["sim"]["t_max"] = 0.5
    res = run_case(bundle)
    period = AutonomyConfig().perception_period_steps
    assert (res.terminal, res.steps) == ("timeout", 50) and 1 < period < 50
    assert counts == {"origin_pose": 51,  # one for the spawn pose
                      "compute_dtc": 50, "longitudinal_control": 50, "read": 50, "append": 50,
                      "_perceive": -(-50 // period)}


def test_driving_off_the_map_is_a_failed_result():
    bundle = _bundle("default")
    bundle["scenario"]["spawn"].update(y=20.0, yaw=math.pi / 2)
    bundle["scenario"]["obstacles"] = []
    res = run_case(bundle)
    assert (res.status, res.terminal, res.verdict) == ("failed", "fault", None)
    assert res.error.startswith("TerrainQueryError: terrain query (400.72, 30.01)")


@pytest.mark.parametrize("field, value", [
    ("natural_frequency", 1e300), ("damping_ratio", 1e300), ("force_offset", -1e300),
])
def test_an_overflow_while_stepping_is_a_fault(field, value):
    bundle = _sweep_bundle()
    bundle["vehicle"]["suspension"][field] = value
    res = run_case(bundle)
    assert (res.status, res.terminal, res.verdict) == ("failed", "fault", None)
    assert res.steps > 0 and res.error == "ZeroDivisionError: float division by zero"


def test_timeout_duration_does_not_drift():
    bundle = _bundle("flat")
    bundle["sim"]["t_max"] = 20.31
    res = run_case(bundle)
    assert (res.terminal, res.steps) == ("timeout", 2031)
    assert res.duration == 20.31
    assert res.log.digest() == "1c52d49e16a94c2aa4beab05d8ce5893ec0c6f0d2c7438ab2df3dc4dbac45aa8"


def test_the_full_length_flat_case_digest():
    # The longest pinned benchmark case: 12,000 steps of a scene without
    # obstacles, which builds no camera matrix and ranks no obstacle.
    res = run_case(_bundle("flat"))
    assert (res.status, res.terminal, res.steps) == ("done", "timeout", 12000)
    assert res.verdict.passed and res.verdict.min_dtc == math.inf
    assert res.log.digest() == "4966e167c55ada4b7d7ff1f42eb8159e1e1a467ccd0c8ff5c5ccd5ac82a8fde8"
