"""Pinned end-to-end episodes: terminal, step count, verdict and digests.

These digests define "same behaviour" for the episode loop, the sensors,
the environment and the telemetry. A change that moves one of them is a
behaviour change and must say so.
"""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from twinforge.autonomy import AutonomyConfig
from twinforge.documents import ConfigurationError, from_doc, to_doc
from twinforge.dynamics import default_vehicle_config
from twinforge.environment import footprint_corners, rectangles_overlap
from twinforge.episode import Episode, SimParams, default_bundle, run_case
from twinforge.sensors import CameraConfig, SensorParams

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


def test_pinned_scan_digest():
    bundle = _bundle("default")
    bundle["sim"]["t_max"] = 5.0
    res = run_case(bundle, collect_telemetry=True, full_scans=True)
    assert res.terminal == "timeout"
    assert res.log.digest() == "32cf7a9314723d0eb2fcdbb78274c43c2eb9676c1b1f0ed759b5ea02ad5f533d"
    assert hashlib.sha256(res.scan_dump.encode()).hexdigest() == \
        "a74ec959cdb8e0ebc21896c303596e16b0582ecf8fbf53393adb636e9d3997ac"


def test_autonomy_document_without_perception_period_uses_the_default():
    bundle = _bundle("default")
    del bundle["autonomy"]["perception_period_steps"]
    res = run_case(bundle)
    assert res.steps == 2011
    assert res.log.digest() == DEFAULT_DIGEST


def test_bundles_do_not_share_the_default_sensors():
    bundle = _bundle("default")
    bundle["sensors"]["camera"]["near"] = 5.0
    assert CameraConfig().near == 0.1
    assert _bundle("default")["sensors"]["camera"]["near"] == 0.1
    assert Episode(_bundle("default")).camera.near == 0.1


def _drop_aeb_fos(bundle):
    del bundle["autonomy"]["aeb"]["fos"]


@pytest.mark.parametrize("edit", [
    lambda b: b.update(sensors={"camera": {"near": 0.1}}),
    _drop_aeb_fos,
    lambda b: b.update(sim={}),
], ids=["partial-sensors-camera", "partial-autonomy-aeb", "empty-sim"])
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


@pytest.mark.parametrize("edit, error", [
    (_drop_preset_field,
     "ConfigurationError: PerceptionModelPreset document lacks min_pixel_area"),
    (lambda b: b.update(model="v9"), "ValueError: no perception preset for model 'v9'"),
    (_bad_scenario_kind, "ScenarioError: unknown terrain kind 'lunar'"),
    (lambda b: b["sim"].update(t_max=0),
     "ValueError: need 0 < dt <= t_max < inf, got dt=0.01, t_max=0"),
    (lambda b: b["sim"].update(dt=-0.01),
     "ValueError: need 0 < dt <= t_max < inf, got dt=-0.01, t_max=120.0"),
    (lambda b: b["sim"].update(dt=0),
     "ValueError: need 0 < dt <= t_max < inf, got dt=0, t_max=120.0"),
    (lambda b: b["autonomy"]["aeb"].update(max_decel=0), "ValueError: max_decel must be > 0"),
    (lambda b: b["autonomy"].update(perception_period_steps=0),
     "ValueError: perception_period_steps must be >= 1"),
    (lambda b: b["scenario"]["terrain"].update(cell=0), "ScenarioError: terrain cell must be > 0"),
    (lambda b: b["scenario"]["obstacles"][0].pop("ahead"),
     "ScenarioError: scenario obstacle missing field 'ahead'"),
    (lambda b: b["scenario"]["obstacles"][0].pop("extents"),
     "ScenarioError: scenario obstacle missing field 'extents'"),
    (lambda b: b["scenario"]["spawn"].pop("x"), "ScenarioError: scenario spawn missing field 'x'"),
    (lambda b: b["sim"].update(dt="0.01"),
     "ConfigurationError: SimParams.dt must be float, got '0.01'"),
    (lambda b: b["sim"].update(dt=True), "ConfigurationError: SimParams.dt must be float, got True"),
    (lambda b: b["autonomy"].update(perception_period_steps=2.5),
     "ConfigurationError: AutonomyConfig.perception_period_steps must be int, got 2.5"),
    (lambda b: b["scenario"]["obstacles"][0].update(extents=[0.8, 2.4]),
     "ScenarioError: obstacle moose0 extents must be three positive numbers"),
    (lambda b: b["sim"].update(contact_window=-1.0),
     "ValueError: need contact_window >= 0, got -1.0"),
], ids=["preset-missing-field", "model-without-preset", "bad-scenario-kind", "zero-t-max",
        "negative-dt", "zero-dt", "zero-max-decel", "zero-perception-period", "zero-cell",
        "obstacle-without-ahead", "obstacle-without-extents", "spawn-without-x", "string-dt",
        "bool-dt", "fractional-perception-period", "two-extents", "negative-contact-window"])
def test_rejected_bundle_is_a_failed_result(edit, error):
    bundle = _bundle("default")
    edit(bundle)
    res = run_case(bundle)
    assert (res.case_id, res.status, res.terminal) == (bundle["case_id"], "failed", "fault")
    assert (res.steps, res.log, res.verdict) == (0, None, None)
    assert res.error == error


@pytest.mark.parametrize("section, kind", [
    ("autonomy", AutonomyConfig), ("sensors", SensorParams), ("sim", SimParams),
])
def test_default_bundle_section_round_trips(section, kind):
    doc = json.loads(json.dumps(default_bundle()[section]))
    assert doc == default_bundle()[section]
    doc.pop("schema_version", None)
    assert to_doc(from_doc(kind, doc)) == doc


def test_default_bundle_digest():
    text = json.dumps(default_bundle(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "91099d0b40e92d641733436eaf7dd176f35da536f0ea098360eeeb2e3ffc20d3"


def test_an_int_passes_where_a_float_is_hinted():
    assert from_doc(SimParams, {"t_max": 100}).t_max == 100


# -- contact ---------------------------------------------------------------------

def _first_overlap_step(res) -> int:
    return next(i for i, r in enumerate(res.log.records, start=1) if r.collision_count)


@pytest.mark.parametrize("window", [1.0, 0.37])
def test_contact_ends_the_episode_a_window_after_the_first_overlap(window):
    bundle = default_bundle("contact", "v2_tiny", "heavy_snow", "00:00", seed=1)
    bundle["sim"]["contact_window"] = window
    res = run_case(bundle)
    assert (res.status, res.terminal) == ("done", "collision")
    assert res.steps == _first_overlap_step(res) + round(window / 0.01)
    assert {r.collision_count for r in res.log.records} == {0, 1}
    assert res.verdict.collision_count == 1 and not res.verdict.passed
    assert res.verdict.stop_margin < 0.0  # a penetration: the obstacle does not move


@pytest.mark.parametrize("lateral", [None, 4.0])
def test_no_contact_never_ends_in_collision(lateral):
    bundle = _bundle("default")
    if lateral is not None:  # drive past the obstacle, close by, without braking
        bundle["scenario"]["obstacles"][0]["lateral"] = lateral
        bundle["sim"]["t_max"] = 12.0
    res = run_case(bundle)
    assert res.terminal == ("standstill_after_aeb" if lateral is None else "timeout")
    assert all(r.collision_count == 0 for r in res.log.records)
    assert res.verdict.passed


def test_an_obstacle_is_frozen():
    obs = Episode(_bundle("default")).scenario.obstacles[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        obs.position = (0.0, 0.0, 0.0)
    assert not obs.corners_3d().flags.writeable


def _ego_poses(episode, rng):
    """Random poses around the obstacle, plus poses that touch or nearly touch
    it: face to face, and far corner to corner along the bounding circles."""
    fp = episode.vcfg.footprint
    obs = episode.scenario.obstacles[0]
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
def test_broad_phase_keeps_the_separating_axis_decision(center_x):
    bundle = _bundle("default")
    bundle["vehicle"] = default_vehicle_config().to_dict()
    bundle["vehicle"]["footprint"]["center_x"] = center_x
    episode = Episode(bundle)
    fp = episode.vcfg.footprint
    obs = episode.scenario.obstacles[0]
    decisions = set()
    for ex, ey, eyaw in _ego_poses(episode, np.random.default_rng(3)):
        ego = footprint_corners(ex, ey, eyaw, fp.length, fp.width, fp.center_x)
        want = rectangles_overlap(ego, obs.corners_2d())
        assert episode._overlaps(ex, ey, eyaw) == want, (ex, ey, eyaw)
        decisions.add(want)
    assert decisions == {True, False}


def test_driving_off_the_map_is_a_failed_result():
    bundle = _bundle("default")
    bundle["scenario"]["spawn"].update(y=20.0, yaw=math.pi / 2)
    bundle["scenario"]["obstacles"] = []
    res = run_case(bundle)
    assert (res.status, res.terminal, res.verdict) == ("failed", "fault", None)
    assert res.error.startswith("TerrainQueryError: terrain query (400.72, 30.01)")


def test_timeout_duration_does_not_drift():
    bundle = _bundle("flat")
    bundle["sim"]["t_max"] = 20.31
    res = run_case(bundle)
    assert (res.terminal, res.steps) == ("timeout", 2031)
    assert res.duration == 20.31
