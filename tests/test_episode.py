"""Pinned end-to-end episodes: terminal, step count, verdict and digests.

These digests define "same behaviour" for the episode loop, the sensors,
the environment and the telemetry. A change that moves one of them is a
behaviour change and must say so.
"""

import hashlib
import json
import math

import pytest

from twinforge.autonomy import AutonomyConfig
from twinforge.documents import ConfigurationError, from_doc, to_doc
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
        "bd6c33494f7b95f9cb5afc80a5b49178595015b21ea3d24c7b6cbf1ffb8826ef"


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
