"""Scenario documents: the built-ins, obstacle placement and rejection."""

import json
import math

import pytest

from twinforge.dynamics import default_vehicle_config
from twinforge.scenarios import (
    ScenarioError,
    build_scenario,
    builtin_scenario_doc,
    load_scenario_doc,
)

_FOOTPRINT = default_vehicle_config().footprint
FRONT = _FOOTPRINT.center_x + _FOOTPRINT.length / 2.0


@pytest.mark.parametrize("name", ["default", "slope", "flat"])
def test_builtin_builds_with_its_obstacles_ahead_of_the_front_face(name):
    doc = builtin_scenario_doc(name)
    built = build_scenario(doc, FRONT)
    sx, sy, _ = built.spawn
    assert (sx, sy) == (doc["spawn"]["x"], doc["spawn"]["y"])
    assert built.cruise_speed == doc["cruise_speed"]
    assert len(built.obstacles) == len(doc["obstacles"])
    for obs, entry in zip(built.obstacles, doc["obstacles"]):
        assert obs.position[0] == sx + FRONT + entry["ahead"]
        assert obs.position[1] == sy + entry["lateral"]
        ground = built.terrain.height_or_none(obs.position[0], obs.position[1])
        assert obs.position[2] == ground + entry["extents"][2] / 2.0
        assert (obs.obstacle_id, obs.cls) == (entry["id"], entry["class"])


def test_rolling_terrain_is_level_at_the_spawn_point():
    doc = builtin_scenario_doc("default")
    assert doc["terrain"]["kind"] == "rolling"
    built = build_scenario(doc, FRONT)
    sx, sy, _ = built.spawn
    for dx in (-10.0, -2.5, 0.0, 2.5, 10.0):
        assert built.terrain.height_and_gradient(sx + dx, sy) == (0.0, 0.0, 0.0)
    # and it rolls further on
    assert built.terrain.height_or_none(sx + 100.0, sy) != 0.0


def test_load_scenario_doc_reads_a_file_or_a_builtin_name(tmp_path):
    doc = dict(builtin_scenario_doc("flat"), name="from_file", cruise_speed=5.0)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_scenario_doc(str(path)) == doc
    assert load_scenario_doc("slope") == builtin_scenario_doc("slope")


def _doc(edit):
    doc = builtin_scenario_doc("default")
    edit(doc)
    return doc


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(schema_version=2), "unsupported scenario schema_version 2"),
    (lambda d: d["terrain"].update(kind="lunar"), "unknown terrain kind 'lunar'"),
    (lambda d: d["obstacles"][0].update(ahead=5000.0), "obstacle moose0 placed off-terrain"),
    *[(lambda d, v=v: d.update(cruise_speed=v),
       rf"cruise_speed must be a finite number > 0, got {v!r}")
      for v in (math.nan, math.inf, 0.0, -11.1, "11.1", True)],
], ids=["bad-version", "bad-kind", "off-terrain-obstacle", "nan-cruise-speed",
        "infinite-cruise-speed", "zero-cruise-speed", "negative-cruise-speed",
        "string-cruise-speed", "bool-cruise-speed"])
def test_bad_document_raises_scenario_error(edit, message):
    with pytest.raises(ScenarioError, match=message):
        build_scenario(_doc(edit), FRONT)


def test_missing_scenario_file_raises_scenario_error(tmp_path):
    with pytest.raises(ScenarioError, match="cannot load scenario"):
        load_scenario_doc(str(tmp_path / "missing.json"))
