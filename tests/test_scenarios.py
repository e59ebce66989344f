"""Scenario documents: the built-ins, obstacle placement and rejection."""

import json
import math
import re

import pytest

from twinforge.documents import from_doc, to_doc
from twinforge.dynamics import default_vehicle_config
from twinforge.scenarios import (
    ScenarioConfig,
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
    terrain, obstacles = build_scenario(from_doc(ScenarioConfig, doc), FRONT)
    sx, sy = doc["spawn"]["x"], doc["spawn"]["y"]
    assert len(obstacles) == len(doc["obstacles"])
    for obs, entry in zip(obstacles, doc["obstacles"]):
        assert obs.position[0] == sx + FRONT + entry["ahead"]
        assert obs.position[1] == sy + entry["lateral"]
        ground = terrain.height_or_none(obs.position[0], obs.position[1])
        assert obs.position[2] == ground + entry["extents"][2] / 2.0
        assert (obs.obstacle_id, obs.cls) == (entry["id"], entry["class"])


@pytest.mark.parametrize("name", ["default", "slope", "flat"])
def test_a_scenario_round_trips_with_its_version_and_class_key(name):
    config = from_doc(ScenarioConfig, builtin_scenario_doc(name))
    doc = json.loads(json.dumps(to_doc(config)))
    assert doc["schema_version"] == 1
    assert [o["class"] for o in doc["obstacles"]] == [o.class_ for o in config.obstacles]
    assert from_doc(ScenarioConfig, doc) == config


def test_rolling_terrain_is_level_at_the_spawn_point():
    doc = builtin_scenario_doc("default")
    assert doc["terrain"]["kind"] == "rolling"
    terrain, _ = build_scenario(from_doc(ScenarioConfig, doc), FRONT)
    sx, sy = doc["spawn"]["x"], doc["spawn"]["y"]
    for dx in (-10.0, -2.5, 0.0, 2.5, 10.0):
        assert terrain.height_and_gradient(sx + dx, sy) == (0.0, 0.0, 0.0)
    # and it rolls further on
    assert terrain.height_or_none(sx + 100.0, sy) != 0.0


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
    (lambda d: d.update(schema_version=2),
     "ConfigurationError: ScenarioConfig.schema_version must be 1, got 2"),
    (lambda d: d["terrain"].update(kind="lunar"),
     "ConfigurationError: TerrainSpec.kind must be one of ('rolling', 'upslope', 'flat'), got 'lunar'"),
    (lambda d: d["obstacles"][0].update(ahead=5000.0),
     "ScenarioError: obstacle moose0 placed off-terrain at (5401.9, 0.0), "
     "outside x [-100.0, 2100.0] and y [-30.0, 30.0]"),
    (lambda d: d["obstacles"][0].update(lateral=100.0),  # x is on the map, y is not
     "ScenarioError: obstacle moose0 placed off-terrain at (476.9, 100.0), "
     "outside x [-100.0, 2100.0] and y [-30.0, 30.0]"),
    *[(lambda d, v=v: d.update(cruise_speed=v),
       f"ConfigurationError: ScenarioConfig.cruise_speed must be a finite number > 0, got {v!r}")
      for v in (math.nan, math.inf, 0.0, -11.1)],
    *[(lambda d, v=v: d.update(cruise_speed=v),
       f"ConfigurationError: ScenarioConfig.cruise_speed must be float, got {v!r}")
      for v in ("11.1", True)],
    # 12,942 x 354 heights (37 MB); a cell of 0.01 would ask for 10.6 GB
    (lambda d: d["terrain"].update(cell=0.17),
     "ConfigurationError: TerrainSpec grid of length 2200.0, width 60.0 and cell 0.17 "
     "exceeds 4000000 heights"),
], ids=["bad-version", "bad-kind", "off-terrain-obstacle", "off-terrain-lateral",
        "nan-cruise-speed", "infinite-cruise-speed", "zero-cruise-speed", "negative-cruise-speed",
        "string-cruise-speed", "bool-cruise-speed", "grid-above-the-cap"])
def test_bad_document_raises_scenario_error(edit, message):
    with pytest.raises(ValueError) as exc:  # ConfigurationError or ScenarioError
        build_scenario(from_doc(ScenarioConfig, _doc(edit)), FRONT)
    assert f"{type(exc.value).__name__}: {exc.value}" == message


@pytest.mark.parametrize("content", [None, b'{"name": ', b"\xff\xfe"],
                         ids=["missing", "malformed_json", "not_utf8"])
def test_missing_scenario_file_raises_scenario_error(tmp_path, content):
    """A file that is absent, not JSON or not UTF-8 is a ScenarioError naming its path."""
    path = tmp_path / "scenario.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ScenarioError, match=re.escape(f"cannot load scenario '{path}': ")):
        load_scenario_doc(str(path))
