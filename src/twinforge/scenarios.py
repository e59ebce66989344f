"""Scenario documents: terrain layout, obstacle placement, spawn point.

A scenario is a JSON-able dict (versioned schema) shared by every test case
in a sweep; per-case variability (weather, time, perception model, seed) is
injected by the test matrix, never stored here. Terrain generation is seeded
by the scenario itself so all cases of a sweep drive the same ground.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .documents import Range
from .environment import Obstacle, TerrainHeightmap

SCENARIO_SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    pass


def builtin_scenario_doc(name: str) -> dict:
    """Built-in scenario documents: 'default', 'slope', 'flat'."""
    common = {
        "schema_version": SCENARIO_SCHEMA_VERSION,
        "spawn": {"x": 400.0, "y": 0.0, "yaw": 0.0},
        "cruise_speed": 11.1,
    }
    if name == "default":
        return dict(common, name="moose_crossing", terrain={
            "kind": "rolling", "length": 2200.0, "width": 60.0, "cell": 2.0,
            "origin_x": -100.0, "seed": 7,
        }, obstacles=[{
            "id": "moose0", "class": "moose", "extents": [0.8, 2.4, 1.8],
            "ahead": 75.0, "lateral": 0.0,
        }])
    if name == "slope":
        return dict(common, name="moose_upslope", terrain={
            "kind": "upslope", "length": 2200.0, "width": 60.0, "cell": 2.0,
            "origin_x": -100.0, "grade": 0.07, "ramp_start_ahead": 32.0,
        }, obstacles=[{
            "id": "moose0", "class": "moose", "extents": [0.8, 2.4, 1.8],
            "ahead": 120.0, "lateral": 0.0,
        }])
    if name == "flat":
        return dict(common, name="flat_corridor", terrain={
            "kind": "flat", "length": 2200.0, "width": 60.0, "cell": 2.0,
            "origin_x": -100.0, "height": 0.0,
        }, obstacles=[])
    raise ScenarioError(f"unknown built-in scenario {name!r}")


def load_scenario_doc(path_or_name: str) -> dict:
    """Resolve a scenario reference: built-in name or a JSON file path."""
    try:
        return builtin_scenario_doc(path_or_name)
    except ScenarioError:
        pass
    try:
        with open(path_or_name, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot load scenario {path_or_name!r}: {exc}") from exc
    return doc


def _require_finite(entry: dict, keys: tuple[str, ...], what: str) -> None:
    for key in keys:
        if key in entry and not Range().admits(entry[key]):
            raise ScenarioError(f"{what} {key} must be {Range()}, got {entry[key]!r}")


def validate_scenario_doc(doc: dict) -> None:
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != SCENARIO_SCHEMA_VERSION:
        raise ScenarioError(f"unsupported scenario schema_version {version!r}")
    for key in ("name", "terrain", "spawn", "obstacles", "cruise_speed"):
        if key not in doc:
            raise ScenarioError(f"scenario missing field {key!r}")
    speed = doc["cruise_speed"]
    if not Range(gt=0.0).admits(speed):
        raise ScenarioError(f"cruise_speed must be {Range(gt=0.0)}, got {speed!r}")
    if not (isinstance(doc["terrain"], dict) and isinstance(doc["spawn"], dict)
            and isinstance(doc["obstacles"], list)
            and all(isinstance(entry, dict) for entry in doc["obstacles"])):
        raise ScenarioError("scenario terrain and spawn must be objects, obstacles a list of objects")
    if doc["terrain"].get("kind") not in ("rolling", "upslope", "flat"):
        raise ScenarioError(f"unknown terrain kind {doc['terrain'].get('kind')!r}")
    if "cell" in doc["terrain"] and not Range(gt=0.0).admits(doc["terrain"]["cell"]):
        raise ScenarioError("terrain cell must be > 0")
    for key in ("x", "y"):
        if key not in doc["spawn"]:
            raise ScenarioError(f"scenario spawn missing field {key!r}")
    _require_finite(doc["spawn"], ("x", "y", "yaw"), "scenario spawn")
    for entry in doc["obstacles"]:
        for key in ("id", "class", "extents", "ahead"):
            if key not in entry:
                raise ScenarioError(f"scenario obstacle missing field {key!r}")
        ext = entry["extents"]
        if not (isinstance(ext, (list, tuple)) and len(ext) == 3
                and all(map(Range(gt=0.0).admits, ext))):
            raise ScenarioError(f"obstacle {entry['id']} extents must be three positive numbers")
        _require_finite(entry, ("ahead", "lateral", "yaw"), f"obstacle {entry['id']}")


def build_terrain(spec: dict, spawn_x: float) -> TerrainHeightmap:
    kind = spec["kind"]
    length = float(spec.get("length", 2200.0))
    width = float(spec.get("width", 60.0))
    cell = float(spec.get("cell", 2.0))
    origin_x = float(spec.get("origin_x", -100.0))
    origin_y = -width / 2.0
    nx = int(round(length / cell)) + 1
    ny = int(round(width / cell)) + 1
    xs = origin_x + np.arange(nx) * cell

    if kind == "flat":
        profile = np.full(nx, float(spec.get("height", 0.0)))
    elif kind == "rolling":
        rng = np.random.Generator(np.random.Philox(int(spec.get("seed", 7))))
        phases = rng.uniform(0.0, 2.0 * math.pi, size=2)
        # Amplitudes keep the combined grade a few degrees; the blend window
        # keeps the spawn area level.
        a1, l1 = 1.8, 260.0
        a2, l2 = 0.4, 97.0
        rel = xs - spawn_x
        h = (a1 * np.sin(2.0 * math.pi * rel / l1 + phases[0])
             + a2 * np.sin(2.0 * math.pi * rel / l2 + phases[1]))
        h -= np.interp(spawn_x, xs, h)
        t = np.clip((rel - 15.0) / 130.0, 0.0, 1.0)
        blend = t * t * (3.0 - 2.0 * t)
        profile = h * blend
    elif kind == "upslope":
        grade = float(spec.get("grade", 0.07))
        ramp_len = 20.0
        x0 = spawn_x + float(spec.get("ramp_start_ahead", 32.0))
        rel = xs - x0
        profile = np.where(
            rel <= 0.0, 0.0,
            np.where(rel <= ramp_len,
                     grade / (2.0 * ramp_len) * rel * rel,
                     grade * (rel - ramp_len / 2.0)))
    else:
        raise ScenarioError(f"unknown terrain kind {kind!r}")

    heights = np.tile(profile, (ny, 1))
    return TerrainHeightmap(heights, cell, (origin_x, origin_y))


@dataclass
class BuiltScenario:
    terrain: TerrainHeightmap
    obstacles: list
    spawn: tuple[float, float, float]
    cruise_speed: float


def build_scenario(doc: dict, front_offset: float) -> BuiltScenario:
    """Materialize a scenario document.

    front_offset is the body-frame x of the ego's front face; obstacle 'ahead'
    distances are measured from that face at spawn.
    """
    validate_scenario_doc(doc)
    spawn = doc["spawn"]
    sx, sy, syaw = float(spawn["x"]), float(spawn["y"]), float(spawn.get("yaw", 0.0))
    terrain = build_terrain(doc["terrain"], sx)
    obstacles = []
    for entry in doc["obstacles"]:
        ox = sx + front_offset + float(entry["ahead"])
        oy = sy + float(entry.get("lateral", 0.0))
        ez = float(entry["extents"][2])
        gz = terrain.height_or_none(ox, oy)
        if gz is None:
            raise ScenarioError(f"obstacle {entry['id']} placed off-terrain at x={ox:.1f}")
        obstacles.append(Obstacle(
            obstacle_id=str(entry["id"]),
            cls=str(entry["class"]),
            extents=tuple(float(v) for v in entry["extents"]),
            position=(ox, oy, gz + ez / 2.0),
            yaw=float(entry.get("yaw", 0.0)),
        ))
    return BuiltScenario(
        terrain=terrain,
        obstacles=obstacles,
        spawn=(sx, sy, syaw),
        cruise_speed=float(doc["cruise_speed"]),
    )
