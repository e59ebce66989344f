"""Scenarios: terrain layout, obstacle placement, spawn point.

A scenario is a typed `ScenarioConfig` read from a JSON-able document
(versioned schema) by `documents.from_doc`, shared by every test case in a
sweep; per-case variability (weather, time, perception model, seed) is
injected by the test matrix, never stored here. Terrain generation is seeded
by the scenario itself so all cases of a sweep drive the same ground.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .documents import ConfigurationError, Finite, Positive, Section, Seed, to_doc
from .environment import Obstacle, TerrainHeightmap

TERRAIN_KINDS = ("rolling", "upslope", "flat")
MAX_TERRAIN_HEIGHTS = 4_000_000  # 32 MB of float64; the built-in terrains hold 34,131


class ScenarioError(ValueError):
    pass


@dataclass
class TerrainSpec(Section):
    """A heightmap of `kind`: `height` is for flat ground, `seed` for rolling
    ground, `grade` and `ramp_start_ahead` (of the spawn) for an upslope."""
    kind: str
    length: Positive = 2200.0
    width: Positive = 60.0
    cell: Positive = 2.0
    origin_x: Finite = -100.0
    height: Finite = 0.0
    seed: Seed = 7
    grade: Finite = 0.07
    ramp_start_ahead: Finite = 32.0

    def __post_init__(self):
        super().__post_init__()
        if self.kind not in TERRAIN_KINDS:
            raise ConfigurationError(f"TerrainSpec.kind must be one of {TERRAIN_KINDS}, got {self.kind!r}")
        if not (self.length / self.cell + 1) * (self.width / self.cell + 1) <= MAX_TERRAIN_HEIGHTS:
            raise ConfigurationError(f"TerrainSpec grid of length {self.length}, width {self.width} "
                                     f"and cell {self.cell} exceeds {MAX_TERRAIN_HEIGHTS} heights")


@dataclass
class Spawn(Section):
    x: Finite
    y: Finite
    yaw: Finite = 0.0


@dataclass
class ObstacleSpec(Section):
    """An obstacle `ahead` of the ego's front face at spawn, `lateral` to its side."""
    id: str
    class_: str
    extents: tuple[Positive, Positive, Positive]
    ahead: Finite
    lateral: Finite = 0.0
    yaw: Finite = 0.0


@dataclass
class ScenarioConfig(Section):
    """The scenario section of a case bundle."""
    SCHEMA_VERSION = 1
    name: str
    terrain: TerrainSpec
    spawn: Spawn
    obstacles: list[ObstacleSpec]
    cruise_speed: Positive


# name -> (scenario name, terrain kind, the moose's distance ahead or None for no moose)
_BUILTINS = {"default": ("moose_crossing", "rolling", 75.0),
             "slope": ("moose_upslope", "upslope", 120.0),
             "flat": ("flat_corridor", "flat", None)}


def builtin_scenario_doc(name: str) -> dict:
    """Built-in scenario documents: 'default', 'slope', 'flat'. The terrain's
    grid, seed, grade, ramp start and flat height are the `TerrainSpec` defaults."""
    if name not in _BUILTINS:
        raise ScenarioError(f"unknown built-in scenario {name!r}")
    title, kind, ahead = _BUILTINS[name]
    moose = [] if ahead is None else [ObstacleSpec("moose0", "moose", (0.8, 2.4, 1.8), ahead)]
    return to_doc(ScenarioConfig(title, TerrainSpec(kind), Spawn(400.0, 0.0), moose, 11.1))


def load_scenario_doc(path_or_name: str) -> dict:
    """Resolve a scenario reference: built-in name or a JSON file path."""
    try:
        return builtin_scenario_doc(path_or_name)
    except ScenarioError:
        pass
    try:
        with open(path_or_name, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: malformed JSON or not UTF-8
        raise ScenarioError(f"cannot load scenario {path_or_name!r}: {exc}") from exc
    return doc


def build_terrain(spec: TerrainSpec, spawn_x: float) -> TerrainHeightmap:
    cell = spec.cell
    nx = round(spec.length / cell) + 1
    ny = round(spec.width / cell) + 1
    xs = spec.origin_x + np.arange(nx) * cell

    if spec.kind == "flat":
        profile = np.full(nx, spec.height)
    elif spec.kind == "rolling":
        rng = np.random.Generator(np.random.Philox(spec.seed))
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
    else:  # upslope
        grade = spec.grade
        ramp_len = 20.0
        rel = xs - (spawn_x + spec.ramp_start_ahead)
        profile = np.where(
            rel <= 0.0, 0.0,
            np.where(rel <= ramp_len,
                     grade / (2.0 * ramp_len) * rel * rel,
                     grade * (rel - ramp_len / 2.0)))

    heights = np.tile(profile, (ny, 1))
    return TerrainHeightmap(heights, cell, (spec.origin_x, -spec.width / 2.0))


def build_scenario(config: ScenarioConfig, front_offset: float) -> tuple[TerrainHeightmap, list]:
    """The terrain and the obstacles of a scenario.

    front_offset is the body-frame x of the ego's front face; obstacle 'ahead'
    distances are measured from that face at spawn.
    """
    sx, sy = config.spawn.x, config.spawn.y
    terrain = build_terrain(config.terrain, sx)
    obstacles = []
    for spec in config.obstacles:
        ox = sx + front_offset + spec.ahead
        oy = sy + spec.lateral
        gz = terrain.height_or_none(ox, oy)
        if gz is None:
            x0, y0, x1, y1 = terrain.bounds
            raise ScenarioError(f"obstacle {spec.id} placed off-terrain at ({ox:.1f}, {oy:.1f}), "
                                f"outside x [{x0:.1f}, {x1:.1f}] and y [{y0:.1f}, {y1:.1f}]")
        obstacles.append(Obstacle(
            obstacle_id=spec.id,
            cls=spec.class_,
            extents=spec.extents,
            position=(ox, oy, gz + spec.extents[2] / 2.0),
            yaw=spec.yaw,
        ))
    return terrain, obstacles
