"""Candidate autonomy stack under test: surrogate visual perception with four
model presets, AEB planning with existence/threat filtering, a longitudinal
cruise controller, and the headlight controller.

The surrogate detector replaces neural-network inference with a closed-form
per-frame detection probability driven by visibility, ambient light and
range. Preset parameters are placeholder constants, not measured model
behavior, and they do not yet rank the presets: at seed 1 the 32 cases of
each preset in the full matrix pass v2 3, v3 2, v3_tiny 0 and v2_tiny 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from .documents import (Count, Finite, Fraction, NonNegative, Positive, Range, Section, from_doc,
                        to_doc)
from .se3 import clamp

# Exponent applied to visibility in low ambient light grows with the preset's
# low_light_penalty: exponent = 1 + NIGHT_EXPONENT_SCALE * penalty.
NIGHT_EXPONENT_SCALE = 3.0
LOW_LIGHT_THRESHOLD = 0.5

# Headlights restore part of the light term (never the weather term).
LIGHT_GAIN = {"off": 0.0, "low_beam": 0.55, "high_beam_plus_fog": 0.65}

# Headlights are off in bright, clear conditions and on high beam plus fog
# lamps in dark, foggy ones; low beam covers everything between.
HEADLIGHT_AMBIENT_OFF = 0.6
HEADLIGHT_FOG_OFF = 0.3
HEADLIGHT_AMBIENT_HIGH = 0.3
HEADLIGHT_FOG_HIGH = 0.6

STANDSTILL_SPEED = 0.05  # m/s, releases the AEB latch

# Ranges of a false-positive box's area (px^2) and confidence, drawn uniformly.
FALSE_POSITIVE_AREA = (30.0, 250.0)
FALSE_POSITIVE_CONFIDENCE = (0.3, 0.9)


@dataclass(frozen=True)
class PerceptionModelPreset(Section):
    base_detect_rate: Fraction
    range_halflife: Positive   # m
    low_light_penalty: Fraction
    confidence_mean: Fraction
    confidence_spread: Fraction
    min_pixel_area: NonNegative  # px^2


@dataclass
class Detection:
    cls: str
    confidence: float
    area: float               # px^2


@dataclass
class AebConfig(Section):
    threat_classes: tuple[str, ...] = ("moose",)
    min_confidence: Fraction = 0.5
    min_area: NonNegative = 400.0
    persistence_frames: Count = 3
    fos: Annotated[float, Range(ge=1.0)] = 1.5
    max_decel: Positive = 6.0          # planner's stopping-distance model, m/s^2
    range_to_dtc_offset: Finite = 1.5  # camera-range minus front-face DTC, m


@dataclass
class ControlParams(Section):
    cruise_kp: Positive = 0.2  # throttle per m/s of cruise-speed error


@dataclass
class AutonomyConfig(Section):
    """The autonomy section of a case bundle."""
    SCHEMA_VERSION = 1
    presets: dict[str, PerceptionModelPreset] = field(default_factory=lambda: {
        "v3": PerceptionModelPreset(0.95, 60.0, 0.25, 0.85, 0.12, 350.0),
        "v2": PerceptionModelPreset(0.88, 45.0, 0.45, 0.78, 0.15, 400.0),
        "v3_tiny": PerceptionModelPreset(0.62, 32.0, 0.80, 0.70, 0.18, 450.0),
        "v2_tiny": PerceptionModelPreset(0.45, 26.0, 1.00, 0.62, 0.20, 500.0),
    })
    aeb: AebConfig = field(default_factory=AebConfig)
    control: ControlParams = field(default_factory=ControlParams)
    perception_period_steps: Count = 10  # plant steps per perception frame
    assumed_frontal_area: Positive = 4.3  # m^2, for the pinhole range estimate
    false_positive_rate: Fraction = 0.008  # per frame, well under the 1% budget


def effective_visibility(condition, lights: str) -> float:
    """The weather's visibility factor times the light, where the headlights
    add to the ambient light (up to full light) but never to the weather
    factor."""
    light = min(1.0, condition.ambient_light + LIGHT_GAIN[lights])
    return clamp(light * condition.weather_visibility, 0.0, 1.0)


def detection_probability(preset: PerceptionModelPreset, visibility: float,
                          ambient_light: float, distance: float) -> float:
    """Closed-form per-frame detection probability for one obstacle."""
    if ambient_light < LOW_LIGHT_THRESHOLD:
        exponent = 1.0 + NIGHT_EXPONENT_SCALE * preset.low_light_penalty
    else:
        exponent = 1.0
    p = preset.base_detect_rate * (visibility ** exponent) * 2.0 ** (-distance / preset.range_halflife)
    return clamp(p, 0.0, 1.0)


@dataclass
class ObstacleView:
    """Camera-space evidence for one obstacle, produced by the projection pipeline."""
    cls: str
    area: float
    distance: float  # camera to obstacle center, m


class SurrogateDetector:
    """Stochastic stand-in for a neural detector; owns the episode RNG stream.
    The condition and the headlights hold for the episode, so the visibility
    is computed once."""

    def __init__(self, preset: PerceptionModelPreset, condition, lights: str,
                 rng: np.random.Generator, false_positive_rate: float):
        self.preset = preset
        self.visibility = effective_visibility(condition, lights)
        self.ambient_light = condition.ambient_light
        self.rng = rng
        self.false_positive_rate = false_positive_rate

    def detect(self, views: list[ObstacleView]) -> list[Detection]:
        out: list[Detection] = []
        preset = self.preset
        vis = self.visibility
        for view in views:
            if view.area < preset.min_pixel_area:
                continue
            p = detection_probability(preset, vis, self.ambient_light, view.distance)
            if self.rng.random() >= p:
                continue
            conf = self.rng.normal(preset.confidence_mean * vis, preset.confidence_spread)
            out.append(Detection(view.cls, clamp(conf, 0.0, 1.0), view.area))
        if self.rng.random() < self.false_positive_rate:
            area = self.rng.uniform(*FALSE_POSITIVE_AREA)
            conf = self.rng.uniform(*FALSE_POSITIVE_CONFIDENCE)
            # The box centre is not used, but its two draws stay so that every
            # later draw of the case's stream, and so its telemetry, holds.
            self.rng.random(2)
            out.append(Detection("moose", conf, area))
        return out


class AebPlanner:
    """The AEB decision. A threat is a detection of a `threat_classes` class
    whose box is at least `min_area`; a frame is confirmed when a threat
    reaches `min_confidence`. After `persistence_frames` confirmed frames in a
    row, the planner brakes once `fos` times the stopping distance reaches the
    DTC that `range_of_area(px^2) -> m` gives for the largest threat box.

    `mode` is "cruise", then "brake" until |speed| < STANDSTILL_SPEED, then
    "coast": the stop is over and the planner never re-arms.
    """

    def __init__(self, cfg: AebConfig, range_of_area):
        self.cfg = cfg
        self.range_of_area = range_of_area
        self.counter = 0
        self.mode = "cruise"

    def stopping_distance(self, speed: float) -> float:
        return speed * speed / (2.0 * self.cfg.max_decel)

    def plan(self, detections: list[Detection], speed: float) -> None:
        cfg = self.cfg
        threats = [d for d in detections
                   if d.cls in cfg.threat_classes and d.area >= cfg.min_area]
        confirmed = any(d.confidence >= cfg.min_confidence for d in threats)
        self.counter = self.counter + 1 if confirmed else 0

        if self.mode == "brake":
            if abs(speed) < STANDSTILL_SPEED:
                self.mode = "coast"
        elif self.mode == "cruise" and self.counter >= cfg.persistence_frames:
            # persistence_frames >= 1, so this frame is confirmed and has a threat.
            dtc = self.range_of_area(max(d.area for d in threats)) - cfg.range_to_dtc_offset
            if self.stopping_distance(speed) * cfg.fos >= dtc:
                self.mode = "brake"


def longitudinal_control(mode: str, speed: float, cruise_speed: float,
                         kp: float) -> tuple[float, float]:
    """(throttle, brake) for the planner's mode: full brake, nothing once the
    stop is over (coast), or the clamped P-law toward the cruise speed."""
    if mode == "brake":
        return 0.0, 1.0
    if mode == "coast":
        return 0.0, 0.0
    return clamp(kp * (cruise_speed - speed), 0.0, 1.0), 0.0


def headlight_control(ambient_light: float, fog_density: float) -> str:
    if ambient_light >= HEADLIGHT_AMBIENT_OFF and fog_density < HEADLIGHT_FOG_OFF:
        return "off"
    if ambient_light < HEADLIGHT_AMBIENT_HIGH and fog_density >= HEADLIGHT_FOG_HIGH:
        return "high_beam_plus_fog"
    return "low_beam"


def estimate_range_px(area_px: float, fx_px: float, fy_px: float,
                      assumed_frontal_area: float) -> float:
    """Pinhole range estimate from a bounding-box area."""
    if area_px <= 0.0:
        return math.inf
    return math.sqrt(fx_px * fy_px * assumed_frontal_area / area_px)


# -- autonomy document --------------------------------------------------------

def default_autonomy_doc() -> dict:
    return to_doc(AutonomyConfig())


def parse_autonomy_doc(doc: dict) -> AutonomyConfig:
    return from_doc(AutonomyConfig, doc)
