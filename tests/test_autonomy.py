"""The AEB planner's persistence filter, gate and latch, and the surrogate
detector's closed forms."""

import math

import numpy as np
import pytest

from twinforge.autonomy import (
    STANDSTILL_SPEED,
    AebConfig,
    AebPlanner,
    Detection,
    ObstacleView,
    PerceptionModelPreset,
    SurrogateDetector,
    detection_probability,
    estimate_range_px,
    headlight_control,
)
from twinforge.environment import condition_derive

THREAT = Detection("moose", 0.9, 1000.0)
# At 12 m/s the default gate is fos * v^2 / (2 * max_decel) = 1.5 * 144 / 12 = 18 m.
SPEED = 12.0
GATE = 18.0


def _frames(planner, count, detections=(THREAT,), dtc=GATE, speed=SPEED):
    for _ in range(count):
        planner.plan(list(detections), dtc, speed)


def test_planner_fires_on_the_persistence_frame_and_not_before():
    planner = AebPlanner(AebConfig())
    _frames(planner, planner.cfg.persistence_frames - 1)
    assert not planner.braking
    _frames(planner, 1)
    assert planner.braking


@pytest.mark.parametrize("dtc, fires", [
    (GATE, True), (1.0, True), (GATE + 0.01, False), (None, False),
], ids=["on-the-gate", "inside", "outside", "no-estimate"])
def test_planner_fires_only_inside_the_stopping_distance_gate(dtc, fires):
    planner = AebPlanner(AebConfig())
    _frames(planner, 10, dtc=dtc)
    assert planner.braking is fires


@pytest.mark.parametrize("frame", [
    [], [Detection("deer", 0.9, 1000.0)], [Detection("moose", 0.49, 1000.0)],
    [Detection("moose", 0.9, 399.0)],
], ids=["nothing", "other-class", "low-confidence", "small-box"])
def test_a_non_qualifying_frame_resets_the_count(frame):
    planner = AebPlanner(AebConfig())
    _frames(planner, planner.cfg.persistence_frames - 1)
    _frames(planner, 1, detections=frame)
    assert planner.counter == 0
    _frames(planner, planner.cfg.persistence_frames - 1)
    assert not planner.braking
    _frames(planner, 1)
    assert planner.braking


def test_brake_latches_until_standstill_and_never_rearms():
    planner = AebPlanner(AebConfig())
    _frames(planner, planner.cfg.persistence_frames)
    assert planner.braking
    for speed in (SPEED, 1.0, STANDSTILL_SPEED):
        planner.plan([], None, speed)
        assert planner.braking and not planner.finished
    planner.plan([], None, -0.5 * STANDSTILL_SPEED)
    assert not planner.braking and planner.finished
    _frames(planner, 10, dtc=1.0)
    assert not planner.braking and planner.finished


def test_detection_probability_halves_every_range_halflife():
    preset = PerceptionModelPreset(0.9, 40.0, 0.5, 0.8, 0.1, 300.0)
    noon = condition_derive("clear", "12:00")
    p0 = detection_probability(preset, noon, "off", 0.0)
    assert p0 == 0.9
    for k in range(1, 6):
        p = detection_probability(preset, noon, "off", k * preset.range_halflife)
        assert p == pytest.approx(p0 * 0.5 ** k, rel=1e-12)


def _detector(seed):
    preset = PerceptionModelPreset(0.9, 40.0, 0.5, 0.8, 0.1, 300.0)
    rng = np.random.Generator(np.random.Philox(key=seed))
    return SurrogateDetector(preset, condition_derive("clear", "12:00"), rng, 0.0), rng


def test_a_view_below_min_pixel_area_consumes_no_draw():
    small, small_rng = _detector(5)
    none, none_rng = _detector(5)
    large, large_rng = _detector(5)
    assert small.detect([ObstacleView("moose", 299.0, 10.0)], "off") == []
    assert none.detect([], "off") == []
    large.detect([ObstacleView("moose", 300.0, 10.0)], "off")
    following = none_rng.random(4).tolist()
    assert small_rng.random(4).tolist() == following
    assert large_rng.random(4).tolist() != following


@pytest.mark.parametrize("ambient, fog, lights", [
    (1.0, 0.0, "off"), (0.6, 0.29, "off"),
    (0.6, 0.3, "low_beam"), (0.59, 0.0, "low_beam"), (0.3, 0.9, "low_beam"),
    (0.29, 0.6, "high_beam_plus_fog"), (0.15, 0.9, "high_beam_plus_fog"),
])
def test_headlight_control_gives_each_setting(ambient, fog, lights):
    assert headlight_control(ambient, fog) == lights


def test_range_estimate_is_infinite_without_area():
    assert estimate_range_px(0.0, 800.0, 800.0, 4.0) == math.inf
    assert estimate_range_px(400.0, 100.0, 100.0, 4.0) == 10.0
