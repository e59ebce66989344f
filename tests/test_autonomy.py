"""The AEB planner's persistence filter, gate and mode, the longitudinal
control of each mode, and the surrogate detector's closed forms."""

import math

import numpy as np
import pytest

from twinforge.autonomy import (
    LIGHT_GAIN,
    STANDSTILL_SPEED,
    AebConfig,
    AebPlanner,
    Detection,
    ObstacleView,
    PerceptionModelPreset,
    SurrogateDetector,
    detection_probability,
    effective_visibility,
    estimate_range_px,
    headlight_control,
    longitudinal_control,
)
from twinforge.environment import TIME_LIGHT, WEATHER, condition_derive

THREAT = Detection("moose", 0.9, 1000.0)
# At 12 m/s the default gate is fos * v^2 / (2 * max_decel) = 1.5 * 144 / 12 = 18 m.
SPEED = 12.0
GATE = 18.0
OFFSET = AebConfig().range_to_dtc_offset


def _planner(dtc=GATE):
    """A default planner whose range estimate puts every threat box at `dtc`."""
    return AebPlanner(AebConfig(), lambda area: dtc + OFFSET)


def _frames(planner, count, detections=(THREAT,), speed=SPEED):
    for _ in range(count):
        planner.plan(list(detections), speed)


def test_planner_fires_on_the_persistence_frame_and_not_before():
    planner = _planner()
    _frames(planner, planner.cfg.persistence_frames - 1)
    assert planner.mode == "cruise"
    _frames(planner, 1)
    assert planner.mode == "brake"


@pytest.mark.parametrize("dtc, fires", [
    (GATE, True), (1.0, True), (GATE + 0.01, False),
], ids=["on-the-gate", "inside", "outside"])
def test_planner_fires_only_inside_the_stopping_distance_gate(dtc, fires):
    planner = _planner(dtc)
    _frames(planner, 10)
    assert planner.mode == ("brake" if fires else "cruise")


@pytest.mark.parametrize("frame", [
    [], [Detection("deer", 0.9, 1000.0)], [Detection("moose", 0.49, 1000.0)],
    [Detection("moose", 0.9, 399.0)],
], ids=["nothing", "other-class", "low-confidence", "small-box"])
def test_a_non_qualifying_frame_resets_the_count(frame):
    planner = _planner()
    _frames(planner, planner.cfg.persistence_frames - 1)
    _frames(planner, 1, detections=frame)
    assert planner.counter == 0
    _frames(planner, planner.cfg.persistence_frames - 1)
    assert planner.mode == "cruise"
    _frames(planner, 1)
    assert planner.mode == "brake"


def test_the_estimate_takes_the_largest_threat_box_whatever_its_confidence():
    areas = []
    planner = AebPlanner(AebConfig(), lambda area: areas.append(area) or 1.0)
    frame = [Detection("moose", 0.9, 500.0), Detection("moose", 0.3, 5000.0),
             Detection("deer", 0.9, 50000.0)]
    _frames(planner, planner.cfg.persistence_frames - 1, detections=frame)
    assert areas == []  # the range is estimated only once the gate is reached
    _frames(planner, 1, detections=frame)
    assert areas == [5000.0] and planner.mode == "brake"


def test_brake_latches_until_standstill_and_never_rearms():
    planner = _planner()
    modes = [planner.mode]
    _frames(planner, planner.cfg.persistence_frames)
    modes.append(planner.mode)
    for speed in (SPEED, 1.0, STANDSTILL_SPEED, -0.5 * STANDSTILL_SPEED):
        planner.plan([], speed)
        modes.append(planner.mode)
    assert modes == ["cruise", "brake", "brake", "brake", "brake", "coast"]
    for speed in (SPEED, 0.0):
        _frames(planner, 10, speed=speed)
        assert planner.mode == "coast"


@pytest.mark.parametrize("mode, speed, command", [
    ("brake", 5.0, (0.0, 1.0)), ("coast", 5.0, (0.0, 0.0)), ("coast", 0.0, (0.0, 0.0)),
    ("cruise", 8.0, (0.4, 0.0)), ("cruise", 0.0, (1.0, 0.0)), ("cruise", 12.0, (0.0, 0.0)),
])
def test_longitudinal_control_follows_the_mode(mode, speed, command):
    # cruise: the P-law 0.2 * (10 - speed), clamped to [0, 1]
    assert longitudinal_control(mode, speed, 10.0, 0.2) == pytest.approx(command)


def test_detection_probability_halves_every_range_halflife():
    preset = PerceptionModelPreset(0.9, 40.0, 0.5, 0.8, 0.1, 300.0)
    vis = effective_visibility(condition_derive("clear", "12:00"), "off")
    p0 = detection_probability(preset, vis, 1.0, 0.0)
    assert p0 == 0.9
    for k in range(1, 6):
        p = detection_probability(preset, vis, 1.0, k * preset.range_halflife)
        assert p == pytest.approx(p0 * 0.5 ** k, rel=1e-12)


def _detector(seed):
    preset = PerceptionModelPreset(0.9, 40.0, 0.5, 0.8, 0.1, 300.0)
    rng = np.random.Generator(np.random.Philox(key=seed))
    return SurrogateDetector(preset, condition_derive("clear", "12:00"), "off", rng, 0.0), rng


def test_a_view_below_min_pixel_area_consumes_no_draw():
    small, small_rng = _detector(5)
    none, none_rng = _detector(5)
    large, large_rng = _detector(5)
    assert small.detect([ObstacleView("moose", 299.0, 10.0)]) == []
    assert none.detect([]) == []
    large.detect([ObstacleView("moose", 300.0, 10.0)])
    following = none_rng.random(4).tolist()
    assert small_rng.random(4).tolist() == following
    assert large_rng.random(4).tolist() != following


def test_headlights_lift_the_light_but_never_the_weather_factor():
    for weather, (factor, _) in WEATHER.items():
        for time_of_day, light in TIME_LIGHT.items():
            condition = condition_derive(weather, time_of_day)
            assert effective_visibility(condition, "off") == light * factor
            for lights in LIGHT_GAIN:
                assert effective_visibility(condition, lights) <= factor
        noon = condition_derive(weather, "12:00")
        assert effective_visibility(noon, "low_beam") == factor


def test_the_detector_takes_the_visibility_of_its_lights():
    preset = PerceptionModelPreset(0.9, 40.0, 0.5, 0.8, 0.1, 300.0)
    night = condition_derive("thick_fog", "00:00")
    rng = np.random.Generator(np.random.Philox(key=1))
    for lights in LIGHT_GAIN:
        detector = SurrogateDetector(preset, night, lights, rng, 0.0)
        assert detector.visibility == effective_visibility(night, lights)


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
