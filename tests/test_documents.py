"""The range rule of config documents: every number a section declares is
finite and inside its range, for a value read from a document and for one
built in code alike."""

import dataclasses
import math
from typing import Annotated, get_args, get_origin, get_type_hints

import pytest

from twinforge.autonomy import AebConfig, AutonomyConfig, ControlParams, PerceptionModelPreset
from twinforge.documents import ConfigurationError, Range, from_doc
from twinforge.dynamics import default_vehicle_config
from twinforge.dynamics.config import (
    AeroParams,
    BrakeParams,
    FootprintParams,
    PowertrainParams,
    SprungMass,
    SteeringParams,
    SuspensionParams,
    VehicleConfig,
)
from twinforge.dynamics.spline import FrictionSpline
from twinforge.episode import CaseBundle, SimParams
from twinforge.scenarios import ObstacleSpec, ScenarioConfig, Spawn, TerrainSpec
from twinforge.sensors import CameraConfig, LidarConfig

SECTIONS = (SimParams, CameraConfig, LidarConfig, PerceptionModelPreset, AebConfig, ControlParams,
            AutonomyConfig, SprungMass, SuspensionParams, PowertrainParams, SteeringParams,
            BrakeParams, AeroParams, FootprintParams, VehicleConfig, FrictionSpline, TerrainSpec,
            Spawn, ObstacleSpec, ScenarioConfig, CaseBundle)


def _undeclared_numbers(hint) -> int:
    """Number of float or int leaves of `hint` that declare no range (dict keys aside)."""
    if get_origin(hint) is Annotated:
        return 0
    if hint in (float, int):
        return 1
    args = get_args(hint)[1:] if get_origin(hint) is dict else get_args(hint)
    return sum(map(_undeclared_numbers, args))


@pytest.mark.parametrize("kind", SECTIONS, ids=lambda k: k.__name__)
def test_every_number_of_a_section_declares_its_range(kind):
    hints = get_type_hints(kind, include_extras=True)
    undeclared = [f.name for f in dataclasses.fields(kind)
                  if f.init and _undeclared_numbers(hints[f.name])]
    assert undeclared == []


def test_a_value_built_in_code_is_checked_and_named():
    with pytest.raises(ConfigurationError) as exc:
        dataclasses.replace(AebConfig(), max_decel=math.inf)
    assert str(exc.value) == "AebConfig.max_decel must be a finite number > 0, got inf"


def _vehicle_section(name):
    return lambda: getattr(default_vehicle_config(), name)


# Each of these took NaN before its range was declared: `x <= 0` is false for NaN.
@pytest.mark.parametrize("make, field", [
    (_vehicle_section("suspension"), "natural_frequency"),
    (_vehicle_section("suspension"), "damping_ratio"),
    (_vehicle_section("powertrain"), "final_drive"),
    (_vehicle_section("steering"), "limit"),
    (_vehicle_section("brake"), "disk_radius"),
    (_vehicle_section("aero"), "drag_max"),
    (CameraConfig, "focal_length"),
    (LidarConfig, "theta_res"),
    (AebConfig, "fos"),
], ids=lambda p: p if isinstance(p, str) else "")
def test_nan_never_passes(make, field):
    value = make()
    with pytest.raises(ConfigurationError,
                       match=f"^{type(value).__name__}.{field} must be a finite number"):
        dataclasses.replace(value, **{field: math.nan})


def test_a_sprung_mass_names_its_field():
    with pytest.raises(ConfigurationError,
                       match=r"^SprungMass.mass must be a finite number > 0, got 0.0$"):
        SprungMass(0.0, (0.0, 0.0, 0.0))
    with pytest.raises(ConfigurationError,
                       match=r"^SprungMass.position must be a finite number, got nan$"):
        SprungMass(1.0, (0.0, math.nan, 0.0))


def test_an_int_for_a_float_is_stored_as_a_float():
    sim = from_doc(SimParams, {"t_max": 100, "dt": 1})
    assert (sim.t_max, sim.dt) == (100.0, 1.0)
    assert type(sim.t_max) is float and type(sim.dt) is float
    camera = from_doc(CameraConfig, {"position": [1, 0, 2], "resolution": [64, 48]})
    assert [type(v) for v in camera.position] == [float] * 3
    assert [type(v) for v in camera.resolution] == [int] * 2  # an int field keeps its int


@pytest.mark.parametrize("value, admitted", [
    (0, True), (-1e-300, True), (10 ** 300, True), (10 ** 400, False), (-10 ** 400, False),
    (math.nan, False), (math.inf, False), (-math.inf, False), (True, False), ("1", False),
    (None, False),
])
def test_range_admits_finite_numbers_only(value, admitted):
    assert Range().admits(value) is admitted  # a huge int is compared, never converted


def test_range_describes_its_bounds():
    assert [str(r) for r in (Range(), Range(gt=0.0), Range(ge=0.0, le=1.0), Range(ge=1))] == [
        "a finite number", "a finite number > 0", "a finite number >= 0 and <= 1",
        "a finite number >= 1"]
