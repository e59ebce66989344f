"""Unit tests for the dynamics parameter machinery and force laws."""

import dataclasses
import functools
import hashlib
import json
import math
import operator
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twinforge.dynamics import (
    ConfigurationError,
    FrictionSpline,
    SprungMass,
    Vehicle,
    VehicleConfig,
    com_properties,
    default_vehicle_config,
    suspension_coefficients,
)
from twinforge.documents import from_doc, to_doc
from twinforge.dynamics.config import GRAVITY, GEAR_NEUTRAL
from twinforge.dynamics.forces import (
    ackermann_angles,
    aero_forces,
    antiroll_forces,
    steering_step,
    suspension_step,
    tire_forces,
    wheel_brake_torques,
)
from twinforge.dynamics.powertrain import (
    PowertrainState,
    powertrain_step,
    torque_split,
    transmission_map_rpm,
)
from twinforge.episode import default_bundle, run_case
from twinforge.scenarios import TerrainSpec, build_terrain


# -- center of mass ------------------------------------------------------------

def test_com_single_point_mass():
    m, com, inertia = com_properties([SprungMass(100.0, (0.0, 0.0, 0.0))])
    assert m == 100.0
    assert com == (0.0, 0.0, 0.0)
    assert inertia == (0.0, 0.0, 0.0)


def test_com_two_masses_on_x_axis():
    m, com, inertia = com_properties([
        SprungMass(50.0, (1.0, 0.0, 0.0)),
        SprungMass(50.0, (-1.0, 0.0, 0.0)),
    ])
    assert m == 100.0
    assert com == (0.0, 0.0, 0.0)
    # axes perpendicular to x see both masses at distance 1
    assert inertia[0] == 0.0
    assert inertia[1] == pytest.approx(100.0)
    assert inertia[2] == pytest.approx(100.0)


def test_com_weighted_offsets_cancel():
    m, com, _ = com_properties([
        SprungMass(60.0, (2.0, 0.0, 0.0)),
        SprungMass(40.0, (-3.0, 0.0, 0.0)),
    ])
    assert m == 100.0
    assert com[0] == pytest.approx((60 * 2 - 40 * 3) / 100.0)
    assert com[0] == pytest.approx(0.0)


def test_com_rejects_empty_and_nonpositive():
    with pytest.raises(ConfigurationError):
        com_properties([])
    with pytest.raises(ConfigurationError):
        com_properties([SprungMass(-1.0, (0, 0, 0))])


def test_com_mass_exact_sum():
    # left-to-right folds on every Python: from 3.12 on, sum() compensates, and
    # the default COM z becomes 234.99999999999997 / m, which moves every digest
    rng = np.random.default_rng(11)
    drawn = [SprungMass(float(rng.uniform(1, 500)), tuple(rng.uniform(-3, 3, 3)))
             for _ in range(12)]
    for entries in (drawn, default_vehicle_config().sprung_masses):
        m, com, _ = com_properties(entries)
        assert m == functools.reduce(operator.add, (e.mass for e in entries), 0.0)
        for axis in range(3):
            moment = functools.reduce(operator.add, (e.mass * e.position[axis] for e in entries),
                                      0.0)
            assert com[axis] == moment / m
    assert com[2] == 235.0 / m


# -- suspension coefficients -----------------------------------------------------

def test_suspension_coefficients_unit_case():
    k, b = suspension_coefficients(1.0, 1.0, 0.0)
    assert k == 1.0
    assert b == 0.0


def test_suspension_coefficients_hand_values():
    k, b = suspension_coefficients(1000.0, 2.0 * math.pi, 0.5)
    assert k == pytest.approx(39478.4176, rel=1e-6)
    assert b == pytest.approx(6283.18530, rel=1e-6)
    k, b = suspension_coefficients(500.0, 8.0, 1.0)
    assert k == 32000.0
    assert b == pytest.approx(8000.0)


def test_suspension_coefficient_identity_property():
    # B^2 == 4 zeta^2 K M for random valid parameters
    rng = np.random.default_rng(2)
    for _ in range(200):
        m = rng.uniform(1.0, 2000.0)
        wn = rng.uniform(0.1, 60.0)
        zeta = rng.uniform(0.0, 2.0)
        k, b = suspension_coefficients(m, wn, zeta)
        assert b * b == pytest.approx(4.0 * zeta * zeta * k * m, rel=1e-9, abs=1e-12)


def test_suspension_coefficients_reject_bad_input():
    with pytest.raises(ConfigurationError):
        suspension_coefficients(0.0, 1.0, 0.1)
    with pytest.raises(ConfigurationError):
        suspension_coefficients(10.0, -1.0, 0.1)
    with pytest.raises(ConfigurationError, match=r"^negative damping ratio -0\.1$"):
        suspension_coefficients(10.0, 1.0, -0.1)


def test_static_displacement_hand_value():
    # corner mass 1000 kg, wn = 2*pi, rest length 1.0 -> Zs = 9810 / 39478.4
    cfg = default_vehicle_config()
    doc = to_doc(cfg)
    doc["sprung_masses"] = [
        {"mass": 1000.0, "position": [1.45, 0.78, 0.0]},
        {"mass": 1000.0, "position": [1.45, -0.78, 0.0]},
        {"mass": 1000.0, "position": [-1.45, 0.78, 0.0]},
        {"mass": 1000.0, "position": [-1.45, -0.78, 0.0]},
    ]
    doc["suspension"]["natural_frequency"] = 2.0 * math.pi
    doc["suspension"]["rest_length"] = 1.0
    cfg2 = from_doc(VehicleConfig, doc)
    for w in cfg2.wheels:
        assert w.corner_mass == pytest.approx(1000.0)
        assert w.static_displacement == pytest.approx(0.248490, abs=1e-5)


# -- config serialisation ------------------------------------------------------------

def test_config_json_roundtrip_reproduces_document():
    doc = to_doc(default_vehicle_config())
    cfg2 = from_doc(VehicleConfig, json.loads(json.dumps(doc)))
    assert to_doc(cfg2) == doc


def test_a_partial_document_changes_only_the_numbers_it_gives():
    default = to_doc(default_vehicle_config())
    assert to_doc(from_doc(VehicleConfig, {"schema_version": 2})) == default
    doc = to_doc(from_doc(VehicleConfig, {"schema_version": 2, "suspension": {"damping_ratio": 0.5}}))
    assert doc["suspension"].pop("damping_ratio") == 0.5
    assert default["suspension"].pop("damping_ratio") == 0.8
    assert doc == default


def test_a_partial_dict_field_replaces_the_whole_dict():
    with pytest.raises(ConfigurationError, match="wheel_mounts must define exactly"):
        from_doc(VehicleConfig, {"schema_version": 2, "wheel_mounts": {"FL": [1.45, 0.78, -0.05]}})


def test_config_document_is_pinned():
    doc = to_doc(default_vehicle_config())
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "890ed3e74d84ac23861ae46155297ffe77b63dc353f052170966da570657197c"


def test_a_document_with_steering_and_a_differential_drop_loads_as_the_default():
    # the default document as it was written while the plant could steer and
    # had a drive config; a FWD or RWD document drives all four wheels too
    doc = to_doc(default_vehicle_config())
    doc["steering"] = {"limit": 0.55, "sensitivity": 0.8, "speed_factor": 0.6}
    doc["powertrain"]["diff_torque_drop"] = 0.5
    doc["powertrain"]["drive_config"] = "AWD"
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "04d7543aa27e105404fa413dd1efeee5188f44067743bc8ecdfba314a15d82e9"
    for drive in ("AWD", "FWD", "RWD"):
        doc["powertrain"]["drive_config"] = drive
        assert to_doc(from_doc(VehicleConfig, doc)) == to_doc(default_vehicle_config())


def test_config_document_with_tire_stiffness_loads():
    doc = to_doc(default_vehicle_config())
    doc["tires"]["stiffness"] = 30000.0
    assert to_doc(from_doc(VehicleConfig, doc)) == to_doc(default_vehicle_config())


def test_a_document_with_park_and_reverse_entries_drives_the_same_plant():
    # version-2 documents written before the plant went forward-only carry these
    doc = to_doc(default_vehicle_config())
    doc["powertrain"]["gear_ratios"].update({"-2": 0.0, "-1": -2.9})
    doc["aero"].update(drag_reverse=1200.0, reverse_speed=8.0)
    terrain = build_terrain(TerrainSpec("flat", length=400.0, width=400.0, origin_x=-100.0), 0.0)

    def drive(cfg):
        vehicle = Vehicle(cfg)
        s = vehicle.spawn_state(terrain, 0.0, 0.0, 0.0)
        for k in range(600):
            s.set_commands(1.0 if k < 400 else 0.0, 0.0 if k < 400 else 1.0)
            vehicle.step(s, terrain, 0.01)
        return s.pos, s.vel, s.wheel_omega, s.pt.engine_rpm, s.pt.gear

    assert drive(from_doc(VehicleConfig, doc)) == drive(default_vehicle_config())


def test_config_rejects_gap_in_forward_gears():
    # without gear 2 the upshift from 1 would look up a ratio that is not there
    doc = to_doc(default_vehicle_config())
    del doc["powertrain"]["gear_ratios"]["2"]
    with pytest.raises(ConfigurationError):
        from_doc(VehicleConfig, doc)


@pytest.mark.parametrize("path, kind", [
    (("tires", "s0"), "FrictionSpline"),
    (("sprung_masses", 0, "mass"), "SprungMass"),
], ids=["tires-s0-FrictionSpline", "sprung_masses-0-mass-SprungMass"])
def test_config_missing_field_names_it(path, kind):
    # the spline is fitted from all six knots and a sprung mass is one entry
    # of a list, so neither takes a default
    doc = to_doc(default_vehicle_config())
    *parent, field = path
    del functools.reduce(operator.getitem, parent, doc)[field]
    with pytest.raises(ConfigurationError, match=f"{kind} document lacks {field}"):
        from_doc(VehicleConfig, doc)


@pytest.mark.parametrize("section, change", [
    ("suspension", {"natural_frequency": 0.0}),
    ("suspension", {"wheel_radius": -0.35}),
    ("powertrain", {"final_drive": 0.0}),
    ("powertrain", {"shift_down_rpm": 7000.0}),
    ("footprint", {"length": 0.0}),
    ("brake", {"disk_radius": 0.0}),
    ("aero", {"drag_max": -1.0}),
])
def test_a_section_with_a_bad_value_raises_at_construction(section, change):
    with pytest.raises(ConfigurationError):
        dataclasses.replace(getattr(default_vehicle_config(), section), **change)


@pytest.mark.parametrize("curve", [
    [(8500.0, 120.0), (800.0, 90.0), (5000.0, 145.0)],  # read as 120 N*m at every rpm
    [(800.0, 90.0), (800.0, 110.0)],
])
def test_a_torque_curve_without_increasing_rpm_knots_is_rejected(curve):
    with pytest.raises(ConfigurationError, match="strictly increasing rpm"):
        dataclasses.replace(default_vehicle_config().powertrain, torque_curve=curve)


def test_engine_torque_below_the_first_knot_is_the_first_knots_torque():
    powertrain = dataclasses.replace(default_vehicle_config().powertrain,
                                     torque_curve=[(800.0, 90.0), (5000.0, 145.0)])
    assert [powertrain.engine_torque(rpm) for rpm in (-1e300, 0.0, 799.9, 800.0)] == [90.0] * 4
    assert powertrain.engine_torque(2900.0) == 117.5


def test_an_empty_torque_curve_is_a_failed_result():
    bundle = default_bundle()
    bundle["vehicle"] = {"schema_version": 2, "powertrain": {"torque_curve": []}}
    res = run_case(bundle)
    assert (res.status, res.terminal, res.steps) == ("failed", "fault", 0)
    assert res.error == "ConfigurationError: engine torque curve needs strictly increasing rpm knots"


@pytest.mark.parametrize("mounts", [
    {"FL": (-1.45, 0.78, -0.05), "FR": (-1.45, -0.78, -0.05),
     "RL": (1.45, 0.78, -0.05), "RR": (1.45, -0.78, -0.05)},   # front axle behind
    {"FL": (1.45, -0.78, -0.05), "FR": (1.45, 0.78, -0.05),
     "RL": (-1.45, -0.78, -0.05), "RR": (-1.45, 0.78, -0.05)},  # FL right of FR
])
def test_mounts_without_positive_wheelbase_and_track_are_rejected(mounts):
    with pytest.raises(ConfigurationError, match="wheelbase and track"):
        dataclasses.replace(default_vehicle_config(), wheel_mounts=mounts)


def test_wheelbase_and_track_come_from_the_mounts():
    cfg = default_vehicle_config()
    doc = to_doc(cfg)
    doc["wheel_mounts"]["RL"][0] = doc["wheel_mounts"]["RR"][0] = -1.75  # wheelbase 2.9 -> 3.2
    longer = from_doc(VehicleConfig, doc)
    # the static load split follows: the COM is now further from the rear axle
    front, rear = longer.wheels[0].corner_mass, longer.wheels[2].corner_mass
    assert front > cfg.wheels[0].corner_mass and rear < cfg.wheels[2].corner_mass
    assert front + rear == pytest.approx(cfg.wheels[0].corner_mass + cfg.wheels[2].corner_mass)


def test_the_document_stores_each_quantity_once():
    doc = to_doc(default_vehicle_config())
    assert doc["schema_version"] == 2
    assert "steering" not in doc
    assert "tire_radius" not in doc["powertrain"]
    assert "diff_torque_drop" not in doc["powertrain"]
    assert doc["tires"] == {"s0": 0.0, "f0": 0.0, "se": 0.2, "fe": 1.0, "sa": 0.8, "fa": 0.6}


def _perturbed(doc, data):
    """`doc` with every float leaf scaled by its own factor in [0.9, 1.1]."""
    if isinstance(doc, dict):
        return {k: _perturbed(v, data) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_perturbed(v, data) for v in doc]
    if isinstance(doc, float):
        return doc * data.draw(st.floats(0.9, 1.1))
    return doc


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_perturbed_document_round_trips(data):
    doc = _perturbed(to_doc(default_vehicle_config()), data)
    rpms = [r for r, _ in doc["powertrain"]["torque_curve"]]
    if not all(a < b for a, b in zip(rpms, rpms[1:])):
        # knots 7000 and 8500 can cross (7000 * 1.1 > 8500 * 0.9): such a curve is rejected
        with pytest.raises(ConfigurationError, match="strictly increasing rpm"):
            from_doc(VehicleConfig, doc)
        return
    cfg = from_doc(VehicleConfig, doc)
    again = from_doc(VehicleConfig, json.loads(json.dumps(to_doc(cfg))))
    assert again == cfg
    assert to_doc(again) == doc


def test_pedal_scales_each_wheel_torque():
    masses = (400.0, 450.0, 500.0, 550.0)
    for pedal in (0.0, 0.5, 1.0):
        assert wheel_brake_torques(masses, 10.0, 0.15, 18.0, pedal) == tuple(
            pedal * brake_torque(m, 10.0, 0.15, 18.0) for m in masses)


# -- suspension step ---------------------------------------------------------------

def _susp(prev_comp, mount_z, ground_z, dt=0.01):
    return suspension_step(
        prev_comp, mount_z, ground_z,
        rest_length=0.45, spring_k=50000.0, damper_b=8000.0,
        wheel_radius=0.35, static_displacement=0.2, mount_to_body_z=-0.05, dt=dt)


def test_suspension_static_equilibrium_balances_gravity():
    corner_mass = 500.0
    k = 50000.0
    comp = corner_mass * GRAVITY / k
    # mount placed so the spring sits exactly at static compression
    mount_z = 0.35 + 0.45 - comp
    force, compression, grounded, _, _ = _susp(comp, mount_z, 0.0)
    assert grounded
    assert force == pytest.approx(corner_mass * GRAVITY, rel=1e-9)
    assert compression == pytest.approx(comp)


def test_suspension_airborne_is_forceless_free_fall():
    # ground far below the fully extended strut: no force, no contact, so the
    # body falls with nothing from this corner holding it up
    assert _susp(0.1, mount_z=2.0, ground_z=-5.0) == (0.0, 0.0, False, 0.0, 0.0)


def test_suspension_airborne_clamps_at_full_extension():
    # the hub sits rest + radius below the mount at full extension
    full_extension_ground = 2.0 - 0.45 - 0.35
    # a hair inside the travel: in contact, compression never negative, and the
    # damper's pull while the strut extends is clamped to no force
    force, compression, grounded, _, _ = _susp(
        0.1, mount_z=2.0, ground_z=full_extension_ground + 1e-9)
    assert grounded
    assert 0.0 <= compression == pytest.approx(0.0, abs=1e-8)
    assert force == 0.0
    # a hair past it: airborne, and the strut reads fully extended
    assert _susp(0.1, mount_z=2.0, ground_z=full_extension_ground - 1e-9) == (
        0.0, 0.0, False, 0.0, 0.0)


# -- anti-roll bar ---------------------------------------------------------------

def test_antiroll_symmetric_travel_is_zero():
    assert antiroll_forces(0.2, 0.2, 5000.0, True, True) == (0.0, 0.0)


def test_antiroll_hand_values():
    left, right = antiroll_forces(0.1, 0.3, 1000.0, True, True)
    assert left == pytest.approx(200.0)
    assert right == pytest.approx(-200.0)


def test_antiroll_airborne_wheel_suppressed():
    left, right = antiroll_forces(0.1, 0.3, 1000.0, False, True)
    assert left == 0.0
    assert right == pytest.approx(-200.0)


# -- steering ---------------------------------------------------------------------

def test_ackermann_zero_steer():
    assert ackermann_angles(0.0, 2.5, 1.5) == (0.0, 0.0)


def test_ackermann_hand_values():
    left, right = ackermann_angles(0.2, 2.5, 1.5)
    # independent evaluation of both closed forms
    t = math.tan(0.2)
    exp_left = math.atan(2 * 2.5 * t / (2 * 2.5 + 1.5 * t))
    exp_right = math.atan(2 * 2.5 * t / (2 * 2.5 - 1.5 * t))
    assert left == pytest.approx(exp_left, abs=1e-12)
    assert right == pytest.approx(exp_right, abs=1e-12)
    assert left == pytest.approx(0.1888, abs=2e-4)
    assert right == pytest.approx(0.2126, abs=2e-4)


def test_ackermann_inner_outer_relation_and_oddness():
    rng = np.random.default_rng(3)
    for _ in range(200):
        wheelbase = rng.uniform(1.0, 4.0)
        track = rng.uniform(0.8, 2.2)
        # stay inside the geometric limit where the outer denominator is positive
        angle = rng.uniform(0.01, 0.9 * math.atan(2 * wheelbase / track))
        angle = min(angle, 0.6)
        left, right = ackermann_angles(angle, wheelbase, track)
        assert right > angle > left > 0.0
        # mirror symmetry: flipping the steer swaps the inner/outer roles
        nl, nr = ackermann_angles(-angle, wheelbase, track)
        assert nl == pytest.approx(-right, abs=1e-12)
        assert nr == pytest.approx(-left, abs=1e-12)


def test_steering_saturates_at_limit():
    angle = 0.0
    for _ in range(400):
        angle, _, _ = steering_step(1.5, angle, 5.0, 0.5, 0.8, 0.6, 30.0, 2.9, 1.56, 0.01)
    assert angle <= 0.5 + 1e-12
    assert angle == pytest.approx(0.5)


def test_steering_slew_rate():
    angle, _, _ = steering_step(1.0, 0.0, 0.0, 0.5, 0.8, 0.6, 30.0, 2.9, 1.56, 0.01)
    assert angle == pytest.approx(0.8 * 0.01)  # rate = sensitivity at rest


# -- brakes --------------------------------------------------------------------------

def brake_torque(corner_mass, speed, disk_radius, braking_distance):
    """Reference: one wheel's brake torque magnitude, m·v²/(2·d)·r."""
    return corner_mass * speed * speed / (2.0 * braking_distance) * disk_radius


def test_brake_torque_zero_speed():
    assert wheel_brake_torques((500.0,) * 4, 0.0, 0.15, 18.0, 1.0) == (0.0,) * 4


def test_brake_torque_hand_value():
    tau = brake_torque(500.0, 26.82, 0.15, 18.0)
    expected = 500.0 * 26.82 ** 2 / (2 * 18.0) * 0.15
    assert tau == pytest.approx(expected, rel=1e-12)
    assert tau == pytest.approx(1498.57, abs=0.01)


# Vehicle.step skips wheel_brake_torques at a zero pedal; what it uses instead
# must be its result bit for bit. That holds while the unbraked torque
# m·v²/(2·d)·r is finite, since 0·inf is nan.
@settings(deadline=None)
@given(st.tuples(*[st.floats(1e-3, 1e4)] * 4), st.floats(-1e3, 1e3), st.floats(1e-3, 1.0),
       st.floats(1e-3, 1e3))
def test_the_calls_the_step_skips_return_what_it_uses(masses, v, disk_radius, distance):
    torques = wheel_brake_torques(masses, v, disk_radius, distance, 0.0)
    assert struct.pack("<4d", *torques) == struct.pack("<4d", *(0.0,) * 4)


# -- tire spline ----------------------------------------------------------------------

def test_spline_interpolates_knots():
    sp = FrictionSpline(0.0, 0.0, 0.2, 1.0, 0.8, 0.6)
    assert sp(0.0) == pytest.approx(0.0, abs=1e-12)
    assert sp(0.2) == pytest.approx(1.0, abs=1e-9)
    assert sp(0.8 - 1e-12) == pytest.approx(0.6, abs=1e-6)


def test_spline_c0_at_extremum():
    sp = FrictionSpline(0.0, 0.0, 0.2, 1.0, 0.8, 0.6)
    assert abs(sp(0.2 - 1e-12) - sp(0.2 + 1e-12)) < 1e-9


def test_spline_clamps_outside_range():
    sp = FrictionSpline(0.0, 0.0, 0.2, 1.0, 0.8, 0.6)
    assert sp(-1.0) == 0.0
    assert sp(5.0) == 0.6


def test_spline_against_closed_form_oracle():
    # segment 0: natural at s0, zero slope at extremum -> -62.5 s^3 + 7.5 s
    # segment 1: zero-slope cubic Hermite between the last two knots
    sp = FrictionSpline(0.0, 0.0, 0.2, 1.0, 0.8, 0.6)
    for s in np.linspace(0.0, 0.2, 101):
        assert sp(float(s)) == pytest.approx(-62.5 * s ** 3 + 7.5 * s, abs=1e-9)
    prev = -1.0
    for s in np.linspace(0.0, 0.2, 101):
        val = sp(float(s))
        assert val >= prev - 1e-12  # monotone rising to the extremum
        prev = val
    for s in np.linspace(0.2, 0.8, 101):
        t = (s - 0.2) / 0.6
        hermite = 1.0 + (0.6 - 1.0) * (3 * t ** 2 - 2 * t ** 3)
        assert sp(float(s)) == pytest.approx(hermite, abs=1e-9)


def test_spline_requires_ordered_knots():
    with pytest.raises(ValueError):
        FrictionSpline(0.5, 0.0, 0.2, 1.0, 0.8, 0.6)


def test_spline_coefficients_are_python_floats():
    # numpy scalars would slow every tire_forces call; one evaluation on each
    # segment shows that segment's cubic is plain floats.
    sp = default_vehicle_config().tires
    assert type(sp(0.05)) is float and type(sp(0.5)) is float


def test_spline_serialization_roundtrip():
    sp = FrictionSpline(0.0, 0.0, 0.25, 0.9, 0.7, 0.5)
    sp2 = from_doc(FrictionSpline, json.loads(json.dumps(to_doc(sp))))
    for s in np.linspace(-0.1, 1.0, 50):
        assert sp(float(s)) == sp2(float(s))


# -- tire forces -----------------------------------------------------------------------

def test_tire_pure_rolling_is_forceless():
    sp = FrictionSpline(0.0, 0.0, 0.2, 1.0, 0.8, 0.6)
    f_x, f_y = tire_forces(10.0 / 0.35, 10.0, 0.0, 0.35, sp, 5000.0, 0.1)
    assert f_x == pytest.approx(0.0, abs=1e-9)
    assert f_y == 0.0


def test_tire_slip_signs_oppose_slip():
    sp = FrictionSpline(0.0, 0.0, 0.2, 1.0, 0.8, 0.6)
    # wheel spinning faster than ground speed -> pushes vehicle forward
    f_x, _ = tire_forces(40.0, 10.0, 0.0, 0.35, sp, 5000.0, 0.1)
    assert f_x > 0.0
    # locked wheel while moving -> drags vehicle backward
    f_x, _ = tire_forces(0.0, 10.0, 0.0, 0.35, sp, 5000.0, 0.1)
    assert f_x < 0.0
    # lateral slip opposed
    _, f_y = tire_forces(10.0 / 0.35, 10.0, 2.0, 0.35, sp, 5000.0, 0.1)
    assert f_y < 0.0


def test_tire_low_speed_guard():
    sp = FrictionSpline(0.0, 0.0, 0.2, 1.0, 0.8, 0.6)
    # denominator guarded at eps_v: slip stays finite at standstill
    assert tire_forces(0.0, 0.0, 0.0, 0.35, sp, 5000.0, eps_v=0.1) == (0.0, 0.0)


def test_tire_longitudinal_impulse_cap():
    sp = FrictionSpline(0.0, 0.0, 0.2, 1.0, 0.8, 0.6)
    f_x, _ = tire_forces(10.0 / 0.35 + 0.01, 10.0, 0.0, 0.35, sp, 5000.0, 0.1,
                         lon_force_cap=1.0)
    assert abs(f_x) <= 1.0


# -- aero --------------------------------------------------------------------------------

class _Aero:
    drag_max = 2600.0
    drag_idle = 220.0
    top_speed = 30.0
    angular_drag = 120.0
    downforce_coeff = 8.0


def _drag_magnitude(velocity, p=_Aero(), eps_v=0.1):
    drag, _, _ = aero_forces(velocity, (0.0, 0.0, 0.0), p, eps_v)
    return math.sqrt(sum(d * d for d in drag))


def test_aero_case_table_exhaustive():
    p = _Aero()
    # at or above top speed: drag_max, whatever the direction of travel
    assert _drag_magnitude((31.0, 0.0, 0.0)) == pytest.approx(p.drag_max, rel=1e-12)
    assert _drag_magnitude((30.0, 0.0, 0.0)) == pytest.approx(p.drag_max, rel=1e-12)
    assert _drag_magnitude((-31.0, 0.0, 0.0)) == pytest.approx(p.drag_max, rel=1e-12)
    # below it: drag_idle, forward or backward
    assert _drag_magnitude((29.99, 0.0, 0.0)) == pytest.approx(p.drag_idle, rel=1e-12)
    assert _drag_magnitude((-9.0, 0.0, 0.0)) == pytest.approx(p.drag_idle, rel=1e-12)
    # below eps_v the magnitude tapers linearly to zero
    assert _drag_magnitude((0.05, 0.0, 0.0)) == pytest.approx(0.5 * p.drag_idle, rel=1e-12)


def test_aero_exactly_one_case_fires():
    p = _Aero()
    rng = np.random.default_rng(4)
    for _ in range(500):
        v = rng.normal(size=3)
        v = tuple(float(c) for c in v / np.linalg.norm(v) * rng.uniform(0.1, 40.0))
        speed = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
        expect = p.drag_max if speed >= p.top_speed else p.drag_idle
        drag, _, down = aero_forces(v, (0.0, 0.0, 0.0), p, 0.1)
        assert _drag_magnitude(v) == pytest.approx(expect, rel=1e-9)
        # the drag opposes the motion
        assert sum(d * c for d, c in zip(drag, v)) == pytest.approx(-expect * speed, rel=1e-9)
        assert down == p.downforce_coeff * speed


def test_aero_at_rest():
    drag, torque, down = aero_forces((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), _Aero(), 0.1)
    assert drag == (0.0, 0.0, 0.0)
    assert torque == (0.0, 0.0, 0.0)
    assert down == 0.0


# -- powertrain ---------------------------------------------------------------------------

def _params():
    return default_vehicle_config().powertrain


RADIUS = default_vehicle_config().suspension.wheel_radius


def test_transmission_map_hand_value():
    # 60 MPH, 0.4 m tire, combined ratio 4
    v60 = 60.0 * 1609.344 / 3600.0
    rpm = transmission_map_rpm(v60, 0.4, 4.0, 1.0)
    r_in = 0.4 / 0.0254
    oracle = 60.0 * 5280.0 * 12.0 / (60.0 * 2.0 * math.pi * r_in) * 4.0
    assert rpm == pytest.approx(oracle, rel=1e-12)
    assert rpm == pytest.approx(2561.0, abs=1.0)


@given(st.floats(-60.0, 60.0), st.floats(0.1, 1.0), st.floats(1.0, 6.0), st.floats(-6.0, 6.0))
def test_transmission_map_equals_the_mph_inch_map(speed, radius, fdr, ratio):
    """The SI map is the MPH and tire-inch map of the hand-value test."""
    v_mph = abs(speed) * 3600.0 / 1609.344
    r_in = radius / 0.0254
    oracle = v_mph * 5280.0 * 12.0 / (60.0 * 2.0 * math.pi * r_in) * fdr * abs(ratio)
    assert transmission_map_rpm(speed, radius, fdr, ratio) == pytest.approx(oracle, rel=1e-12)


def test_standstill_goes_neutral_at_idle():
    params = _params()
    pt = PowertrainState(engine_rpm=params.idle_rpm, gear=1)
    for _ in range(200):
        tau = powertrain_step(params, RADIUS, pt, 0.0, 0.0, 0.0, 0.01)
    assert pt.gear == GEAR_NEUTRAL
    assert tau == 0.0
    assert pt.engine_rpm == pytest.approx(params.idle_rpm, rel=1e-6)


def test_zero_throttle_zero_torque():
    params = _params()
    pt = PowertrainState(engine_rpm=4000.0, gear=2)
    tau = powertrain_step(params, RADIUS, pt, 0.0, 15.0, 1500.0, 0.01)
    assert tau == 0.0


def test_shift_zeroes_torque_for_shift_duration():
    params = _params()
    pt = PowertrainState(engine_rpm=3000.0, gear=1)
    # fast enough that gear 1 maps far above the upshift threshold
    tau = powertrain_step(params, RADIUS, pt, 1.0, 20.0, 1500.0, 0.01)
    assert pt.gear == 2
    assert tau == 0.0
    steps_zero = 1
    while pt.shift_timer > 0.0:
        tau = powertrain_step(params, RADIUS, pt, 1.0, 20.0, 1500.0, 0.01)
        if tau == 0.0:
            steps_zero += 1
    assert steps_zero >= int(params.shift_time / 0.01)
    tau = powertrain_step(params, RADIUS, pt, 1.0, 20.0, 1500.0, 0.01)
    assert tau > 0.0


def test_rpm_tracks_wheel_speed_target():
    params = _params()
    pt = PowertrainState(engine_rpm=params.idle_rpm, gear=2)
    ratio = params.gear_ratios[2]
    # speed/wheel RPM consistent with rolling at 20 m/s: inside gear 2's band
    speed = 20.0
    wheel_rpm = speed / RADIUS * 60.0 / (2.0 * math.pi)
    for _ in range(2000):
        powertrain_step(params, RADIUS, pt, 0.5, speed, wheel_rpm, 0.01)
    assert pt.gear == 2
    target = params.idle_rpm + wheel_rpm * params.final_drive * ratio
    assert pt.engine_rpm == pytest.approx(target, rel=1e-3)


def _zero_or(lo, hi):
    return st.one_of(st.just(0.0), st.floats(lo, hi))


# Each phase holds (throttle, speed, wheel rpm, dt) for 1-40 calls, long enough for
# shift timers to run out, so the draws reach gear 4 and every transition between
# neighbouring gears, and drop to neutral from each gear.
@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_zero_or(0.0, 1.0), _zero_or(-60.0, 60.0), _zero_or(-3000.0, 3000.0),
                          st.floats(0.001, 0.1), st.integers(1, 40)), max_size=30))
def test_the_gear_stays_in_neutral_or_a_forward_gear(phases):
    # PowertrainParams checks only neutral and gears 1..top; that suffices because
    # the policy enters no other gear and climbs from neutral one gear at a time
    params = _params()
    gears = range(GEAR_NEUTRAL, params.top_forward_gear + 1)
    pt = PowertrainState(engine_rpm=params.idle_rpm)
    for throttle, speed, wheel_rpm, dt, calls in phases:
        stopped = throttle <= 1e-3 and abs(speed) < 0.1 and abs(wheel_rpm) < 30.0
        for _ in range(calls):
            before = pt.gear
            powertrain_step(params, RADIUS, pt, throttle, speed, wheel_rpm, dt)
            assert pt.gear in gears
            # one gear per call, except the drop to neutral at standstill without throttle
            assert abs(pt.gear - before) <= 1 or (stopped and pt.gear == GEAR_NEUTRAL)


# -- torque split --------------------------------------------------------------------------

def test_split_straight_ahead_equal():
    left, right = torque_split(400.0 / 4, 0.0, 0.5)  # AWD
    assert left == right == 100.0
    left, right = torque_split(400.0 / 2, 0.0, 0.5)  # FWD or RWD
    assert left == right == 200.0


def test_split_drop_clamped_at_09():
    left, right = torque_split(400.0 / 4, 2.4, 0.5)  # drop = 1.2 -> clamp 0.9
    assert right == pytest.approx(100.0 * 0.1)
    assert left == pytest.approx(100.0)


def test_split_sum_bounded_property():
    rng = np.random.default_rng(5)
    for _ in range(300):
        tau = rng.uniform(0, 500)
        angle = rng.uniform(-0.7, 0.7)
        drop = rng.uniform(0, 2.0)
        tau_out = tau / 4.0
        left, right = torque_split(tau_out, angle, drop)
        assert left + right <= 2 * tau_out + 1e-12
        if angle == 0.0:
            assert left + right == pytest.approx(2 * tau_out)
        # drop factor stays in [0, 0.9]
        assert left >= 0.1 * tau_out - 1e-12
        assert right >= 0.1 * tau_out - 1e-12
