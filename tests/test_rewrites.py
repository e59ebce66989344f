"""The step's rewritten formulas against the versions they replaced, which
live on here as the oracles: comparisons in place of `abs`, `max`, `min` and
`clamp`, state in locals, one `abs` per operand, constants unpacked from a
tuple. The height query's oracle is `test_environment.ref_height_and_gradient`.

Equality is bit for bit, the sign of zero and NaN included, over floats that
take in ±0.0, ±inf, NaN and each threshold the formulas compare against, with
its neighbouring floats. Where the oracle raises, the new code must raise the
same error.
"""

import math
import struct

from hypothesis import example, given, settings, strategies as st

from twinforge.dynamics import Vehicle, VehicleState, default_vehicle_config
from twinforge.dynamics.config import GEAR_NEUTRAL
from twinforge.dynamics.forces import tire_forces
from twinforge.dynamics.powertrain import (NEUTRAL_SPEED, PowertrainState, powertrain_step,
                                           transmission_map_rpm)
from twinforge.environment import TerrainHeightmap
from twinforge.scenarios import TerrainSpec, build_terrain
from twinforge.se3 import clamp, euler_zyx_from_matrix, quat_to_matrix, rotate

from test_environment import ref_height_and_gradient  # the bilinear patch's one oracle

CFG = default_vehicle_config()
EPS_V = CFG.slip_speed_guard
LON_CAP = 1234.5
GIMBAL = 1.0 - 1e-12


def _around(*values):
    """Each value, its negation and the floats either side of both."""
    out = []
    for v in values:
        for w in (v, -v):
            out += [w, math.nextafter(w, -math.inf), math.nextafter(w, math.inf)]
    return out


SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, 5e-324, 1e308]


def floats(*thresholds):
    """Any float, with the special values and the thresholds' neighbourhoods drawn often."""
    return st.one_of(st.sampled_from(SPECIAL + _around(*thresholds)), st.floats())


def bits(value):
    """The exact bits of a float, or of each float in a tuple; other values as they are."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, (tuple, list)):
        return tuple(bits(v) for v in value)
    return value


def outcome(fn, *args):
    try:
        return "ok", bits(fn(*args))
    except Exception as exc:  # the oracle's error is part of its behaviour
        return "raised", type(exc), str(exc)


# -- the oracles ---------------------------------------------------------------------------

def old_powertrain_step(params, wheel_radius, pt, throttle, speed, wheel_rpm_avg, dt):
    shifting = pt.shift_timer > 0.0
    if shifting:
        pt.shift_timer = max(0.0, pt.shift_timer - dt)

    standstill = abs(speed) < NEUTRAL_SPEED and abs(wheel_rpm_avg) < 30.0
    if not shifting:
        gear = pt.gear
        if standstill and throttle <= 1e-3:
            pt.gear = GEAR_NEUTRAL
        elif gear == GEAR_NEUTRAL:
            if throttle > 1e-3:
                pt.gear = 1
                pt.shift_timer = params.shift_time
        else:
            map_rpm = transmission_map_rpm(
                speed, wheel_radius, params.final_drive, params.gear_ratios[gear])
            if map_rpm > params.shift_up_rpm and gear < params.top_forward_gear:
                pt.gear = gear + 1
                pt.shift_timer = params.shift_time
            elif map_rpm < params.shift_down_rpm and gear > 1:
                pt.gear = gear - 1
                pt.shift_timer = params.shift_time

    ratio = params.gear_ratios[pt.gear]
    target_rpm = params.idle_rpm + abs(wheel_rpm_avg) * params.final_drive * abs(ratio)
    alpha = min(1.0, dt / params.rpm_smoothing_tau)
    pt.engine_rpm += alpha * (target_rpm - pt.engine_rpm)

    if pt.shift_timer > 0.0 or ratio == 0.0 or throttle <= 0.0:
        return 0.0
    engine_torque = params.engine_torque(pt.engine_rpm)
    boost = 1.0 + params.throttle_smoothing_gain * throttle * throttle
    return engine_torque * ratio * params.final_drive * throttle * boost


def old_tire_forces(wheel_omega, v_x, v_y, wheel_radius, spline, normal_load, eps_v,
                    lon_force_cap=math.inf):
    speed_x = abs(v_x)
    denom = speed_x if speed_x >= eps_v else eps_v
    roll = wheel_radius * wheel_omega
    rel = roll - v_x
    f_x = f_y = 0.0
    if rel != 0.0:
        taper = (abs(roll) if abs(roll) > speed_x else speed_x) / eps_v
        f_x = math.copysign(spline(abs(rel / denom)), rel) * normal_load * (
            (taper if taper < 1.0 else 1.0) if taper > 0.0 else 0.0)
        f_x = f_x if f_x > -lon_force_cap else -lon_force_cap
        f_x = f_x if f_x < lon_force_cap else lon_force_cap
    if v_y != 0.0:
        taper = (abs(v_y) if abs(v_y) > speed_x else speed_x) / eps_v
        f_y = -math.copysign(spline(abs(v_y / denom)), v_y) * normal_load * (
            (taper if taper < 1.0 else 1.0) if taper > 0.0 else 0.0)
    return f_x, f_y


def old_set_commands(throttle, brake):
    return clamp(throttle, 0.0, 1.0), clamp(brake, 0.0, 1.0)


def old_euler_zyx_from_matrix(m):
    m00, _, _, m10, _, _, m20, m21, m22 = m[0], m[1], m[2], m[3], m[4], m[5], m[6], m[7], m[8]
    sp = clamp(-m20, -1.0, 1.0)
    pitch = math.asin(sp)
    if abs(sp) < 1.0 - 1e-12:
        roll = math.atan2(m21, m22)
        yaw = math.atan2(m10, m00)
    else:
        roll = math.atan2(-m[5], m[4])
        yaw = 0.0
    return (roll, pitch, yaw)


def old_origin_shift(m, com, pos):
    shift = rotate(m, com)
    return (pos[0] - shift[0], pos[1] - shift[1], pos[2] - shift[2])


# -- new against old -----------------------------------------------------------------------

GEARS = st.integers(GEAR_NEUTRAL, CFG.powertrain.top_forward_gear)
PT = CFG.powertrain
RPM_AT_SHIFTS = [PT.shift_up_rpm, PT.shift_down_rpm]


@settings(max_examples=600, deadline=None)
@given(GEARS, floats(PT.shift_time, 0.01), floats(*RPM_AT_SHIFTS, PT.idle_rpm),
       floats(1e-3, 1.0), floats(NEUTRAL_SPEED, 20.0), floats(30.0, 1500.0),
       floats(0.01, PT.rpm_smoothing_tau))
# In gear and not shifting, each standstill test at its threshold, both signs: a
# step either way puts the gear in neutral or keeps it.
@example(1, 0.0, 3000.0, 0.0, NEUTRAL_SPEED, 0.0, 0.01)
@example(1, 0.0, 3000.0, 0.0, -NEUTRAL_SPEED, 0.0, 0.01)
@example(2, -0.0, 3000.0, 0.0, 0.0, 30.0, 0.01)
@example(2, -0.0, 3000.0, 0.0, 0.0, -30.0, 0.01)
@example(1, 0.0, 3000.0, 1e-3, 0.0, 0.0, 0.01)
@example(1, 0.01, 3000.0, 0.5, 5.0, 100.0, 0.01)  # a shift that ends
@example(1, math.nan, math.nan, math.nan, math.nan, math.nan, math.nan)
def test_powertrain_step_equals_the_oracle(gear, timer, rpm, throttle, speed, wheel_rpm, dt):
    new = PowertrainState(rpm, gear, timer)
    old = PowertrainState(rpm, gear, timer)
    r = CFG.suspension.wheel_radius
    got = outcome(powertrain_step, PT, r, new, throttle, speed, wheel_rpm, dt)
    want = outcome(old_powertrain_step, PT, r, old, throttle, speed, wheel_rpm, dt)
    assert got == want
    assert (new.gear, bits(new.shift_timer), bits(new.engine_rpm)) == \
        (old.gear, bits(old.shift_timer), bits(old.engine_rpm))


@settings(max_examples=600, deadline=None)
@given(floats(1.0, 30.0), floats(EPS_V, 1.0, 10.0), floats(EPS_V, 1.0),
       floats(CFG.suspension.wheel_radius), floats(5000.0),
       st.one_of(st.sampled_from([EPS_V, 1e-3, 0.5]), st.floats(1e-6, 10.0)),
       st.one_of(st.sampled_from(SPECIAL + _around(LON_CAP)), st.floats()))
@example(10.0, 10.0, 0.0, 0.35, 5000.0, EPS_V, math.nan)    # a NaN cap: f_x is NaN
@example(math.nan, 10.0, math.nan, 0.35, 5000.0, EPS_V, LON_CAP)  # a NaN f_x is -cap
@example(0.0, -0.0, -0.0, 0.35, 5000.0, EPS_V, math.inf)
def test_tire_forces_equals_the_oracle(omega, v_x, v_y, radius, load, eps_v, cap):
    spline = CFG.tires.__call__
    assert outcome(tire_forces, omega, v_x, v_y, radius, spline, load, eps_v, cap) == \
        outcome(old_tire_forces, omega, v_x, v_y, radius, spline, load, eps_v, cap)


@settings(max_examples=300, deadline=None)
@given(floats(1.0), floats(1.0))
def test_set_commands_equals_the_oracle(throttle, brake):
    state = VehicleState()
    state.set_commands(throttle, brake)
    assert bits((state.cmd_throttle, state.cmd_brake)) == bits(old_set_commands(throttle, brake))


ENTRY = floats(1.0, GIMBAL, 0.5)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[ENTRY] * 9))
@example((0.0, 0.3, 0.9, 0.0, 0.9, -0.3, -1.0, 0.0, 0.0))  # gimbal lock
@example((0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -GIMBAL, 0.0, 0.0))
def test_euler_zyx_from_matrix_equals_the_oracle(m):
    assert outcome(euler_zyx_from_matrix, m) == outcome(old_euler_zyx_from_matrix, m)


# On the 0.7 m grid, (max - origin) / cell rounds past the last grid index on both axes.
TERRAINS = (
    build_terrain(TerrainSpec("rolling"), 0.0),
    TerrainHeightmap([[float((3 * i + 7 * j) % 5) for i in range(31)] for j in range(23)],
                     0.7, (-7.3, 4.1)),
)


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(TERRAINS), st.data())
def test_height_and_gradient_equals_the_oracle(terrain, data):
    x0, y0, x1, y1 = terrain.bounds
    x = data.draw(st.one_of(floats(x0, x1), st.floats(x0, x1)))
    y = data.draw(st.one_of(floats(y0, y1), st.floats(y0, y1)))
    assert outcome(terrain.height_and_gradient, x, y) == outcome(ref_height_and_gradient,
                                                                 terrain, x, y)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.floats(-1.0, 1.0)] * 4), st.tuples(*[st.floats(-1e4, 1e4)] * 3))
def test_origin_pose_equals_the_oracle(q, pos):
    vehicle = Vehicle(CFG)
    state = VehicleState()
    state.rot = quat_to_matrix(q)
    state.pos = list(pos)
    m, origin = vehicle.origin_pose(state)
    assert m is state.rot
    assert bits(origin) == bits(old_origin_shift(state.rot, CFG.com, pos))
