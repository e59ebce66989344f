"""Quaternion, rotation and pose helpers of the plant's hot path."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twinforge.se3 import (clamp, euler_zyx_from_matrix, pose_matrix, quat_from_euler_zyx,
                           quat_integrate, quat_to_matrix)

ANGLE = st.floats(-math.pi + 1e-3, math.pi - 1e-3)
PITCH = st.floats(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3)  # away from gimbal lock
UNIT = st.floats(-1.0, 1.0)
RATE = st.floats(-20.0, 20.0)


def _norm(q):
    return math.sqrt(sum(c * c for c in q))


def _unit(w, x, y, z):
    n = _norm((w, x, y, z))
    return (w / n, x / n, y / n, z / n)


@given(ANGLE, PITCH, ANGLE)
def test_euler_angles_survive_the_quaternion_and_matrix(roll, pitch, yaw):
    back = euler_zyx_from_matrix(quat_to_matrix(quat_from_euler_zyx(roll, pitch, yaw)))
    assert back == pytest.approx((roll, pitch, yaw), abs=1e-6)


@given(UNIT, UNIT, UNIT, UNIT, RATE, RATE, RATE, st.floats(1e-4, 0.1))
def test_quat_integrate_keeps_a_unit_norm(w, x, y, z, ox, oy, oz, dt):
    if _norm((w, x, y, z)) < 1e-3:
        w = 1.0
    q = _unit(w, x, y, z)
    assert _norm(quat_integrate(q, (ox, oy, oz), dt)) == pytest.approx(1.0, abs=1e-12)


@given(UNIT, UNIT, UNIT, UNIT, st.floats(1e-4, 0.1))
def test_quat_integrate_at_rest_only_renormalises(w, x, y, z, dt):
    if _norm((w, x, y, z)) < 1e-3:
        w = 1.0
    q = (2.0 * w, 2.0 * x, 2.0 * y, 2.0 * z)  # off the unit sphere
    assert quat_integrate(q, (0.0, 0.0, 0.0), dt) == pytest.approx(_unit(*q), abs=1e-15)


@pytest.mark.parametrize("yaw0, rate, dt, steps", [(0.0, 0.5, 0.01, 200), (1.0, -0.3, 0.005, 400)])
def test_a_constant_yaw_rate_advances_the_yaw_by_rate_times_time(yaw0, rate, dt, steps):
    q = quat_from_euler_zyx(0.0, 0.0, yaw0)
    for _ in range(steps):
        q = quat_integrate(q, (0.0, 0.0, rate), dt)
    roll, pitch, yaw = euler_zyx_from_matrix(quat_to_matrix(q))
    assert (roll, pitch) == pytest.approx((0.0, 0.0), abs=1e-12)
    # A step multiplies by (1, 0, 0, rate dt / 2) and renormalises: a turn of
    # 2 atan(rate dt / 2), which falls short of rate dt by about (rate dt)^3 / 12.
    assert yaw == pytest.approx(yaw0 + steps * 2.0 * math.atan(rate * dt / 2.0), abs=1e-12)
    assert yaw == pytest.approx(yaw0 + rate * dt * steps, abs=1.01 * steps * abs(rate * dt) ** 3 / 12)


@given(ANGLE, PITCH, ANGLE, st.tuples(RATE, RATE, RATE))
def test_pose_matrix_is_the_rotation_beside_the_translation(roll, pitch, yaw, t):
    m = quat_to_matrix(quat_from_euler_zyx(roll, pitch, yaw))
    pose = pose_matrix(m, t)
    assert pose.shape == (4, 4)
    np.testing.assert_array_equal(pose[:3, :3], np.reshape(m, (3, 3)))
    np.testing.assert_array_equal(pose[:3, 3], t)
    np.testing.assert_array_equal(pose[3], (0.0, 0.0, 0.0, 1.0))


FLOATS = st.floats(allow_nan=True, allow_infinity=True)


@given(FLOATS, FLOATS, FLOATS)
def test_clamp_is_min_of_max_for_every_input(x, lo, hi):
    assert repr(clamp(x, lo, hi)) == repr(min(hi, max(lo, x)))


def test_clamp_takes_a_nan_to_the_lower_bound():
    # The same as min(hi, max(lo, x)); max(lo, min(hi, x)) would give hi.
    assert clamp(math.nan, 0.0, 1.0) == 0.0
    assert max(0.0, min(1.0, math.nan)) == 1.0
