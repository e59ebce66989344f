"""Scalar quaternion / rotation helpers for the fixed-timestep hot path.

Everything here works on plain floats and tuples so that the per-step
integration loop never touches numpy (array construction overhead dominates
at 3-vector sizes); only pose_matrix builds a numpy 4x4, for the camera and
LIDAR. Quaternions are (w, x, y, z); rotation matrices are row-major 9-tuples.
The plant builds one matrix per step and keeps it on the vehicle state beside
its quaternion, for the step, the pose and the sensors to share.
"""

from __future__ import annotations

import math

import numpy as np

Vec3 = tuple[float, float, float]
Quat = tuple[float, float, float, float]
Mat3 = tuple[float, float, float, float, float, float, float, float, float]


def quat_integrate(q: Quat, omega: Vec3, dt: float) -> Quat:
    """Advance q by body angular velocity omega over dt, renormalized."""
    w, x, y, z = q
    ox, oy, oz = omega
    hw = -0.5 * dt * (x * ox + y * oy + z * oz)
    hx = 0.5 * dt * (w * ox + y * oz - z * oy)
    hy = 0.5 * dt * (w * oy + z * ox - x * oz)
    hz = 0.5 * dt * (w * oz + x * oy - y * ox)
    w, x, y, z = w + hw, x + hx, y + hy, z + hz
    inv = 1.0 / math.sqrt(w * w + x * x + y * y + z * z)
    return (w * inv, x * inv, y * inv, z * inv)


def quat_to_matrix(q: Quat) -> Mat3:
    w, x, y, z = q
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    return (
        1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy),
        2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx),
        2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy),
    )


def rotate(m: Mat3, v: Vec3) -> Vec3:
    """R * v (body -> world when m is the body orientation)."""
    x, y, z = v
    return (
        m[0] * x + m[1] * y + m[2] * z,
        m[3] * x + m[4] * y + m[5] * z,
        m[6] * x + m[7] * y + m[8] * z,
    )


def clamp(x: float, lo: float, hi: float) -> float:
    """min(hi, max(lo, x)) as two comparisons, without the builtin calls:
    the same result for every input, and the same as max(lo, min(hi, x))
    for every input but NaN."""
    x = x if x > lo else lo
    return x if x < hi else hi


def euler_zyx_from_matrix(m: Mat3) -> Vec3:
    """(roll, pitch, yaw) for R = Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    m00, _, _, m10, m11, m12, m20, m21, m22 = m
    sp = -m20  # clamped to [-1, 1] as `clamp` does it, written out
    sp = sp if sp > -1.0 else -1.0
    sp = sp if sp < 1.0 else 1.0
    pitch = math.asin(sp)
    if abs(sp) < 1.0 - 1e-12:
        roll = math.atan2(m21, m22)
        yaw = math.atan2(m10, m00)
    else:
        # Gimbal lock: yaw is unobservable, fold it into roll.
        roll = math.atan2(-m12, m11)
        yaw = 0.0
    return (roll, pitch, yaw)


def quat_from_euler_zyx(roll: float, pitch: float, yaw: float) -> Quat:
    cr, sr = math.cos(0.5 * roll), math.sin(0.5 * roll)
    cp, sp = math.cos(0.5 * pitch), math.sin(0.5 * pitch)
    cy, sy = math.cos(0.5 * yaw), math.sin(0.5 * yaw)
    return (
        cy * cp * cr + sy * sp * sr,
        cy * cp * sr - sy * sp * cr,
        cy * sp * cr + sy * cp * sr,
        sy * cp * cr - cy * sp * sr,
    )


def pose_matrix(m: Mat3, pos: Vec3) -> np.ndarray:
    """Homogeneous 4x4 world-from-body transform as a numpy array."""
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
    x, y, z = pos
    return np.array(((m0, m1, m2, x), (m3, m4, m5, y), (m6, m7, m8, z), (0.0, 0.0, 0.0, 1.0)))
