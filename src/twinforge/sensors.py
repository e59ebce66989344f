"""Simulated sensors: INS, camera view/projection pipeline, planar and
spatial LIDAR. All of them are noise-free and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .se3 import Mat3, Vec3, euler_zyx_from_matrix


class DegenerateFrustumError(ValueError):
    pass


# -- inertial navigation -----------------------------------------------------

class InsSensor:
    """Positioning from the rigid-body pose: origin position and zyx Euler angles."""

    def read(self, pose: tuple[Mat3, Vec3]) -> tuple[Vec3, Vec3]:
        rot, origin = pose
        return origin, euler_zyx_from_matrix(rot)


# -- camera ------------------------------------------------------------------

@dataclass
class CameraConfig:
    focal_length: float = 1.732  # dimensionless: 2N/(R-L) of the projection
    sensor_size: tuple[float, float] = (36.0, 27.0)  # (s_x, s_y); aspect a = s_y / s_x
    resolution: tuple[int, int] = (640, 480)         # (W_px, H_px)
    near: float = 0.1
    far: float = 300.0
    position: tuple[float, float, float] = (1.2, 0.0, 1.4)  # body frame

    def __post_init__(self):
        if not (0.0 < self.near < self.far):
            raise DegenerateFrustumError(f"need 0 < near < far, got {self.near}, {self.far}")
        if min(self.resolution) < 1:
            raise DegenerateFrustumError("resolution must be >= 1 px")
        if self.focal_length <= 0 or min(self.sensor_size) <= 0:
            raise DegenerateFrustumError("focal length and sensor size must be > 0")

    @property
    def aspect(self) -> float:
        return self.sensor_size[1] / self.sensor_size[0]

    def frustum_offsets(self) -> tuple[float, float, float, float]:
        """(L, R, T, B) of a symmetric frustum from focal length and aspect."""
        half_w = self.near / self.focal_length
        half_h = half_w * self.aspect
        return (-half_w, half_w, half_h, -half_h)


def forward_camera_mount(position: Vec3) -> np.ndarray:
    """Body-from-camera transform for a camera looking along body +x.

    Camera axes: x right (-body y), y up (+body z), z backward (-body x).
    """
    t = np.eye(4)
    t[:3, 0] = (0.0, -1.0, 0.0)
    t[:3, 1] = (0.0, 0.0, 1.0)
    t[:3, 2] = (-1.0, 0.0, 0.0)
    t[:3, 3] = position
    return t


def forward_lidar_mount(position: Vec3) -> np.ndarray:
    """Body-from-lidar transform: sensor x along body forward, z up."""
    t = np.eye(4)
    t[:3, 3] = position
    return t


def projection_matrix(config: CameraConfig) -> np.ndarray:
    left, right, top, bottom = config.frustum_offsets()
    n, f = config.near, config.far
    if right == left or top == bottom:
        raise DegenerateFrustumError("degenerate frustum")
    p = np.zeros((4, 4))
    p[0, 0] = 2.0 * n / (right - left)
    p[0, 2] = (right + left) / (right - left)
    p[1, 1] = 2.0 * n / (top - bottom)
    p[1, 2] = (top + bottom) / (top - bottom)
    p[2, 2] = -(f + n) / (f - n)
    p[2, 3] = -2.0 * f * n / (f - n)
    p[3, 2] = -1.0
    return p


def camera_matrices(config: CameraConfig, camera_to_world: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """View matrix (world -> camera) and projection matrix."""
    r = camera_to_world[:3, :3]
    v = np.eye(4)
    v[:3, :3] = r.T
    v[:3, 3] = -r.T @ camera_to_world[:3, 3]
    return v, projection_matrix(config)


@dataclass
class BoxProjection:
    u_min: float
    v_min: float
    u_max: float
    v_max: float
    area: float
    center: tuple[float, float]


def project_box(corners_world: np.ndarray, view: np.ndarray, proj: np.ndarray,
                resolution: tuple[int, int]) -> BoxProjection | None:
    """Clipped image-space bounding box of a world-space box (8 corners).

    Returns None when every corner is behind the camera or the clipped box is
    empty.
    """
    homo = np.hstack([corners_world, np.ones((len(corners_world), 1))])
    clip = (proj @ view @ homo.T).T
    front = clip[:, 3] > 1e-12
    if not np.any(front):
        return None
    ndc = clip[front, :2] / clip[front, 3:4]
    us = (ndc[:, 0] + 1.0) * 0.5 * resolution[0]
    vs = (1.0 - ndc[:, 1]) * 0.5 * resolution[1]
    u_min = max(0.0, float(us.min()))
    v_min = max(0.0, float(vs.min()))
    u_max = min(float(resolution[0]), float(us.max()))
    v_max = min(float(resolution[1]), float(vs.max()))
    if u_max <= u_min or v_max <= v_min:
        return None
    area = (u_max - u_min) * (v_max - v_min)
    return BoxProjection(u_min, v_min, u_max, v_max, area,
                         ((u_min + u_max) / 2.0, (v_min + v_max) / 2.0))


# -- LIDAR -------------------------------------------------------------------

@dataclass
class LidarConfig:
    r_min: float = 0.5
    r_max: float = 80.0
    theta_min: float = -1.5707963267948966
    theta_max: float = 1.5707963267948966
    theta_res: float = 0.01745329251994
    position: tuple[float, float, float] = (1.3, 0.0, 1.6)  # body frame

    def __post_init__(self):
        if not (0.0 <= self.r_min < self.r_max):
            raise ValueError("need 0 <= r_min < r_max")
        if self.theta_res <= 0 or self.theta_max < self.theta_min:
            raise ValueError("bad horizontal angular range")


@dataclass
class SensorParams:
    """The sensors section of a case bundle."""
    camera: CameraConfig = field(default_factory=CameraConfig)
    lidar: LidarConfig = field(default_factory=LidarConfig)


def angle_grid(lo: float, hi: float, res: float) -> np.ndarray:
    """lo, lo + res, ... up to hi (inclusive within 1e-9 of a step)."""
    n = int(math.floor((hi - lo) / res + 1e-9)) + 1
    return lo + np.arange(n) * res


def lidar_scan_2d(config: LidarConfig, lidar_to_world: np.ndarray, raycaster) -> np.ndarray:
    """One planar sweep over the config's azimuth grid. ranges[i] is the hit
    distance of the i-th azimuth, inf when nothing is hit inside [r_min, r_max].

    raycaster(origin, direction, r_max) -> distance or None.
    """
    r = lidar_to_world[:3, :3]
    origin = lidar_to_world[:3, 3]
    thetas = angle_grid(config.theta_min, config.theta_max, config.theta_res)
    out = np.full(len(thetas), np.inf)
    for i, theta in enumerate(thetas):
        local = (math.cos(theta), math.sin(theta), 0.0)
        d = r @ local
        dist = raycaster(origin, d, config.r_max)
        if dist is not None and config.r_min <= dist <= config.r_max:
            out[i] = dist
    return out


def lidar_scan_3d(config: LidarConfig, phis: np.ndarray, lidar_to_world: np.ndarray,
                  raycaster) -> np.ndarray:
    """Spatial scan: the config's azimuth grid at each elevation in phis.
    Sensor-frame hit points (channels, rays, 3), row-major
    channel-then-azimuth, with NaN triplets for misses."""
    r = lidar_to_world[:3, :3]
    origin = lidar_to_world[:3, 3]
    thetas = angle_grid(config.theta_min, config.theta_max, config.theta_res)
    points = np.full((len(phis), len(thetas), 3), np.nan)
    for ci, phi in enumerate(phis):
        cp, sp = math.cos(phi), math.sin(phi)
        for ri, theta in enumerate(thetas):
            local = (math.cos(theta) * cp, math.sin(theta) * cp, -sp)
            d = r @ local
            dist = raycaster(origin, d, config.r_max)
            if dist is not None and config.r_min <= dist <= config.r_max:
                points[ci, ri, 0] = local[0] * dist
                points[ci, ri, 1] = local[1] * dist
                points[ci, ri, 2] = local[2] * dist
    return points


def point_cloud_ascii(points: np.ndarray) -> str:
    """Debug dump: one 'x y z' line per hit, 6 decimals."""
    flat = points.reshape(-1, 3)
    keep = ~np.isnan(flat[:, 0])
    return "\n".join("%.6f %.6f %.6f" % tuple(p) for p in flat[keep])
