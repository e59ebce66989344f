"""Simulated sensors: INS, camera view/projection pipeline, planar and
spatial LIDAR. All of them are noise-free and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .documents import ConfigurationError, Count, Finite, NonNegative, Positive, Section
from .se3 import Mat3, Vec3, euler_zyx_from_matrix, pose_matrix


# -- inertial navigation -----------------------------------------------------

class InsSensor:
    """Positioning from the rigid-body pose: origin position and zyx Euler angles."""

    def read(self, pose: tuple[Mat3, Vec3]) -> tuple[Vec3, Vec3]:
        rot, origin = pose
        return origin, euler_zyx_from_matrix(rot)


# -- camera ------------------------------------------------------------------

@dataclass
class CameraConfig(Section):
    focal_length: Positive = 1.732  # cot of half the horizontal field of view
    sensor_size: tuple[Positive, Positive] = (36.0, 27.0)  # (s_x, s_y); aspect a = s_y / s_x
    resolution: tuple[Count, Count] = (640, 480)           # (W_px, H_px)
    position: tuple[Finite, Finite, Finite] = (1.2, 0.0, 1.4)  # body frame


def forward_camera_mount(position: Vec3) -> np.ndarray:
    """Body-from-camera transform for a camera looking along body +x.

    Camera axes: x right (-body y), y up (+body z), z backward (-body x).
    """
    return pose_matrix((0.0, 0.0, -1.0, -1.0, 0.0, 0.0, 0.0, 1.0, 0.0), position)


def forward_lidar_mount(position: Vec3) -> np.ndarray:
    """Body-from-lidar transform: sensor x along body forward, z up."""
    return pose_matrix((1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0), position)


def projection_matrix(config: CameraConfig) -> np.ndarray:
    """Perspective projection of a symmetric frustum. `project_box` reads only
    the x, y and w rows of its image, so the depth row (near and far planes)
    stays zero."""
    p = np.zeros((4, 4))
    p[0, 0] = config.focal_length
    p[1, 1] = config.focal_length / (config.sensor_size[1] / config.sensor_size[0])
    p[3, 2] = -1.0
    return p


def camera_matrices(camera_to_world: np.ndarray) -> np.ndarray:
    """View matrix (world -> camera)."""
    r = camera_to_world[:3, :3]
    v = np.eye(4)
    v[:3, :3] = r.T
    v[:3, 3] = -r.T @ camera_to_world[:3, 3]
    return v


def project_box(corners_homo: np.ndarray, view: np.ndarray, proj: np.ndarray,
                resolution: tuple[int, int]) -> float | None:
    """Area in px^2 of the clipped image-space bounding box of a world-space
    box, given as its homogeneous corners (4, 8) (`Obstacle.corners_3d`).

    Returns None when every corner is behind the camera or the clipped box is
    empty.
    """
    xs, ys, _, ws = (proj @ view @ corners_homo).tolist()
    front = [(x / w, y / w) for x, y, w in zip(xs, ys, ws) if w > 1e-12]
    if not front:
        return None
    # The pixel maps are monotonic, also in rounding, so the extreme pixels
    # are the maps of the extreme NDC coordinates.
    nx, ny = zip(*front)
    w, h = resolution
    u_min = max(0.0, (min(nx) + 1.0) * 0.5 * w)
    v_min = max(0.0, (1.0 - max(ny)) * 0.5 * h)
    u_max = min(float(w), (max(nx) + 1.0) * 0.5 * w)
    v_max = min(float(h), (1.0 - min(ny)) * 0.5 * h)
    if u_max <= u_min or v_max <= v_min:
        return None
    return (u_max - u_min) * (v_max - v_min)


# -- LIDAR -------------------------------------------------------------------

@dataclass(frozen=True)
class LidarConfig(Section):
    r_min: NonNegative = 0.5
    r_max: Positive = 80.0
    theta_min: Finite = -1.5707963267948966
    theta_max: Finite = 1.5707963267948966
    theta_res: Positive = 0.01745329251994
    position: tuple[Finite, Finite, Finite] = (1.3, 0.0, 1.6)  # body frame

    def __post_init__(self):
        super().__post_init__()
        if not (self.r_min < self.r_max and self.theta_min <= self.theta_max):
            raise ConfigurationError(f"need r_min < r_max and theta_min <= theta_max, got {self}")


@dataclass
class SensorParams:
    """The sensors section of a case bundle."""
    camera: CameraConfig = field(default_factory=CameraConfig)
    lidar: LidarConfig = field(default_factory=LidarConfig)


def angle_grid(lo: float, hi: float, res: float) -> np.ndarray:
    """lo, lo + res, ... up to hi (inclusive within 1e-9 of a step)."""
    n = int(math.floor((hi - lo) / res + 1e-9)) + 1
    return lo + np.arange(n) * res


def _unit_rays(config: LidarConfig, phis) -> np.ndarray:
    """Sensor-frame unit rays (n, 3) of the config's azimuth grid at each
    elevation in phis (channel, then azimuth); the planar sweep is the one at
    elevation 0. Built for each cast; a cast holds a whole batch of sweeps."""
    thetas = angle_grid(config.theta_min, config.theta_max, config.theta_res)
    return np.array([(math.cos(t) * math.cos(p), math.sin(t) * math.cos(p), -math.sin(p))
                     for p in phis for t in thetas])


def _cast(config: LidarConfig, lidar_to_world: np.ndarray, local: np.ndarray,
          raycaster) -> np.ndarray:
    """Distances along the sensor-frame unit rays local (n, 3) from a pose (4, 4), (n,), or each
    of a stack (S, 4, 4), (S, n), in one raycaster call; inf where nothing is hit inside [r_min, r_max]."""
    poses = np.reshape(lidar_to_world, (-1, 4, 4))
    # One matrix-vector product per row, as `r @ v` computes it; `local @ r.T`
    # sums in another order and differs in the last bit.
    dirs = np.concatenate([np.matmul(p[:3, :3], local[:, :, None])[:, :, 0] for p in poses])
    dist = raycaster(np.repeat(poses[:, :3, 3], len(local), axis=0), dirs, config.r_max)
    dist = np.where((config.r_min <= dist) & (dist <= config.r_max), dist, np.inf)
    return dist.reshape(np.shape(lidar_to_world)[:-2] + (len(local),))


def lidar_scan_2d(config: LidarConfig, lidar_to_world: np.ndarray, raycaster) -> np.ndarray:
    """Planar sweeps over the config's azimuth grid from a pose (4, 4) or a stack (S, 4, 4): the
    spatial cast at elevation 0, as one batch. ranges[..., i] is the i-th azimuth's hit distance,
    inf when nothing is hit inside [r_min, r_max].

    raycaster(origins (n, 3) or (3,), directions (n, 3), r_max) -> (n,) distances, inf for a miss.
    """
    return _cast(config, lidar_to_world, _unit_rays(config, (0.0,)), raycaster)


def lidar_scan_3d(config: LidarConfig, phis: np.ndarray, lidar_to_world: np.ndarray,
                  raycaster) -> np.ndarray:
    """Spatial scan: the config's azimuth grid at each elevation in phis, cast
    as one batch (see `lidar_scan_2d`). Sensor-frame hit points
    (channels, rays, 3), row-major channel-then-azimuth, with NaN triplets
    for misses: a miss is an inf range, and NaN only in the points, since
    0 * inf is an invalid operation."""
    local = _unit_rays(config, phis)
    dist = _cast(config, lidar_to_world, local, raycaster)
    return (local * np.where(np.isinf(dist), np.nan, dist)[:, None]).reshape(len(phis), -1, 3)


def point_cloud_ascii(points: np.ndarray) -> str:
    """Debug dump: one 'x y z' line per hit, 6 decimals."""
    flat = points.reshape(-1, 3)
    keep = ~np.isnan(flat[:, 0])
    return "\n".join("%.6f %.6f %.6f" % tuple(p) for p in flat[keep])
