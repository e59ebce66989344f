"""LIDAR sweeps over flat ground, where every range has a closed form, the
batched ray rotation against the per-row product it replaced, and a stack of
sweep poses against each pose cast alone."""

import functools
import math
import re

import numpy as np
import pytest

from twinforge.documents import ConfigurationError
from twinforge.environment import Obstacle, TerrainHeightmap, env_raycast
from twinforge.scenarios import TerrainSpec, build_terrain
from twinforge.se3 import quat_to_matrix
from twinforge.sensors import LidarConfig, angle_grid, lidar_scan_2d, lidar_scan_3d

HEIGHT = 1.6


def _lidar_to_world(pitch_down: float, z: float = HEIGHT) -> np.ndarray:
    """A sensor at (0, 0, z) looking along +x, pitched down by pitch_down."""
    c, s = math.cos(pitch_down), math.sin(pitch_down)
    t = np.eye(4)
    t[:3, :3] = ((c, 0.0, s), (0.0, 1.0, 0.0), (-s, 0.0, c))
    t[2, 3] = z
    return t


def _flat(height: float = 0.0):
    ground = TerrainSpec("flat", length=200.0, width=200.0, origin_x=-100.0, height=height)
    return functools.partial(env_raycast, build_terrain(ground, 0.0), [])


@pytest.mark.parametrize("phi", [0.05, 0.2, 0.6, 1.2])
def test_scan_2d_on_flat_ground_is_height_over_sine(phi):
    ahead = LidarConfig(theta_min=0.0, theta_max=0.0)
    (r,) = lidar_scan_2d(ahead, _lidar_to_world(phi), _flat())
    assert abs(r - HEIGHT / math.sin(phi)) <= 1e-6


def test_scan_2d_sweep_on_flat_ground():
    """Azimuth theta of a sweep pitched down by phi falls at slope
    sin(phi)·cos(theta); past r_max it reads inf."""
    config, phi = LidarConfig(), 0.1
    ranges = lidar_scan_2d(config, _lidar_to_world(phi), _flat())
    thetas = angle_grid(config.theta_min, config.theta_max, config.theta_res)
    assert ranges.shape == thetas.shape
    expected = HEIGHT / (math.sin(phi) * np.cos(thetas))
    inside = expected < config.r_max - 1.0
    assert inside.sum() > 100
    assert np.all(np.abs(ranges[inside] - expected[inside]) <= 1e-6)
    assert np.all(np.isinf(ranges[expected > config.r_max + 1.0]))


def test_scan_2d_below_the_surface_reads_inf():
    """Every ray hits at distance 0, which is below r_min."""
    ranges = lidar_scan_2d(LidarConfig(), _lidar_to_world(0.1), _flat(height=5.0))
    assert len(ranges) == 181
    assert np.all(np.isinf(ranges))


def test_scan_3d_has_nan_triplets_exactly_at_the_misses():
    config = LidarConfig(theta_min=-0.6, theta_max=0.6, theta_res=0.05)
    phis = angle_grid(-0.3, 0.3, 0.05)  # positive elevation looks down
    raycast = _flat()
    points = lidar_scan_3d(config, phis, _lidar_to_world(0.0), raycast)
    thetas = angle_grid(config.theta_min, config.theta_max, config.theta_res)
    assert points.shape == (len(phis), len(thetas), 3)
    miss = np.isnan(points)
    assert np.array_equal(miss, np.repeat(miss[..., :1], 3, axis=2))
    expected_hit = np.array([[math.sin(phi) > HEIGHT / config.r_max for _ in thetas]
                             for phi in phis])
    assert np.array_equal(~miss[..., 0], expected_hit)
    assert 0 < expected_hit.sum() < expected_hit.size
    # Hits lie on the ground, HEIGHT below the level sensor.
    assert np.all(np.abs(points[expected_hit][:, 2] + HEIGHT) <= 1e-6)


@pytest.mark.parametrize("r_min, r_max, error", [
    (0.5, math.inf, "LidarConfig.r_max must be a finite number > 0, got inf"),
    (0.5, 0.5,
     "need r_min < r_max and theta_min <= theta_max, got LidarConfig(r_min=0.5, r_max=0.5,"),
    (-0.1, 80.0, "LidarConfig.r_min must be a finite number >= 0, got -0.1"),
], ids=["0.5-inf", "0.5-0.5", "-0.1-80.0"])
def test_lidar_config_rejects_a_bad_range(r_min, r_max, error):
    with pytest.raises(ConfigurationError, match=re.escape(error)):
        LidarConfig(r_min=r_min, r_max=r_max)


def _random_pose(rng) -> np.ndarray:
    q = rng.normal(size=4)
    t = np.eye(4)
    t[:3, :3] = np.reshape(quat_to_matrix(tuple((q / np.linalg.norm(q)).tolist())), (3, 3))
    t[:3, 3] = rng.uniform(-50.0, 50.0, 3)
    return t


def _cast_by(scan, *args) -> tuple[np.ndarray, np.ndarray]:
    """The origins, broadcast to one per ray, and the directions a scan hands its raycaster."""
    seen = []

    def raycaster(origins, directions, r_max):
        seen.append((np.broadcast_to(origins, directions.shape).copy(), directions.copy()))
        return np.full(len(directions), np.inf)

    scan(*args, raycaster)
    return seen[0]


@pytest.mark.parametrize("cast", ["2d", "3d", "2d-stack"])
def test_batched_rotation_equals_the_per_row_product(cast):
    """Every direction equals `r @ v` for its unit ray v, bit for bit; a stack
    of 5 poses casts each pose's rays in turn, each from its pose's origin."""
    planar = cast != "3d"
    config = LidarConfig() if planar else LidarConfig(theta_min=-0.6, theta_max=0.6, theta_res=0.05)
    thetas = angle_grid(config.theta_min, config.theta_max, config.theta_res)
    phis = angle_grid(-0.3, 0.3, 0.05)
    if planar:
        local = np.array([(math.cos(t), math.sin(t), 0.0) for t in thetas])
    else:
        local = np.array([(math.cos(t) * math.cos(p), math.sin(t) * math.cos(p), -math.sin(p))
                          for p in phis for t in thetas])
    rng = np.random.default_rng(5)
    for _ in range({"2d": 300, "3d": 100, "2d-stack": 60}[cast]):
        poses = [_random_pose(rng) for _ in range(5 if cast == "2d-stack" else 1)]
        if cast == "3d":
            origins, dirs = _cast_by(lidar_scan_3d, config, phis, poses[0])
        else:
            origins, dirs = _cast_by(lidar_scan_2d, config, poses[0] if cast == "2d" else np.array(poses))
        assert np.array_equal(dirs, np.array([p[:3, :3] @ v for p in poses for v in local]))
        assert np.array_equal(origins, np.array([p[:3, 3] for p in poses for _ in local]))
        if cast == "2d":  # the planar sweep is the spatial cast at elevation 0
            assert np.array_equal(dirs, _cast_by(lidar_scan_3d, config, [0.0], poses[0])[1])


def test_a_stack_of_poses_scans_as_each_pose_alone():
    """lidar_scan_2d over a stack of 5 poses gives the 5 single-pose sweeps, bit
    for bit, over bumpy terrain and a box."""
    rng = np.random.default_rng(6)
    terrain = TerrainHeightmap(rng.normal(0.0, 1.5, (51, 51)), 2.0, (-50.0, -50.0))
    box = Obstacle("box0", "rock", (2.0, 3.0, 2.0), (5.0, 4.0, 1.0), yaw=0.4)
    raycast = functools.partial(env_raycast, terrain, [box])
    poses = [_random_pose(rng) for _ in range(5)]
    for pose in poses:
        pose[:3, 3] = (*rng.uniform(-10.0, 10.0, 2), rng.uniform(3.0, 6.0))
    stacked = lidar_scan_2d(LidarConfig(), np.array(poses), raycast)
    alone = [lidar_scan_2d(LidarConfig(), pose, raycast) for pose in poses]
    assert stacked.shape == (5, 181)
    assert np.array_equal(stacked, np.array(alone))
    assert 100 < np.isfinite(stacked).sum() < stacked.size
