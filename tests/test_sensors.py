"""LIDAR sweeps over flat ground, where every range has a closed form."""

import functools
import math

import numpy as np
import pytest

from twinforge.environment import TerrainHeightmap, env_raycast
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
    return functools.partial(env_raycast, TerrainHeightmap.flat(height), [])


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


@pytest.mark.parametrize("r_min, r_max", [(0.5, math.inf), (0.5, 0.5), (-0.1, 80.0)])
def test_lidar_config_rejects_a_bad_range(r_min, r_max):
    with pytest.raises(ValueError, match="r_min < r_max < inf"):
        LidarConfig(r_min=r_min, r_max=r_max)
