"""Integration tests for the full 6-DOF vehicle step."""

import math

import numpy as np
import pytest

from twinforge.dynamics import SimulationFault, Vehicle, default_vehicle_config
from twinforge.dynamics.config import GRAVITY
from twinforge.environment import TerrainHeightmap

DT = 0.01


@pytest.fixture(scope="module")
def flat_terrain():
    return TerrainHeightmap.flat(0.0, size=3000.0, cell=2.0, origin=(-500.0, -1500.0))


@pytest.fixture()
def vehicle():
    return Vehicle(default_vehicle_config())


def _roll_state(vehicle, terrain, speed):
    st = vehicle.spawn_state(terrain, 0.0, 0.0, 0.0)
    st.vel[0] = speed
    r = vehicle.cfg.suspension.wheel_radius
    for i in range(4):
        st.wheel_omega[i] = speed / r
    return st


def test_rest_on_flat_terrain_stays_put(vehicle, flat_terrain):
    st = vehicle.spawn_state(flat_terrain, 0.0, 0.0, 0.0)
    for _ in range(1000):
        st.set_commands(0.0, 0.0, 0.0, 0.0)
        vehicle.step(st, flat_terrain, DT)
    assert st.speed < 1e-3
    assert abs(st.pos[0]) < 0.02 and abs(st.pos[1]) < 0.01


def test_slope_rolls_downhill_monotonically(vehicle):
    # 10 degree downhill along +x, no throttle/brake
    n = 601
    xs = np.arange(n) * 2.0 - 200.0
    profile = -math.tan(math.radians(10.0)) * xs
    terrain = TerrainHeightmap(np.tile(profile, (51, 1)), 2.0, (-200.0, -51.0))
    st = vehicle.spawn_state(terrain, 0.0, 0.0, 0.0)
    speeds = []
    for _ in range(100):
        st.set_commands(0.0, 0.0, 0.0, 0.0)
        vehicle.step(st, terrain, DT)
        speeds.append(st.forward_speed)
    assert all(b >= a - 1e-12 for a, b in zip(speeds, speeds[1:]))
    # bounded by the frictionless point-mass rate
    assert 0.0 < speeds[-1] <= 9.81 * math.sin(math.radians(10.0)) * 1.0 + 1e-6


def test_step_is_bitwise_deterministic(vehicle, flat_terrain):
    def run():
        st = vehicle.spawn_state(flat_terrain, 0.0, 0.0, 0.0)
        for i in range(600):
            st.set_commands(0.8 if i < 400 else 0.0, 0.05, 0.0 if i < 400 else 1.0, 0.0)
            vehicle.step(st, flat_terrain, DT)
        return (tuple(st.pos), st.quat, tuple(st.vel), tuple(st.omega),
                tuple(st.wheel_omega), tuple(st.wheel_z), st.pt.engine_rpm, st.pt.gear)

    assert run() == run()


def test_orientation_stays_orthonormal(vehicle, flat_terrain):
    st = vehicle.spawn_state(flat_terrain, 0.0, 0.0, 0.2)
    worst = 0.0
    for i in range(800):
        st.set_commands(0.9, 0.4 * math.sin(i * 0.02), 0.0, 0.0)
        vehicle.step(st, flat_terrain, DT)
        r = np.array(st.rotation_matrix()).reshape(3, 3)
        worst = max(worst, float(np.abs(r @ r.T - np.eye(3)).max()))
    assert worst < 1e-9


def test_kinetic_energy_nonincreasing_coasting(vehicle, flat_terrain):
    st = _roll_state(vehicle, flat_terrain, 10.0)
    ke = vehicle.kinetic_energy(st)
    for _ in range(1500):
        st.set_commands(0.0, 0.0, 0.0, 0.0)
        vehicle.step(st, flat_terrain, DT)
        ke_next = vehicle.kinetic_energy(st)
        assert ke_next <= ke + 1e-9
        ke = ke_next


def test_full_throttle_accelerates_and_shifts(vehicle, flat_terrain):
    st = vehicle.spawn_state(flat_terrain, 0.0, 0.0, 0.0)
    gears = set()
    for _ in range(2000):
        st.set_commands(1.0, 0.0, 0.0, 0.0)
        vehicle.step(st, flat_terrain, DT)
        gears.add(st.pt.gear)
    assert st.forward_speed > 15.0
    assert {1, 2} <= gears


def test_braking_stops_near_planner_model(vehicle, flat_terrain):
    st = _roll_state(vehicle, flat_terrain, 11.1)
    x0 = st.pos[0]
    steps = 0
    while st.speed > 0.05 and steps < 3000:
        st.set_commands(0.0, 0.0, 1.0, 0.0)
        vehicle.step(st, flat_terrain, DT)
        steps += 1
    dist = st.pos[0] - x0
    assert steps < 3000, "vehicle failed to stop"
    # the planner assumes v^2 / (2 * 6.0); the plant must land in the same regime
    assert 11.1 ** 2 / 12.0 * 0.7 < dist < 11.1 ** 2 / 12.0 * 1.5


def test_handbrake_holds_on_slope(vehicle):
    n = 301
    xs = np.arange(n) * 2.0 - 200.0
    profile = -0.08 * xs
    terrain = TerrainHeightmap(np.tile(profile, (51, 1)), 2.0, (-200.0, -51.0))
    st = vehicle.spawn_state(terrain, 0.0, 0.0, 0.0)
    for _ in range(500):
        st.set_commands(0.0, 0.0, 0.0, 1.0)
        vehicle.step(st, terrain, DT)
    assert st.speed < 0.05
    assert st.pt.gear == -2  # parked


def _total_energy(vehicle, st):
    """Kinetic + gravitational + suspension-spring energy."""
    cfg = vehicle.cfg
    e = vehicle.kinetic_energy(st) + cfg.total_mass * GRAVITY * st.pos[2]
    for w, c in zip(cfg.wheels, st.wheel_compression):
        e += 0.5 * w.spring_k * c * c
    return e


def _check_cliff_landing(vehicle, drop, steps=1000):
    """Coast at 12 m/s off an edge at x = 50 where the ground drops by `drop`.

    The car reaches the edge near step 420 and lands about 30-230 steps later,
    depending on the drop. Total energy must never rise above its starting
    value (relative tolerance 1e-6), and the car must land inside the map.
    """
    n = 201
    profile = np.where(np.arange(n) * 2.0 - 100.0 < 50.0, 0.0, -drop)
    terrain = TerrainHeightmap(np.tile(profile, (101, 1)), 2.0, (-100.0, -101.0))
    st = _roll_state(vehicle, terrain, 12.0)
    e0 = _total_energy(vehicle, st)
    airborne_seen = landed = False
    for k in range(steps):
        st.set_commands(0.0, 0.0, 0.0, 0.0)
        vehicle.step(st, terrain, DT)
        if not any(st.wheel_grounded):
            airborne_seen = True
        elif airborne_seen:
            landed = True
        e = _total_energy(vehicle, st)
        assert e <= e0 + 1e-6 * abs(e0), f"step {k}: energy rose {e - e0:.1f} J above start"
    assert airborne_seen
    assert landed
    assert terrain.contains(st.pos[0], st.pos[1])


def test_airborne_wheels_do_not_crash(vehicle):
    # drive off a cliff edge: heights drop 30 m past x = 50
    _check_cliff_landing(vehicle, 30.0)


@pytest.mark.parametrize("drop", [2.0, 10.0])
def test_cliff_landing_does_not_create_energy(vehicle, drop):
    # shallower drops touch down at other pitches (about 30 and 85 degrees nose-down)
    _check_cliff_landing(vehicle, drop)


def test_nan_force_raises_simulation_fault(vehicle, flat_terrain):
    st = vehicle.spawn_state(flat_terrain, 0.0, 0.0, 0.0)
    st.vel[0] = float("nan")
    with pytest.raises(SimulationFault):
        vehicle.step(st, flat_terrain, DT)


def test_commands_are_clamped(vehicle):
    from twinforge.dynamics.vehicle import VehicleState
    s = VehicleState()
    s.set_commands(2.0, -3.0, 1.4, 0.7)
    assert s.cmd_throttle == 1.0
    assert s.cmd_steer == -1.0
    assert s.cmd_brake == 1.0
    assert s.cmd_handbrake == 1.0


def test_steering_angle_never_exceeds_limit(vehicle, flat_terrain):
    st = vehicle.spawn_state(flat_terrain, 0.0, 0.0, 0.0)
    limit = vehicle.cfg.steering.limit
    for _ in range(600):
        st.set_commands(0.5, 1.0, 0.0, 0.0)
        vehicle.step(st, flat_terrain, DT)
        assert abs(st.steer_angle) <= limit + 1e-12
    assert st.steer_angle == pytest.approx(limit)
