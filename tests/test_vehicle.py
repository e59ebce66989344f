"""Integration tests for the full 6-DOF vehicle step."""

import hashlib
import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from twinforge.dynamics import SimulationFault, Vehicle, default_vehicle_config
from twinforge.dynamics.config import GEAR_NEUTRAL, GRAVITY
from twinforge.dynamics.powertrain import transmission_map_rpm
from twinforge.environment import TerrainHeightmap
from twinforge.scenarios import TerrainSpec, build_terrain
from twinforge.se3 import euler_zyx_from_matrix, quat_to_matrix

DT = 0.01


@pytest.fixture(scope="module")
def flat_terrain():
    return build_terrain(TerrainSpec("flat", length=3000.0, width=3000.0, origin_x=-500.0), 0.0)


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
        st.set_commands(0.0, 0.0)
        vehicle.step(st, flat_terrain, DT)
    assert math.hypot(*st.vel) < 1e-3
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
        st.set_commands(0.0, 0.0)
        vehicle.step(st, terrain, DT)
        speeds.append(st.vel[0])
    assert all(b >= a - 1e-12 for a, b in zip(speeds, speeds[1:]))
    # bounded by the frictionless point-mass rate
    assert 0.0 < speeds[-1] <= 9.81 * math.sin(math.radians(10.0)) * 1.0 + 1e-6


def test_step_is_bitwise_deterministic(vehicle, flat_terrain):
    def run():
        st = vehicle.spawn_state(flat_terrain, 0.0, 0.0, 0.0)
        for i in range(600):
            st.set_commands(0.8 if i < 400 else 0.0, 0.0 if i < 400 else 1.0)
            vehicle.step(st, flat_terrain, DT)
        return (tuple(st.pos), st.quat, tuple(st.vel), tuple(st.omega),
                tuple(st.wheel_omega), tuple(st.wheel_compression), st.pt.engine_rpm, st.pt.gear)

    assert run() == run()


def test_orientation_stays_orthonormal(vehicle):
    # rolling terrain turns the body about all three axes
    terrain = build_terrain(TerrainSpec("rolling"), 0.0)
    st = vehicle.spawn_state(terrain, 0.0, 0.0, 0.2)
    worst = 0.0
    for i in range(800):
        st.set_commands(0.9, 0.0)
        vehicle.step(st, terrain, DT)
        r = np.array(quat_to_matrix(st.quat)).reshape(3, 3)
        worst = max(worst, float(np.abs(r @ r.T - np.eye(3)).max()))
    assert worst < 1e-9


def test_kinetic_energy_nonincreasing_coasting(vehicle, flat_terrain):
    st = _roll_state(vehicle, flat_terrain, 10.0)
    ke = vehicle.kinetic_energy(st)
    for _ in range(1500):
        st.set_commands(0.0, 0.0)
        vehicle.step(st, flat_terrain, DT)
        ke_next = vehicle.kinetic_energy(st)
        assert ke_next <= ke + 1e-9
        ke = ke_next


def test_full_throttle_accelerates_and_shifts(vehicle, flat_terrain):
    st = vehicle.spawn_state(flat_terrain, 0.0, 0.0, 0.0)
    gears = set()
    for _ in range(2000):
        st.set_commands(1.0, 0.0)
        vehicle.step(st, flat_terrain, DT)
        gears.add(st.pt.gear)
    assert st.vel[0] > 15.0
    assert {1, 2} <= gears


def test_upshift_follows_the_suspension_wheel_radius(flat_terrain):
    cfg = default_vehicle_config()
    cfg = replace(cfg, suspension=replace(cfg.suspension, wheel_radius=0.40))
    pt = cfg.powertrain
    vehicle = Vehicle(cfg)
    st = vehicle.spawn_state(flat_terrain, 0.0, 0.0, 0.0)
    speeds = []  # forward speed at the start of each step spent in gear 1
    while st.pt.gear != 2:
        assert len(speeds) < 3000
        if st.pt.gear == 1 and st.pt.shift_timer == 0.0:
            speeds.append(st.vel[0])
        st.set_commands(1.0, 0.0)
        vehicle.step(st, flat_terrain, DT)
    rpm = [transmission_map_rpm(v, 0.40, pt.final_drive, pt.gear_ratios[1]) for v in speeds[-2:]]
    assert rpm[0] <= pt.shift_up_rpm < rpm[1]


def test_braking_stops_near_planner_model(vehicle, flat_terrain):
    st = _roll_state(vehicle, flat_terrain, 11.1)
    x0 = st.pos[0]
    steps = 0
    while math.hypot(*st.vel) > 0.05 and steps < 3000:
        st.set_commands(0.0, 1.0)
        vehicle.step(st, flat_terrain, DT)
        steps += 1
    dist = st.pos[0] - x0
    assert steps < 3000, "vehicle failed to stop"
    # the planner assumes v^2 / (2 * 6.0); the plant must land in the same regime
    assert 11.1 ** 2 / 12.0 * 0.7 < dist < 11.1 ** 2 / 12.0 * 1.5


def test_full_pedal_holds_on_slope(vehicle):
    # an 8% grade falling along +x; the low-speed hold leaves a creep of a few mm/s
    n = 301
    xs = np.arange(n) * 2.0 - 200.0
    profile = -0.08 * xs
    terrain = TerrainHeightmap(np.tile(profile, (51, 1)), 2.0, (-200.0, -51.0))
    st = vehicle.spawn_state(terrain, 0.0, 0.0, 0.0)
    for _ in range(500):
        st.set_commands(0.0, 1.0)
        vehicle.step(st, terrain, DT)
    assert math.hypot(*st.vel) < 0.05
    assert st.pt.gear == GEAR_NEUTRAL


def _total_energy(vehicle, st):
    """Kinetic + gravitational + suspension-spring energy."""
    cfg = vehicle.cfg
    e = vehicle.kinetic_energy(st) + cfg.total_mass * GRAVITY * st.pos[2]
    for w, c in zip(cfg.wheels, st.wheel_compression):
        e += 0.5 * w.spring_k * c * c
    return e


def _edge_terrain(drop):
    """Flat ground that drops by `drop` past x = 50."""
    profile = np.where(np.arange(201) * 2.0 - 100.0 < 50.0, 0.0, -drop)
    return TerrainHeightmap(np.tile(profile, (101, 1)), 2.0, (-100.0, -101.0))


def _check_cliff_landing(vehicle, drop, steps=1000):
    """Coast at 12 m/s off an edge at x = 50 where the ground drops by `drop`.

    The car reaches the edge near step 420 and lands about 30-230 steps later,
    depending on the drop. Total energy must never rise above its starting
    value (relative tolerance 1e-6), and the car must land inside the map.
    """
    terrain = _edge_terrain(drop)
    st = _roll_state(vehicle, terrain, 12.0)
    e0 = _total_energy(vehicle, st)
    airborne_seen = landed = False
    for k in range(steps):
        st.set_commands(0.0, 0.0)
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


def test_grounded_wheel_without_vertical_force_gets_no_tire_load(vehicle, monkeypatch):
    # coasting off a 0.3 m step, the spring and anti-roll forces of grounded
    # wheels sum to exactly 0.0 for a while; the tire must then see no load,
    # not the load of the step before
    from twinforge.dynamics import vehicle as vehicle_module

    calls = {"suspension_step": [], "antiroll_forces": [], "tire_forces": []}

    def recording(name):
        fn = getattr(vehicle_module, name)

        def wrapper(*args):
            out = fn(*args)
            calls[name].append(args[5] if name == "tire_forces" else out)
            return out
        return wrapper

    for name in calls:
        monkeypatch.setattr(vehicle_module, name, recording(name))
    terrain = _edge_terrain(0.3)
    st = _roll_state(vehicle, terrain, 12.0)
    unloaded = 0
    for k in range(1000):
        for c in calls.values():
            c.clear()
        st.set_commands(0.0, 0.0)
        vehicle.step(st, terrain, DT)
        vertical = [res[0] for res in calls["suspension_step"]]
        for (fl, fr), (li, ri) in zip(calls["antiroll_forces"], ((0, 1), (2, 3))):
            vertical[li] += fl
            vertical[ri] += fr
        on_ground = [i for i in range(4) if st.wheel_grounded[i]]
        for i, load in zip(on_ground, calls["tire_forces"], strict=True):
            if vertical[i] == 0.0:
                unloaded += 1
                assert load == 0.0, f"step {k}, wheel {i}: stale load {load:.1f} N"
    assert unloaded > 0


def test_one_step_makes_every_traced_call(vehicle, flat_terrain, monkeypatch):
    # The per-layer benchmark figures time these calls by wrapping the names
    # perfbench/tracing.py binds; a step that inlined one would hide its cost.
    from twinforge.dynamics import vehicle as vehicle_module

    counts = dict.fromkeys(("height_and_gradient", "suspension_step", "antiroll_forces",
                            "tire_forces", "powertrain_step", "aero_forces"), 0)

    def counting(fn, name):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    st = _roll_state(vehicle, flat_terrain, 5.0)
    st.set_commands(0.5, 0.0)
    for name in counts:
        owner = TerrainHeightmap if name == "height_and_gradient" else vehicle_module
        monkeypatch.setattr(owner, name, counting(vars(owner)[name], name))
    vehicle.step(st, flat_terrain, DT)
    assert st.wheel_grounded == [True] * 4
    assert counts == {"height_and_gradient": 4, "suspension_step": 4, "antiroll_forces": 2,
                      "tire_forces": 4, "powertrain_step": 1, "aero_forces": 1}


def test_nan_force_raises_simulation_fault(vehicle, flat_terrain):
    st = vehicle.spawn_state(flat_terrain, 0.0, 0.0, 0.0)
    st.vel[0] = float("nan")
    with pytest.raises(SimulationFault):
        vehicle.step(st, flat_terrain, DT)


def test_commands_are_clamped(vehicle):
    from twinforge.dynamics.vehicle import VehicleState
    s = VehicleState()
    s.set_commands(2.0, 1.4)
    assert s.cmd_throttle == 1.0
    assert s.cmd_brake == 1.0
    s.set_commands(-0.5, -3.0)
    assert s.cmd_throttle == 0.0
    assert s.cmd_brake == 0.0


def _plant_blob(st):
    vals = [*st.pos, *st.quat, *st.vel, *st.omega, *st.wheel_omega, *st.wheel_compression,
            st.pt.engine_rpm]
    return (struct.pack(f"<{len(vals)}d", *vals) + bytes([st.pt.gear & 0xFF])
            + bytes(int(g) for g in st.wheel_grounded))


def test_plant_trajectory_digest():
    # rough terrain, throttle, then the pedal held to the end (the car creeps at
    # 2-6 cm/s on the bumps, in neutral): paths the pinned episodes never take;
    # the digest is that of the plant that could still steer and had a drive
    # config, run with a zero steer command and AWD
    heights = np.random.default_rng(3).normal(0.0, 0.15, (101, 301))
    terrain = TerrainHeightmap(heights, 2.0, (-100.0, -100.0))
    vehicle = Vehicle(default_vehicle_config())
    st = vehicle.spawn_state(terrain, 0.0, 0.0, 0.0)
    h = hashlib.sha256()
    for k in range(1500):
        st.set_commands(0.8 if k < 700 else 0.0, 0.6 if k >= 700 else 0.0)
        vehicle.step(st, terrain, DT)
        h.update(_plant_blob(st))
    assert st.pt.gear == GEAR_NEUTRAL
    assert h.hexdigest() == "14607dc081b478a1bb9c1da8090589b1f7e288a2f521bbc288530a5b175e0c5e"


def test_cliff_trajectory_digest(vehicle):
    # the 30 m cliff of `_check_cliff_landing`: 258 steps with all four wheels in
    # the air, then a landing, so the tyre pass's airborne branch sets each spin
    terrain = _edge_terrain(30.0)
    st = _roll_state(vehicle, terrain, 12.0)
    h = hashlib.sha256()
    airborne = 0
    for _ in range(1000):
        st.set_commands(0.0, 0.0)
        vehicle.step(st, terrain, DT)
        airborne += not any(st.wheel_grounded)
        h.update(_plant_blob(st))
    assert airborne == 258 and all(st.wheel_grounded)
    assert h.hexdigest() == "aa90b16a3b52857897b253ba6dfeba70e89e823e5e6803fdd4ce69a76ddc7a5d"


def test_the_state_carries_the_matrix_of_its_quaternion(vehicle):
    # the step and origin_pose read state.rot in place of quat_to_matrix(state.quat)
    terrain = build_terrain(TerrainSpec("rolling"), 0.0)
    st = vehicle.spawn_state(terrain, 0.0, 0.0, 0.1)

    def bits(m):
        return struct.pack("<9d", *m)

    assert bits(st.rot) == bits(quat_to_matrix(st.quat))
    braked = 0
    for k in range(1500):
        st.set_commands(0.7 if k < 900 else 0.0, 0.0 if k < 900 else 1.0)
        vehicle.step(st, terrain, DT)
        assert bits(st.rot) == bits(quat_to_matrix(st.quat)), k
        assert vehicle.origin_pose(st)[0] is st.rot
        braked += st.cmd_brake > 0.0 and math.hypot(*st.vel) > 0.1
    assert braked > 100 and math.hypot(*st.vel) < 0.1


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_at_gimbal_lock_the_yaw_folds_into_the_roll(sign):
    # Rz(0) @ Ry(sign * pi / 2) @ Rx(0.3), with the exact zeros and ones of the lock
    c, s = math.cos(0.3), math.sin(0.3)
    m = (0.0, sign * s, sign * c, 0.0, c, -s, -sign, 0.0, 0.0)
    assert euler_zyx_from_matrix(m) == (math.atan2(s, c), sign * math.pi / 2, 0.0)
