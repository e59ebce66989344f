"""Vehicle state and the fixed-timestep 6-DOF integration step.

The step is a pure function of (state, commands, config, terrain, dt): identical
inputs produce bit-identical state. Translation/rotation are integrated about
the center of mass with semi-implicit Euler and wheel spin integrates alongside;
each wheel's suspension is a kinematic point contact (see `suspension_step`).
All hot-path math is plain-float (see se3.py).
"""

from __future__ import annotations

import math

from ..se3 import Mat3, Vec3, clamp, quat_from_euler_zyx, quat_integrate, quat_to_matrix, rotate
from .config import GRAVITY, VehicleConfig
from .forces import aero_forces, antiroll_forces, suspension_step, tire_forces, wheel_brake_torques
from .forces import steering_step  # noqa: F401  a binding perfbench/tracing.py wraps
from .powertrain import PowertrainState, powertrain_step
from .powertrain import torque_split  # noqa: F401  a binding perfbench/tracing.py wraps


RPM_PER_RAD_S = 60.0 / (2.0 * math.pi)


class SimulationFault(RuntimeError):
    """Non-finite quantity reached the integrator; the episode must abort."""


class VehicleState:
    """The plant's state. `rot` is `quat_to_matrix(quat)`, set with `quat` by
    `spawn_state` and `Vehicle.step` and read by the step and `origin_pose`."""

    __slots__ = (
        "pos", "quat", "rot", "vel", "omega",
        "wheel_omega", "wheel_compression", "wheel_grounded",
        "pt", "cmd_throttle", "cmd_brake",
    )

    def __init__(self):
        self.pos = [0.0, 0.0, 0.0]        # world COM position
        self.quat = (1.0, 0.0, 0.0, 0.0)  # world-from-body
        self.rot = quat_to_matrix(self.quat)
        self.vel = [0.0, 0.0, 0.0]        # body-frame COM velocity
        self.omega = [0.0, 0.0, 0.0]      # body-frame angular velocity
        self.wheel_omega = [0.0] * 4      # spin, rad/s, positive rolling forward (FL FR RL RR)
        self.wheel_compression = [0.0] * 4
        self.wheel_grounded = [True] * 4
        self.pt = PowertrainState(engine_rpm=0.0)
        self.cmd_throttle = 0.0
        self.cmd_brake = 0.0

    def set_commands(self, throttle: float, brake: float) -> None:
        self.cmd_throttle = clamp(throttle, 0.0, 1.0)
        self.cmd_brake = clamp(brake, 0.0, 1.0)

    @property
    def speed(self) -> float:
        vx, vy, vz = self.vel
        return math.sqrt(vx * vx + vy * vy + vz * vz)

    @property
    def forward_speed(self) -> float:
        return self.vel[0]


class Vehicle:
    def __init__(self, config: VehicleConfig):
        self.cfg = config
        self.corner_masses = tuple(w.corner_mass for w in config.wheels)
        self.corners = tuple(map(tuple, config.wheels))  # plain tuples unpack faster than NamedTuples

    # -- construction ------------------------------------------------------

    def spawn_state(self, terrain, x: float, y: float, yaw: float) -> VehicleState:
        """State at static ride height, attitude conformal to the local slope."""
        cfg = self.cfg
        st = VehicleState()
        cy, sy = math.cos(yaw), math.sin(yaw)
        ground, gx, gy = terrain.height_and_gradient(x, y)
        slope_fwd = gx * cy + gy * sy
        slope_lat = -gx * sy + gy * cy
        pitch = -math.atan(slope_fwd)
        roll = math.atan(slope_lat)
        st.quat = quat_from_euler_zyx(roll, pitch, yaw)
        wn = cfg.suspension.natural_frequency
        static_comp = GRAVITY / (wn * wn)
        mount_z_body = cfg.wheel_mounts["FL"][2]
        strut = cfg.suspension.wheel_radius + cfg.suspension.rest_length - static_comp
        origin_z = ground + strut * math.cos(pitch) * math.cos(roll) - mount_z_body
        com = cfg.com
        m = st.rot = quat_to_matrix(st.quat)
        com_w = rotate(m, com)
        st.pos = [x + com_w[0], y + com_w[1], origin_z + com_w[2]]
        st.wheel_compression = [static_comp] * 4
        st.pt.engine_rpm = cfg.powertrain.idle_rpm
        return st

    def origin_pose(self, state: VehicleState) -> tuple[Mat3, Vec3]:
        """The state's world-from-body matrix and the world position of the config origin."""
        m = state.rot
        shift = rotate(m, self.cfg.com)
        px, py, pz = state.pos
        return m, (px - shift[0], py - shift[1], pz - shift[2])

    def kinetic_energy(self, state: VehicleState) -> float:
        """Body translational + rotational KE plus wheel spin KE."""
        vx, vy, vz = state.vel
        ox, oy, oz = state.omega
        ix, iy, iz = self.cfg.inertia
        ke = 0.5 * self.cfg.total_mass * (vx * vx + vy * vy + vz * vz) + 0.5 * (
            ix * ox * ox + iy * oy * oy + iz * oz * oz)
        for w in state.wheel_omega:
            ke += 0.5 * self.cfg.wheel_inertia * w * w
        return ke

    # -- integration ---------------------------------------------------------

    def step(self, state: VehicleState, terrain, dt: float) -> None:
        cfg = self.cfg
        susp = cfg.suspension
        corners = self.corners
        mass = cfg.total_mass
        m0, m1, m2, m3, m4, m5, m6, m7, m8 = state.rot
        px, py, pz = state.pos
        vx, vy, vz = state.vel
        ox, oy, oz = state.omega
        grounded = state.wheel_grounded
        wheel_omega = state.wheel_omega
        radius = susp.wheel_radius

        # powertrain: all four wheels are driven, each with a quarter of the total
        w0, w1, w2, w3 = wheel_omega
        wheel_rpm_avg = ((((0.0 + w0) + w1) + w2) + w3) * RPM_PER_RAD_S / 4
        tau_total = powertrain_step(
            cfg.powertrain, radius, state.pt, state.cmd_throttle, vx, wheel_rpm_avg, dt)
        tau_out = tau_total / 4
        brake = (wheel_brake_torques(self.corner_masses, vx, cfg.brake.disk_radius,
                                     cfg.brake.braking_distance_60mph, state.cmd_brake)
                 if state.cmd_brake else (0.0, 0.0, 0.0, 0.0))  # what a zero pedal gives

        fx_sum = fy_sum = fz_sum = 0.0
        tx_sum = ty_sum = tz_sum = 0.0

        # suspension per wheel; the mount's world offset is R * arm
        rest = susp.rest_length
        compression = state.wheel_compression
        travels = [0.0] * 4
        contact_z = [0.0] * 4
        vertical = [0.0] * 4
        slopes = [None] * 4
        for i in range(4):
            ax, ay, az, k, b, zs, mount_z, _, _, _ = corners[i]
            ground = slopes[i] = terrain.height_and_gradient(px + (m0 * ax + m1 * ay + m2 * az),
                                                             py + (m3 * ax + m4 * ay + m5 * az))
            (vertical[i], compression[i], grounded[i], travels[i], contact_z[i]) = suspension_step(
                compression[i], pz + (m6 * ax + m7 * ay + m8 * az), ground[0], rest, k, b,
                radius, zs, mount_z, dt)

        # anti-roll bars, front axle then rear
        stiffness = susp.antiroll_stiffness
        fl, fr = antiroll_forces(travels[0], travels[1], stiffness, grounded[0], grounded[1])
        rl, rr = antiroll_forces(travels[2], travels[3], stiffness, grounded[2], grounded[3])
        vertical[0] += fl
        vertical[1] += fr
        vertical[2] += rl
        vertical[3] += rr

        # suspension + anti-roll forces act at the force height along the
        # world-frame (-dh/dx, -dh/dy, 1) under the mount: the compression is
        # measured vertically over terrain h(x, y), so the force of the
        # potential 1/2 k c^2 is k c (-dh/dx, -dh/dy, 1).  A body-up force
        # would do work the spring never stored, e.g. on a pitched landing.
        # The same vertical force is the tire's normal load.
        loads = [0.0] * 4
        for i in range(4):
            f = vertical[i]
            loads[i] = f if grounded[i] and f > 0.0 else 0.0
            if f == 0.0:
                continue
            rx, ry, _, _, _, _, _, rz, _, _ = corners[i]
            _, gx, gy = slopes[i]
            # R^T * (-gx, -gy, 1)
            ngx = -gx
            ngy = -gy
            bfx = f * (m0 * ngx + m3 * ngy + m6)
            bfy = f * (m1 * ngx + m4 * ngy + m7)
            bfz = f * (m2 * ngx + m5 * ngy + m8)
            fx_sum += bfx
            fy_sum += bfy
            fz_sum += bfz
            tx_sum += ry * bfz - rz * bfy
            ty_sum += rz * bfx - rx * bfz
            tz_sum += rx * bfy - ry * bfx

        # tire forces; the wheels point straight ahead, so the wheel frame is the body's
        eps_v = cfg.slip_speed_guard
        spline = cfg.tires.__call__  # the bound method: calling the instance costs a lookup more
        com_z = cfg.com[2]
        tire_fx = [0.0] * 4
        for i in range(4):
            if not grounded[i]:
                continue
            rx, ry, _, _, _, _, _, _, reduced_mass, _ = corners[i]
            rz = contact_z[i] - com_z
            cvx = vx + oy * rz - oz * ry
            cvy = vy + oz * rx - ox * rz
            spin = wheel_omega[i]
            rel = radius * spin - cvx
            cap = abs(rel) * reduced_mass / dt
            f_lon, f_lat = tire_forces(spin, cvx, cvy, radius, spline, loads[i], eps_v, cap)
            tire_fx[i] = f_lon
            fx_sum += f_lon
            fy_sum += f_lat
            tx_sum -= rz * f_lat
            ty_sum += rz * f_lon
            tz_sum += rx * f_lat - ry * f_lon

        # aerodynamics
        drag, ang_drag, downforce = aero_forces((vx, vy, vz), (ox, oy, oz), cfg.aero, eps_v)
        fx_sum += drag[0]
        fy_sum += drag[1]
        fz_sum += drag[2] - downforce
        tx_sum += ang_drag[0]
        ty_sum += ang_drag[1]
        tz_sum += ang_drag[2]

        # gravity (body frame): R^T (0, 0, g)
        g = -mass * GRAVITY
        fx_sum += m0 * 0.0 + m3 * 0.0 + m6 * g
        fy_sum += m1 * 0.0 + m4 * 0.0 + m7 * g
        fz_sum += m2 * 0.0 + m5 * 0.0 + m8 * g

        # low-speed brake hold: kills the quadratic brake law's creep tail
        if state.cmd_brake > 0.05:
            sp = math.sqrt(vx * vx + vy * vy + vz * vz)
            if 0.0 < sp < cfg.standstill_brake_speed:
                cap = cfg.standstill_brake_decel * state.cmd_brake
                a_hold = min(sp / dt, cap) * mass / sp
                fx_sum -= vx * a_hold
                fy_sum -= vy * a_hold
                fz_sum -= vz * a_hold

        # rigid-body integration (semi-implicit Euler, body frame)
        ax = fx_sum / mass - (oy * vz - oz * vy)
        ay = fy_sum / mass - (oz * vx - ox * vz)
        az = fz_sum / mass - (ox * vy - oy * vx)
        nvx = vx + ax * dt
        nvy = vy + ay * dt
        nvz = vz + az * dt

        ix, iy, iz = cfg.inertia
        dox = (tx_sum - (iz - iy) * oy * oz) / ix
        doy = (ty_sum - (ix - iz) * oz * ox) / iy
        doz = (tz_sum - (iy - ix) * ox * oy) / iz
        nox = ox + dox * dt
        noy = oy + doy * dt
        noz = oz + doz * dt

        # world velocity R * v
        npx = px + (m0 * nvx + m1 * nvy + m2 * nvz) * dt
        npy = py + (m3 * nvx + m4 * nvy + m5 * nvz) * dt
        npz = pz + (m6 * nvx + m7 * nvy + m8 * nvz) * dt
        state.pos = [npx, npy, npz]
        state.vel = [nvx, nvy, nvz]
        state.omega = [nox, noy, noz]
        q = state.quat = quat_integrate(state.quat, (nox, noy, noz), dt)
        state.rot = quat_to_matrix(q)

        # wheel spin (brake torque pulls toward zero but cannot cross it)
        i_w = cfg.wheel_inertia
        for i in range(4):
            w_spin = wheel_omega[i] + dt * (tau_out - radius * tire_fx[i]) / i_w
            cap = dt * brake[i] / i_w
            if w_spin > cap:
                w_spin -= cap
            elif w_spin < -cap:
                w_spin += cap
            else:
                w_spin = 0.0
            wheel_omega[i] = w_spin

        total = (npx + npy + npz
                 + nvx + nvy + nvz + nox + noy + noz
                 + q[0] + q[1] + q[2] + q[3])
        if not math.isfinite(total):
            raise SimulationFault(
                f"non-finite state after step: pos={state.pos} vel={state.vel} "
                f"omega={state.omega} gear={state.pt.gear}")
