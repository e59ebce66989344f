"""Per-subsystem force laws: suspension, anti-roll, brakes, tires, aero. The plant
drives straight: `steering_step` (with `ackermann_angles`) is called by no step and
stays only as a binding perfbench/tracing.py wraps."""

from __future__ import annotations

import math

from ..se3 import clamp


def suspension_step(
    prev_compression: float,
    mount_z_world: float,
    ground_z: float,
    rest_length: float,
    spring_k: float,
    damper_b: float,
    wheel_radius: float,
    static_displacement: float,
    mount_to_body_z: float,
    dt: float,
) -> tuple[float, float, bool, float, float]:
    """One vertical update for a single wheel.

    Returns (force, compression, grounded, travel, contact_z_body): the spring
    compression (0 when airborne), the normalized travel for the anti-roll
    bar and the body-frame z of the contact point (0 when airborne).

    The wheel is a kinematic point contact directly below its mount. When the
    ground is within the suspension travel the hub sits on it and the
    spring/damper force (compression only) pushes the body. An airborne wheel
    has no state and applies no force.

    Compression is measured vertically: c = rest + h(x, y) + r - z_mount over
    terrain h. The spring's potential 1/2 k c^2 therefore pushes the mount
    with k c (-dh/dx, -dh/dy, 1) in world coordinates, and the returned
    ``force`` is the factor that multiplies that unnormalized vector. The
    caller must apply it along that direction, not along body-up: a force
    in any other direction does work that the spring never stored.
    """
    hub_on_ground = ground_z + wheel_radius
    if hub_on_ground >= mount_z_world - rest_length:
        compression = mount_z_world - hub_on_ground
        compression = rest_length - compression
        comp_rate = (compression - prev_compression) / dt
        force = spring_k * compression + damper_b * comp_rate
        if force < 0.0:
            force = 0.0
        contact_z_body = (ground_z - mount_z_world) + mount_to_body_z
        travel = (-contact_z_body - wheel_radius) / static_displacement
        return force, compression, True, travel, contact_z_body
    return 0.0, 0.0, False, 0.0, 0.0


def antiroll_forces(
    travel_left: float,
    travel_right: float,
    stiffness: float,
    left_grounded: bool,
    right_grounded: bool,
) -> tuple[float, float]:
    """Anti-roll bar forces on the (left, right) wheels of one axle.

    Antisymmetric in the travel difference; a wheel only receives force while
    it is grounded.
    """
    left = stiffness * (travel_right - travel_left) if left_grounded else 0.0
    right = stiffness * (travel_left - travel_right) if right_grounded else 0.0
    return left, right


def steering_step(
    steer_cmd: float,
    current_angle: float,
    speed: float,
    limit: float,
    sensitivity: float,
    speed_factor: float,
    top_speed: float,
    wheelbase: float,
    track: float,
    dt: float,
) -> tuple[float, float, float]:
    """Slew the steering angle toward the command and resolve per-wheel angles.

    Returns (angle, left_angle, right_angle) under Ackermann geometry.
    """
    target = clamp(steer_cmd, -1.0, 1.0) * limit
    rate = sensitivity + speed_factor * abs(speed) / top_speed
    max_step = rate * dt
    delta = target - current_angle
    if delta > max_step:
        delta = max_step
    elif delta < -max_step:
        delta = -max_step
    angle = clamp(current_angle + delta, -limit, limit)
    left, right = ackermann_angles(angle, wheelbase, track)
    return angle, left, right


def ackermann_angles(angle: float, wheelbase: float, track: float) -> tuple[float, float]:
    if angle == 0.0:
        return angle, angle  # what the formula gives for either zero
    t = math.tan(angle)
    two_l = 2.0 * wheelbase
    num = two_l * t
    den_l = two_l + track * t
    den_r = two_l - track * t
    left = math.atan(num / den_l) if den_l != 0.0 else math.copysign(math.pi / 2.0, num)
    right = math.atan(num / den_r) if den_r != 0.0 else math.copysign(math.pi / 2.0, num)
    return left, right


def wheel_brake_torques(
    corner_masses: tuple[float, float, float, float],
    speed: float,
    disk_radius: float,
    braking_distance: float,
    pedal: float,
) -> tuple[float, float, float, float]:
    """Per-wheel brake torques in (FL, FR, RL, RR) order.

    Each wheel's torque magnitude is pedal·m·v²/(2·d)·r for its corner mass m
    at speed v, braking distance d and disk radius r.
    """
    two_d = 2.0 * braking_distance
    m_fl, m_fr, m_rl, m_rr = corner_masses
    fl = m_fl * speed * speed / two_d * disk_radius
    fr = m_fr * speed * speed / two_d * disk_radius
    rl = m_rl * speed * speed / two_d * disk_radius
    rr = m_rr * speed * speed / two_d * disk_radius
    return (pedal * fl, pedal * fr, pedal * rl, pedal * rr)


def tire_forces(
    wheel_omega: float,
    v_x: float,
    v_y: float,
    wheel_radius: float,
    spline,
    normal_load: float,
    eps_v: float,
    lon_force_cap: float = math.inf,
) -> tuple[float, float]:
    """Longitudinal/lateral tire forces in the wheel frame (the body frame for
    a wheel pointing straight ahead).

    Slip denominators are guarded by eps_v and the forces taper linearly
    below it so contact is quiet at standstill. Forces oppose the slip.
    lon_force_cap bounds the longitudinal force to the impulse that would
    zero the contact's relative velocity within one step (keeps the stiff
    wheel-slip coupling stable under explicit integration).
    """
    # Comparisons stand in for the max and min builtins (the tapers are >= 0) and
    # for `clamp`: the same results for finite inputs, at a fraction of the cost.
    speed_x = abs(v_x)
    denom = speed_x if speed_x >= eps_v else eps_v
    roll = wheel_radius * wheel_omega
    rel = roll - v_x
    f_x = f_y = 0.0
    if rel != 0.0:
        speed_roll = abs(roll)
        taper = (speed_roll if speed_roll > speed_x else speed_x) / eps_v
        f_x = math.copysign(spline(abs(rel / denom)), rel) * normal_load * (
            (taper if taper < 1.0 else 1.0) if taper > 0.0 else 0.0)
        f_x = f_x if f_x > -lon_force_cap else -lon_force_cap
        f_x = f_x if f_x < lon_force_cap else lon_force_cap
    if v_y != 0.0:
        speed_y = abs(v_y)
        taper = (speed_y if speed_y > speed_x else speed_x) / eps_v
        f_y = -math.copysign(spline(abs(v_y / denom)), v_y) * normal_load * (
            (taper if taper < 1.0 else 1.0) if taper > 0.0 else 0.0)
    return f_x, f_y


def aero_forces(
    velocity_body: tuple[float, float, float],
    omega_body: tuple[float, float, float],
    params,
    eps_v: float,
) -> tuple[tuple[float, float, float], tuple[float, float, float], float]:
    """Drag force opposing motion, angular drag torque, downforce magnitude.

    The drag magnitude is drag_max at or above top speed, else drag_idle. Its
    direction is undefined at rest, so the magnitude tapers to zero below
    eps_v.
    """
    vx, vy, vz = velocity_body
    speed = math.sqrt(vx * vx + vy * vy + vz * vz)
    magnitude = params.drag_max if speed >= params.top_speed else params.drag_idle
    if speed > 1e-12:
        taper = speed / eps_v  # clamped to [0, 1] as in tire_forces
        scale = magnitude * ((taper if taper < 1.0 else 1.0) if taper > 0.0 else 0.0) / speed
        drag = (-vx * scale, -vy * scale, -vz * scale)
    else:
        drag = (0.0, 0.0, 0.0)
    ox, oy, oz = omega_body
    torque = (-params.angular_drag * ox, -params.angular_drag * oy, -params.angular_drag * oz)
    downforce = params.downforce_coeff * speed
    return drag, torque, downforce
