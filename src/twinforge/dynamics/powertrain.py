"""Engine and automatic transmission model. Each of the four wheels gets an
equal share of the output torque; the differential's `torque_split` is called
by no step and stays only as a binding perfbench/tracing.py wraps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..se3 import clamp
from .config import GEAR_NEUTRAL, PowertrainParams

RPM_PER_RAD_S = 60.0 / (2.0 * math.pi)

NEUTRAL_SPEED = 0.1  # m/s: below it, with the wheels near still and no throttle, the gear is neutral


def transmission_map_rpm(speed_mps: float, wheel_radius_m: float, fdr: float, gear_ratio: float) -> float:
    """Engine RPM implied by vehicle speed through a given gear."""
    return abs(speed_mps) / wheel_radius_m * RPM_PER_RAD_S * fdr * abs(gear_ratio)


@dataclass
class PowertrainState:
    engine_rpm: float
    gear: int = GEAR_NEUTRAL
    shift_timer: float = 0.0


def powertrain_step(
    params: PowertrainParams,
    wheel_radius: float,
    pt: PowertrainState,
    throttle: float,
    speed: float,
    wheel_rpm_avg: float,
    dt: float,
) -> float:
    """Advance gear/RPM state, return total drivetrain torque.

    Gear policy, forward only: neutral at standstill without throttle, gear 1
    from neutral on throttle, zero torque while a shift is in progress, and
    up/down shifts one gear at a time, decided against the transmission map
    thresholds. The gear therefore stays in {neutral, 1..top}.
    """
    # Comparisons stand in for abs, max and min: `-c < x < c` is `abs(x) < c`,
    # `x if x > 0.0 else 0.0` is `max(0.0, x)` and `x if x < 1.0 else 1.0` is
    # `min(1.0, x)`, for every float x, NaN included.
    gear, timer = pt.gear, pt.shift_timer
    if timer > 0.0:  # shifting
        timer -= dt
        timer = timer if timer > 0.0 else 0.0
    elif (-NEUTRAL_SPEED < speed < NEUTRAL_SPEED and -30.0 < wheel_rpm_avg < 30.0
          and throttle <= 1e-3):  # at a standstill
        gear = GEAR_NEUTRAL
    elif gear == GEAR_NEUTRAL:
        if throttle > 1e-3:
            gear = 1
            timer = params.shift_time
    else:
        map_rpm = transmission_map_rpm(
            speed, wheel_radius, params.final_drive, params.gear_ratios[gear])
        if map_rpm > params.shift_up_rpm and gear < params.top_forward_gear:
            gear += 1
            timer = params.shift_time
        elif map_rpm < params.shift_down_rpm and gear > 1:
            gear -= 1
            timer = params.shift_time
    pt.gear, pt.shift_timer = gear, timer

    ratio = params.gear_ratios[gear]
    target_rpm = params.idle_rpm + abs(wheel_rpm_avg) * params.final_drive * abs(ratio)
    alpha = dt / params.rpm_smoothing_tau
    alpha = alpha if alpha < 1.0 else 1.0
    rpm = pt.engine_rpm
    pt.engine_rpm = rpm = rpm + alpha * (target_rpm - rpm)

    if timer > 0.0 or ratio == 0.0 or throttle <= 0.0:
        return 0.0
    engine_torque = params.engine_torque(rpm)
    boost = 1.0 + params.throttle_smoothing_gain * throttle * throttle  # monotone, 1.0 at zero
    return engine_torque * ratio * params.final_drive * throttle * boost


def torque_split(
    tau_out: float,
    steer_angle: float,
    torque_drop: float,
) -> tuple[float, float]:
    """(left, right) wheel torque on a driven axle, from one wheel's share.

    The differential sheds torque on one side as steering angle grows; the
    drop factor is clamped to [0, 0.9].
    """
    neg = -steer_angle if steer_angle < 0.0 else 0.0
    pos = steer_angle if steer_angle > 0.0 else 0.0
    drop_left = clamp(torque_drop * neg, 0.0, 0.9)
    drop_right = clamp(torque_drop * pos, 0.0, 0.9)
    return tau_out * (1.0 - drop_left), tau_out * (1.0 - drop_right)
