"""Vehicle parameter set: sprung masses, suspension, powertrain, brakes, tires
and aerodynamics, plus the derived per-corner quantities used by the
integrator. Each quantity is stored once: the wheel mounts are the only axle
geometry, the tire radius is the suspension's wheel radius and the top speed
is the aero section's.

Each number's default is on its field, so `{"schema_version": 2}` is the
default vehicle; a list or dict field and the tire spline are given whole.

The plant drives forward and straight on all four wheels, in neutral or gears
1..top. A version-2 document with park or reverse gear ratios, the two reverse
aero keys, a `steering` section, `powertrain.diff_torque_drop` or the
powertrain's FWD/RWD/AWD key drives the same plant: those gears are never
looked up and keys that name no field are ignored, so a FWD or RWD document
drives all four wheels.

Every unit is SI (m, kg, s, N, rad); engine speeds are in rpm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from ..documents import ConfigurationError, Finite, NonNegative, Positive, Section
from ..se3 import clamp
from .spline import FrictionSpline

GRAVITY = 9.81

WHEEL_NAMES = ("FL", "FR", "RL", "RR")

# Gear code of neutral; forward gears are 1..top.
GEAR_NEUTRAL = 0


@dataclass(frozen=True)
class SprungMass(Section):
    mass: Positive
    position: tuple[Finite, Finite, Finite]


def com_properties(entries: list[SprungMass]) -> tuple[float, tuple, tuple]:
    """Total mass, center of mass and diagonal inertia about the COM.

    Inertia is the per-axis point-mass approximation: for each axis the sum
    of mass times squared distance from that axis through the COM.
    """
    if not entries:
        raise ConfigurationError("sprung mass set is empty")
    # Left-to-right sums: from Python 3.12 on, sum() compensates float
    # rounding, which moves the COM, and so every digest, in the last bit.
    total = mx = my = mz = 0.0
    for e in entries:
        total += e.mass
        mx += e.mass * e.position[0]
        my += e.mass * e.position[1]
        mz += e.mass * e.position[2]
    cx = mx / total
    cy = my / total
    cz = mz / total
    ixx = iyy = izz = 0.0
    for e in entries:
        dx = e.position[0] - cx
        dy = e.position[1] - cy
        dz = e.position[2] - cz
        ixx += e.mass * (dy * dy + dz * dz)
        iyy += e.mass * (dx * dx + dz * dz)
        izz += e.mass * (dx * dx + dy * dy)
    return total, (cx, cy, cz), (ixx, iyy, izz)


def suspension_coefficients(mass: float, natural_frequency: float, damping_ratio: float) -> tuple[float, float]:
    """Spring stiffness K = m*wn^2 and damping B = 2*zeta*sqrt(K*m)."""
    if mass <= 0.0:
        raise ConfigurationError(f"nonpositive corner mass {mass}")
    if natural_frequency <= 0.0:
        raise ConfigurationError(f"nonpositive natural frequency {natural_frequency}")
    if damping_ratio < 0.0:
        raise ConfigurationError(f"negative damping ratio {damping_ratio}")
    k = mass * natural_frequency * natural_frequency
    b = 2.0 * damping_ratio * math.sqrt(k * mass)
    return k, b


@dataclass
class SuspensionParams(Section):
    natural_frequency: Positive = 2.0 * math.pi * 1.6  # rad/s
    damping_ratio: NonNegative = 0.8
    rest_length: Positive = 0.45   # equilibrium point Z0, m
    force_offset: Finite = 0.45    # Zf, m
    antiroll_stiffness: NonNegative = 4000.0
    wheel_mass: Positive = 25.0
    wheel_radius: Positive = 0.35


@dataclass
class PowertrainParams(Section):
    # (rpm, N*m), piecewise linear
    torque_curve: list[tuple[Finite, NonNegative]] = field(default_factory=lambda: [
        (800.0, 90.0), (2000.0, 110.0), (3500.0, 130.0),
        (5000.0, 145.0), (7000.0, 150.0), (8500.0, 120.0)])
    idle_rpm: Positive = 1100.0
    gear_ratios: dict[int, Finite] = field(  # gear code -> ratio
        default_factory=lambda: {GEAR_NEUTRAL: 0.0, 1: 2.9, 2: 1.8, 3: 1.2, 4: 0.9})
    final_drive: Positive = 4.5
    throttle_smoothing_gain: NonNegative = 0.5
    shift_up_rpm: Positive = 6300.0
    shift_down_rpm: Positive = 2800.0
    shift_time: NonNegative = 0.3
    rpm_smoothing_tau: Positive = 0.25

    def __post_init__(self):
        super().__post_init__()
        rpms = [r for r, _ in self.torque_curve]
        if not rpms or not all(a < b for a, b in zip(rpms, rpms[1:])):
            raise ConfigurationError("engine torque curve needs strictly increasing rpm knots")
        if not self.shift_down_rpm < self.shift_up_rpm:
            raise ConfigurationError("shift_down_rpm must be below shift_up_rpm")
        # launch from neutral into gear 1, then shift one gear at a time
        for g in range(GEAR_NEUTRAL, self.top_forward_gear + 1):
            if g not in self.gear_ratios:
                raise ConfigurationError(f"gear_ratios missing gear {g}")

    @functools.cached_property  # first read in __post_init__, then an attribute
    def top_forward_gear(self) -> int:
        return max((g for g in self.gear_ratios if g >= 1), default=1)

    def engine_torque(self, rpm: float) -> float:
        """Piecewise-linear lookup, clamped to the curve ends."""
        curve = self.torque_curve
        if rpm <= curve[0][0]:
            return curve[0][1]
        for i in range(1, len(curve)):
            r1, t1 = curve[i]
            if rpm <= r1:
                r0, t0 = curve[i - 1]
                u = (rpm - r0) / (r1 - r0)
                return t0 + u * (t1 - t0)
        return curve[-1][1]


@dataclass
class BrakeParams(Section):
    disk_radius: Positive = 0.18
    braking_distance_60mph: Positive = 1.0


@dataclass
class AeroParams(Section):
    drag_max: NonNegative = 2600.0      # N, at/above top speed
    drag_idle: NonNegative = 220.0      # N, below top speed
    top_speed: Positive = 30.0          # m/s
    angular_drag: NonNegative = 120.0   # N*m*s/rad
    downforce_coeff: NonNegative = 8.0  # N*s/m


@dataclass
class FootprintParams(Section):
    length: Positive = 3.8
    width: Positive = 1.73
    center_x: Finite = 0.0  # body-frame x of footprint center


class WheelConfig(NamedTuple):
    """One corner, derived when the config is built: the flat tuple `Vehicle.step` unpacks."""
    arm_x: float  # arm: mount - COM, body frame
    arm_y: float
    arm_z: float
    spring_k: float
    damper_b: float
    static_displacement: float   # Zs, dimensionless travel normalizer
    mount_z: float               # body-frame z of the strut top
    force_arm_z: float           # ZF - COM z, ZF the body-frame z of force application
    contact_reduced_mass: float  # wheel-vs-body reduced mass at the patch
    corner_mass: float


@dataclass
class VehicleConfig(Section):
    """Side-by-side UTV class defaults. Placeholder values, not measured data."""
    SCHEMA_VERSION = 2
    sprung_masses: list[SprungMass] = field(default_factory=lambda: [
        SprungMass(400.0, (1.20, 0.0, 0.10)),
        SprungMass(450.0, (-1.10, 0.0, 0.15)),
        SprungMass(650.0, (0.10, 0.0, 0.35)),
        SprungMass(100.0, (-0.80, 0.0, 0.00)),
        SprungMass(100.0, (1.45, 0.78, -0.25)),
        SprungMass(100.0, (1.45, -0.78, -0.25)),
        SprungMass(100.0, (-1.45, 0.78, -0.25)),
        SprungMass(100.0, (-1.45, -0.78, -0.25)),
    ])
    suspension: SuspensionParams = field(default_factory=SuspensionParams)
    powertrain: PowertrainParams = field(default_factory=PowertrainParams)
    brake: BrakeParams = field(default_factory=BrakeParams)
    aero: AeroParams = field(default_factory=AeroParams)
    tires: FrictionSpline = field(default_factory=lambda: FrictionSpline(0.0, 0.0, 0.2, 1.0, 0.8, 0.6))
    wheel_mounts: dict[str, tuple[Finite, Finite, Finite]] = field(default_factory=lambda: {
        "FL": (1.45, 0.78, -0.05),
        "FR": (1.45, -0.78, -0.05),
        "RL": (-1.45, 0.78, -0.05),
        "RR": (-1.45, -0.78, -0.05),
    })
    footprint: FootprintParams = field(default_factory=FootprintParams)
    slip_speed_guard: Positive = 0.1   # eps_v, m/s
    standstill_brake_decel: NonNegative = 7.5  # m/s^2 at full pedal, low-speed hold
    standstill_brake_speed: NonNegative = 2.5  # m/s, band where the hold takes over
    # derived in __post_init__
    total_mass: float = field(init=False)
    com: tuple[float, float, float] = field(init=False)
    inertia: tuple[float, float, float] = field(init=False)
    wheel_inertia: float = field(init=False)
    wheels: list[WheelConfig] = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        self.total_mass, self.com, self.inertia = com_properties(self.sprung_masses)
        mounts = self.wheel_mounts
        if set(mounts) != set(WHEEL_NAMES):
            raise ConfigurationError(f"wheel_mounts must define exactly {WHEEL_NAMES}")
        xr = (mounts["RL"][0] + mounts["RR"][0]) / 2.0
        wheelbase = (mounts["FL"][0] + mounts["FR"][0]) / 2.0 - xr  # front-axle mean x - rear
        track = mounts["FL"][1] - mounts["FR"][1]
        if not (wheelbase > 0 and track > 0):
            raise ConfigurationError("wheel_mounts must give wheelbase and track > 0")
        # solid-disc approximation for wheel spin inertia
        self.wheel_inertia = 0.5 * self.suspension.wheel_mass * self.suspension.wheel_radius ** 2
        # static load split from the COM position over the wheelbase and track
        front_share = clamp((self.com[0] - xr) / wheelbase, 0.1, 0.9)
        left_share = clamp(0.5 + self.com[1] / track, 0.1, 0.9)
        self.wheels = [self._build_wheel(name, front_share, left_share) for name in WHEEL_NAMES]

    def _build_wheel(self, name: str, front_share: float, left_share: float) -> WheelConfig:
        susp, com, mount = self.suspension, self.com, self.wheel_mounts[name]
        front, left = name[0] == "F", name[1] == "L"
        mass = (self.total_mass * (front_share if front else 1.0 - front_share)
                * (left_share if left else 1.0 - left_share))
        k, b = suspension_coefficients(mass, susp.natural_frequency, susp.damping_ratio)
        return WheelConfig(
            arm_x=mount[0] - com[0], arm_y=mount[1] - com[1], arm_z=mount[2] - com[2],
            spring_k=k,
            damper_b=b,
            static_displacement=mass * GRAVITY / (susp.rest_length * k),
            mount_z=mount[2],
            force_arm_z=(com[2] - mount[2] + susp.wheel_radius - susp.force_offset) - com[2],
            contact_reduced_mass=1.0 / (1.0 / mass + susp.wheel_radius ** 2 / self.wheel_inertia),
            corner_mass=mass,
        )


def default_vehicle_config() -> VehicleConfig:
    return VehicleConfig()
