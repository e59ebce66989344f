"""Vehicle parameter set: sprung masses, suspension, powertrain, steering,
brakes, tires and aerodynamics, plus the derived per-corner quantities used
by the integrator.

All units SI (m, kg, s, N, rad) except where the transmission map needs
MPH/inches internally; that conversion lives in powertrain.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..documents import ConfigurationError, from_doc, to_doc
from .spline import FrictionSpline

GRAVITY = 9.81

CONFIG_VERSION = 1

WHEEL_NAMES = ("FL", "FR", "RL", "RR")

# Gear codes used throughout the powertrain state machine.
GEAR_PARK = -2
GEAR_REVERSE = -1
GEAR_NEUTRAL = 0


@dataclass(frozen=True)
class SprungMass:
    mass: float
    position: tuple[float, float, float]


def com_properties(entries: list[SprungMass]) -> tuple[float, tuple, tuple]:
    """Total mass, center of mass and diagonal inertia about the COM.

    Inertia is the per-axis point-mass approximation: for each axis the sum
    of mass times squared distance from that axis through the COM.
    """
    if not entries:
        raise ConfigurationError("sprung mass set is empty")
    for e in entries:
        if e.mass <= 0.0:
            raise ConfigurationError(f"nonpositive sprung mass {e.mass}")
    total = sum(e.mass for e in entries)
    cx = sum(e.mass * e.position[0] for e in entries) / total
    cy = sum(e.mass * e.position[1] for e in entries) / total
    cz = sum(e.mass * e.position[2] for e in entries) / total
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
class SuspensionParams:
    natural_frequency: float  # rad/s
    damping_ratio: float
    rest_length: float        # equilibrium point Z0, m
    force_offset: float       # Zf, m
    antiroll_stiffness: float
    wheel_mass: float
    wheel_radius: float

    def validate(self) -> None:
        if self.natural_frequency <= 0:
            raise ConfigurationError("suspension natural_frequency must be > 0")
        if self.damping_ratio < 0:
            raise ConfigurationError("suspension damping_ratio must be >= 0")
        if self.wheel_radius <= 0:
            raise ConfigurationError("wheel_radius must be > 0")
        if self.antiroll_stiffness < 0:
            raise ConfigurationError("antiroll_stiffness must be >= 0")
        if self.rest_length <= 0:
            raise ConfigurationError("rest_length must be > 0")


@dataclass
class PowertrainParams:
    torque_curve: list[tuple[float, float]]  # (rpm, N*m), piecewise linear
    idle_rpm: float
    gear_ratios: dict[int, float]            # gear code -> ratio (reverse negative)
    final_drive: float
    drive_config: str                        # FWD | RWD | AWD
    diff_torque_drop: float                  # 1/rad
    throttle_smoothing_gain: float
    shift_up_rpm: float
    shift_down_rpm: float
    shift_time: float
    rpm_smoothing_tau: float
    tire_radius: float                       # m (converted to inches in the map)

    def validate(self) -> None:
        if self.final_drive <= 0:
            raise ConfigurationError("final_drive must be > 0")
        if any(t < 0 for _, t in self.torque_curve):
            raise ConfigurationError("engine torque curve must be nonnegative")
        if not self.shift_down_rpm < self.shift_up_rpm:
            raise ConfigurationError("shift_down_rpm must be below shift_up_rpm")
        if self.drive_config not in ("FWD", "RWD", "AWD"):
            raise ConfigurationError(f"unknown drive_config {self.drive_config!r}")
        for g in (GEAR_PARK, GEAR_REVERSE, GEAR_NEUTRAL, 1):
            if g not in self.gear_ratios:
                raise ConfigurationError(f"gear_ratios missing gear {g}")
        # shifts step one gear at a time, so forward gears must be 1..top
        for g in range(2, self.top_forward_gear):
            if g not in self.gear_ratios:
                raise ConfigurationError(f"gear_ratios missing gear {g}")

    @property
    def top_forward_gear(self) -> int:
        return max(g for g in self.gear_ratios if g >= 1)

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
class SteeringParams:
    limit: float        # rad
    sensitivity: float  # rad/s
    speed_factor: float # rad/s
    wheelbase: float
    track: float
    top_speed: float

    def validate(self) -> None:
        if self.limit <= 0:
            raise ConfigurationError("steering limit must be > 0")
        if self.wheelbase <= 0 or self.track <= 0:
            raise ConfigurationError("wheelbase and track must be > 0")


@dataclass
class BrakeParams:
    disk_radius: float
    braking_distance_60mph: float

    def validate(self) -> None:
        if self.disk_radius <= 0:
            raise ConfigurationError("brake disk_radius must be > 0")
        if self.braking_distance_60mph <= 0:
            raise ConfigurationError("braking_distance_60mph must be > 0")


@dataclass
class AeroParams:
    drag_max: float       # N, at/above top speed
    drag_idle: float      # N, coasting / nominal
    drag_reverse: float   # N, reverse overspeed
    top_speed: float      # m/s
    reverse_speed: float  # m/s
    angular_drag: float   # N*m*s/rad
    downforce_coeff: float  # N*s/m

    def validate(self) -> None:
        for name in ("drag_max", "drag_idle", "drag_reverse", "angular_drag", "downforce_coeff"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"aero {name} must be >= 0")
        if self.reverse_speed > self.top_speed:
            raise ConfigurationError("reverse_speed must not exceed top_speed")


@dataclass
class FootprintParams:
    length: float
    width: float
    center_x: float  # body-frame x of footprint center


@dataclass
class WheelConfig:
    name: str
    mount: tuple[float, float, float]  # strut top in body frame
    steered: bool
    driven: bool
    side: int   # +1 left, -1 right
    axle: int   # 0 front, 1 rear
    # derived at assembly time
    corner_mass: float = 0.0
    spring_k: float = 0.0
    damper_b: float = 0.0
    static_displacement: float = 0.0  # Zs, dimensionless travel normalizer
    force_height: float = 0.0         # ZF, body-frame z of force application
    contact_reduced_mass: float = 0.0 # wheel-vs-body reduced mass at the patch
    arm: tuple[float, float, float] = (0.0, 0.0, 0.0)  # mount - COM, body frame
    force_arm_z: float = 0.0          # force_height - COM z


@dataclass
class VehicleConfig:
    sprung_masses: list[SprungMass]
    suspension: SuspensionParams
    powertrain: PowertrainParams
    steering: SteeringParams
    brake: BrakeParams
    aero: AeroParams
    tires: FrictionSpline
    wheel_mounts: dict[str, tuple[float, float, float]]
    footprint: FootprintParams
    slip_speed_guard: float = 0.1   # eps_v, m/s
    standstill_brake_decel: float = 7.5  # m/s^2 at full pedal, low-speed hold
    standstill_brake_speed: float = 2.5  # m/s, band where the hold takes over
    # filled by finalize()
    total_mass: float = field(init=False)
    com: tuple[float, float, float] = field(init=False)
    inertia: tuple[float, float, float] = field(init=False)
    wheels: list[WheelConfig] = field(init=False)
    wheel_inertia: float = field(init=False)

    def __post_init__(self):
        self.finalize()

    def finalize(self) -> None:
        self.suspension.validate()
        self.powertrain.validate()
        self.steering.validate()
        self.brake.validate()
        self.aero.validate()
        self.total_mass, self.com, self.inertia = com_properties(self.sprung_masses)
        if set(self.wheel_mounts) != set(WHEEL_NAMES):
            raise ConfigurationError(f"wheel_mounts must define exactly {WHEEL_NAMES}")
        self.wheels = [self._build_wheel(name) for name in WHEEL_NAMES]
        self._distribute_corner_masses()
        for w in self.wheels:
            w.spring_k, w.damper_b = suspension_coefficients(
                w.corner_mass, self.suspension.natural_frequency, self.suspension.damping_ratio)
            w.static_displacement = w.corner_mass * GRAVITY / (self.suspension.rest_length * w.spring_k)
            w.force_height = (self.com[2] - self.wheel_mounts[w.name][2]
                              + self.suspension.wheel_radius - self.suspension.force_offset)
            w.arm = (w.mount[0] - self.com[0], w.mount[1] - self.com[1], w.mount[2] - self.com[2])
            w.force_arm_z = w.force_height - self.com[2]
        # solid-disc approximation for wheel spin inertia
        self.wheel_inertia = 0.5 * self.suspension.wheel_mass * self.suspension.wheel_radius ** 2
        r2 = self.suspension.wheel_radius ** 2
        for w in self.wheels:
            w.contact_reduced_mass = 1.0 / (1.0 / w.corner_mass + r2 / self.wheel_inertia)

    def _build_wheel(self, name: str) -> WheelConfig:
        mount = self.wheel_mounts[name]
        front = name[0] == "F"
        drive = self.powertrain.drive_config
        driven = drive == "AWD" or (drive == "FWD") == front
        return WheelConfig(
            name=name,
            mount=mount,
            steered=front,
            driven=driven,
            side=1 if name[1] == "L" else -1,
            axle=0 if front else 1,
        )

    def _distribute_corner_masses(self) -> None:
        """Static load split from COM position over the wheelbase and track."""
        xf = sum(self.wheel_mounts[n][0] for n in ("FL", "FR")) / 2.0
        xr = sum(self.wheel_mounts[n][0] for n in ("RL", "RR")) / 2.0
        front_share = (self.com[0] - xr) / (xf - xr)
        front_share = min(0.9, max(0.1, front_share))
        half_track = self.steering.track / 2.0
        left_share = min(0.9, max(0.1, 0.5 + self.com[1] / (2.0 * half_track)))
        for w in self.wheels:
            axle_share = front_share if w.axle == 0 else 1.0 - front_share
            side_share = left_share if w.side > 0 else 1.0 - left_share
            w.corner_mass = self.total_mass * axle_share * side_share

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {"config_version": CONFIG_VERSION, **to_doc(self)}

    @classmethod
    def from_dict(cls, doc: dict) -> "VehicleConfig":
        version = doc.get("config_version")
        if version != CONFIG_VERSION:
            raise ConfigurationError(f"unsupported config_version {version!r}")
        return from_doc(cls, doc)


def default_vehicle_config() -> VehicleConfig:
    """Side-by-side UTV class defaults. Placeholder values, not measured data."""
    return VehicleConfig(
        sprung_masses=[
            SprungMass(400.0, (1.20, 0.0, 0.10)),
            SprungMass(450.0, (-1.10, 0.0, 0.15)),
            SprungMass(650.0, (0.10, 0.0, 0.35)),
            SprungMass(100.0, (-0.80, 0.0, 0.00)),
            SprungMass(100.0, (1.45, 0.78, -0.25)),
            SprungMass(100.0, (1.45, -0.78, -0.25)),
            SprungMass(100.0, (-1.45, 0.78, -0.25)),
            SprungMass(100.0, (-1.45, -0.78, -0.25)),
        ],
        suspension=SuspensionParams(
            natural_frequency=2.0 * math.pi * 1.6,
            damping_ratio=0.8,
            rest_length=0.45,
            force_offset=0.45,
            antiroll_stiffness=4000.0,
            wheel_mass=25.0,
            wheel_radius=0.35,
        ),
        powertrain=PowertrainParams(
            torque_curve=[(800.0, 90.0), (2000.0, 110.0), (3500.0, 130.0),
                          (5000.0, 145.0), (7000.0, 150.0), (8500.0, 120.0)],
            idle_rpm=1100.0,
            gear_ratios={GEAR_PARK: 0.0, GEAR_REVERSE: -2.9, GEAR_NEUTRAL: 0.0,
                         1: 2.9, 2: 1.8, 3: 1.2, 4: 0.9},
            final_drive=4.5,
            drive_config="AWD",
            diff_torque_drop=0.5,
            throttle_smoothing_gain=0.5,
            shift_up_rpm=6300.0,
            shift_down_rpm=2800.0,
            shift_time=0.3,
            rpm_smoothing_tau=0.25,
            tire_radius=0.35,
        ),
        steering=SteeringParams(
            limit=0.55,
            sensitivity=0.8,
            speed_factor=0.6,
            wheelbase=2.9,
            track=1.56,
            top_speed=30.0,
        ),
        brake=BrakeParams(
            disk_radius=0.18,
            braking_distance_60mph=1.0,
        ),
        aero=AeroParams(
            drag_max=2600.0,
            drag_idle=220.0,
            drag_reverse=1200.0,
            top_speed=30.0,
            reverse_speed=8.0,
            angular_drag=120.0,
            downforce_coeff=8.0,
        ),
        tires=FrictionSpline(0.0, 0.0, 0.2, 1.0, 0.8, 0.6),
        wheel_mounts={
            "FL": (1.45, 0.78, -0.05),
            "FR": (1.45, -0.78, -0.05),
            "RL": (-1.45, 0.78, -0.05),
            "RR": (-1.45, -0.78, -0.05),
        },
        footprint=FootprintParams(length=3.8, width=1.73, center_x=0.0),
    )
