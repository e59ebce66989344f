"""One test-case episode: scenario + vehicle + autonomy + telemetry, run at a
fixed timestep until a terminal condition.

Terminal conditions: standstill after an emergency stop (with a grace window
so the trace captures any rollback), a collision (a fixed trace window after
the first overlap; the world is static, so nothing after it changes the
verdict), or the simulated-time cap. Every source of randomness is the
case-seeded counter-based generator, so a (case, seed) pair is
bit-reproducible anywhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .autonomy import (  # noqa: F401  parse_autonomy_doc: a binding perfbench/tracing.py wraps
    AebPlanner,
    AutonomyConfig,
    ObstacleView,
    SurrogateDetector,
    estimate_range_px,
    headlight_control,
    longitudinal_control,
    parse_autonomy_doc,
    default_autonomy_doc,
)
from .documents import ConfigurationError, NonNegative, Positive, Section, Seed, from_doc, to_doc
from .dynamics import SimulationFault, Vehicle, VehicleConfig, default_vehicle_config
from .environment import (
    TerrainQueryError,
    condition_derive,
    env_raycast,
    footprint_corners,
    rectangles_overlap,
)
from .metrics import TelemetryLog, TelemetryRecord, compute_dtc, evaluate_verdict
from .scenarios import ScenarioConfig, build_scenario, builtin_scenario_doc, load_scenario_doc
from .se3 import pose_matrix
from .sensors import (
    InsSensor,
    SensorParams,
    angle_grid,
    camera_matrices,
    forward_camera_mount,
    forward_lidar_mount,
    lidar_scan_2d,
    lidar_scan_3d,
    point_cloud_ascii,
    project_box,
    projection_matrix,
)

MAX_STEPS = 10_000_000  # in t_max and in contact_window; the default sim section takes 12,000


@dataclass
class SimParams(Section):
    """The sim section of a case bundle."""
    dt: Positive = 0.01
    t_max: Positive = 120.0
    post_stop_grace: NonNegative = 10.0
    contact_window: NonNegative = 1.0  # s traced after the first overlap

    def __post_init__(self):
        super().__post_init__()
        if not self.dt <= self.t_max:
            raise ConfigurationError(f"need dt <= t_max, got dt={self.dt}, t_max={self.t_max}")
        if not max(self.t_max, self.contact_window) / self.dt <= MAX_STEPS:
            raise ConfigurationError(f"need t_max and contact_window <= {MAX_STEPS} dt, got {self}")


@dataclass
class CaseBundle(Section):
    """A test case: the `model` under test is a perception preset of `autonomy`."""
    case_id: str
    model: str
    weather: str
    time_of_day: str
    seed: Seed
    scenario: ScenarioConfig
    autonomy: AutonomyConfig = field(default_factory=AutonomyConfig)
    vehicle: VehicleConfig = field(default_factory=default_vehicle_config)
    sim: SimParams = field(default_factory=SimParams)
    sensors: SensorParams = field(default_factory=SensorParams)

    def __post_init__(self):
        super().__post_init__()
        if self.model not in self.autonomy.presets:
            raise ConfigurationError(f"CaseBundle.model must name a perception preset, got {self.model!r}")


def default_bundle(case_id: str = "adhoc", model: str = "v3", weather: str = "clear",
                   time_of_day: str = "12:00", seed: int = 1, scenario: str = "default") -> dict:
    return {
        "case_id": case_id,
        "model": model,
        "weather": weather,
        "time_of_day": time_of_day,
        "seed": int(seed),
        "scenario": builtin_scenario_doc(scenario) if isinstance(scenario, str) else scenario,
        "autonomy": default_autonomy_doc(),
        "sim": to_doc(SimParams()),
        "sensors": to_doc(SensorParams()),
    }


@dataclass
class EpisodeResult:
    """How a case ended. terminal is one of standstill_after_aeb (stopped,
    then held for post_stop_grace), collision (contact_window after the first
    overlap), timeout (t_max reached) or fault (status failed)."""
    case_id: str | None
    status: str           # done | failed
    terminal: str         # standstill_after_aeb | collision | timeout | fault
    steps: int
    duration: float
    log: TelemetryLog | None
    verdict: object | None
    error: str | None
    scan_dump: str | None


class Episode:
    """One case, stepped at sim.dt until a terminal: standstill_after_aeb,
    collision, timeout, or fault when the plant, a terrain query or float arithmetic fails."""

    def __init__(self, bundle: dict, collect_telemetry: bool = True, full_scans: bool = False):
        if isinstance(bundle, dict) and isinstance(bundle.get("scenario"), str):  # name or file
            bundle = dict(bundle, scenario=load_scenario_doc(bundle["scenario"]))
        case = from_doc(CaseBundle, bundle)
        self.case_id = case.case_id
        self.collect_telemetry = collect_telemetry
        self.full_scans = full_scans

        self.sim = case.sim
        self.vcfg = case.vehicle
        self.vehicle = Vehicle(self.vcfg)
        fp = self.vcfg.footprint
        self.front_offset = fp.center_x + fp.length / 2.0

        self.scenario = case.scenario
        self.terrain, self.obstacles = build_scenario(case.scenario, self.front_offset)
        # Broad phase: the footprint lies within ego_radius of the body origin
        # and each obstacle within its half diagonal of its centre, so centres
        # further apart than the sum (plus 1e-6 m for rounding) cannot overlap.
        ego_radius = math.hypot(abs(fp.center_x) + fp.length / 2.0, fp.width / 2.0)
        self._reach = [(obs, (ego_radius + math.hypot(*obs.extents[:2]) / 2.0 + 1e-6) ** 2)
                       for obs in self.obstacles]
        self.condition = condition_derive(case.weather, case.time_of_day)
        self.lights = headlight_control(self.condition.ambient_light, self.condition.fog_density)

        self.autonomy = case.autonomy
        self.rng = np.random.Generator(np.random.Philox(key=case.seed))
        self.detector = SurrogateDetector(
            self.autonomy.presets[case.model], self.condition, self.lights, self.rng,
            self.autonomy.false_positive_rate)
        self.planner = AebPlanner(self.autonomy.aeb)

        self.camera = case.sensors.camera
        self.camera_mount = forward_camera_mount(self.camera.position)
        res = self.camera.resolution
        self._proj = projection_matrix(self.camera)
        self._fx_px = self._proj[0, 0] * res[0] / 2.0
        self._fy_px = self._proj[1, 1] * res[1] / 2.0
        self.ins = InsSensor()
        self.lidar = case.sensors.lidar
        self.lidar_mount = forward_lidar_mount(self.lidar.position)

    # -- helpers ---------------------------------------------------------------

    def _perceive(self, pose):
        cam_world = pose_matrix(*pose) @ self.camera_mount
        view = camera_matrices(cam_world)
        cam_pos = cam_world[:3, 3]
        views = []
        for obs in self.obstacles:
            area = project_box(obs.corners_3d(), view, self._proj, self.camera.resolution)
            if area is None:
                continue
            gap = obs.position_array - cam_pos
            d = math.sqrt(gap.dot(gap))  # np.linalg.norm's arithmetic
            views.append(ObstacleView(obs.cls, area, d))
        detections = self.detector.detect(views)
        dtc_estimate = None
        threat = [d for d in detections if d.cls in self.planner.cfg.threat_classes
                  and d.area >= self.planner.cfg.min_area]
        if threat:
            best = max(threat, key=lambda d: d.area)
            rng_est = estimate_range_px(best.area, self._fx_px, self._fy_px,
                                        self.autonomy.assumed_frontal_area)
            dtc_estimate = rng_est - self.planner.cfg.range_to_dtc_offset
        return detections, dtc_estimate

    def _raycaster(self):
        return functools.partial(env_raycast, self.terrain, self.obstacles)

    def _overlaps(self, ex: float, ey: float, eyaw: float) -> bool:
        """Whether the ego footprint overlaps any obstacle; the separating-axis
        test runs only past the broad phase (see `__init__`)."""
        fp = self.vcfg.footprint
        ego = None
        for obs, reach2 in self._reach:
            dx = obs.position[0] - ex
            dy = obs.position[1] - ey
            if dx * dx + dy * dy <= reach2:
                ego = ego or footprint_corners(ex, ey, eyaw, fp.length, fp.width, fp.center_x)
                if rectangles_overlap(ego, obs.corners_2d()):
                    return True
        return False

    # -- main loop ---------------------------------------------------------------

    def run(self) -> EpisodeResult:
        dt = self.sim.dt
        spawn = self.scenario.spawn
        state = self.vehicle.spawn_state(self.terrain, spawn.x, spawn.y, spawn.yaw)
        pose = self.vehicle.origin_pose(state)  # the state's pose, updated after each step
        log = TelemetryLog() if self.collect_telemetry else None

        detections: list = []
        dtc_estimate = None
        collision_count = 0  # 1 from the first overlap on
        contact_end = math.inf  # the step that ends the trace after contact
        hold_elapsed = 0.0
        scan_lines: list[str] = []
        terminal = "timeout"
        error = None
        status = "done"
        t = 0.0
        steps = 0
        max_steps = int(round(self.sim.t_max / dt))
        cruise_speed = self.scenario.cruise_speed
        cruise_kp = self.autonomy.control.cruise_kp
        perception_period = self.autonomy.perception_period_steps
        contact_steps = int(round(self.sim.contact_window / dt))

        try:
            for i in range(max_steps):
                if i % perception_period == 0:
                    detections, dtc_estimate = self._perceive(pose)
                    self.planner.plan(detections, dtc_estimate, state.forward_speed)
                if self.planner.finished and not self.planner.braking:
                    throttle, brake = 0.0, 0.0  # mission over, coast
                else:
                    throttle, brake = longitudinal_control(
                        "brake" if self.planner.braking else "cruise", state.forward_speed,
                        cruise_speed, cruise_kp)
                state.set_commands(throttle, brake)
                self.vehicle.step(state, self.terrain, dt)
                steps += 1
                t = steps * dt

                pose = self.vehicle.origin_pose(state)
                rot, (ex, ey, _) = pose
                eyaw = math.atan2(rot[3], rot[0])
                if not collision_count and self._overlaps(ex, ey, eyaw):
                    collision_count = 1
                    contact_end = steps + contact_steps

                dtc = compute_dtc(ex, ey, eyaw, self.front_offset, self.obstacles)

                if log is not None:
                    log.append(self._make_record(state, pose, t, detections, dtc,
                                                 collision_count))

                if self.full_scans and steps % 50 == 0:
                    self._dump_scan(pose, t, scan_lines)

                if self.planner.finished:
                    hold_elapsed += dt
                    if hold_elapsed >= self.sim.post_stop_grace:
                        terminal = "standstill_after_aeb"
                        break
                if steps >= contact_end:
                    terminal = "collision"
                    break
        except (SimulationFault, TerrainQueryError, ArithmeticError) as exc:
            status = "failed"
            terminal = "fault"
            error = f"{type(exc).__name__}: {exc}"

        scan_dump = None
        if self.full_scans:
            scan_dump = "\n".join(scan_lines)
            points = lidar_scan_3d(
                replace(self.lidar, theta_min=-0.6, theta_max=0.6, theta_res=0.05),
                angle_grid(-0.3, 0.3, 0.05),
                pose_matrix(*pose) @ self.lidar_mount,
                self._raycaster())
            scan_dump += "\n# spatial scan (sensor frame)\n" + point_cloud_ascii(points)

        verdict = None
        if status == "done" and log is not None:
            verdict = evaluate_verdict(log.records, self.case_id)
        return EpisodeResult(self.case_id, status, terminal, steps, t, log, verdict,
                             error, scan_dump)

    def _make_record(self, state, pose, t: float, detections, dtc: float,
                     collision_count: int) -> TelemetryRecord:
        position, euler = self.ins.read(pose)
        best = max(detections, key=lambda d: d.confidence) if detections else None
        return TelemetryRecord(
            t, position[0], position[1], position[2], euler[0], euler[1], euler[2],
            state.forward_speed, state.cmd_throttle, 0.0, state.cmd_brake,  # 0.0: steer_cmd
            0.0, state.pt.gear, state.pt.engine_rpm, len(detections),  # 0.0: handbrake_cmd
            best.confidence if best else 0.0, best.area if best else 0.0,
            1 if self.planner.braking else 0, dtc, collision_count, self.lights)

    def _dump_scan(self, pose, t: float, lines: list[str]) -> None:
        lidar_world = pose_matrix(*pose) @ self.lidar_mount
        ranges = lidar_scan_2d(self.lidar, lidar_world, self._raycaster())
        head = " ".join(f"{r:.4f}" if math.isfinite(r) else "inf" for r in ranges)
        lines.append(f"t={t:.2f} {head}")


def run_case(bundle: dict, collect_telemetry: bool = True, full_scans: bool = False) -> EpisodeResult:
    """Run one case; a bundle that `Episode` rejects, or whose numbers overflow
    while it is built, is a `failed` result (case_id None if the bundle has none)."""
    try:
        episode = Episode(bundle, collect_telemetry, full_scans)
    except (ValueError, ArithmeticError) as exc:  # ValueError: ConfigurationError, ScenarioError
        case_id = bundle.get("case_id") if isinstance(bundle, dict) else None
        return EpisodeResult(case_id, "failed", "fault", 0, 0.0, None, None,
                             f"{type(exc).__name__}: {exc}", None)
    return episode.run()
