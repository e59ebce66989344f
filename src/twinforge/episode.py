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
from .metrics import TelemetryLog, TelemetryRecord, VerdictRecords, compute_dtc, evaluate_verdict
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
# Terrain samples one full_scans LIDAR cast holds at once: rays x r_max / (cell / 2).
# The default planar sweep takes about 14,500 and the final spatial scan 26,000.
MAX_SCAN_SAMPLES = 1_000_000


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
        if not self.dt >= 1e-6:  # the CSV writes t to 6 decimals: a smaller dt repeats it
            raise ConfigurationError(f"need dt >= 1e-06 s, the CSV's time resolution, got dt={self.dt}")


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
    terminal: str         # standstill_after_aeb | collision | timeout | fault
    steps: int
    duration: float
    log: TelemetryLog | None
    verdict: object | None
    error: str | None
    scan_dump: str | None

    @property
    def status(self) -> str:
        return "failed" if self.terminal == "fault" else "done"


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
        self.half_width = fp.width / 2.0

        self.scenario = case.scenario
        self.terrain, self.obstacles = build_scenario(case.scenario, self.front_offset)
        self.condition = condition_derive(case.weather, case.time_of_day)
        self.lights = headlight_control(self.condition.ambient_light, self.condition.fog_density)

        self.autonomy = case.autonomy
        self.detector = SurrogateDetector(
            self.autonomy.presets[case.model], self.condition, self.lights,
            np.random.Generator(np.random.Philox(key=case.seed)),
            self.autonomy.false_positive_rate)

        self.camera = case.sensors.camera
        self.camera_mount = forward_camera_mount(self.camera.position)
        res = self.camera.resolution
        self._proj = projection_matrix(self.camera)
        self.planner = AebPlanner(self.autonomy.aeb, functools.partial(
            estimate_range_px, fx_px=self._proj[0, 0] * res[0] / 2.0,
            fy_px=self._proj[1, 1] * res[1] / 2.0,
            assumed_frontal_area=self.autonomy.assumed_frontal_area))
        self.ins = InsSensor()
        self.lidar = case.sensors.lidar
        self.lidar_mount = forward_lidar_mount(self.lidar.position)
        # The final spatial scan: 25 azimuths at 13 elevations.
        self.spatial_lidar = replace(self.lidar, theta_min=-0.6, theta_max=0.6, theta_res=0.05)
        self.spatial_phis = angle_grid(-0.3, 0.3, 0.05)
        for lidar, channels in ((self.lidar, 1), (self.spatial_lidar, len(self.spatial_phis))):
            rays = ((lidar.theta_max - lidar.theta_min) / lidar.theta_res + 1.0) * channels
            if full_scans and not rays * lidar.r_max / (self.terrain.cell / 2.0) <= MAX_SCAN_SAMPLES:
                raise ConfigurationError(f"a LIDAR cast of {rays:.6g} rays to r_max {lidar.r_max} "
                                         f"exceeds {MAX_SCAN_SAMPLES} terrain samples")

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
            gap = np.subtract(obs.position, cam_pos)
            d = math.sqrt(gap.dot(gap))  # np.linalg.norm's arithmetic
            views.append(ObstacleView(obs.cls, area, d))
        return self.detector.detect(views)

    def _raycaster(self):
        return functools.partial(env_raycast, self.terrain, self.obstacles)

    def _overlaps(self, ex: float, ey: float, eyaw: float) -> bool:
        """Whether the ego footprint overlaps any obstacle.

        `run` calls it only when the pose's DTC is at most 1e-6 m: no point
        of the footprint lies ahead of the front face, so an obstacle whose
        near edge is more than 1e-6 m (far above rounding) ahead of it cannot
        touch.
        """
        fp = self.vcfg.footprint
        ego = footprint_corners(ex, ey, eyaw, fp.length, fp.width, fp.center_x)
        return any(rectangles_overlap(ego, obs.corners_2d()) for obs in self.obstacles)

    # -- main loop ---------------------------------------------------------------

    def run(self) -> EpisodeResult:
        dt = self.sim.dt
        spawn = self.scenario.spawn
        vehicle, terrain, planner = self.vehicle, self.terrain, self.planner
        state = vehicle.spawn_state(terrain, spawn.x, spawn.y, spawn.yaw)
        pose = vehicle.origin_pose(state)  # the state's pose, updated after each step
        # Without telemetry the episode still keeps the records its verdict reads.
        log = TelemetryLog() if self.collect_telemetry else VerdictRecords()

        collision_count = 0  # 1 from the first overlap on
        contact_end = math.inf  # the step that ends the trace after contact
        hold_elapsed = 0.0
        scan_lines: list[str] = []
        terminal = "timeout"
        error = None
        t = 0.0
        steps = 0
        max_steps = int(round(self.sim.t_max / dt))
        cruise_speed = self.scenario.cruise_speed
        cruise_kp = self.autonomy.control.cruise_kp
        perception_period = self.autonomy.perception_period_steps
        contact_steps = int(round(self.sim.contact_window / dt))
        grace = self.sim.post_stop_grace
        front_offset, half_width, obstacles = self.front_offset, self.half_width, self.obstacles
        full_scans = self.full_scans
        # The loop's bound methods, read once.
        perceive, plan, step, origin_pose = self._perceive, planner.plan, vehicle.step, vehicle.origin_pose
        set_commands, make_record, append = state.set_commands, self._make_record, log.append

        try:
            for i in range(max_steps):
                if i % perception_period == 0:
                    detections = perceive(pose)
                    plan(detections, state.forward_speed)
                    # The frame's summary, for its records until the next frame.
                    best = max(detections, key=lambda d: d.confidence, default=None)
                    seen = (len(detections), best.confidence, best.area) if best else (0, 0.0, 0.0)
                mode = planner.mode  # only `plan` changes it
                throttle, brake = longitudinal_control(mode, state.forward_speed, cruise_speed, cruise_kp)
                set_commands(throttle, brake)
                step(state, terrain, dt)
                steps += 1
                t = steps * dt

                pose = origin_pose(state)
                rot, (ex, ey, _) = pose
                eyaw = math.atan2(rot[3], rot[0])
                dtc = compute_dtc(ex, ey, eyaw, front_offset, half_width, obstacles)
                if not collision_count and dtc <= 1e-6 and self._overlaps(ex, ey, eyaw):
                    collision_count = 1
                    contact_end = steps + contact_steps

                append(make_record(state, pose, t, seen, mode == "brake", dtc, collision_count))

                if full_scans and steps % 50 == 0:
                    self._dump_scan(pose, t, scan_lines)

                if mode == "coast":
                    hold_elapsed += dt
                    if hold_elapsed >= grace:
                        terminal = "standstill_after_aeb"
                        break
                if steps >= contact_end:
                    terminal = "collision"
                    break
        except (SimulationFault, TerrainQueryError, ArithmeticError) as exc:
            terminal = "fault"
            error = f"{type(exc).__name__}: {exc}"

        scan_dump = None
        if full_scans:
            scan_dump = "\n".join(scan_lines)
            points = lidar_scan_3d(self.spatial_lidar, self.spatial_phis,
                                   pose_matrix(*pose) @ self.lidar_mount, self._raycaster())
            scan_dump += "\n# spatial scan (sensor frame)\n" + point_cloud_ascii(points)

        verdict = (None if terminal == "fault"
                   else evaluate_verdict(log.verdict_records(), self.case_id))
        return EpisodeResult(self.case_id, terminal, steps, t,
                             log if self.collect_telemetry else None, verdict, error, scan_dump)

    def _make_record(self, state, pose, t: float, seen: tuple[int, float, float], aeb: bool,
                     dtc: float, collision_count: int) -> TelemetryRecord:
        """One step's row; `seen` is the last frame's detection count, best
        confidence and that detection's area (0.0 and 0.0 with none)."""
        position, euler = self.ins.read(pose)
        pt = state.pt
        return TelemetryRecord._make((
            t, position[0], position[1], position[2], euler[0], euler[1], euler[2],
            state.vel[0], state.cmd_throttle, 0.0, state.cmd_brake,  # 0.0: steer_cmd
            0.0, pt.gear, pt.engine_rpm, *seen,  # 0.0: handbrake_cmd
            1 if aeb else 0, dtc, collision_count, self.lights))

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
        return EpisodeResult(case_id, "fault", 0, 0.0, None, None,
                             f"{type(exc).__name__}: {exc}", None)
    return episode.run()
