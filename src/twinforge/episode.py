"""One test-case episode: scenario + vehicle + autonomy + telemetry, run at a
fixed timestep until a terminal condition.

Terminal conditions: standstill after an emergency stop (with a grace window
so the trace captures any rollback), a collision (a fixed trace window after
the first overlap; the world is static, so nothing after it changes the
verdict), or the simulated-time cap. Every source of randomness is the
case-seeded counter-based generator, so a (case, seed) pair is
bit-reproducible anywhere.

`Episode.start` builds a run's state at spawn, an `EpisodeState`, and
`Episode.advance` steps it to a terminal or to a given step. A fork is a
`copy.deepcopy` of that state at a frame boundary, advanced on its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .autonomy import (
    AebPlanner,
    AutonomyConfig,
    ObstacleView,
    SurrogateDetector,
    estimate_range_px,
    headlight_control,
    longitudinal_control,
    default_autonomy_doc,
)
from .autonomy import parse_autonomy_doc  # noqa: F401  a binding perfbench/tracing.py wraps
from .documents import ConfigurationError, NonNegative, Positive, Section, Seed, from_doc, to_doc
from .dynamics import SimulationFault, Vehicle, VehicleConfig, VehicleState, default_vehicle_config
from .environment import (
    TerrainQueryError,
    condition_derive,
    env_raycast,
    footprint_corners,
    rectangles_overlap,
)
from .metrics import TelemetryLog, TelemetryRecord, VerdictRecords, compute_dtc, evaluate_verdict
from .scenarios import ScenarioConfig, build_scenario, builtin_scenario_doc
from .scenarios import load_scenario_doc  # noqa: F401  a binding perfbench/tracing.py wraps
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
# Terrain samples (rays x r_max / (cell / 2)) one full_scans LIDAR cast holds at once: a cast
# of whole planar sweeps, about 14,500 each by default, or the final spatial scan's 26,000.
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
        if not self.seed < 2 ** 128:  # start() keys the detector's Philox stream with it
            raise ConfigurationError(f"CaseBundle.seed must be below 2**128, the Philox key size, got {self.seed}")


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


@dataclass
class EpisodeState:
    """A run between two steps: what `Episode.advance` changes, none of what the
    `Episode` built. A fork is a `copy.deepcopy` of one at a frame boundary (`steps`
    a multiple of perception_period_steps) with the copy's `planner.mode` set."""
    plant: VehicleState
    pose: tuple  # `Vehicle.origin_pose(plant)`
    detector: SurrogateDetector
    planner: AebPlanner
    log: VerdictRecords  # a TelemetryLog with collect_telemetry
    steps: int = 0
    seen: tuple[int, float, float] | None = None  # the last frame's summary, for its records
    collision_count: int = 0  # 1 from the first overlap on
    contact_end: float = math.inf  # the step that ends the trace after contact
    hold_elapsed: float = 0.0
    scan_poses: list = field(default_factory=list)  # (t, pose) of each planar sweep under full_scans
    terminal: str | None = None  # an EpisodeResult terminal, once reached
    error: str | None = None


class Episode:
    """One case, stepped at sim.dt until a terminal: standstill_after_aeb,
    collision, timeout, or fault when the plant, a terrain query or float arithmetic fails.
    It keeps the case and what no run changes, so each run starts from spawn and gives one result.
    Its scenario is a document, as `default_bundle(scenario=name)` or `load_scenario_doc(path)` gives."""

    def __init__(self, bundle: dict, collect_telemetry: bool = True, full_scans: bool = False):
        case = self.case = from_doc(CaseBundle, bundle)
        self.collect_telemetry = collect_telemetry
        self.full_scans = full_scans

        self.vehicle = Vehicle(case.vehicle)
        fp = case.vehicle.footprint
        self.front_offset = fp.center_x + fp.length / 2.0
        self.half_width = fp.width / 2.0

        self.terrain, self.obstacles = build_scenario(case.scenario, self.front_offset)
        self.condition = condition_derive(case.weather, case.time_of_day)
        self.lights = headlight_control(self.condition.ambient_light, self.condition.fog_density)

        self.camera_mount = forward_camera_mount(case.sensors.camera.position)
        self._proj = projection_matrix(case.sensors.camera)
        self.ins = InsSensor()
        self.lidar = case.sensors.lidar
        self.lidar_mount = forward_lidar_mount(self.lidar.position)
        # The final spatial scan: 25 azimuths at 13 elevations.
        self.spatial_lidar = replace(self.lidar, theta_min=-0.6, theta_max=0.6, theta_res=0.05)
        self.spatial_phis = angle_grid(-0.3, 0.3, 0.05)
        samples = []
        for lidar, channels in ((self.lidar, 1), (self.spatial_lidar, len(self.spatial_phis))):
            rays = ((lidar.theta_max - lidar.theta_min) / lidar.theta_res + 1.0) * channels
            samples.append(rays * lidar.r_max / (self.terrain.cell / 2.0))
            if full_scans and not samples[-1] <= MAX_SCAN_SAMPLES:
                raise ConfigurationError(f"a LIDAR cast of {rays:.6g} rays to r_max {lidar.r_max} "
                                         f"exceeds {MAX_SCAN_SAMPLES} terrain samples")
        self.sweeps_per_cast = max(1, int(MAX_SCAN_SAMPLES // max(samples[0], 1.0)))

    # -- helpers ---------------------------------------------------------------

    def _perceive(self, pose) -> list[ObstacleView]:
        cam_world = pose_matrix(*pose) @ self.camera_mount
        view = camera_matrices(cam_world)
        cam_pos = cam_world[:3, 3]
        resolution = self.case.sensors.camera.resolution
        views = []
        for obs in self.obstacles:
            area = project_box(obs.corners_3d(), view, self._proj, resolution)
            if area is None:
                continue
            gap = np.subtract(obs.position, cam_pos)
            d = math.sqrt(gap.dot(gap))  # np.linalg.norm's arithmetic
            views.append(ObstacleView(obs.cls, area, d))
        return views

    def _overlaps(self, ex: float, ey: float, eyaw: float) -> bool:
        """Whether the ego footprint overlaps any obstacle.

        `advance` calls it only when the pose's DTC is at most 1e-6 m: no point
        of the footprint lies ahead of the front face, so an obstacle whose
        near edge is more than 1e-6 m (far above rounding) ahead of it cannot
        touch.
        """
        fp = self.case.vehicle.footprint
        ego = footprint_corners(ex, ey, eyaw, fp.length, fp.width, fp.center_x)
        return any(rectangles_overlap(ego, obs.corners_2d()) for obs in self.obstacles)

    # -- main loop ---------------------------------------------------------------

    def start(self) -> EpisodeState:
        """A run at spawn, with its own plant state, detector stream, planner and log."""
        case, autonomy = self.case, self.case.autonomy
        spawn, res = case.scenario.spawn, case.sensors.camera.resolution
        plant = self.vehicle.spawn_state(self.terrain, spawn.x, spawn.y, spawn.yaw)
        detector = SurrogateDetector(
            autonomy.presets[case.model], self.condition, self.lights,
            np.random.Generator(np.random.Philox(key=case.seed)), autonomy.false_positive_rate)
        planner = AebPlanner(autonomy.aeb, functools.partial(
            estimate_range_px, fx_px=self._proj[0, 0] * res[0] / 2.0,
            fy_px=self._proj[1, 1] * res[1] / 2.0,
            assumed_frontal_area=autonomy.assumed_frontal_area))
        # Without telemetry the episode still keeps the records its verdict reads.
        log = TelemetryLog() if self.collect_telemetry else VerdictRecords()
        return EpisodeState(plant, self.vehicle.origin_pose(plant), detector, planner, log)

    def advance(self, run: EpisodeState, until_step: int | None = None) -> EpisodeState:
        """Step `run` in place until it has a terminal or `run.steps` is `until_step`; return it."""
        if run.terminal is not None:
            return run
        sim, autonomy, dt = self.case.sim, self.case.autonomy, self.case.sim.dt
        max_steps = int(round(sim.t_max / dt))
        stop = max_steps if until_step is None else min(until_step, max_steps)
        terminal = "timeout" if stop == max_steps else None  # unless the loop breaks
        cruise_speed, cruise_kp = self.case.scenario.cruise_speed, autonomy.control.cruise_kp
        perception_period = autonomy.perception_period_steps
        contact_steps = int(round(sim.contact_window / dt))
        grace = sim.post_stop_grace
        front_offset, half_width, obstacles = self.front_offset, self.half_width, self.obstacles
        full_scans, scan_poses, terrain = self.full_scans, run.scan_poses, self.terrain
        state, pose, planner = run.plant, run.pose, run.planner
        # The run's counters, in locals that are written back on exit: no step reads `run`.
        steps, seen, collision_count = run.steps, run.seen, run.collision_count
        contact_end, hold_elapsed = run.contact_end, run.hold_elapsed
        # The loop's bound methods, read once.
        perceive, detect, plan = self._perceive, run.detector.detect, planner.plan
        step, origin_pose = self.vehicle.step, self.vehicle.origin_pose
        set_commands, make_record, append = state.set_commands, self._make_record, run.log.append
        read = self.ins.read

        try:
            # numpy overflow, 0/0 or x/0 raises FloatingPointError, an ArithmeticError
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                for i in range(steps, stop):
                    if i % perception_period == 0:
                        detections = detect(perceive(pose))
                        plan(detections, state.forward_speed)
                        # The frame's summary, for its records until the next frame.
                        best = max(detections, key=lambda d: d.confidence, default=None)
                        seen = (len(detections), best.confidence, best.area) if best else (0, 0.0, 0.0)
                    mode = planner.mode  # only `plan` changes it
                    throttle, brake = longitudinal_control(mode, state.forward_speed,
                                                           cruise_speed, cruise_kp)
                    set_commands(throttle, brake)
                    step(state, terrain, dt)
                    steps += 1
                    t = steps * dt

                    pose = origin_pose(state)
                    position, euler = read(pose)
                    ex, ey, eyaw = position[0], position[1], euler[2]
                    dtc = compute_dtc(ex, ey, eyaw, front_offset, half_width, obstacles)
                    if not collision_count and dtc <= 1e-6 and self._overlaps(ex, ey, eyaw):
                        collision_count = 1
                        contact_end = steps + contact_steps

                    append(make_record(state, position, euler, t, seen, mode == "brake", dtc,
                                       collision_count))

                    if full_scans and steps % 50 == 0:
                        scan_poses.append((t, pose))

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
            run.error = f"{type(exc).__name__}: {exc}"
        run.steps, run.pose, run.seen, run.collision_count = steps, pose, seen, collision_count
        run.contact_end, run.hold_elapsed, run.terminal = contact_end, hold_elapsed, terminal
        return run

    def result(self, run: EpisodeState) -> EpisodeResult:
        """A run's result at its terminal, with the final spatial scan under full_scans."""
        if run.terminal is None:
            raise ValueError(f"a run at step {run.steps} has no terminal: advance it to one first")
        case, terminal, error, scan_dump = self.case, run.terminal, run.error, None
        if self.full_scans:
            try:
                scan_dump = self._scan_dump(run)
            except ArithmeticError as exc:
                terminal, error = "fault", error or f"{type(exc).__name__}: {exc}"
        verdict = (None if terminal == "fault"
                   else evaluate_verdict(run.log.verdict_records(), case.case_id))
        return EpisodeResult(case.case_id, terminal, run.steps, run.steps * case.sim.dt,
                             run.log if self.collect_telemetry else None, verdict, error, scan_dump)

    def run(self) -> EpisodeResult:
        """Run from spawn to a terminal: `result(advance(start()))`."""
        return self.result(self.advance(self.start()))

    def _make_record(self, state, position, euler, t: float, seen: tuple[int, float, float],
                     aeb: bool, dtc: float, collision_count: int) -> TelemetryRecord:
        """One step's row from the INS reading (`position`, `euler`); `seen` is
        the last frame's detection count, best confidence and that detection's
        area (0.0 and 0.0 with none)."""
        pt = state.pt
        return TelemetryRecord._make((
            t, position[0], position[1], position[2], euler[0], euler[1], euler[2],
            state.vel[0], state.cmd_throttle, 0.0, state.cmd_brake,  # 0.0: steer_cmd
            0.0, pt.gear, pt.engine_rpm, *seen,  # 0.0: handbrake_cmd
            1 if aeb else 0, dtc, collision_count, self.lights))

    def _scan_dump(self, run: EpisodeState) -> str:
        """A line per planar sweep of `run.scan_poses`, `sweeps_per_cast` to a cast, then the
        spatial scan from the run's last pose, under the step loop's float error rules."""
        raycast = functools.partial(env_raycast, self.terrain, self.obstacles)
        lines, mount = [], self.lidar_mount
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for first in range(0, len(run.scan_poses), self.sweeps_per_cast):
                group = run.scan_poses[first:first + self.sweeps_per_cast]
                poses = np.array([pose_matrix(*pose) @ mount for _, pose in group])
                for (t, _), ranges in zip(group, lidar_scan_2d(self.lidar, poses, raycast)):
                    lines.append(f"t={t:.2f} " + " ".join(
                        f"{r:.4f}" if math.isfinite(r) else "inf" for r in ranges.tolist()))
            points = lidar_scan_3d(self.spatial_lidar, self.spatial_phis,
                                   pose_matrix(*run.pose) @ mount, raycast)
        return "\n".join(lines) + "\n# spatial scan (sensor frame)\n" + point_cloud_ascii(points)


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
