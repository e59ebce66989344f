"""One test-case episode: scenario + vehicle + autonomy + telemetry, run at a
fixed timestep until a terminal condition.

Terminal conditions: standstill after an emergency stop (with a grace window
so the trace captures any rollback), standstill after a collision, or the
simulated-time cap. Every source of randomness is the case-seeded
counter-based generator, so a (case, seed) pair is bit-reproducible anywhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .autonomy import (
    AebPlanner,
    ObstacleView,
    SurrogateDetector,
    estimate_range_px,
    headlight_control,
    longitudinal_control,
    parse_autonomy_doc,
    default_autonomy_doc,
)
from .documents import from_doc, to_doc
from .dynamics import SimulationFault, Vehicle, VehicleConfig, default_vehicle_config
from .environment import (
    TerrainQueryError,
    condition_derive,
    env_raycast,
    footprint_corners,
    rectangles_overlap,
)
from .metrics import TelemetryLog, TelemetryRecord, compute_dtc, evaluate_verdict
from .scenarios import build_scenario, builtin_scenario_doc, load_scenario_doc
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

@dataclass
class SimParams:
    """The sim section of a case bundle."""
    dt: float = 0.01
    t_max: float = 120.0
    post_stop_grace: float = 10.0
    collision_still_grace: float = 3.0


OBSTACLE_MASS = 300.0  # kg, for the collision momentum knock
PUSH_CLEARANCE = 0.8   # m between faces after a dynamic obstacle is shoved


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
        "vehicle": None,
        "sim": to_doc(SimParams()),
        "sensors": to_doc(SensorParams()),
    }


@dataclass
class EpisodeResult:
    case_id: str
    status: str           # done | failed
    terminal: str         # standstill_after_aeb | standstill_after_collision | timeout | fault
    steps: int
    duration: float
    log: TelemetryLog | None
    verdict: object | None
    error: str | None
    scan_dump: str | None

    def summary(self) -> dict:
        out = {
            "case_id": self.case_id,
            "status": self.status,
            "terminal": self.terminal,
            "steps": self.steps,
            "duration": round(self.duration, 6),
        }
        if self.verdict is not None:
            out["verdict"] = self.verdict.to_dict()
        if self.error:
            out["error"] = self.error
        return out


class Episode:
    def __init__(self, bundle: dict, collect_telemetry: bool = True, full_scans: bool = False):
        self.bundle = bundle
        self.case_id = bundle["case_id"]
        self.collect_telemetry = collect_telemetry
        self.full_scans = full_scans

        self.sim = from_doc(SimParams, bundle.get("sim") or {})

        vehicle_doc = bundle.get("vehicle")
        self.vcfg = VehicleConfig.from_dict(vehicle_doc) if vehicle_doc else default_vehicle_config()
        self.vehicle = Vehicle(self.vcfg)
        self.front_offset = self.vcfg.footprint.center_x + self.vcfg.footprint.length / 2.0

        scenario_doc = bundle["scenario"]
        if isinstance(scenario_doc, str):
            scenario_doc = load_scenario_doc(scenario_doc)
        self.scenario = build_scenario(scenario_doc, self.front_offset)
        self.condition = condition_derive(bundle["weather"], bundle["time_of_day"])
        self.lights = headlight_control(self.condition.ambient_light, self.condition.fog_density)

        self.autonomy = parse_autonomy_doc(bundle.get("autonomy") or default_autonomy_doc())
        if bundle["model"] not in self.autonomy.presets:
            raise ValueError(f"no perception preset for model {bundle['model']!r}")
        self.rng = np.random.Generator(np.random.Philox(key=int(bundle["seed"])))
        self.detector = SurrogateDetector(
            self.autonomy.presets[bundle["model"]], self.condition, self.rng,
            self.autonomy.false_positive_rate)
        self.planner = AebPlanner(self.autonomy.aeb)

        sensors = from_doc(SensorParams, bundle.get("sensors") or {})
        self.camera = sensors.camera
        self.camera_mount = forward_camera_mount(self.camera.position)
        res = self.camera.resolution
        proj = projection_matrix(self.camera)
        self._fx_px = proj[0, 0] * res[0] / 2.0
        self._fy_px = proj[1, 1] * res[1] / 2.0
        self.ins = InsSensor()
        self.lidar = sensors.lidar
        self.lidar_mount = forward_lidar_mount(self.lidar.position)

    # -- helpers ---------------------------------------------------------------

    def _perceive(self, state):
        cam_world = pose_matrix(*self.vehicle.origin_pose(state)) @ self.camera_mount
        view, proj = camera_matrices(self.camera, cam_world)
        cam_pos = cam_world[:3, 3]
        views = []
        for obs in self.scenario.obstacles:
            bp = project_box(obs.corners_3d(), view, proj, self.camera.resolution)
            if bp is None:
                continue
            d = float(np.linalg.norm(np.asarray(obs.position) - cam_pos))
            views.append(ObstacleView(obs.cls, bp.area, bp.center, d))
        detections = self.detector.detect(views, self.lights)
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
        return functools.partial(env_raycast, self.scenario.terrain, self.scenario.obstacles)

    def _handle_collision(self, state, ego_xy_yaw) -> bool:
        """Overlap test; push dynamic obstacles ahead and bleed ego momentum."""
        ex, ey, eyaw = ego_xy_yaw
        fp = self.vcfg.footprint
        ego = footprint_corners(ex, ey, eyaw, fp.length, fp.width, fp.center_x)
        hit = False
        for obs in self.scenario.obstacles:
            if not rectangles_overlap(ego, obs.corners_2d()):
                continue
            hit = True
            if obs.dynamic:
                hx, hy = math.cos(eyaw), math.sin(eyaw)
                front_s = ex * hx + ey * hy + self.front_offset
                obs_depth = max(obs.extents[0], obs.extents[1])
                target_s = front_s + PUSH_CLEARANCE + obs_depth / 2.0
                obs_s = obs.position[0] * hx + obs.position[1] * hy
                shift = target_s - obs_s
                obs.position[0] += hx * shift
                obs.position[1] += hy * shift
                gz = self.scenario.terrain.height_or_none(obs.position[0], obs.position[1])
                if gz is not None:
                    obs.position[2] = gz + obs.extents[2] / 2.0
                knock = self.vcfg.total_mass / (self.vcfg.total_mass + OBSTACLE_MASS)
                state.vel[0] *= knock
                state.vel[1] *= knock
        return hit

    # -- main loop ---------------------------------------------------------------

    def run(self) -> EpisodeResult:
        dt = self.sim.dt
        sx, sy, syaw = self.scenario.spawn
        state = self.vehicle.spawn_state(self.scenario.terrain, sx, sy, syaw)
        log = TelemetryLog() if self.collect_telemetry else None

        detections: list = []
        dtc_estimate = None
        collision_count = 0
        was_overlapping = False
        hold_elapsed = 0.0
        collision_still = 0.0
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

        try:
            for i in range(max_steps):
                if i % perception_period == 0:
                    detections, dtc_estimate = self._perceive(state)
                    self.planner.plan(detections, dtc_estimate, state.forward_speed)
                if self.planner.braking:
                    throttle, brake = longitudinal_control("brake", state.forward_speed,
                                                           cruise_speed, cruise_kp)
                elif self.planner.finished:
                    throttle, brake = 0.0, 0.0  # mission over, coast
                else:
                    throttle, brake = longitudinal_control("cruise", state.forward_speed,
                                                           cruise_speed, cruise_kp)
                state.set_commands(throttle, 0.0, brake, 0.0)
                self.vehicle.step(state, self.scenario.terrain, dt)
                steps += 1
                t = steps * dt

                pose = self.vehicle.origin_pose(state)
                rot, origin = pose
                ego_xy_yaw = (origin[0], origin[1], math.atan2(rot[3], rot[0]))
                overlapping = self._handle_collision(state, ego_xy_yaw)
                if overlapping and not was_overlapping:
                    collision_count += 1
                was_overlapping = overlapping

                dtc = compute_dtc(ego_xy_yaw[0], ego_xy_yaw[1], ego_xy_yaw[2],
                                  self.front_offset, self.scenario.obstacles)

                if log is not None:
                    log.append(self._make_record(state, pose, t, detections, dtc,
                                                 collision_count))

                if self.full_scans and steps % 50 == 0:
                    self._dump_scan(state, t, scan_lines)

                speed = state.speed
                if self.planner.finished:
                    hold_elapsed += dt
                    if hold_elapsed >= self.sim.post_stop_grace:
                        terminal = "standstill_after_aeb"
                        break
                if collision_count > 0 and speed < 0.05 and not self.planner.braking:
                    collision_still += dt
                    if collision_still >= self.sim.collision_still_grace:
                        terminal = "standstill_after_collision"
                        break
                elif speed >= 0.05:
                    collision_still = 0.0
        except (SimulationFault, TerrainQueryError) as exc:
            status = "failed"
            terminal = "fault"
            error = f"{type(exc).__name__}: {exc}"

        scan_dump = None
        if self.full_scans:
            scan_dump = "\n".join(scan_lines)
            points = lidar_scan_3d(
                replace(self.lidar, theta_min=-0.6, theta_max=0.6, theta_res=0.05),
                angle_grid(-0.3, 0.3, 0.05),
                pose_matrix(*self.vehicle.origin_pose(state)) @ self.lidar_mount,
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
        throttle, steer, brk, hand = state.cmd_throttle, state.cmd_steer, state.cmd_brake, state.cmd_handbrake
        best_conf = 0.0
        best_area = 0.0
        if detections:
            best = max(detections, key=lambda d: d.confidence)
            best_conf = best.confidence
            best_area = best.area
        return TelemetryRecord(
            t=t,
            pos_x=position[0], pos_y=position[1], pos_z=position[2],
            roll=euler[0], pitch=euler[1], yaw=euler[2],
            speed=state.forward_speed,
            throttle_cmd=throttle, steer_cmd=steer, brake_cmd=brk, handbrake_cmd=hand,
            gear=state.pt.gear, engine_rpm=state.pt.engine_rpm,
            detection_count=len(detections),
            best_confidence=best_conf, best_area_px=best_area,
            aeb_active=1 if self.planner.braking else 0,
            dtc=dtc, collision_count=collision_count,
            lights=self.lights,
        )

    def _dump_scan(self, state, t: float, lines: list[str]) -> None:
        pose = pose_matrix(*self.vehicle.origin_pose(state)) @ self.lidar_mount
        ranges = lidar_scan_2d(self.lidar, pose, self._raycaster())
        head = " ".join(f"{r:.4f}" if math.isfinite(r) else "inf" for r in ranges)
        lines.append(f"t={t:.2f} {head}")


def run_case(bundle: dict, collect_telemetry: bool = True, full_scans: bool = False) -> EpisodeResult:
    return Episode(bundle, collect_telemetry, full_scans).run()
