"""Call tracing installed from outside the program.

The tracer replaces the bindings that callers use (a name imported with
``from … import`` into the calling module, or a method on its class) with a
wrapper that records one span per call: name, start, end and parent span.
Spans of one case are kept in memory, folded into per-name samples when the
case ends, and the spans of the first case a process runs are kept whole so
they can be written out.  ``uninstall`` puts every original binding back.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# (module whose binding the caller reads, attribute or Class.method).
BINDINGS = (
    # episode.py: every function it imports with `from … import`, and its own.
    ("twinforge.episode", "estimate_range_px"),
    ("twinforge.episode", "headlight_control"),
    ("twinforge.episode", "longitudinal_control"),
    ("twinforge.episode", "parse_autonomy_doc"),
    ("twinforge.episode", "default_autonomy_doc"),
    ("twinforge.episode", "default_vehicle_config"),
    ("twinforge.episode", "condition_derive"),
    ("twinforge.episode", "env_raycast"),
    ("twinforge.episode", "footprint_corners"),
    ("twinforge.episode", "rectangles_overlap"),
    ("twinforge.episode", "compute_dtc"),
    ("twinforge.episode", "evaluate_verdict"),
    ("twinforge.episode", "build_scenario"),
    ("twinforge.episode", "builtin_scenario_doc"),
    ("twinforge.episode", "load_scenario_doc"),
    ("twinforge.episode", "camera_matrices"),
    ("twinforge.episode", "forward_camera_mount"),
    ("twinforge.episode", "lidar_scan_2d"),
    ("twinforge.episode", "lidar_scan_3d"),
    ("twinforge.episode", "point_cloud_ascii"),
    ("twinforge.episode", "project_box"),
    ("twinforge.episode", "forward_lidar_mount"),
    ("twinforge.episode", "Episode.run"),
    # dynamics/vehicle.py: the force and powertrain functions it imports.
    ("twinforge.dynamics.vehicle", "steering_step"),
    ("twinforge.dynamics.vehicle", "powertrain_step"),
    ("twinforge.dynamics.vehicle", "torque_split"),
    ("twinforge.dynamics.vehicle", "wheel_brake_torques"),
    ("twinforge.dynamics.vehicle", "suspension_step"),
    ("twinforge.dynamics.vehicle", "antiroll_forces"),
    ("twinforge.dynamics.vehicle", "tire_forces"),
    ("twinforge.dynamics.vehicle", "aero_forces"),
    # Methods, patched on their class so every caller sees the wrapper.
    ("twinforge.dynamics.vehicle", "Vehicle.step"),
    ("twinforge.dynamics.vehicle", "Vehicle.origin_pose"),
    ("twinforge.dynamics.vehicle", "Vehicle.spawn_state"),
    ("twinforge.environment", "TerrainHeightmap.height_and_gradient"),
    ("twinforge.environment", "TerrainHeightmap.raycast"),
    ("twinforge.environment", "Obstacle.raycast"),
    ("twinforge.environment", "Obstacle.corners_2d"),
    ("twinforge.environment", "Obstacle.corners_3d"),
    ("twinforge.sensors", "InsSensor.read"),
    ("twinforge.autonomy", "SurrogateDetector.detect"),
    ("twinforge.autonomy", "AebPlanner.plan"),
    ("twinforge.metrics", "TelemetryLog.append"),
    ("twinforge.metrics", "TelemetryLog.to_csv"),
)


def self_times(durations: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Duration minus the time the span's direct children cover.

    The spans come from one thread, so the children of a span run one after
    another inside it and their coverage is the sum of their durations.
    ``parents[i]`` is the index of span i's parent, or -1 for a root.
    """
    inner = parents >= 0
    covered = np.bincount(parents[inner], weights=durations[inner],
                          minlength=len(durations))
    return durations - covered


class Tracer:
    """Span buffer for the case in progress plus per-name samples of the
    cases already finished in this process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[int] = [-1]
        self._clear_case()
        self.case_id = None
        self.samples: dict[str, dict] = {}
        self.kept_spans: dict | None = None
        self._keep_next = True

    def _clear_case(self):
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._nonnull: dict[int, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            idx = len(self._start)
            self._name.append(nid)
            self._parent.append(stack[-1])
            self._start.append(0.0)
            self._end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self._start[idx] = t0
                self._end[idx] = t1
            if result is not None:
                self._nonnull[nid] = self._nonnull.get(nid, 0) + 1
            return result

        return traced

    def begin_case(self, case_id: str) -> None:
        self._clear_case()
        self._stack[:] = [-1]
        self.case_id = case_id

    def end_case(self) -> None:
        """Fold the case's spans into per-name samples (µs)."""
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        start = np.frombuffer(self._start, dtype=np.float64)
        end = np.frombuffer(self._end, dtype=np.float64)
        dur = end - start
        own = self_times(dur, parent)
        if self._keep_next:
            self._keep_next = False
            self.kept_spans = {"case_id": self.case_id, "names": list(self.names),
                               "name": name.copy(),
                               "parent": parent.copy(), "start": start.copy(),
                               "end": end.copy()}
        order = np.argsort(name, kind="stable")
        bounds = np.searchsorted(name[order], np.arange(len(self.names) + 1))
        for nid, label in enumerate(self.names):
            sel = order[bounds[nid]:bounds[nid + 1]]
            if len(sel) == 0:
                continue
            entry = self.samples.setdefault(label, {"dur_us": [], "self_us": [], "nonnull": 0})
            entry["dur_us"].append((dur[sel] * 1e6).astype(np.float32))
            entry["self_us"].append((own[sel] * 1e6).astype(np.float32))
            entry["nonnull"] += self._nonnull.get(nid, 0)
        self._clear_case()

    def take(self) -> tuple[dict, dict | None]:
        """Hand over the finished cases' samples, and the kept spans once."""
        samples, spans = self.samples, self.kept_spans
        self.samples, self.kept_spans = {}, None
        return samples, spans


def merge_samples(into: dict, part: dict) -> None:
    for label, e in part.items():
        have = into.setdefault(label, {"dur_us": [], "self_us": [], "nonnull": 0})
        have["dur_us"].extend(e["dur_us"])
        have["self_us"].extend(e["self_us"])
        have["nonnull"] += e["nonnull"]


def resolve() -> tuple[list, list[str]]:
    """The (owner, attribute, original, span name) of every binding in
    BINDINGS that exists, and the names of those that do not, so a renamed
    function shows up in the result instead of aborting the run."""
    found = []
    missing = []
    for module_name, attr in BINDINGS:
        owner = importlib.import_module(module_name)
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
        original = None if owner is None else vars(owner).get(meth)
        if not callable(original) or isinstance(original, type):
            missing.append(f"{module_name}.{attr}")
            continue
        found.append((owner, meth, original, attr if cls_name else original.__name__))
    return found, missing


def install(tracer: Tracer) -> list:
    """Wrap every binding that exists; returns the list ``uninstall`` needs."""
    restore = []
    for owner, attr, original, label in resolve()[0]:
        setattr(owner, attr, tracer.wrap(original, label))
        restore.append((owner, attr, original))
    return restore


def uninstall(restore: list) -> None:
    for owner, target, original in reversed(restore):
        setattr(owner, target, original)
