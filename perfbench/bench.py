"""The twinforge benchmark: workloads, the runner, output checks and metrics.

A run repeats one unit of its workload (one sweep of the workload's cases)
until ``--seconds`` is used up and reports the median unit's figures, with
every time scaled to a reference host speed.  With tracing off it reports the
end-to-end metrics; with tracing on, one untraced unit is followed by traced
units and it reports the per-layer metrics and the tracing overhead.  See
perfbench/README.md.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from perfbench import tracing
from twinforge.episode import Episode, default_bundle, run_case
from twinforge.metrics import (
    TelemetryError,
    Verdict,
    aggregate_report,
    evaluate_verdict,
    parse_csv,
    render_report_text,
)

PRESETS = ("v3", "v2", "v3_tiny", "v2_tiny")
TIMES_OF_DAY = ("00:00", "06:00", "12:00", "18:00")

# The paper's 4 x 8 x 4 matrix takes about 135 s on two workers, more than a
# run may last.  The subset keeps every preset and every time of day in equal
# counts: each preset runs one time of day in clear and the other three in
# thick_fog.  Its cases end the same way for every --seed, so a sweep's work
# barely depends on it: thick fog always times out, and these clear cases
# always stop, after 1,900 to 4,300 steps.  (v2_tiny in clear at 00:00 is
# left out: it times out on most seeds but stops on some, which changes a
# sweep's steps by 7%.)
MATRIX_CLEAR_TIME = {"v3": "06:00", "v2": "00:00", "v3_tiny": "18:00", "v2_tiny": "12:00"}
SETUP_REPEATS = 5
READY_TIMEOUT_S = 60.0
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10
# The host's speed drifts by up to 1.5x over tens of seconds, on both vCPUs
# at once, while the VM runs nothing else.  A fixed pure-Python loop, timed
# in the case's own process right before and right after each case, measures
# that speed.  Case walls are scaled to the speed at which the probe takes
# REFERENCE_PROBE_S, a middle speed of this 2-vCPU Xeon.
PROBE_ITERATIONS = 60_000
PROBE_REPEATS = 3
REFERENCE_PROBE_S = 0.004


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple  # (scenario, model, weather, time_of_day)
    workers: int  # 0 runs the cases serially in this process
    full_scans: bool = False


def _matrix_cases() -> tuple:
    return tuple(
        ("default", model, "clear" if tod == MATRIX_CLEAR_TIME[model] else "thick_fog", tod)
        for model in PRESETS for tod in TIMES_OF_DAY)


WORKLOADS = {
    "matrix": Workload("matrix", _matrix_cases(), workers=2),
    "pinned": Workload("pinned", (
        ("default", "v3", "clear", "12:00"),
        ("default", "v2_tiny", "heavy_snow", "00:00"),
        ("slope", "v3", "clear", "12:00"),
        ("flat", "v3", "clear", "12:00"),
    ), workers=0),
    "scan": Workload("scan", (
        ("default", "v3", "clear", "12:00"),
        ("default", "v2_tiny", "thick_fog", "00:00"),
    ), workers=0, full_scans=True),
}


def make_bundles(wl: Workload, seed: int) -> list[dict]:
    return [default_bundle(f"{sc}/{model}/{weather}/{tod}", model, weather, tod, seed, sc)
            for sc, model, weather, tod in wl.cases]


def tail_percentile(samples) -> tuple[float, str, int]:
    """Highest of TAIL_PERCENTILES with at least TAIL_MIN_BEYOND samples
    beyond it, as (value, label, samples beyond).  With too few samples it
    is the maximum, labelled 'max'."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        beyond = n * (100.0 - p) / 100.0
        if beyond >= TAIL_MIN_BEYOND:
            return float(np.percentile(samples, p)), f"p{p:g}", int(beyond)
    return float(max(samples)), "max", 0


def speed_probe() -> float:
    """Median wall of PROBE_REPEATS runs of a fixed loop, in seconds.  The
    loop only touches cached small ints, so it allocates nothing and its
    speed does not depend on what the program left in the allocator."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for _ in itertools.repeat(None, PROBE_ITERATIONS):
            acc = (acc * 31 + 7) & 255
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- one case ----------------------------------------------------------------

def _raised(bundle: dict, exc: Exception, pid: int | None) -> dict:
    return {"case_id": bundle["case_id"], "model": bundle["model"], "pid": pid,
            "status": "raised", "terminal": None, "steps": 0, "verdict": None,
            "error": f"{type(exc).__name__}: {exc}", "error_type": type(exc).__name__,
            "traceback": traceback.format_exc(), "csv_sha256": None, "csv_bytes": 0,
            "scan_sha256": None}


def run_one(bundle: dict, full_scans: bool, keep_csv: bool, tracer=None) -> dict:
    """Run a case, serialise and hash its CSV; never raises.

    The case wall covers run_case, to_csv and the hash, which is what a user
    of a sweep waits for.  ``probe_s`` is the mean of the speed probes taken
    right before and right after it.
    """
    out = {"case_id": bundle["case_id"], "model": bundle["model"], "pid": os.getpid()}
    probe_before = speed_probe()
    if tracer is not None:
        tracer.begin_case(bundle["case_id"])
    csv = None
    start = time.perf_counter()
    try:
        res = run_case(bundle, collect_telemetry=True, full_scans=full_scans)
        csv = res.log.to_csv()
        out.update(status=res.status, terminal=res.terminal, steps=res.steps,
                   verdict=None if res.verdict is None else res.verdict.to_dict(),
                   error=res.error, csv_sha256=_sha256(csv), csv_bytes=len(csv.encode()),
                   scan_sha256=None if res.scan_dump is None else _sha256(res.scan_dump))
    except Exception as exc:  # a bad case is recorded; the workload goes on
        out = _raised(bundle, exc, out["pid"])
    out["start"], out["end"] = start, time.perf_counter()
    if tracer is not None:
        tracer.end_case()
        out["samples"], out["spans"] = tracer.take()
    if keep_csv:
        out["csv"] = csv
    out["probe_s"] = (probe_before + speed_probe()) / 2
    return out


# -- worker processes ----------------------------------------------------------

_worker_tracer = None


def _init_worker(trace: bool, first_bundle: dict, barrier) -> None:
    global _worker_tracer
    Episode(first_bundle)
    if trace:
        _worker_tracer = tracing.Tracer()
        tracing.install(_worker_tracer)
    barrier.wait(READY_TIMEOUT_S)


def _ready() -> int:
    return os.getpid()


def _run_in_worker(bundle: dict, full_scans: bool, keep_csv: bool) -> dict:
    return run_one(bundle, full_scans, keep_csv, _worker_tracer)


def start_pool(workers: int, first_bundle: dict, trace: bool) -> ProcessPoolExecutor:
    """A spawn pool whose workers have imported twinforge, built one Episode
    and installed tracing if asked, before this returns."""
    ctx = multiprocessing.get_context("spawn")
    pool = ProcessPoolExecutor(workers, mp_context=ctx, initializer=_init_worker,
                               initargs=(trace, first_bundle, ctx.Barrier(workers)))
    try:
        for fut in [pool.submit(_ready) for _ in range(workers)]:
            fut.result(timeout=2 * READY_TIMEOUT_S)
    except BaseException:
        pool.shutdown(wait=True, cancel_futures=True)
        raise
    return pool


def measure_setup(wl: Workload, seed: int):
    """Set up SETUP_REPEATS times: bundle generation, then a fresh pool
    (one worker for serial workloads) that imports and builds the first
    Episode.  Serial workloads then run in this process, so their pools are
    closed; a pooled workload keeps the last one.  Returns the set-up times,
    the same scaled to the reference speed by probes around each, and the
    pool."""
    times = []
    scaled = []
    pool = None
    for i in range(SETUP_REPEATS):
        probe_before = speed_probe()
        t0 = time.perf_counter()
        bundles = make_bundles(wl, seed)
        pool = start_pool(max(wl.workers, 1), bundles[0], trace=False)
        times.append(time.perf_counter() - t0)
        scaled.append(times[-1] * 2 * REFERENCE_PROBE_S / (probe_before + speed_probe()))
        if wl.workers == 0 or i < SETUP_REPEATS - 1:
            pool.shutdown(wait=True)
            pool = None
    return times, scaled, pool


# -- one unit ----------------------------------------------------------------------

def _batch_plan(bundles: list[dict]):
    """One batch per preset, the unit under test."""
    batches = [[SimpleNamespace(case_id=b["case_id"], model=b["model"])
                for b in bundles if b["model"] == model] for model in PRESETS]
    return SimpleNamespace(batches=[b for b in batches if b])


def _collect(fut, bundle: dict) -> dict:
    try:
        return fut.result()
    except Exception as exc:  # the worker died or its result did not arrive
        return dict(_raised(bundle, exc, None), start=math.nan, end=math.nan,
                    probe_s=math.nan)


def run_unit(wl: Workload, bundles: list[dict], pool, keep_csv: bool, tracer=None) -> dict:
    t0 = time.perf_counter()
    if pool is None:
        results = [run_one(b, wl.full_scans, keep_csv, tracer) for b in bundles]
    else:
        futs = [pool.submit(_run_in_worker, b, wl.full_scans, keep_csv) for b in bundles]
        results = [_collect(f, b) for f, b in zip(futs, bundles)]
    verdicts = {r["case_id"]: None if r["verdict"] is None else Verdict.from_dict(r["verdict"])
                for r in results}
    report = aggregate_report(verdicts, _batch_plan(bundles))
    text = render_report_text(report)
    t1 = time.perf_counter()
    return {"start": t0, "wall": t1 - t0, "results": results,
            "report": report.to_dict(), "report_text": text}


def timed_units(run, seconds: float, first: int = 0) -> list[dict]:
    """Call run(i) for i = first, first+1, ... until another unit as long
    as the last one would overrun ``seconds``; at least once."""
    units = []
    t0 = time.perf_counter()
    while True:
        units.append(run(first + len(units)))
        if time.perf_counter() - t0 + units[-1]["wall"] > seconds:
            return units


@contextmanager
def traced(tracer):
    restore = tracing.install(tracer)
    try:
        yield
    finally:
        tracing.uninstall(restore)


# -- checks ------------------------------------------------------------------------

def _same_verdict(ran: dict, parsed: dict) -> bool:
    """The CSV keeps 6 decimals, so floats re-derived from it agree to 1e-6."""
    for key, a in ran.items():
        b = parsed[key]
        if isinstance(a, float) and isinstance(b, float):
            if not math.isclose(a, b, rel_tol=0.0, abs_tol=1e-6):
                return False
        elif a != b:
            return False
    return True


def _digests(unit: dict) -> dict:
    return {r["case_id"]: (r["csv_sha256"], r["scan_sha256"]) for r in unit["results"]}


def check_outputs(bundles: list[dict], units: list[dict], rerun: dict | None) -> list[str]:
    """Problems found in the outputs; empty when all checks pass."""
    problems = []
    for r in units[0]["results"]:
        if r["status"] == "raised":
            continue
        try:
            rows = parse_csv(r["csv"])
        except TelemetryError as exc:
            problems.append(f"{r['case_id']}: CSV does not parse: {exc}")
            continue
        if len(rows) != r["steps"]:
            problems.append(f"{r['case_id']}: CSV has {len(rows)} rows for {r['steps']} steps")
        if r["verdict"] is not None:
            again = evaluate_verdict(rows, r["case_id"]).to_dict()
            if not _same_verdict(r["verdict"], again):
                problems.append(f"{r['case_id']}: verdict from CSV {again} != {r['verdict']}")
    first = _digests(units[0])
    for i, unit in enumerate(units[1:], start=1):
        if _digests(unit) != first:
            problems.append(f"unit {i} outputs differ from unit 0")
    if rerun is not None and first[rerun["case_id"]] != (rerun["csv_sha256"], rerun["scan_sha256"]):
        problems.append(f"{rerun['case_id']}: rerun in the same process changed the sha256")
    per_model = {m: sum(b["model"] == m for b in bundles) for m in PRESETS}
    for i, unit in enumerate(units):
        rep = unit["report"]
        if rep["cumulative"]["total"] != len(bundles):
            problems.append(f"unit {i}: report totals {rep['cumulative']['total']}, not {len(bundles)}")
        for row in rep["batches"]:
            if row["total"] != per_model[row["unit_under_test"]]:
                problems.append(f"unit {i}: batch {row['unit_under_test']} totals {row['total']}")
    return problems


def outputs_digest(unit: dict) -> str:
    lines = sorted(f"{cid} {csv} {scan}" for cid, (csv, scan) in _digests(unit).items())
    return _sha256("\n".join(lines))


# -- metrics -------------------------------------------------------------------------

def unit_figures(unit: dict) -> dict:
    """The end-to-end figures of one unit, with every wall scaled to the
    reference host speed: a case's wall by REFERENCE_PROBE_S / its probe,
    the unit's wall by the same ratio averaged over the case walls."""
    ran = [r for r in unit["results"] if r["status"] != "raised"]
    walls = [r["end"] - r["start"] for r in ran]
    scaled = [w * REFERENCE_PROBE_S / r["probe_s"] for w, r in zip(walls, ran)]
    factor = sum(scaled) / sum(walls) if walls else 1.0
    scaled = scaled or [math.nan]
    wall = unit["wall"] * factor
    done = sum(r["status"] == "done" for r in unit["results"])
    steps = sum(r["steps"] for r in unit["results"])
    tail, label, beyond = tail_percentile(scaled)
    return {"sweep_wall_s": wall, "cases_per_min": 60.0 * done / wall,
            "sim_steps_per_s": steps / wall, "case_wall_p50_s": statistics.median(scaled),
            "case_wall_tail_s": tail, "tail_rule": label, "tail_samples": len(scaled),
            "tail_beyond": beyond, "speed_factor": factor, "raw_sweep_wall_s": unit["wall"],
            "raw_case_wall_p50_s": statistics.median(walls or [math.nan])}


END_TO_END_UNITS = {
    "sweep_wall_s": "s", "cases_per_min": "cases/min", "sim_steps_per_s": "steps/s",
    "case_wall_p50_s": "s", "case_wall_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
}


def end_to_end(units: list[dict], setup_times: list[float], peak_rss_mb: float) -> dict:
    """The median over the run's units of each figure, and the median
    scaled set-up.  Scaled figures err both ways, so the best unit would
    pick an error.  Memory is as measured."""
    figs = [unit_figures(u) for u in units]
    out = {name: statistics.median(f[name] for f in figs)
           for name in END_TO_END_UNITS if name in figs[0]}
    out["setup_s"] = statistics.median(setup_times)
    out["peak_rss_mb"] = peak_rss_mb
    return out


def sweep_figures(unit: dict, workers: int) -> dict:
    """Pool use in one unit: busy share and the time from the first worker
    running out of cases to the last case done."""
    results = [r for r in unit["results"] if r["pid"] is not None]
    busy = sum(r["end"] - r["start"] for r in results)
    last_end = {}
    for r in results:
        last_end[r["pid"]] = max(last_end.get(r["pid"], -math.inf), r["end"])
    ends = list(last_end.values())
    first_idle = unit["start"] if len(ends) < max(workers, 1) else min(ends)
    return {"worker_busy_share": busy / (unit["wall"] * max(workers, 1)),
            "tail_idle_s": max(ends, default=first_idle) - first_idle}


PER_LAYER_UNITS = {
    "dynamics.step_us": "us", "dynamics.suspension_us": "us", "dynamics.tire_us": "us",
    "dynamics.powertrain_us": "us", "dynamics.brake_us": "us", "dynamics.aero_us": "us",
    "dynamics.integration_self_us": "us", "dynamics.step_share": "ratio",
    "dynamics.origin_pose_us": "us", "dynamics.origin_pose_calls_per_step": "calls/step",
    "environment.height_query_us": "us", "environment.height_queries_per_step": "calls/step",
    "environment.terrain_raycast_us": "us", "environment.ray_hit_ratio": "ratio",
    "environment.overlap_test_us": "us",
    "sensors.lidar_scan_2d_ms": "ms", "sensors.lidar_scan_3d_ms": "ms",
    "sensors.project_box_us": "us", "sensors.project_box_visible_ratio": "ratio",
    "sensors.ins_read_us": "us",
    "autonomy.detect_us": "us", "autonomy.plan_us": "us", "autonomy.aeb_trigger_count": "count",
    "metrics.dtc_us": "us", "metrics.append_us": "us", "metrics.to_csv_us_per_row": "us",
    "metrics.csv_bytes": "bytes", "metrics.verdict_ms": "ms",
    "scenarios.build_ms": "ms",
    "episode.self_us_per_step": "us", "episode.timeout_step_share": "ratio",
    "sweep.worker_busy_share": "ratio", "sweep.tail_idle_s": "s",
    "trace.overhead_s": "s",
}


def per_layer(samples: dict, untraced: dict, traced_units: list[dict], workers: int) -> dict:
    """Per-layer metrics from the traced units' samples.  A call the
    workload never makes reads 0."""
    arrays = {k: (np.concatenate(e["dur_us"]), np.concatenate(e["self_us"]), e["nonnull"])
              for k, e in samples.items()}

    def med(name, scale=1.0, own=False):
        if name not in arrays:
            return 0.0
        return float(np.median(arrays[name][1 if own else 0])) * scale

    def total(name, own=False):
        return float(arrays[name][1 if own else 0].sum(dtype=np.float64)) if name in arrays else 0.0

    def count(name):
        return len(arrays[name][0]) if name in arrays else 0

    def ratio(a, b):
        return a / b if b else 0.0

    def nonnull_share(name):
        return ratio(arrays[name][2], count(name)) if name in arrays else 0.0

    steps = sum(r["steps"] for u in traced_units for r in u["results"])
    results = untraced["results"]
    unit_steps = sum(r["steps"] for r in results)
    sweep = sweep_figures(untraced, workers)
    return {
        "dynamics.step_us": med("Vehicle.step"),
        "dynamics.suspension_us": med("suspension_step"),
        "dynamics.tire_us": med("tire_forces"),
        "dynamics.powertrain_us": med("powertrain_step"),
        "dynamics.brake_us": med("wheel_brake_torques"),
        "dynamics.aero_us": med("aero_forces"),
        "dynamics.integration_self_us": med("Vehicle.step", own=True),
        "dynamics.step_share": ratio(total("Vehicle.step"), total("Episode.run")),
        "dynamics.origin_pose_us": med("Vehicle.origin_pose"),
        "dynamics.origin_pose_calls_per_step": ratio(count("Vehicle.origin_pose"), steps),
        "environment.height_query_us": med("TerrainHeightmap.height_and_gradient"),
        "environment.height_queries_per_step":
            ratio(count("TerrainHeightmap.height_and_gradient"), steps),
        "environment.terrain_raycast_us": med("TerrainHeightmap.raycast"),
        "environment.ray_hit_ratio": nonnull_share("env_raycast"),
        "environment.overlap_test_us": med("rectangles_overlap"),
        "sensors.lidar_scan_2d_ms": med("lidar_scan_2d", 1e-3),
        "sensors.lidar_scan_3d_ms": med("lidar_scan_3d", 1e-3),
        "sensors.project_box_us": med("project_box"),
        "sensors.project_box_visible_ratio": nonnull_share("project_box"),
        "sensors.ins_read_us": med("InsSensor.read"),
        "autonomy.detect_us": med("SurrogateDetector.detect"),
        "autonomy.plan_us": med("AebPlanner.plan"),
        "autonomy.aeb_trigger_count":
            sum(bool(r["verdict"] and r["verdict"]["aeb_triggered"]) for r in results),
        "metrics.dtc_us": med("compute_dtc"),
        "metrics.append_us": med("TelemetryLog.append"),
        # One telemetry row per step.
        "metrics.to_csv_us_per_row": ratio(total("TelemetryLog.to_csv"), steps),
        "metrics.csv_bytes": sum(r["csv_bytes"] for r in results),
        "metrics.verdict_ms": med("evaluate_verdict", 1e-3),
        "scenarios.build_ms": med("build_scenario", 1e-3),
        "episode.self_us_per_step": ratio(total("Episode.run", own=True), steps),
        "episode.timeout_step_share":
            ratio(sum(r["steps"] for r in results if r["terminal"] == "timeout"), unit_steps),
        "sweep.worker_busy_share": sweep["worker_busy_share"],
        "sweep.tail_idle_s": sweep["tail_idle_s"],
        "trace.overhead_s":
            statistics.median(u["wall"] for u in traced_units) - untraced["wall"],
    }


# -- provenance and the run ------------------------------------------------------------

def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30, check=False)
    return out.stdout.strip() or None


def provenance(root: Path, seed: int, trace: bool) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "git_commit": _git_commit(root),
            "seed": seed, "trace": trace, "loadavg_start": list(os.getloadavg())}


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 root: Path | None = None) -> dict:
    """Run one workload and return the full result (see README)."""
    prov = provenance(root or Path.cwd(), seed, trace)
    setup_times, setup_scaled, pool = measure_setup(wl, seed)
    bundles = make_bundles(wl, seed)
    samples: dict = {}
    spans = []
    tracer = tracing.Tracer() if trace and pool is None else None

    def unit(i, tracer=None):
        u = run_unit(wl, bundles, pool, keep_csv=(i == 0), tracer=tracer)
        for r in u["results"]:
            tracing.merge_samples(samples, r.pop("samples", None) or {})
            if r.get("spans"):
                spans.append(r.pop("spans"))
        return u

    try:
        if not trace:
            units = timed_units(unit, seconds)
            traced_units = []
        else:
            t0 = time.perf_counter()
            units = [unit(0)]
            left = seconds - (time.perf_counter() - t0)
            if pool is not None:
                pool.shutdown(wait=True)
                pool = start_pool(wl.workers, bundles[0], trace=True)
                traced_units = timed_units(unit, left, first=1)
            else:
                with traced(tracer):
                    traced_units = timed_units(lambda i: unit(i, tracer), left, first=1)
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
    rerun = run_one(bundles[0], wl.full_scans, keep_csv=False) if wl.name == "pinned" else None
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.workers
                               else resource.RUSAGE_SELF)
    all_units = units + traced_units
    problems = check_outputs(bundles, all_units, rerun)
    runs = [r for u in all_units for r in u["results"]] + ([rerun] if rerun else [])
    failed = [r for r in runs if r["status"] != "done"]
    prov["loadavg_end"] = list(os.getloadavg())
    result = {
        "workload": wl.name, "provenance": prov, "correct": not problems,
        "problems": problems, "attempted": len(runs), "failed": len(failed),
        "failed_case_share": len(failed) / len(runs),
        "failures": {r["case_id"]: r.get("error_type") or r["terminal"] for r in failed},
        "outputs_digest": outputs_digest(units[0]),
        "units": [unit_figures(u) for u in all_units],
        "traced_units": len(traced_units),
        "setup_times_s": setup_times,
        "setup_scaled_s": setup_scaled,
        "cases": [{k: r[k] for k in ("case_id", "status", "terminal", "steps", "verdict",
                                     "csv_sha256", "scan_sha256", "csv_bytes")}
                  for r in units[0]["results"]],
        "report_text": units[0]["report_text"],
    }
    if trace:
        result["metrics"] = per_layer(samples, units[0], traced_units, wl.workers)
        result["untraced_bindings"] = tracing.resolve()[1]
        result["spans"] = spans
    else:
        result["metrics"] = end_to_end(units, setup_scaled, usage.ru_maxrss / 1024.0)
    return result


def write_spans(path: Path, spans: list[dict]) -> None:
    """One group of arrays per kept case: <i>.name (index into <i>.names),
    <i>.parent (span index, -1 for a root), <i>.start and <i>.end (s)."""
    arrays = {}
    for i, s in enumerate(spans):
        arrays[f"{i}.names"] = np.array(s["names"])
        for key in ("name", "parent", "start", "end"):
            arrays[f"{i}.{key}"] = s[key]
    np.savez_compressed(path, case_ids=np.array([s["case_id"] for s in spans]), **arrays)


def main(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    result = run_workload(WORKLOADS[workload], seed, seconds, trace, root)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    spans = result.pop("spans", [])
    if spans:
        write_spans(out_dir / f"{stem}-spans.npz", spans)
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(json.dumps(result["provenance"]))
    print(result["report_text"], end="")
    for name, value in result["metrics"].items():
        print(f"{name:40s} {value:16.6f} {units[name]}")
    print(f"outputs_digest {result['outputs_digest']}  failed_case_share "
          f"{result['failed_case_share']}  correct {result['correct']}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in result["metrics"].items()}}))
    return 0 if result["correct"] else 1
