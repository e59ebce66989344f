"""Telemetry logging, distance-to-collision, verdicts and sweep aggregation.

The CSV dialect is fixed: comma separator, '\\n' line endings, one header
row, UTF-8, floats with 6 decimal places. Identical episodes must produce
byte-identical files, so nothing time- or host-dependent is ever written.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import NamedTuple, get_type_hints


class TelemetryError(RuntimeError):
    pass


class TelemetryRecord(NamedTuple):
    """One row per physics step; `to_csv` formats the tuple as it stands."""
    t: float
    pos_x: float
    pos_y: float
    pos_z: float
    roll: float
    pitch: float
    yaw: float
    speed: float
    throttle_cmd: float
    steer_cmd: float
    brake_cmd: float
    handbrake_cmd: float
    gear: int
    engine_rpm: float
    detection_count: int
    best_confidence: float
    best_area_px: float
    aeb_active: int
    dtc: float
    collision_count: int
    lights: str


# The record's fields are the CSV schema: its names are the columns, in
# order, and each annotation is the type that `parse_csv` converts back to.
TELEMETRY_COLUMNS = TelemetryRecord._fields
_COLUMN_TYPES = tuple(map(get_type_hints(TelemetryRecord).__getitem__, TELEMETRY_COLUMNS))

# One %-template per row, applied to the record itself: "%.6f" writes inf,
# -inf and nan as "inf", "-inf" and "nan"; "%d" truncates like int().
_ROW_TEMPLATE = ",".join({float: "%.6f", int: "%d", str: "%s"}[kind] for kind in _COLUMN_TYPES)


class TelemetryLog:
    """In-memory telemetry sink; one record per physics step."""

    def __init__(self):
        self.records: list[TelemetryRecord] = []

    def append(self, record: TelemetryRecord) -> None:
        if self.records and record.t <= self.records[-1].t:
            raise TelemetryError(f"non-increasing time {record.t} after {self.records[-1].t}")
        if self.records and record.collision_count < self.records[-1].collision_count:
            raise TelemetryError("collision_count decreased")
        self.records.append(record)

    def to_csv(self) -> str:
        rows = [_ROW_TEMPLATE % rec for rec in self.records]
        # One join, with "" for the final newline: no second copy of the text.
        return "\n".join([",".join(TELEMETRY_COLUMNS), *rows, ""])

    def to_bytes(self) -> bytes:
        return self.to_csv().encode("utf-8")

    def digest(self) -> str:
        return hashlib.sha256(self.to_bytes()).hexdigest()


def parse_csv(text: str) -> list[TelemetryRecord]:
    lines = text.strip("\n").split("\n")
    if not lines or lines[0].split(",") != list(TELEMETRY_COLUMNS):
        raise TelemetryError("bad telemetry header")
    out = []
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(TELEMETRY_COLUMNS):
            raise TelemetryError(f"line {ln}: expected {len(TELEMETRY_COLUMNS)} fields")
        try:
            values = [kind(raw) for kind, raw in zip(_COLUMN_TYPES, parts)]
        except ValueError as exc:
            raise TelemetryError(f"line {ln}: {exc}") from exc
        out.append(TelemetryRecord(*values))
    return out


# -- distance to collision -----------------------------------------------------

def compute_dtc(ego_x: float, ego_y: float, ego_yaw: float, front_offset: float,
                obstacles) -> float:
    """Gap from the ego's front face to the nearest obstacle along the path axis.

    Negative when the obstacle's near edge is behind the front face (overlap
    or passed); +inf when there is no obstacle.
    """
    best = math.inf
    hx, hy = math.cos(ego_yaw), math.sin(ego_yaw)
    front_s = ego_x * hx + ego_y * hy + front_offset
    for obs in obstacles:
        # Rounding is monotonic, so the least gap is the near edge's gap.
        for cx, cy in obs.corners_2d():
            gap = cx * hx + cy * hy - front_s
            if gap < best:
                best = gap
    return best


# -- verdicts -------------------------------------------------------------------

@dataclass
class Verdict:
    case_id: str
    passed: bool
    collision_count: int
    min_dtc: float
    aeb_triggered: bool
    stop_margin: float
    duration: float

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "passed": self.passed,
            "collision_count": self.collision_count,
            "min_dtc": None if math.isinf(self.min_dtc) else self.min_dtc,
            "aeb_triggered": self.aeb_triggered,
            "stop_margin": None if math.isinf(self.stop_margin) else self.stop_margin,
            "duration": self.duration,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Verdict":
        return cls(
            case_id=doc["case_id"],
            passed=doc["passed"],
            collision_count=doc["collision_count"],
            min_dtc=math.inf if doc["min_dtc"] is None else doc["min_dtc"],
            aeb_triggered=doc["aeb_triggered"],
            stop_margin=math.inf if doc["stop_margin"] is None else doc["stop_margin"],
            duration=doc["duration"],
        )


def evaluate_verdict(records: list[TelemetryRecord], case_id: str = "") -> Verdict:
    """Pure function of the telemetry series.

    A case passes iff it never collided; the stop margin is the final DTC
    when the run ended clean, otherwise the least DTC: on a static world, how
    far the front face got past the obstacle's near edge in `contact_window`
    (negative), not a penetration any force resisted.
    """
    if not records:
        raise TelemetryError("empty telemetry")
    last = records[-1]
    collisions = last.collision_count
    min_dtc = min(r.dtc for r in records)
    aeb_triggered = any(r.aeb_active for r in records)
    if collisions == 0:
        stop_margin = last.dtc
    else:
        stop_margin = min_dtc
    return Verdict(
        case_id=case_id,
        passed=collisions == 0,
        collision_count=collisions,
        min_dtc=min_dtc,
        aeb_triggered=aeb_triggered,
        stop_margin=stop_margin,
        duration=last.t,
    )


# -- aggregation ----------------------------------------------------------------

@dataclass
class BatchRow:
    batch_id: int
    unit_under_test: str
    passed: int
    total: int


@dataclass
class SweepReport:
    batches: list[BatchRow]
    per_model: dict[str, dict]
    cumulative_passed: int
    cumulative_total: int
    infra_failed: list[str]

    def to_dict(self) -> dict:
        return {
            "batches": [vars(b) for b in self.batches],
            "per_model": self.per_model,
            "cumulative": {"passed": self.cumulative_passed, "total": self.cumulative_total},
            "infra_failed": list(self.infra_failed),
        }


def success_rate(passed: int, total: int) -> str:
    """Two-decimal percentage, '0.00' when empty."""
    if total == 0:
        return "0.00"
    return f"{100.0 * passed / total:.2f}"


def aggregate_report(verdicts: dict[str, "Verdict | None"], batch_plan) -> SweepReport:
    """Per-batch and per-model pass counts over a finished sweep.

    Cases with no verdict count as failed and are listed separately as
    infrastructure failures.
    """
    batches = []
    per_model: dict[str, dict] = {}
    infra_failed = []
    cum_passed = 0
    cum_total = 0
    for bi, batch in enumerate(batch_plan.batches, start=1):
        models = {c.model for c in batch}
        uut = models.pop() if len(models) == 1 else "mixed"
        passed = 0
        for case in batch:
            verdict = verdicts.get(case.case_id)
            ok = bool(verdict and verdict.passed)
            if verdict is None:
                infra_failed.append(case.case_id)
            stats = per_model.setdefault(case.model, {"passed": 0, "total": 0})
            stats["total"] += 1
            stats["passed"] += 1 if ok else 0
            passed += 1 if ok else 0
        batches.append(BatchRow(bi, uut, passed, len(batch)))
        cum_passed += passed
        cum_total += len(batch)
    for stats in per_model.values():
        stats["success_rate_pct"] = success_rate(stats["passed"], stats["total"])
    return SweepReport(batches, per_model, cum_passed, cum_total, infra_failed)


def render_report_text(report: SweepReport) -> str:
    lines = [f"{'Batch ID':<11}{'Unit Under Test':<18}{'Test Cases Passed':<20}{'Total Test Cases':<18}"]
    for b in report.batches:
        lines.append(f"{b.batch_id:<11}{b.unit_under_test:<18}{b.passed:<20}{b.total:<18}")
    lines.append(f"{'Cumulative':<11}{'N/A':<18}{report.cumulative_passed:<20}{report.cumulative_total:<18}")
    lines.append("")
    lines.append("Per-model success rates:")
    for model in sorted(report.per_model):
        stats = report.per_model[model]
        lines.append(f"  {model:<10} {stats['passed']:>3} / {stats['total']:<3} ({stats['success_rate_pct']}%)")
    if report.infra_failed:
        lines.append("")
        lines.append(f"Infrastructure failures ({len(report.infra_failed)}): "
                     + ", ".join(report.infra_failed))
    return "\n".join(lines) + "\n"
