"""Telemetry logging, distance-to-collision, verdicts and sweep aggregation.

The CSV dialect is fixed: comma separator, '\\n' line endings, one header
row, UTF-8, floats with 6 decimal places. Identical episodes must produce
byte-identical files, so nothing time- or host-dependent is ever written.

`TelemetryLog` formats each record into its CSV row as it is appended and
keeps the text, not the record; `parse_csv` is the one way back to records.
Besides the rows it keeps only the four records a verdict reads.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import NamedTuple, get_type_hints

from .documents import from_doc, to_doc


class TelemetryError(RuntimeError):
    pass


class TelemetryRecord(NamedTuple):
    """One row per physics step; `TelemetryLog.append` formats the tuple as it stands."""
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


class VerdictRecords:
    """The records a verdict reads, kept as a series is appended.

    `append` rejects a record whose time does not exceed the last one's or
    whose collision count falls, then `keep`s it. Of the series four records
    are kept: the least-DTC one (the first with a nan DTC if any, else the
    first with the least), the first with `aeb_active`, the first with
    contact and the last.
    """

    def __init__(self):
        self.least = self.first_aeb = self.first_contact = self.last = None

    def append(self, record: TelemetryRecord) -> None:
        last = self.last
        if last is not None:
            if not record.t > last.t:
                raise TelemetryError(f"non-increasing time {record.t} after {last.t}")
            if record.collision_count < last.collision_count:
                raise TelemetryError("collision_count decreased")
        self.keep(record)

    def keep(self, record: TelemetryRecord) -> None:
        if self.least is None:
            self.least = record
        else:
            least = self.least.dtc
            if least == least and not record.dtc >= least:  # less, or the first nan
                self.least = record
        if self.first_aeb is None and record.aeb_active:
            self.first_aeb = record
        if self.first_contact is None and record.collision_count:
            self.first_contact = record
        self.last = record

    def verdict_records(self) -> list[TelemetryRecord]:
        """The kept records in time order, each once: `evaluate_verdict` of
        them equals `evaluate_verdict` of the whole series."""
        kept = {id(r): r for r in (self.least, self.first_aeb, self.first_contact, self.last)
                if r is not None}
        return sorted(kept.values(), key=lambda r: r.t)


class TelemetryLog(VerdictRecords):
    """In-memory telemetry sink: one CSV row per physics step.

    `append` formats each record into its row at once and keeps the text,
    plus the few records `VerdictRecords` keeps for the verdict; `parse_csv`
    of `to_csv()` gives the records back.
    """

    def __init__(self):
        super().__init__()
        self.rows: list[str] = []

    def append(self, record: TelemetryRecord) -> None:
        VerdictRecords.append(self, record)  # not super(): this runs every step
        self.rows.append(_ROW_TEMPLATE % record)

    def to_csv(self) -> str:
        # One join, with "" for the final newline: no second copy of the text.
        return "\n".join([",".join(TELEMETRY_COLUMNS), *self.rows, ""])

    def digest(self) -> str:
        return hashlib.sha256(self.to_csv().encode("utf-8")).hexdigest()


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

CONTACT_MARGIN = 1e-6  # m, far above rounding: the lane's widening, and the DTC that tests overlap


def compute_dtc(ego_x: float, ego_y: float, ego_yaw: float, front_offset: float,
                half_width: float, obstacles) -> float:
    """Gap from the ego's front face to the nearest obstacle in its lane, along
    the path axis.

    The lane is `half_width` either side of the heading axis, widened by
    `CONTACT_MARGIN` so that it holds every obstacle the footprint can
    touch; an obstacle whose lateral span misses it is not on the path. The
    gap is negative when the near edge is behind the front face (overlap or
    passed); +inf when no obstacle is in the lane.
    """
    best = math.inf
    if not obstacles:
        return best
    hx, hy = math.cos(ego_yaw), math.sin(ego_yaw)
    front_s = ego_x * hx + ego_y * hy + front_offset
    lane = half_width + CONTACT_MARGIN
    ego_lat = ego_y * hx - ego_x * hy
    for obs in obstacles:
        # Rounding is monotonic, so the least gap is the near edge's gap.
        near = left = math.inf
        right = -math.inf
        for cx, cy in obs.corners_2d():
            gap = cx * hx + cy * hy - front_s
            if gap < near:
                near = gap
            lat = cy * hx - cx * hy - ego_lat
            if lat < left:
                left = lat
            if lat > right:
                right = lat
        if near < best and left <= lane and right >= -lane:
            best = near
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
        """`to_doc(self)` with each infinite number as None: JSON has no infinity."""
        return {key: None if isinstance(value, float) and math.isinf(value) else value
                for key, value in to_doc(self).items()}

    @classmethod
    def from_dict(cls, doc: dict) -> "Verdict":
        """Inverse of `to_dict`: None reads as `math.inf`."""
        return from_doc(cls, {key: math.inf if value is None else value
                              for key, value in doc.items()})


def evaluate_verdict(records: list[TelemetryRecord], case_id: str = "") -> Verdict:
    """Pure function of the telemetry series, read through `VerdictRecords`.

    A case passes iff it never collided. `min_dtc` is the least DTC (nan if
    any DTC is nan). The stop margin is the final DTC when the run ended
    clean, otherwise the DTC of the first row with contact: where the front
    face stood when the footprints first overlapped, not how far the car
    drove on through a static obstacle in `contact_window`. "First" and
    "last" follow the list's order, which is not checked.
    """
    kept = VerdictRecords()
    for record in records:
        kept.keep(record)
    last = kept.last
    if last is None:
        raise TelemetryError("empty telemetry")
    collisions = last.collision_count
    return Verdict(
        case_id=case_id,
        passed=collisions == 0,
        collision_count=collisions,
        min_dtc=kept.least.dtc,
        aeb_triggered=kept.first_aeb is not None,
        stop_margin=last.dtc if collisions == 0 else kept.first_contact.dtc,
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
    cumulative: dict[str, int]  # {"passed": ..., "total": ...} over every batch
    infra_failed: list[str]

    def to_dict(self) -> dict:
        return to_doc(self)


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
    for stats in per_model.values():
        stats["success_rate_pct"] = success_rate(stats["passed"], stats["total"])
    cumulative = {"passed": sum(b.passed for b in batches), "total": sum(b.total for b in batches)}
    return SweepReport(batches, per_model, cumulative, infra_failed)


def render_report_text(report: SweepReport) -> str:
    lines = [f"{'Batch ID':<11}{'Unit Under Test':<18}{'Test Cases Passed':<20}{'Total Test Cases':<18}"]
    for b in report.batches:
        lines.append(f"{b.batch_id:<11}{b.unit_under_test:<18}{b.passed:<20}{b.total:<18}")
    lines.append(f"{'Cumulative':<11}{'N/A':<18}{report.cumulative['passed']:<20}{report.cumulative['total']:<18}")
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
