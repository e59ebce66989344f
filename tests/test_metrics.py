"""Telemetry CSV, distance to collision and verdicts.

The CSV must be byte for byte what a per-field formatter writes, and
`compute_dtc` must equal the projection it replaced; both references live on
here.
"""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from twinforge.documents import ConfigurationError
from twinforge.environment import Obstacle
from twinforge.metrics import (
    TELEMETRY_COLUMNS,
    BatchRow,
    TelemetryError,
    TelemetryLog,
    TelemetryRecord,
    Verdict,
    aggregate_report,
    compute_dtc,
    evaluate_verdict,
    parse_csv,
    render_report_text,
    success_rate,
)

COLUMNS = (
    "t", "pos_x", "pos_y", "pos_z", "roll", "pitch", "yaw", "speed",
    "throttle_cmd", "steer_cmd", "brake_cmd", "handbrake_cmd",
    "gear", "engine_rpm", "detection_count", "best_confidence",
    "best_area_px", "aeb_active", "dtc", "collision_count", "lights",
)
FLOAT_COLUMNS = {
    "t", "pos_x", "pos_y", "pos_z", "roll", "pitch", "yaw", "speed",
    "throttle_cmd", "steer_cmd", "brake_cmd", "handbrake_cmd",
    "engine_rpm", "best_confidence", "best_area_px", "dtc",
}
INT_COLUMNS = {"gear", "detection_count", "aeb_active", "collision_count"}


# -- the references ----------------------------------------------------------------

def ref_format_value(name, value):
    if name in FLOAT_COLUMNS:
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.6f}"
    if name in INT_COLUMNS:
        return str(int(value))
    return str(value)


def ref_to_csv(records):
    lines = [",".join(COLUMNS)]
    for rec in records:
        lines.append(",".join(ref_format_value(name, getattr(rec, name))
                              for name in COLUMNS))
    return "\n".join(lines) + "\n"


def ref_compute_dtc(ego_x, ego_y, ego_yaw, front_offset, half_width, obstacles):
    best = math.inf
    hx, hy = math.cos(ego_yaw), math.sin(ego_yaw)
    front_s = ego_x * hx + ego_y * hy + front_offset
    ego_lat = ego_y * hx - ego_x * hy
    for obs in obstacles:
        lats = [cy * hx - cx * hy - ego_lat for cx, cy in obs.corners_2d()]
        if min(lats) > half_width + 1e-6 or max(lats) < -half_width - 1e-6:
            continue  # off the lane
        near = min(cx * hx + cy * hy for cx, cy in obs.corners_2d())
        gap = near - front_s
        if gap < best:
            best = gap
    return best


# -- inputs --------------------------------------------------------------------------

SPECIAL_FLOATS = [math.inf, -math.inf, math.nan, -0.0, 0.0, 1e12, -1e-7, 5e-7, -5e-7,
                  0.1234565, 2.5e-7, 123456.7890125, 1e-300, -1.0, 1, True, np.float64(0.3)]


def _record(t, rng, special=None, collisions=0):
    """A record with random fields; `special` puts one value in every float field."""
    vals = {"collision_count": collisions}
    for name in COLUMNS:
        if name in vals:
            continue
        if name == "t":
            vals[name] = t
        elif name in FLOAT_COLUMNS:
            vals[name] = special if special is not None else float(rng.normal(0.0, 50.0))
        elif name in INT_COLUMNS:
            vals[name] = int(rng.integers(-3, 40))
        else:
            vals[name] = rng.choice(["off", "low", "high"]).item()
    return TelemetryRecord(**vals)


def _log(records):
    log = TelemetryLog()
    for rec in records:
        log.append(rec)
    return log


# -- tests -----------------------------------------------------------------------------

def test_to_csv_equals_the_per_field_formatter():
    assert TELEMETRY_COLUMNS == COLUMNS
    rng = np.random.default_rng(21)
    records = [_record(0.01 * (i + 1), rng, collisions=i // 100) for i in range(300)]
    records += [_record(10.0 + i, rng, special=v, collisions=3)
                for i, v in enumerate(SPECIAL_FLOATS)]
    # int fields given as bools, floats and numpy ints, as `%d` and int() both take them
    records.append(TelemetryRecord(100.0, *[0.5] * 11, True, 800.0, np.int64(2), 0.9,
                                   1e12, False, -math.inf, 3.0, "high"))
    log = _log(records)
    assert log.to_csv() == ref_to_csv(records)
    assert TelemetryLog().to_csv() == ref_to_csv([]) == ",".join(TELEMETRY_COLUMNS) + "\n"
    text = log.to_csv()
    for token in ("inf", "-inf", "nan", "-0.000000", "1000000000000.000000"):
        assert f",{token}," in text or f",{token}\n" in text


def test_csv_round_trips_through_parse_csv():
    rng = np.random.default_rng(22)
    records = [_record(0.01 * (i + 1), rng, collisions=i // 100) for i in range(200)]
    records += [_record(10.0 + i, rng, special=v, collisions=2)
                for i, v in enumerate(SPECIAL_FLOATS)]
    text = _log(records).to_csv()
    parsed = parse_csv(text)
    assert len(parsed) == len(records)
    kinds = {name: float if name in FLOAT_COLUMNS else int if name in INT_COLUMNS else str
             for name in COLUMNS}
    assert all(type(getattr(rec, name)) is kinds[name] for rec in parsed for name in COLUMNS)
    # Parsing reads back what was written, so writing again gives the same bytes.
    assert _log(parsed).to_csv() == text
    # Values that six decimals hold exactly come back equal.
    exact = [_record(float(i + 1), rng, special=v)
             for i, v in enumerate([0.5, -0.25, 1e12, math.inf, -math.inf, 3.0])]
    assert parse_csv(_log(exact).to_csv()) == exact


_FIELD_VALUES = {
    name: st.floats() if name in FLOAT_COLUMNS else st.integers() if name in INT_COLUMNS
    else st.text(st.characters(exclude_characters=",\n"))
    for name in COLUMNS
}


@settings(deadline=None)
@given(st.lists(st.builds(TelemetryRecord, **_FIELD_VALUES), max_size=8))
def test_the_csv_is_a_fixed_point_of_one_round_trip(records):
    # st.floats() draws inf, -inf and nan too. Each record is the first of a
    # log of its own, which meets neither the time nor the collision check,
    # so every drawn value goes through the row template `append` applies.
    for record in records:
        text = _log([record]).to_csv()
        parsed = parse_csv(text)
        assert len(parsed) == 1
        assert _log(parsed).to_csv() == text


def test_parse_csv_rejects_a_bad_header_and_short_line():
    with pytest.raises(TelemetryError):
        parse_csv("t,pos_x\n0.1,0.2\n")
    text = _log([_record(0.01, np.random.default_rng(23))]).to_csv()
    with pytest.raises(TelemetryError, match="line 2"):
        parse_csv(text.rsplit(",", 1)[0] + "\n")


def test_parse_csv_names_the_line_of_a_non_numeric_field():
    header, row, _ = _log([_record(0.01, np.random.default_rng(27))]).to_csv().split("\n")
    fields = row.split(",")
    fields[1] = "abc"  # pos_x
    with pytest.raises(TelemetryError) as err:
        parse_csv(f"{header}\n{','.join(fields)}\n")
    assert str(err.value) == "line 2: could not convert string to float: 'abc'"


def test_append_rejects_a_step_back_in_time_and_a_falling_collision_count():
    rng = np.random.default_rng(28)
    log = _log([_record(0.02, rng, collisions=1)])
    with pytest.raises(TelemetryError) as err:
        log.append(_record(0.02, rng, collisions=1))
    assert str(err.value) == "non-increasing time 0.02 after 0.02"
    with pytest.raises(TelemetryError) as err:
        log.append(_record(0.03, rng, collisions=0))
    assert str(err.value) == "collision_count decreased"
    assert [r.t for r in parse_csv(log.to_csv())] == [0.02]


def test_compute_dtc_equals_the_generator_version():
    rng = np.random.default_rng(24)
    lanes = set()
    for _ in range(2000):
        obstacles = [Obstacle(f"o{k}", "moose", tuple(rng.uniform(0.2, 4.0, 3).tolist()),
                              rng.uniform(-30.0, 30.0, 3).tolist(),
                              yaw=float(rng.uniform(-math.pi, math.pi)))
                     for k in range(int(rng.integers(0, 4)))]
        x, y = rng.uniform(-30.0, 30.0, 2).tolist()
        yaw = float(rng.uniform(-math.pi, math.pi))
        front = float(rng.uniform(0.0, 3.0))
        half_width = float(rng.uniform(0.2, 2.0))
        got = compute_dtc(x, y, yaw, front, half_width, obstacles)
        assert got == ref_compute_dtc(x, y, yaw, front, half_width, obstacles)
        if not obstacles:
            assert got == math.inf
        # Each obstacle alone: in the lane (a finite gap) and off it (inf) both occur.
        lanes.update(compute_dtc(x, y, yaw, front, half_width, [o]) < math.inf for o in obstacles)
    assert lanes == {True, False}


def test_evaluate_verdict_on_a_hand_built_log():
    rng = np.random.default_rng(25)
    rows = []
    for t, dtc, aeb, collisions in ((0.01, 12.0, 0, 0), (0.02, 4.5, 1, 0), (0.03, 0.75, 1, 0)):
        rows.append(_record(t, rng)._replace(dtc=dtc, aeb_active=aeb,
                                             collision_count=collisions))
    v = evaluate_verdict(rows, "case-a")
    assert (v.case_id, v.passed, v.collision_count, v.aeb_triggered) == ("case-a", True, 0, True)
    assert (v.min_dtc, v.stop_margin, v.duration) == (0.75, 0.75, 0.03)

    # A collision on the last row: failed, and the margin is the DTC of that
    # first row with contact, not the least DTC.
    rows[1] = rows[1]._replace(dtc=-0.5)
    rows[2] = rows[2]._replace(collision_count=1)
    v = evaluate_verdict(rows, "case-b")
    assert (v.passed, v.collision_count, v.min_dtc, v.stop_margin) == (False, 1, -0.5, 0.75)

    # The verdict is the same read back from the CSV.
    assert evaluate_verdict(parse_csv(_log(rows).to_csv()), "case-b") == v
    with pytest.raises(TelemetryError):
        evaluate_verdict([])


_BLANK = TelemetryRecord(0.0, *[0.0] * 11, 0, 0.0, 0, 0.0, 0.0, 0, 0.0, 0, "off")


@st.composite
def _series(draw):
    """Records in strictly increasing time with a collision count that never
    falls; DTC takes any float (nan and infinities too), aeb_active any int."""
    rows = draw(st.lists(st.tuples(st.floats(min_value=1e-3, max_value=10.0), st.floats(),
                                   st.integers(-1, 2), st.integers(0, 2)),
                         min_size=1, max_size=40))
    t, count = 0.0, draw(st.integers(-1, 1))
    records = []
    for step, dtc, aeb, rise in rows:
        t += step
        count += rise
        records.append(_BLANK._replace(t=t, dtc=dtc, aeb_active=aeb, collision_count=count))
    return records


def ref_verdict(records, case_id):
    """The verdict rule over the whole list, as `evaluate_verdict` states it."""
    last = records[-1]
    dtcs = [r.dtc for r in records]
    return Verdict(case_id, last.collision_count == 0, last.collision_count,
                   math.nan if any(map(math.isnan, dtcs)) else min(dtcs),
                   any(r.aeb_active for r in records),
                   last.dtc if last.collision_count == 0
                   else next(r.dtc for r in records if r.collision_count), last.t)


@settings(deadline=None)
@given(_series())
@example([_BLANK._replace(t=1.0, dtc=5.0), _BLANK._replace(t=2.0, dtc=math.nan, aeb_active=1),
          _BLANK._replace(t=3.0, dtc=3.0)])  # a nan kept before the least DTC
@example([_BLANK._replace(t=1.0, dtc=2.0, collision_count=1),
          _BLANK._replace(t=2.0, dtc=-1.0, collision_count=1)])  # contact before the least
def test_the_kept_records_give_the_verdict_of_the_whole_series(records):
    log = _log(records)
    kept = log.verdict_records()
    assert len(kept) <= 4
    assert [r.t for r in kept] == sorted({r.t for r in kept})
    assert all(any(r is k for r in records) for k in kept)
    # repr: a nan DTC compares unequal to itself, its repr does not.
    want = repr(ref_verdict(records, "c"))
    assert repr(evaluate_verdict(kept, "c")) == repr(evaluate_verdict(records, "c")) == want


# A distance is finite, +inf (nothing in the lane) or nan; JSON has no infinity.
_DISTANCES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.just(math.inf), st.just(math.nan))


@given(st.builds(Verdict, st.text(), st.booleans(), st.integers(0, 3), _DISTANCES,
                 st.booleans(), _DISTANCES, st.floats(0.0, 60.0)))
def test_a_verdict_round_trips_through_json(verdict):
    doc = json.loads(json.dumps(verdict.to_dict()))
    for name in ("min_dtc", "stop_margin"):
        assert (doc[name] is None) is math.isinf(getattr(verdict, name))
    # repr: a nan distance compares unequal to itself, its repr does not.
    assert repr(Verdict.from_dict(doc)) == repr(verdict)


def test_a_bad_verdict_document_names_its_field():
    doc = Verdict("c", True, 0, math.inf, False, 2.5, 10.0).to_dict()
    with pytest.raises(ConfigurationError, match="Verdict document lacks passed"):
        Verdict.from_dict({key: value for key, value in doc.items() if key != "passed"})
    with pytest.raises(ConfigurationError, match=r"Verdict\.passed must be bool, got 1"):
        Verdict.from_dict(dict(doc, passed=1))


# -- sweep report ------------------------------------------------------------------

def _verdict(case_id: str, passed: bool) -> Verdict:
    return Verdict(case_id, passed, 0 if passed else 1, 5.0, passed, 1.0, 10.0)


def _plan(*batches):
    """A batch plan: each batch a list of (case_id, model)."""
    return SimpleNamespace(batches=[[SimpleNamespace(case_id=c, model=m) for c, m in batch]
                                    for batch in batches])


def _mixed_report():
    plan = _plan([("a1", "v3"), ("a2", "v3")], [("b1", "v2"), ("b2", "v2_tiny"), ("b3", "v2")])
    verdicts = {"a1": _verdict("a1", True), "a2": _verdict("a2", False), "b1": None,
                "b2": _verdict("b2", False), "b3": _verdict("b3", True)}
    return aggregate_report(verdicts, plan)


def test_report_counts_per_batch_and_per_model():
    report = _mixed_report()
    assert report.batches == [BatchRow(1, "v3", 1, 2), BatchRow(2, "mixed", 1, 3)]
    assert report.per_model == {
        "v3": {"passed": 1, "total": 2, "success_rate_pct": "50.00"},
        "v2": {"passed": 1, "total": 2, "success_rate_pct": "50.00"},
        "v2_tiny": {"passed": 0, "total": 1, "success_rate_pct": "0.00"},
    }
    assert report.cumulative == {"passed": 2, "total": 5}


def test_the_report_document():
    report = _mixed_report()
    doc = report.to_dict()
    want = {
        "batches": [{"batch_id": 1, "unit_under_test": "v3", "passed": 1, "total": 2},
                    {"batch_id": 2, "unit_under_test": "mixed", "passed": 1, "total": 3}],
        "per_model": {
            "v3": {"passed": 1, "total": 2, "success_rate_pct": "50.00"},
            "v2": {"passed": 1, "total": 2, "success_rate_pct": "50.00"},
            "v2_tiny": {"passed": 0, "total": 1, "success_rate_pct": "0.00"},
        },
        "cumulative": {"passed": 2, "total": 5},
        "infra_failed": ["b1"],
    }
    assert json.dumps(doc) == json.dumps(want)  # the keys in order too
    # The document is a copy: editing it leaves the report as it was.
    doc["per_model"]["v3"]["passed"] = 2
    doc["batches"][0]["passed"] = 2
    doc["cumulative"]["total"] = 0
    doc["infra_failed"].clear()
    assert report == _mixed_report()


def test_a_case_without_a_verdict_is_an_infrastructure_failure():
    report = aggregate_report({"a1": None}, _plan([("a1", "v3"), ("a2", "v3")]))
    assert report.infra_failed == ["a1", "a2"]  # a2 has no entry at all
    assert report.batches == [BatchRow(1, "v3", 0, 2)]
    assert report.per_model["v3"]["passed"] == 0


def test_success_rate_of_an_empty_model_is_zero():
    assert success_rate(0, 0) == "0.00"
    assert success_rate(1, 3) == "33.33"
    report = aggregate_report({}, _plan())
    assert (report.batches, report.per_model, report.cumulative["total"]) == ([], {}, 0)


def test_rendered_report_table():
    lines = render_report_text(_mixed_report()).split("\n")
    assert [line.rstrip() for line in lines] == [
        "Batch ID   Unit Under Test   Test Cases Passed   Total Test Cases",
        "1          v3                1                   2",
        "2          mixed             1                   3",
        "Cumulative N/A               2                   5",
        "",
        "Per-model success rates:",
        "  v2           1 / 2   (50.00%)",
        "  v2_tiny      0 / 1   (0.00%)",
        "  v3           1 / 2   (50.00%)",
        "",
        "Infrastructure failures (1): b1",
        "",
    ]
    assert {len(line) for line in lines[:4]} == {67}  # columns padded to fixed widths
