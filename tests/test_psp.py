import csv
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from webrely.errors import RecordParseError
from webrely.psp import (
    Defect,
    PspProgramRecord,
    appraisal_failure_ratio,
    defects_per_kloc,
    elimination_rate,
    introduction_rate,
    load_records,
    load_records_json,
    trend_report,
    trend_series_csv,
    yield_percent,
)

DATA = Path(__file__).parent / "data"

FULL_TIMES = {
    "plan": 30, "design": 60, "design_review": 10, "code": 120,
    "code_review": 15, "compile": 30, "test": 90, "postmortem": 20,
}


def record(defects, times=None, loc=800, number=1):
    return PspProgramRecord(
        program_number=number,
        loc_new_changed=loc,
        phase_times=dict(times or FULL_TIMES),
        defects=tuple(defects),
    )


def test_defect_ordering_enforced():
    with pytest.raises(ValueError):
        Defect("test", "design_review")
    with pytest.raises(ValueError):
        Defect("code", "made_up")


@pytest.mark.parametrize("minutes", [math.nan, math.inf])
def test_records_refuse_non_finite_minutes(minutes):
    with pytest.raises(ValueError):
        record([], times={**FULL_TIMES, "compile": minutes})
    with pytest.raises(ValueError):
        Defect("code", "test", fix_minutes=minutes)


def test_record_requires_all_phases():
    with pytest.raises(ValueError):
        PspProgramRecord(1, 100, {"plan": 10}, ())


def test_yield_half_caught_in_review():
    defects = [Defect("code", "code_review")] * 4 + [Defect("code", "test")] * 4
    assert yield_percent(record(defects)) == 50.0


def test_yield_everything_before_compile():
    defects = [Defect("design", "design_review"), Defect("code", "code_review")]
    assert yield_percent(record(defects)) == 100.0


def test_yield_undefined_without_defects():
    assert yield_percent(record([])) is None


def test_yield_undefined_when_all_injected_late():
    # injected during test: nothing was there to catch before compile
    assert yield_percent(record([Defect("test", "test")])) is None


def test_defects_per_kloc_arithmetic():
    defects = [Defect("code", "test")] * 12
    assert defects_per_kloc(record(defects, loc=800)) == 15.0
    assert defects_per_kloc(record([], loc=800)) == 0.0


def test_defects_per_kloc_medium_project():
    # 1200 new/changed LOC with 18 tracked defects
    defects = [Defect("code", "test")] * 18
    assert defects_per_kloc(record(defects, loc=1200)) == 15.0


def test_zero_loc_rejected():
    assert defects_per_kloc(record([], loc=0)) is None


def test_elimination_rate_arithmetic():
    # 6 removals across 2 hours of review + test
    times = dict(FULL_TIMES, design_review=30, code_review=30, compile=0, test=60)
    defects = [Defect("code", "code_review")] * 3 + [Defect("code", "test")] * 3
    assert elimination_rate(record(defects, times)) == 3.0


def test_elimination_rate_zero_when_nothing_removed():
    assert elimination_rate(record([])) == 0.0


def test_elimination_rate_zero_time_error():
    times = dict(FULL_TIMES, design_review=0, code_review=0, compile=0, test=0)
    assert elimination_rate(record([Defect("code", "test")], times)) is None


def test_introduction_rate_arithmetic():
    times = dict(FULL_TIMES, design=120, code=120)
    defects = [Defect("design", "test")] * 4 + [Defect("code", "test")] * 4
    assert introduction_rate(record(defects, times)) == 2.0
    assert introduction_rate(record([])) == 0.0


def test_afr_arithmetic():
    times = dict(FULL_TIMES, design_review=10, code_review=20, compile=10, test=20)
    assert appraisal_failure_ratio(record([], times)) == 1.0
    times = dict(FULL_TIMES, design_review=0, code_review=0)
    assert appraisal_failure_ratio(record([], times)) == 0.0


def test_afr_zero_failure_time():
    times = dict(FULL_TIMES, compile=0, test=0)
    assert appraisal_failure_ratio(record([], times)) is None


# fixture + oracle table


@pytest.fixture(scope="module")
def fixture_records():
    return load_records(DATA / "psp_records.csv")


def _expected_rows():
    with open(DATA / "psp_expected.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_fixture_loads_ten_programs(fixture_records):
    assert [r.program_number for r in fixture_records] == list(range(1, 11))
    assert all(r.defects for r in fixture_records)


def test_all_metrics_match_hand_computed_oracle(fixture_records):
    metrics = {
        "yield_percent": yield_percent,
        "defects_per_kloc": defects_per_kloc,
        "elimination_rate": elimination_rate,
        "introduction_rate": introduction_rate,
        "appraisal_failure_ratio": appraisal_failure_ratio,
    }
    for rec, row in zip(fixture_records, _expected_rows()):
        assert rec.program_number == int(row["program_number"])
        for name, fn in metrics.items():
            expected = float(Fraction(row[name]))
            assert math.isclose(fn(rec), expected, rel_tol=1e-12), (
                rec.program_number,
                name,
            )


def test_trend_directions_match_fixture(fixture_records):
    report = trend_report(fixture_records)
    assert report.slopes["yield_percent"] > 0
    assert report.slopes["defects_per_kloc"] < 0
    assert report.slopes["elimination_rate"] < 0
    assert report.slopes["introduction_rate"] < 0
    assert report.slopes["appraisal_failure_ratio"] > 0


def test_yield_trend_mostly_non_decreasing(fixture_records):
    ys = [yield_percent(r) for r in fixture_records]
    rising = sum(1 for a, b in zip(ys, ys[1:]) if b >= a)
    assert rising >= 7


def test_defect_totals_reconcile(fixture_records):
    from webrely.psp import INJECTION_PHASES, PHASES

    for rec in fixture_records:
        assert rec.injected_in(PHASES) == len(rec.defects)
        assert rec.removed_in(PHASES) == len(rec.defects)
        # this fixture injects only in design and code
        assert rec.injected_in(INJECTION_PHASES) == len(rec.defects)


# trend report mechanics


def test_single_record_trend():
    report = trend_report([record([Defect("code", "test")])])
    assert len(report.series["yield_percent"]) == 1
    assert all(slope is None for slope in report.slopes.values())


def test_unsorted_program_numbers_rejected():
    a = record([], number=2)
    b = record([], number=1)
    with pytest.raises(ValueError):
        trend_report([a, b])
    with pytest.raises(ValueError):
        trend_report([])


def test_constant_records_zero_slope():
    records = [record([Defect("code", "test")], number=i) for i in range(1, 5)]
    report = trend_report(records)
    assert report.slopes["defects_per_kloc"] == 0.0
    assert report.slopes["appraisal_failure_ratio"] == 0.0


def test_errors_become_none_entries():
    good = record([Defect("code", "test")], number=1)
    bad = record([Defect("code", "test")], dict(FULL_TIMES, compile=0, test=0), number=2)
    report = trend_report([good, bad])
    assert report.series["appraisal_failure_ratio"][1] is None
    # with one usable point the slope is undefined, not fabricated
    assert report.slopes["appraisal_failure_ratio"] is None


@settings(max_examples=30, deadline=None)
@given(factor=st.floats(0.1, 10.0))
def test_rates_scale_inversely_with_time(factor):
    defects = [Defect("design", "design_review")] * 2 + [Defect("code", "test")] * 6
    base = record(defects)
    scaled = record(defects, {k: v * factor for k, v in FULL_TIMES.items()})
    assert elimination_rate(scaled) == pytest.approx(elimination_rate(base) / factor, rel=1e-9)
    assert introduction_rate(scaled) == pytest.approx(introduction_rate(base) / factor, rel=1e-9)
    assert yield_percent(scaled) == yield_percent(base)
    assert defects_per_kloc(scaled) == defects_per_kloc(base)
    assert appraisal_failure_ratio(scaled) == pytest.approx(
        appraisal_failure_ratio(base), rel=1e-9
    )


# file formats


def test_csv_parse_error_positions(tmp_path):
    path = tmp_path / "bad.csv"
    with open(DATA / "psp_records.csv") as fh:
        header = fh.readline()
    path.write_text(header + "program,xx,500,1,2,3,4,5,6,7,8,,,,\n")
    with pytest.raises(RecordParseError) as err:
        load_records(path)
    assert "row 2" in str(err.value)
    assert "program_number" in str(err.value)


def test_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(RecordParseError):
        load_records(path)


def test_json_roundtrip(tmp_path, fixture_records):
    import json

    doc = [
        {
            "program_number": r.program_number,
            "loc_new_changed": r.loc_new_changed,
            "phase_times": r.phase_times,
            "defects": [
                {
                    "injected_phase": d.injected_phase,
                    "removed_phase": d.removed_phase,
                    "fix_minutes": d.fix_minutes,
                    "type": d.type,
                }
                for d in r.defects
            ],
        }
        for r in fixture_records
    ]
    path = tmp_path / "records.json"
    path.write_text(json.dumps(doc))
    assert load_records_json(path) == fixture_records
    assert load_records(path) == fixture_records


def test_trend_series_csv_format(fixture_records):
    report = trend_report(fixture_records)
    text = trend_series_csv(report, "yield_percent")
    lines = text.splitlines()
    assert lines[0] == "program_number,yield_percent"
    assert lines[1] == "1,20"
    assert len(lines) == 11
