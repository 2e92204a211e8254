import json
import math
import random
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from webrely.project import Analysis, EiProject
from webrely.stats import (
    DefectSampleSet,
    DiscardRecord,
    WeibullModel,
    build_histogram,
    compare_models,
    fit_weibull,
)
from webrely.stats.serialize import (
    comparison_to_dict,
    dump_json,
    fit_report_to_dict,
    histogram_to_csv,
    load_samples_csv,
    load_samples_text,
    sample_set_from_dict,
    sample_set_to_dict,
    save_samples_text,
)


def test_samples_text_roundtrip(tmp_path):
    ss = DefectSampleSet((0.0, 1.5, 2.0, 10.0), (), "ideal")
    path = tmp_path / "samples.txt"
    save_samples_text(ss, path)
    back = load_samples_text(path, "ideal")
    assert back.values == ss.values
    assert back.source_label == "ideal"


def _no_constants(token):
    raise AssertionError(f"{token} is not JSON")


def test_aborted_round_discard_is_json_null(tmp_path):
    aborted = DiscardRecord(math.nan, "round 1 aborted: target did not answer the probe")
    raw = DefectSampleSet((2.0, 3.0, 3.0, 4.0, 5.0, 6.0), (aborted,), "real")
    EiProject(tmp_path).persist_phase("real", raw, {"command": "evaluate"}, Analysis())
    text = (tmp_path / "phases/real/sample_set.json").read_text()
    doc = json.loads(text, parse_constant=_no_constants)
    assert doc["discarded"] == [{"value": None, "reason": aborted.reason}]
    back = sample_set_from_dict(doc)
    assert math.isnan(back.discarded[0].value)
    assert back.discarded[0].reason == aborted.reason
    assert back.values == raw.values


def test_samples_text_skips_comments(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("# header\n1.0\n\n2.5\n")
    assert load_samples_text(path).values == (1.0, 2.5)


def reference_load(path):
    """load_samples_text's values or error message, read line by line."""
    values = []
    for number, raw_line in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values.append((number, float(line)))
        except ValueError:
            return f"{path}:{number}: not a number: {line!r}"
    for number, value in values:
        if not 0.0 <= value < math.inf:
            return f"{path}:{number}: defect density must be finite and >= 0, got {value}"
    return tuple(value for _, value in values)


def load_outcome(path):
    try:
        return load_samples_text(path).values
    except ValueError as exc:
        return str(exc)


SAMPLE_LINES = st.one_of(
    st.floats(0.0, 1e6).map(repr),
    st.floats(0.0, 1e6).map(lambda v: f" \t{v:g}  "),
    st.integers(0, 10**6).map(str),
    st.sampled_from([
        "", "   ", "\t", "# comment", "  # indented", "#", "1e3", "1_000", " 2.5 ",
        "\u00a01.5\u2003", "nan", "inf", "-1", "x", "1 2", "0x1p3", "1,5",
    ]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(SAMPLE_LINES, max_size=40), st.sampled_from(["\n", "\r\n", "\r"]))
def test_load_samples_text_matches_per_line_reference(tmp_path_factory, lines, newline):
    path = tmp_path_factory.getbasetemp() / "lines.txt"
    path.write_text(newline.join(lines), newline="")
    assert load_outcome(path) == reference_load(path)


def test_load_samples_text_mixed_file_and_late_bad_line(tmp_path):
    rng = random.Random("mixed")
    lines = []
    for _ in range(8999):
        r = rng.random()
        value = repr(rng.expovariate(1.0))
        lines.append("" if r < 0.05 else "  \t " if r < 0.1 else "# note" if r < 0.15
                     else f"  {value}\t" if r < 0.2 else value)
    path = tmp_path / "mixed.txt"
    path.write_text("\r\n".join(lines) + "\r\n", newline="")
    assert load_samples_text(path).values == reference_load(path)
    assert len(load_samples_text(path).values) > 7000
    path.write_text("\r\n".join(lines + ["abc"] + lines[:5]) + "\r\n", newline="")
    with pytest.raises(ValueError, match=rf"mixed\.txt:9000: not a number: 'abc'$"):
        load_samples_text(path)


def test_save_samples_text_matches_per_value_format(tmp_path):
    rng = random.Random("bit patterns")
    patterns = (abs(struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0])
                for _ in range(20_000))
    edges = (0.0, -0.0, 5e-324, 1e16, 1e308, 0, 7, 10**6, 123456789, 2**53 + 1,
             0.1, 1e-5, 9.999995e-5, 123456.5, 999999.5, 1234567.0)
    values = edges + tuple(v for v in patterns if math.isfinite(v))
    path = tmp_path / "samples.txt"
    save_samples_text(DefectSampleSet(values), path)
    assert path.read_bytes() == "".join(f"{v:g}\n" for v in values).encode()
    save_samples_text(DefectSampleSet(()), path)
    assert path.read_bytes() == b""


def test_samples_csv_column(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("run,defect_density\n1,3\n2,5\n3,\n")
    ss = load_samples_csv(path, "defect_density")
    assert ss.values == (3.0, 5.0)
    with pytest.raises(ValueError):
        load_samples_csv(path, "nope")
    path.write_text("run,defect_density\n1,3\n2,x\n")
    with pytest.raises(ValueError, match=r"s\.csv:3: not a number: 'x'"):
        load_samples_csv(path, "defect_density")
    path.write_text("run,defect_density\n1,x\n2,-1\n3,y\n")
    with pytest.raises(ValueError, match=r"s\.csv:2: not a number: 'x'"):
        load_samples_csv(path, "defect_density")
    path.write_text("run,defect_density\n1,3\n2,-1\n3,1e400\n")
    with pytest.raises(ValueError, match=r"s\.csv:3: defect density must be finite and >= 0, got -1\.0$"):
        load_samples_csv(path, "defect_density")


def test_sample_set_dict_roundtrip():
    from webrely.stats import AnomalyPolicy, apply_policy

    ss = apply_policy(DefectSampleSet((1.0, 1.0, 1.0, 1.0, 99.0), (), "real"), AnomalyPolicy())
    back = sample_set_from_dict(sample_set_to_dict(ss))
    assert back == ss


def test_fit_report_roundtrip(tmp_path):
    report = fit_weibull(DefectSampleSet((1.0, math.e), (), "demo"))
    doc = fit_report_to_dict(report)
    assert doc["sample_count"] == 2
    assert doc["gof"] is None
    project = EiProject(tmp_path)
    dump_json(doc, project.phase_dir("demo") / "fit.json")
    assert project.load_fit("demo") == report.model


def test_fit_report_accepts_handwritten_minimal_doc(tmp_path):
    project = EiProject(tmp_path)
    dump_json({"shape": 2.16, "scale": 12.8}, project.phase_dir("hand") / "fit.json")
    assert project.load_fit("hand") == WeibullModel(2.16, 12.8)


def test_comparison_dict_fields():
    doc = comparison_to_dict(
        compare_models(WeibullModel(1.63, 2.4), WeibullModel(2.16, 12.8)), "ideal", "real"
    )
    assert doc["label_a"] == "ideal"
    assert doc["verdict"] == "a more reliable"
    assert doc["mean_a"] < doc["mean_b"]


def test_histogram_csv():
    hist = build_histogram(DefectSampleSet((0.2, 0.7, 1.5)), 1.0, 0.0)
    assert histogram_to_csv(hist) == "lower_edge,count\n0,2\n1,1\n"


def test_histogram_csv_edges_read_back_exactly():
    # %g keeps six significant digits, which would print all three edges
    # as 1.23457e+06; an edge %g cannot carry is written with repr
    hist = build_histogram(DefectSampleSet((1234567.0, 1234568.5, 1234569.2)), 1.0, 0.0)
    assert histogram_to_csv(hist) == (
        "lower_edge,count\n1234567.0,1\n1234568.0,1\n1234569.0,1\n"
    )


def test_histogram_csv_inexact_width_edges():
    hist = build_histogram(DefectSampleSet((0.0, 0.4)), 0.1234567, 0.0)
    assert histogram_to_csv(hist) == (
        "lower_edge,count\n0,1\n0.1234567,0\n0.2469134,0\n0.37037010000000004,1\n"
    )
    # edges that %g renders exactly keep the short form
    hist = build_histogram(DefectSampleSet((0.5, 1.7)), 0.5, 0.0)
    assert histogram_to_csv(hist) == "lower_edge,count\n0.5,1\n1,0\n1.5,1\n"
