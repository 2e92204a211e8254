"""File formats for sample sets and reports.

Samples travel as one-value-per-line text (blank lines and # comments
ignored) or as a named CSV column.  Reports serialize to JSON with the
field names documented in the README: each is its record's fields, as
dataclasses.asdict gives them, reshaped only where the schema says so.
Every JSON artifact goes through dump_json and read_json, and every CSV
artifact through csv_writer: a header row, then one row per line, each
ending in a bare newline.  Histograms export as lower_edge,count CSV.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict
from pathlib import Path

from .compare import ComparisonReport
from .fitting import FitReport
from .samples import DefectSampleSet, DiscardRecord, Histogram

__all__ = [
    "load_samples_text",
    "save_samples_text",
    "load_samples_csv",
    "sample_set_to_dict",
    "sample_set_from_dict",
    "fit_report_to_dict",
    "comparison_to_dict",
    "histogram_to_csv",
    "csv_writer",
    "csv_text",
    "dump_json",
    "read_json",
]


def load_samples_text(path: str | Path, source_label: str = "") -> DefectSampleSet:
    lines = [line for line in map(str.strip, Path(path).read_text().splitlines())
             if line and line[0] != "#"]
    try:
        return DefectSampleSet(tuple(map(float, lines)), (), source_label)
    except ValueError:
        # the file is read again so that the parse above holds one list of
        # lines, not two
        numbered = enumerate(map(str.strip, Path(path).read_text().splitlines()), 1)
        _raise_bad_line(path, ((n, line) for n, line in numbered if line and line[0] != "#"))
        raise


def save_samples_text(samples: DefectSampleSet, path: str | Path) -> None:
    """One value per line in %g form: six significant digits."""
    Path(path).write_text(("%g\n" * samples.n) % tuple(samples.values))


def load_samples_csv(path: str | Path, column: str, source_label: str = "") -> DefectSampleSet:
    try:
        return DefectSampleSet(tuple(float(cell) for _, cell in _csv_cells(path, column)),
                               (), source_label)
    except ValueError:
        _raise_bad_line(path, _csv_cells(path, column))
        raise


def _csv_cells(path: str | Path, column: str):
    """(line number, stripped cell) for each non-empty cell of column."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or column not in reader.fieldnames:
            raise ValueError(f"column {column!r} not found in {path}")
        for row in reader:
            cell = (row[column] or "").strip()
            if cell:
                yield reader.line_num, cell


def _raise_bad_line(path: str | Path, numbered_cells) -> None:
    """Name the first cell that is not a number, else the first that is no
    defect density, as path:line.  The loaders walk a file this way only
    after their one-pass parse has failed."""
    values = []
    for number, cell in numbered_cells:
        try:
            values.append((number, float(cell)))
        except ValueError:
            raise ValueError(f"{path}:{number}: not a number: {cell!r}") from None
    for number, value in values:
        try:
            DefectSampleSet((value,))
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: {exc}") from None


def sample_set_to_dict(samples: DefectSampleSet) -> dict:
    """An aborted round's discard (NaN) is written as null: JSON has no NaN."""
    return {
        "source_label": samples.source_label,
        "retained": list(samples.values),
        "discarded": [
            {"value": None if math.isnan(d.value) else d.value, "reason": d.reason}
            for d in samples.discarded
        ],
    }


def sample_set_from_dict(doc: dict) -> DefectSampleSet:
    return DefectSampleSet(
        tuple(float(v) for v in doc["retained"]),
        tuple(
            DiscardRecord(math.nan if d["value"] is None else float(d["value"]), str(d["reason"]))
            for d in doc.get("discarded", [])
        ),
        str(doc.get("source_label", "")),
    )


def fit_report_to_dict(report: FitReport) -> dict:
    doc = asdict(report)
    doc.update(doc.pop("model"))
    return doc


# the verdict read with phase a as the newer phase
_IMPROVEMENT = {"equal": "equal", "a more reliable": "improved", "b more reliable": "worsened"}


def comparison_to_dict(report: ComparisonReport, label_a: str = "a", label_b: str = "b") -> dict:
    doc = asdict(report)
    for side in ("a", "b"):
        model = doc.pop(f"model_{side}")
        doc[f"shape_{side}"] = model["shape"]
        doc[f"scale_{side}"] = model["scale"]
    doc.update(label_a=label_a, label_b=label_b, improvement=_IMPROVEMENT[report.verdict])
    return doc


def histogram_to_csv(hist: Histogram) -> str:
    return csv_text(["lower_edge", "count"], ([_edge(lower), count] for lower, count in hist.bins))


def _edge(lower: float) -> str:
    """The short %g form when it reads back as the same float, else repr."""
    text = f"{lower:g}"
    return text if float(text) == lower else repr(lower)


def csv_writer(fh):
    """The one artifact CSV dialect: comma-separated, minimal quoting, bare newlines."""
    return csv.writer(fh, lineterminator="\n")


def csv_text(header, rows) -> str:
    """A header row then rows, as the text of one CSV artifact."""
    buf = io.StringIO()
    writer = csv_writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def dump_json(doc: dict | list, path: str | Path) -> None:
    """The one artifact JSON format: two-space indent, sorted keys, final newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_json(path: str | Path) -> dict | list:
    return json.loads(Path(path).read_text())
