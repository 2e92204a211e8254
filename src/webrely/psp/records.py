"""Per-program PSP records: phase times, sizes and tracked defects.

Input formats:
  CSV  one documented header; program rows carry LOC and phase minutes,
       defect rows join to their program via program_number.
  JSON list of program objects with nested defect lists.

In both, a file holds at least one program, each program number appears
once, and the record classes take only finite, non-negative minutes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

from ..errors import RecordParseError
from ..stats.serialize import read_json

__all__ = ["PHASES", "REMOVAL_PHASES", "INJECTION_PHASES", "Defect", "PspProgramRecord",
           "load_records", "load_records_csv", "load_records_json"]

# standard personal-process phase order; removal may never precede injection
PHASES = (
    "plan",
    "design",
    "design_review",
    "code",
    "code_review",
    "compile",
    "test",
    "postmortem",
)

REMOVAL_PHASES = ("design_review", "code_review", "compile", "test")
INJECTION_PHASES = ("design", "code")


@dataclass(frozen=True)
class Defect:
    injected_phase: str
    removed_phase: str
    fix_minutes: float = 0.0
    type: str = ""

    def __post_init__(self):
        if self.injected_phase not in PHASES:
            raise ValueError(f"unknown injection phase {self.injected_phase!r}")
        if self.removed_phase not in PHASES:
            raise ValueError(f"unknown removal phase {self.removed_phase!r}")
        if PHASES.index(self.removed_phase) < PHASES.index(self.injected_phase):
            raise ValueError(
                f"defect removed in {self.removed_phase} before injection in {self.injected_phase}"
            )
        if not 0.0 <= self.fix_minutes < math.inf:  # also catches nan
            raise ValueError(f"fix_minutes must be finite and >= 0, got {self.fix_minutes}")


@dataclass(frozen=True)
class PspProgramRecord:
    program_number: int
    loc_new_changed: int
    phase_times: dict[str, float]  # minutes per phase
    defects: tuple[Defect, ...] = ()

    def __post_init__(self):
        missing = set(PHASES) - set(self.phase_times)
        if missing:
            raise ValueError(f"phase_times missing {sorted(missing)}")
        if not all(0.0 <= t < math.inf for t in self.phase_times.values()):
            raise ValueError("phase times must be finite and >= 0")

    def time_in(self, phases) -> float:
        """Total minutes across the given phases."""
        return math.fsum(self.phase_times[p] for p in phases)

    def injected_in(self, phases) -> int:
        return sum(1 for d in self.defects if d.injected_phase in phases)

    def removed_in(self, phases) -> int:
        return sum(1 for d in self.defects if d.removed_phase in phases)


CSV_HEADER = [
    "row_type",
    "program_number",
    "loc_new_changed",
    *PHASES,
    "injected_phase",
    "removed_phase",
    "fix_minutes",
    "defect_type",
]


def _add(records: dict[int, PspProgramRecord], position: int, record: PspProgramRecord) -> None:
    """The rule of both formats: a program number appears once."""
    if record.program_number in records:
        raise RecordParseError(position, "program_number",
                               f"program {record.program_number} appears more than once")
    records[record.program_number] = record


def load_records_csv(path: str | Path) -> list[PspProgramRecord]:
    programs: dict[int, PspProgramRecord] = {}
    defects: dict[int, list[Defect]] = {}
    first_defect_row: dict[int, int] = {}  # program number -> row of its first defect
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_HEADER:
            raise RecordParseError(1, "header", f"expected columns {CSV_HEADER}")
        for row_number, row in enumerate(reader, start=2):
            kind = (row["row_type"] or "").strip()
            try:
                program = int(row["program_number"])
            except ValueError:
                raise RecordParseError(row_number, "program_number", "not an integer") from None
            if kind == "program":
                try:
                    loc = int(row["loc_new_changed"])
                except ValueError:
                    raise RecordParseError(row_number, "loc_new_changed", "not an integer") from None
                try:
                    record = PspProgramRecord(program, loc, {p: float(row[p]) for p in PHASES})
                except ValueError as exc:
                    raise RecordParseError(row_number, "phase times", str(exc)) from None
                _add(programs, row_number, record)
            elif kind == "defect":
                try:
                    fix = float(row["fix_minutes"] or 0)
                except ValueError:
                    raise RecordParseError(row_number, "fix_minutes", "not numeric") from None
                try:
                    defect = Defect(
                        injected_phase=(row["injected_phase"] or "").strip(),
                        removed_phase=(row["removed_phase"] or "").strip(),
                        fix_minutes=fix,
                        type=(row["defect_type"] or "").strip(),
                    )
                except ValueError as exc:
                    raise RecordParseError(row_number, "defect", str(exc)) from None
                defects.setdefault(program, []).append(defect)
                first_defect_row.setdefault(program, row_number)
            else:
                raise RecordParseError(row_number, "row_type", f"unknown row type {kind!r}")
    orphans = set(defects) - set(programs)
    if orphans:
        raise RecordParseError(min(first_defect_row[n] for n in orphans), "program_number",
                               f"defect rows reference unknown programs {sorted(orphans)}")
    if not programs:
        raise RecordParseError(1, "row_type", "the file holds no program row")
    return [replace(programs[n], defects=tuple(defects.get(n, ()))) for n in sorted(programs)]


def load_records_json(path: str | Path) -> list[PspProgramRecord]:
    doc = read_json(path)
    if not isinstance(doc, list):
        raise RecordParseError(0, "record", f"expected a list of programs, got {type(doc).__name__}")
    records: dict[int, PspProgramRecord] = {}
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise RecordParseError(i, "record", f"expected a program object, got {type(entry).__name__}")
        try:
            record = PspProgramRecord(
                program_number=int(entry["program_number"]),
                loc_new_changed=int(entry["loc_new_changed"]),
                phase_times={p: float(entry["phase_times"][p]) for p in PHASES},
                defects=tuple(
                    Defect(
                        injected_phase=d["injected_phase"],
                        removed_phase=d["removed_phase"],
                        fix_minutes=float(d.get("fix_minutes", 0)),
                        type=d.get("type", ""),
                    )
                    for d in entry.get("defects", [])
                ),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise RecordParseError(i, "record", str(exc)) from None
        _add(records, i, record)
    if not records:
        raise RecordParseError(0, "record", "the list holds no program entry")
    return [records[n] for n in sorted(records)]


def load_records(path: str | Path) -> list[PspProgramRecord]:
    path = Path(path)
    if path.suffix.lower() == ".json":
        return load_records_json(path)
    return load_records_csv(path)
