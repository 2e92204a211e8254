"""The five personal-process quality measures and their trend series.

Not-applicable results are returned as None, never as zero: a yield of 0%
(nothing caught in review) and an undefined yield (nothing to catch) mean
different things.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from ..stats.serialize import csv_text
from .records import INJECTION_PHASES, PHASES, REMOVAL_PHASES, PspProgramRecord

__all__ = [
    "PspTrendReport",
    "appraisal_failure_ratio",
    "defects_per_kloc",
    "elimination_rate",
    "introduction_rate",
    "trend_report",
    "trend_series_csv",
    "yield_percent",
]

# removal in or before code_review counts toward process yield
_PRE_COMPILE = PHASES[: PHASES.index("code_review") + 1]


def yield_percent(rec: PspProgramRecord) -> float | None:
    """Percentage of defects removed before compile among those injected
    before compile; None when the record has no defects to judge by."""
    if not rec.defects:
        return None
    injected = rec.injected_in(_PRE_COMPILE)
    if injected == 0:
        return None
    removed = rec.removed_in(_PRE_COMPILE)
    return 100.0 * removed / injected


def defects_per_kloc(rec: PspProgramRecord) -> float | None:
    """Defects per thousand new/changed LOC; None without such LOC."""
    if rec.loc_new_changed <= 0:
        return None
    return 1000.0 * len(rec.defects) / rec.loc_new_changed


def elimination_rate(rec: PspProgramRecord) -> float | None:
    """Defects removed in review/compile/test per hour spent there; None
    when defects were removed but no time was recorded there."""
    removed = rec.removed_in(REMOVAL_PHASES)
    if removed == 0:
        return 0.0
    minutes = rec.time_in(REMOVAL_PHASES)
    if minutes <= 0:
        return None
    return removed / (minutes / 60.0)


def introduction_rate(rec: PspProgramRecord) -> float | None:
    """Defects injected in design/code per hour spent there; None when
    defects were injected but no time was recorded there."""
    injected = rec.injected_in(INJECTION_PHASES)
    if injected == 0:
        return 0.0
    minutes = rec.time_in(INJECTION_PHASES)
    if minutes <= 0:
        return None
    return injected / (minutes / 60.0)


def appraisal_failure_ratio(rec: PspProgramRecord) -> float | None:
    """Review minutes over compile-plus-test minutes; None without
    compile or test time."""
    failure = rec.time_in(("compile", "test"))
    if failure <= 0:
        return None
    appraisal = rec.time_in(("design_review", "code_review"))
    return appraisal / failure


_METRICS = {
    "yield_percent": yield_percent,
    "defects_per_kloc": defects_per_kloc,
    "elimination_rate": elimination_rate,
    "introduction_rate": introduction_rate,
    "appraisal_failure_ratio": appraisal_failure_ratio,
}


@dataclass(frozen=True)
class PspTrendReport:
    program_numbers: tuple[int, ...]
    series: dict[str, tuple[float | None, ...]]
    slopes: dict[str, float | None]

    def to_dict(self) -> dict:
        return asdict(self)


def _least_squares_slope(xs: list[float], ys: list[float]) -> float | None:
    if len(xs) < 2:
        return None
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    if sxx == 0.0:
        return None
    return math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def trend_report(records) -> PspTrendReport:
    """Per-program series for all five metrics plus a least-squares slope
    per metric over the programs where the metric applies; a metric that
    does not apply to a record is a None entry."""
    records = list(records)
    if not records:
        raise ValueError("need at least one program record")
    numbers = [r.program_number for r in records]
    if any(b <= a for a, b in zip(numbers, numbers[1:])):
        raise ValueError("program numbers must be strictly increasing")

    series: dict[str, tuple[float | None, ...]] = {}
    slopes: dict[str, float | None] = {}
    for name, metric in _METRICS.items():
        column = [metric(rec) for rec in records]
        series[name] = tuple(column)
        points = [(n, v) for n, v in zip(numbers, column) if v is not None]
        slopes[name] = _least_squares_slope([p[0] for p in points], [p[1] for p in points])
    return PspTrendReport(tuple(numbers), series, slopes)


def trend_series_csv(report: PspTrendReport, metric: str) -> str:
    """program_number,value rows for one metric; None becomes an empty cell."""
    return csv_text(
        ["program_number", metric],
        (
            [number, "" if value is None else f"{value:.6g}"]
            for number, value in zip(report.program_numbers, report.series[metric])
        ),
    )
