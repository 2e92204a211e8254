"""Correctness checks on webrely's outputs.

Each check is worked out apart from the program (scipy, a finer grid, the
benchmark's own tally) or follows from a property of the method.  A check
returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
from scipy import stats

# the fitted log-likelihood may trail scipy's by rounding only
LOGLIK_RTOL = 1e-9
KS_ATOL = 1e-12
MEAN_RTOL = 1e-12
# points of the fine grid per point of compare's 2048-point grid
SUP_REFINE = 256


def expect(ok: bool, message: str) -> list[str]:
    """[] when ok, else the one failure message."""
    return [] if ok else [message]


# --- ideal -------------------------------------------------------------------


def check_run_accounting(results, events_per_run: int) -> list[str]:
    """Every arrival of a run is either admitted or rejected."""
    return [
        f"run {index}: admitted {r.admitted} + rejected {r.rejected} != {events_per_run}"
        for index, r in results
        if r.admitted + r.rejected != events_per_run
    ]


def check_error_total(densities, admitted: int, p: float) -> list[str]:
    """Each admitted user faults with probability p, independently, so the
    error total is Binomial(admitted, p)."""
    total = sum(densities)
    mean = p * admitted
    sigma = math.sqrt(admitted * p * (1.0 - p))
    return expect(
        abs(total - mean) <= 5.0 * sigma,
        f"{total} errors, binomial expectation {mean:.1f} +- 5 x {sigma:.1f}",
    )


def check_zeros_excluded(zeros_excluded: int, retained) -> list[str]:
    zeros = sum(1 for v in retained if v == 0.0)
    return expect(
        zeros_excluded == zeros,
        f"zeros_excluded {zeros_excluded}, but {zeros} retained runs have density 0",
    )


def check_chi2_threshold(gof: dict) -> list[str]:
    expected = float(stats.chi2.ppf(1.0 - gof["significance"], gof["dof"]))
    return expect(
        math.isclose(gof["threshold"], expected, rel_tol=1e-12, abs_tol=0.0),
        f"chi-square threshold {gof['threshold']!r}, chi2.ppf gives {expected!r}",
    )


def check_reproduced(results, rerun) -> list[str]:
    """rerun(index) runs that index again; it must give the same result."""
    return [
        f"run {index}: rerun gave {again}, campaign gave {r}"
        for index, r in results
        if (again := rerun(index)) != r
    ]


# --- fits (ideal and cli) -----------------------------------------------------


def check_loglik(retained, shape: float, scale: float) -> list[str]:
    """The fitted model is the maximum-likelihood one: scipy's own fit of the
    same strictly positive values may not do better."""
    x = np.array([v for v in retained if v > 0.0])
    c, _, s = stats.weibull_min.fit(x, floc=0)
    ours = float(stats.weibull_min.logpdf(x, shape, scale=scale).sum())
    theirs = float(stats.weibull_min.logpdf(x, c, scale=s).sum())
    return expect(
        ours >= theirs - LOGLIK_RTOL * abs(theirs),
        f"log-likelihood {ours!r} below scipy's {theirs!r} (shape {c!r}, scale {s!r})",
    )


def check_multiset(inputs, retained, discarded) -> list[str]:
    """Nothing is dropped or altered: retained plus discarded is the input."""
    return expect(
        Counter(inputs) == Counter(list(retained) + list(discarded)),
        f"retained ({len(retained)}) plus discarded ({len(discarded)}) "
        f"differ from the {len(inputs)} input values",
    )


def check_ks(retained, shape: float, scale: float, statistic: float) -> list[str]:
    expected = float(stats.kstest(retained, stats.weibull_min(shape, scale=scale).cdf).statistic)
    return expect(
        abs(statistic - expected) <= KS_ATOL,
        f"KS statistic {statistic!r}, scipy.stats.kstest gives {expected!r}",
    )


# --- compare -------------------------------------------------------------------


def check_compare(report: dict, span: float = 12.0, points: int = 2048) -> list[str]:
    """Means against scipy, the CDF sup-distance against a grid SUP_REFINE
    times finer over the same range, and the verdict against the means."""
    a = stats.weibull_min(report["shape_a"], scale=report["scale_a"])
    b = stats.weibull_min(report["shape_b"], scale=report["scale_b"])
    failures = []
    for key, model in (("mean_a", a), ("mean_b", b)):
        failures += expect(
            math.isclose(report[key], model.mean(), rel_tol=MEAN_RTOL),
            f"{key} {report[key]!r}, weibull_min.mean() gives {model.mean()!r}",
        )
    hi = span * max(report["scale_a"], report["scale_b"])
    grid = np.linspace(0.0, hi, (points - 1) * SUP_REFINE + 1)
    fine = float(np.abs(a.cdf(grid) - b.cdf(grid)).max())
    # between two coarse points the distance can rise by at most half a
    # coarse step times the largest slope of F_a - F_b
    slope = float(np.abs(a.pdf(grid) - b.pdf(grid)).max())
    tol = 0.5 * hi / (points - 1) * slope
    sup = report["sup_cdf_distance"]
    failures += expect(
        fine - tol <= sup <= fine + 1e-9,
        f"sup_cdf_distance {sup!r}, fine grid gives {fine!r} (tolerance {tol:.3g})",
    )
    if report["mean_a"] < report["mean_b"]:
        expected = "a more reliable"
    elif report["mean_a"] > report["mean_b"]:
        expected = "b more reliable"
    else:
        expected = "equal"
    failures += expect(
        report["verdict"] == expected,
        f"verdict {report['verdict']!r} with means {report['mean_a']!r}, {report['mean_b']!r}",
    )
    return failures


# --- live ----------------------------------------------------------------------


def tally_faults(cases, table: dict[tuple[str, str], str]) -> dict[tuple[str, str, str], int]:
    """The benchmark's own count of planned steps on a faulted (node, action)."""
    tally: Counter = Counter()
    for case in cases:
        for step in case.steps:
            behavior = table.get((step.node_path, step.action))
            if behavior is not None:
                tally[(step.node_path, step.action, behavior)] += 1
    return dict(tally)


def signatures_of(error_log: dict) -> dict[tuple[str, str, str], int]:
    return {
        (s["node"], s["action"], s["code"]): s["count"] for s in error_log["fault_signatures"]
    }


def check_round(error_log: dict, tally: dict, predicted: dict) -> list[str]:
    failures = []
    measured = signatures_of(error_log)
    failures += expect(measured == tally, f"fault signatures {measured} != planned {tally}")
    failures += expect(
        measured == predicted, f"fault signatures {measured} != predict_faults {predicted}"
    )
    failures += expect(error_log["nav_errors"] == 0, f"{error_log['nav_errors']} nav errors")
    return failures


def check_tester_log(lines: list[str], case, table: dict[tuple[str, str], str]) -> list[str]:
    """One step record per planned step, in order, each with the outcome the
    fault table implies; begin and end records; a login for signed-in views."""
    steps = []
    meta = []
    for line in lines:
        fields = line.split("\t")
        if len(fields) != 7:
            return [f"{case.id}: malformed record {line!r}"]
        _, _, case_id, index, action, outcome, node = fields
        if case_id != case.id:
            return [f"{case.id}: record of {case_id}"]
        if int(index) < 0:
            meta.append((action, outcome))
        else:
            steps.append((int(index), action, outcome, node))
    failures = []
    if len(steps) != len(case.steps):
        failures.append(f"{case.id}: {len(steps)} step records for {len(case.steps)} steps")
    expected_meta = [("begin", "ok")] + ([("login", "ok")] if case.view != "public" else [])
    expected_meta.append(("end", "ok"))
    if meta != expected_meta:
        failures.append(f"{case.id}: meta records {meta}, expected {expected_meta}")
    for (index, action, outcome, node), (i, step) in zip(steps, enumerate(case.steps)):
        behavior = table.get((step.node_path, step.action))
        want = "ok" if behavior is None else f"fault:{behavior}"
        if (index, action, node, outcome) != (i, step.action, step.node_path, want):
            failures.append(
                f"{case.id}: step {index} {action} {node} -> {outcome}, "
                f"planned step {i} {step.action} {step.node_path} -> {want}"
            )
    return failures
