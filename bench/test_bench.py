"""Tests of the benchmark itself: every check passes on webrely's own output
and fails once that output is corrupted; the span arithmetic is exact.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import random
import statistics
import types

import pytest

import checks
from common import grouped_quantile, quantile
from tracing import Tracer, patched, self_times
from webrely.harness import Step, TestCase, predict_faults
from webrely.simulator import SimConfig, run_single
from webrely.stats import (
    DefectSampleSet,
    WeibullModel,
    apply_policy,
    AnomalyPolicy,
    build_histogram,
    compare_models,
    fit_weibull,
    goodness_of_fit,
    sample,
)
from webrely.stats.serialize import comparison_to_dict

TABLE = {("/courses", "read"): "error-marker", ("/professor/courses", "insert"): "http-500"}


@pytest.fixture(scope="module")
def fitted():
    values = sample(WeibullModel(1.5, 2.4), 2000, random.Random(3))
    cleaned = apply_policy(DefectSampleSet(tuple(values)), AnomalyPolicy())
    return values, cleaned, fit_weibull(cleaned)


# --- ideal ---------------------------------------------------------------------


def test_run_accounting_and_reproduction():
    cfg = SimConfig(runs=4, seed=9)
    results = [(i, run_single(cfg, i)) for i in range(cfg.runs)]
    assert checks.check_run_accounting(results, cfg.events_per_run) == []
    assert checks.check_reproduced(results, lambda i: run_single(cfg, i)) == []
    short = types.SimpleNamespace(admitted=results[0][1].admitted - 1, rejected=results[0][1].rejected)
    assert checks.check_run_accounting([(0, short)], cfg.events_per_run)
    other = SimConfig(runs=4, seed=10)
    assert checks.check_reproduced(results, lambda i: run_single(other, i))


def test_error_total_within_five_sigma():
    assert checks.check_error_total([3] * 100, 10_000, 0.03) == []
    assert checks.check_error_total([4] * 100, 10_000, 0.03)


def test_zeros_excluded():
    assert checks.check_zeros_excluded(2, [0.0, 1.0, 0.0, 3.0]) == []
    assert checks.check_zeros_excluded(1, [0.0, 1.0, 0.0, 3.0])


def test_chi2_threshold(fitted):
    _, cleaned, report = fitted
    gof = goodness_of_fit(build_histogram(cleaned), report.model, "chi-square", 0.05, fitted_params=2)
    doc = {"threshold": gof.threshold, "dof": gof.dof, "significance": gof.significance}
    assert checks.check_chi2_threshold(doc) == []
    assert checks.check_chi2_threshold(dict(doc, threshold=gof.threshold * (1 + 1e-9)))


# --- fits ----------------------------------------------------------------------


def test_loglik_fails_on_nudged_shape(fitted):
    _, cleaned, report = fitted
    shape, scale = report.model.shape, report.model.scale
    assert checks.check_loglik(cleaned.values, shape, scale) == []
    assert checks.check_loglik(cleaned.values, shape + 1e-3, scale)
    assert checks.check_loglik(cleaned.values, shape - 1e-3, scale)


def test_ks_fails_on_altered_statistic(fitted):
    _, cleaned, report = fitted
    gof = goodness_of_fit(None, report.model, "ks", samples=cleaned)
    args = (cleaned.values, report.model.shape, report.model.scale)
    assert checks.check_ks(*args, gof.statistic) == []
    assert checks.check_ks(*args, gof.statistic + 1e-9)


def test_multiset_fails_on_lost_or_altered_value(fitted):
    values, cleaned, _ = fitted
    discarded = [d.value for d in cleaned.discarded]
    assert checks.check_multiset(values, cleaned.values, discarded) == []
    assert checks.check_multiset(values, cleaned.values[1:], discarded)
    assert checks.check_multiset(values, (cleaned.values[0] + 1e-12,) + cleaned.values[1:], discarded)


# --- compare -------------------------------------------------------------------


def test_compare_checks():
    report = comparison_to_dict(compare_models(WeibullModel(1.5, 2.4), WeibullModel(2.2, 5.0)))
    assert checks.check_compare(report) == []
    assert checks.check_compare(dict(report, mean_a=report["mean_a"] * (1 + 1e-9)))
    assert checks.check_compare(dict(report, sup_cdf_distance=report["sup_cdf_distance"] + 1e-3))
    assert checks.check_compare(dict(report, sup_cdf_distance=report["sup_cdf_distance"] - 0.01))
    assert checks.check_compare(dict(report, verdict="b more reliable"))


# --- live ----------------------------------------------------------------------


def _case(view="professor"):
    steps = (
        Step("/professor", "read", {}),
        Step("/professor/courses", "insert", {"name": "x", "credits": "3"}),
        Step("/courses", "read", {}),
    )
    return TestCase("case-00007", view, 1, steps)


def _log(case):
    lines = ["1000\t7\tcase-00007\t-1\tbegin\tok\t-"]
    if case.view != "public":
        lines.append("1001\t7\tcase-00007\t-1\tlogin\tok\t-")
    for i, step in enumerate(case.steps):
        behavior = TABLE.get((step.node_path, step.action))
        outcome = "ok" if behavior is None else f"fault:{behavior}"
        lines.append(f"{1002 + i}\t7\tcase-00007\t{i}\t{step.action}\t{outcome}\t{step.node_path}")
    lines.append("1010\t7\tcase-00007\t-1\tend\tok\t-")
    return lines


def test_tester_log_fails_on_removed_step_record():
    case = _case()
    lines = _log(case)
    assert checks.check_tester_log(lines, case, TABLE) == []
    for removed in range(2, 2 + len(case.steps)):
        assert checks.check_tester_log(lines[:removed] + lines[removed + 1:], case, TABLE)


def test_tester_log_fails_on_wrong_outcome_or_failed_login():
    case = _case()
    lines = _log(case)
    assert checks.check_tester_log([l.replace("fault:http-500", "ok") for l in lines], case, TABLE)
    assert checks.check_tester_log([l.replace("login\tok", "login\tnav_error") for l in lines], case, TABLE)


def test_round_checks():
    cases = [_case(), _case()]
    tally = checks.tally_faults(cases, TABLE)
    predicted = predict_faults(cases, TABLE)
    assert tally == predicted
    log = {
        "fault_signatures": [
            {"node": n, "action": a, "code": c, "count": k} for (n, a, c), k in sorted(tally.items())
        ],
        "nav_errors": 0,
    }
    assert checks.check_round(log, tally, predicted) == []
    fewer = dict(log, fault_signatures=[dict(s, count=s["count"] - 1) for s in log["fault_signatures"]])
    assert checks.check_round(fewer, tally, predicted)
    assert checks.check_round(dict(log, nav_errors=1), tally, predicted)


# --- spans and quantiles --------------------------------------------------------


def test_self_times_on_hand_made_tree():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 3.0, 0],
        ["b", 2.0, 5.0, 0],    # overlaps a: the union [1, 5] counts once
        ["c", 8.0, 12.0, 0],   # runs past root: only [8, 10] is root's
        ["a.1", 1.5, 2.0, 1],
        ["leaf", 4.0, 4.5, None],
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.5, 3.0, 4.0, 0.5, 0.5])


def test_tracer_nests_and_adopts():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        tracer.adopt({"spans": [["child.root", 1.0, 2.0, None], ["child.leaf", 1.2, 1.5, 0]],
                      "counts": {"n": 2}})
    names = [(name, parent) for name, _, _, parent in tracer.spans]
    assert names == [("outer", None), ("inner", 0), ("child.root", 0), ("child.leaf", 2)]
    assert tracer.counts == {"n": 2}


def test_patched_restores():
    holder = types.SimpleNamespace(f=lambda: 1)
    original = holder.f
    with patched([(holder, "f", lambda: 2)]):
        assert holder.f() == 2
    assert holder.f is original


def test_quantiles():
    assert quantile([3, 1, 2, 4], 0.5) == 2.5
    data = [12, 13, 13, 14, 14, 14, 15, 17]
    assert grouped_quantile(data, 0.5) == pytest.approx(statistics.median_grouped(data))
    assert grouped_quantile([5] * 10, 0.5) == 5.0
