"""Goodness-of-fit checks of a histogram or sample against a fitted model.

Two methods: Pearson chi-square on merged histogram bins (the default) and
Kolmogorov-Smirnov on the raw retained values.  The statistics are
computed here, the critical values in _quantiles: Newton's method on the
incomplete gamma for chi-square (Numerical Recipes section 6.2), and for
KS a lookup in one of two tables, for a model given from outside or for a
Weibull fitted to the same data (Lilliefors, JASA 62, 1967).  KS takes
only the significances in KS_SIGNIFICANCES.

KS reads the sample's sorted_values, sorted once by the anomaly policy,
and scans it pruned: a block of order statistics whose bound cannot beat
the largest term found so far is skipped.  Both i/n and the CDF rise with
i, so the bound from a block's two ends holds for every term inside it,
and the statistic is the full scan's float (see _ks_statistic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import InsufficientData
from ._quantiles import KS_SIGNIFICANCES, chi2_ppf, ks_critical
from .samples import DefectSampleSet, Histogram
from .weibull import WeibullModel, _cdf, weibull_cdf

__all__ = ["GOF_METHODS", "KS_SIGNIFICANCES", "GofResult", "goodness_of_fit"]

GOF_METHODS = ("chi-square", "ks")
MIN_EXPECTED_PER_BIN = 5.0

# the slack that a block's bound must clear in the pruned KS scan, far
# above rounding in the CDF
_KS_MARGIN = 1e-12


@dataclass(frozen=True)
class GofResult:
    statistic: float
    threshold: float
    dof: int
    passed: bool
    method: str
    significance: float

    def __post_init__(self):
        if self.passed != (self.statistic <= self.threshold):
            raise ValueError("passed flag inconsistent with statistic vs threshold")


def goodness_of_fit(
    hist: Histogram | None,
    model: WeibullModel,
    method: str = "chi-square",
    significance: float = 0.05,
    *,
    samples: DefectSampleSet | None = None,
    fitted_params: int = 0,
) -> GofResult:
    """Decide whether the model is compatible with the observed data.

    chi-square works on the histogram; ks works on the raw retained sample
    (pass samples=).  fitted_params counts the model parameters estimated
    from this same data (2 for a Weibull fit, 0 when testing an externally
    given model): chi-square loses that many degrees of freedom, and ks
    takes its critical value from the table for that count, 0 or 2.
    """
    if not 0.0 < significance < 1.0:
        raise ValueError("significance must be in (0, 1)")
    if method == "chi-square":
        if hist is None:
            raise ValueError("chi-square requires a histogram")
        return _chi_square(hist, model, significance, fitted_params)
    if method == "ks":
        if samples is None:
            raise ValueError("ks requires the raw retained samples")
        return _ks(samples, model, significance, fitted_params)
    raise ValueError(f"unknown goodness-of-fit method {method!r}")


def _merge_bins(observed: list[int], expected: list[float]) -> list[tuple[float, float]]:
    """Greedy left-to-right merge until each group's expected count >= 5.

    A trailing short group is merged into the previous one; if that would
    collapse everything into a single group (the model concentrates its
    mass in one bin), a two-group split is kept instead so the statistic
    can still register the mismatch.
    """
    groups: list[tuple[float, float]] = []
    acc_obs = 0.0
    acc_exp = 0.0
    for o, e in zip(observed, expected):
        acc_obs += o
        acc_exp += e
        if acc_exp >= MIN_EXPECTED_PER_BIN:
            groups.append((acc_obs, acc_exp))
            acc_obs = acc_exp = 0.0
    if acc_obs or acc_exp:
        if len(groups) >= 2:
            last_obs, last_exp = groups.pop()
            groups.append((last_obs + acc_obs, last_exp + acc_exp))
        else:
            groups.append((acc_obs, acc_exp))
    return groups


def _chi_square(
    hist: Histogram, model: WeibullModel, significance: float, fitted_params: int
) -> GofResult:
    if len(hist.bins) < 3:
        raise InsufficientData(
            f"chi-square needs >= 3 histogram bins, got {len(hist.bins)}"
        )
    # a bin ends where the next begins; the first is open below and the
    # last above, so the expected counts sum to n
    cdf = [0.0, *(weibull_cdf(model, lower) for lower, _ in hist.bins[1:]), 1.0]
    observed = [count for _, count in hist.bins]
    expected = [hist.total * (hi - lo) for lo, hi in zip(cdf, cdf[1:])]
    groups = _merge_bins(observed, expected)
    dof = len(groups) - 1 - fitted_params
    if dof < 1:
        raise InsufficientData(
            f"{len(groups)} merged bins leave dof = {dof}; need at least 1"
        )
    statistic = 0.0
    for obs, exp in groups:
        if exp <= 1e-12:
            statistic = math.inf
            break
        statistic += (obs - exp) ** 2 / exp
    threshold = chi2_ppf(1.0 - significance, dof)
    return GofResult(
        statistic=statistic,
        threshold=threshold,
        dof=dof,
        passed=statistic <= threshold,
        method="chi-square",
        significance=significance,
    )


def _ks(samples: DefectSampleSet, model: WeibullModel, significance: float,
        fitted_params: int) -> GofResult:
    n = samples.n
    if n < 5:
        raise InsufficientData(f"ks needs >= 5 samples, got {n}")
    threshold = ks_critical(n, significance, fitted_params)
    d = _ks_statistic(samples.sorted_values, model)
    return GofResult(
        statistic=d,
        threshold=threshold,
        dof=0,
        passed=d <= threshold,
        method="ks",
        significance=significance,
    )


def _ks_statistic(xs: tuple[float, ...], model: WeibullModel) -> float:
    """D = max over i of i/n - F(x_i) and F(x_i) - (i-1)/n, for xs sorted.

    The scan is pruned by blocks of about sqrt(n)/8 order statistics, so a
    block's width 1/(8 sqrt(n)) stays small beside D, which is of order
    1/sqrt(n) for a model that fits.  Within a block both i/n and F(x_i)
    rise with i, so no term there exceeds the block's bound: its last i/n
    less F at its first value, or F at the next block's first value (1 past
    the end) less its first (i-1)/n.  Blocks are scanned term by term in
    decreasing order of bound until a bound, plus _KS_MARGIN, no longer
    beats D.  Every term is computed by the same expression as in a full
    scan, and a skipped block holds no term above D (the margin is far above
    the few ulps by which a rounded F can step back), so D is the full
    scan's float.
    """
    n = len(xs)
    block = max(2, math.isqrt(n) // 8)
    shape, log_scale = model.shape, math.log(model.scale)
    starts = range(0, n, block)
    fs = [_cdf(shape, log_scale, xs[lo]) for lo in starts] + [1.0]
    bounds = sorted(
        ((max(min(lo + block, n) / n - fs[k], fs[k + 1] - lo / n), lo)
         for k, lo in enumerate(starts)),
        reverse=True,
    )
    d = 0.0
    for bound, lo in bounds:
        if bound + _KS_MARGIN <= d:
            break
        for i in range(lo + 1, min(lo + block, n) + 1):
            f = _cdf(shape, log_scale, xs[i - 1])
            # two strict comparisons keep max(d, above, below)'s choice on ties
            above = i / n - f
            if above > d:
                d = above
            below = f - (i - 1) / n
            if below > d:
                d = below
    return d
