import math
import random
from statistics import NormalDist

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, kstwo, weibull_min

from webrely.errors import InsufficientData
from webrely.project import Analysis
from webrely.stats import (
    DefectSampleSet,
    GofResult,
    Histogram,
    WeibullModel,
    build_histogram,
    fit_weibull,
    goodness_of_fit,
    sample,
    weibull_cdf,
)
from webrely.stats import gof
from webrely.stats._quantiles import _KS_SIZES, _KS_TABLES, chi2_ppf, ks_critical
from webrely.stats.gof import KS_SIGNIFICANCES

from conftest import FIXTURE_MODEL

WRONG_MODEL = WeibullModel(10.0, 0.5)


@pytest.fixture(scope="module")
def fixture_hist(fixed_sample):
    return build_histogram(fixed_sample, 1.0, 0.0)


def test_chi_square_accepts_generating_model(fixture_hist):
    # decision frozen after a one-off cross-check against scipy's kstest
    # on the same fixed-seed fixture (p ~ 0.88)
    result = goodness_of_fit(fixture_hist, FIXTURE_MODEL)  # chi-square at 0.05 by default
    assert (result.method, result.significance) == ("chi-square", 0.05)
    assert result.passed
    assert result.statistic <= result.threshold
    assert result.dof >= 1


def test_chi_square_rejects_wrong_model(fixture_hist):
    result = goodness_of_fit(fixture_hist, WRONG_MODEL, "chi-square", 0.05)
    assert not result.passed
    # the model puts all its mass in the first bin, so the second group
    # expects nothing
    assert result.statistic == math.inf


def test_single_bin_insufficient():
    hist = build_histogram(DefectSampleSet(tuple([10.0] * 63)), 1.0, 0.0)
    with pytest.raises(InsufficientData):
        goodness_of_fit(hist, FIXTURE_MODEL, "chi-square", 0.05)


def test_fitted_params_reduce_dof(fixture_hist):
    free = goodness_of_fit(fixture_hist, FIXTURE_MODEL, "chi-square", 0.05)
    fitted = goodness_of_fit(fixture_hist, FIXTURE_MODEL, "chi-square", 0.05, fitted_params=2)
    assert fitted.dof == free.dof - 2


def test_expected_count_merging():
    # two far-apart value clusters force tiny expected counts in between;
    # merged groups must still carry the full observation count
    ss = DefectSampleSet(tuple([0.5] * 30 + [1.5] * 40 + [2.5] * 20 + [7.5] * 10))
    hist = build_histogram(ss, 1.0, 0.0)
    result = goodness_of_fit(hist, WeibullModel(1.5, 2.0), "chi-square", 0.05)
    assert result.dof >= 1


def reference_chi_square(hist, model):
    """Pearson's statistic and the number of groups by the documented rule,
    on scipy's Weibull CDF: a bin expects n (F(next lower edge) - F(lower
    edge)), the first bin open below and the last above; bins merge left
    to right until a group expects at least 5, and a short remainder joins
    the last group when there are two or more."""
    cdf = [0.0, *weibull_min.cdf([lower for lower, _ in hist.bins[1:]], model.shape,
                                 scale=model.scale), 1.0]
    groups, obs, exp = [], 0, 0.0
    for (_, count), lo, hi in zip(hist.bins, cdf, cdf[1:]):
        obs += count
        exp += hist.total * (hi - lo)
        if exp >= 5.0:
            groups.append([obs, exp])
            obs, exp = 0, 0.0
    if obs or exp:
        if len(groups) >= 2:
            groups[-1][0] += obs
            groups[-1][1] += exp
        else:
            groups.append([obs, exp])
    return sum((o - e) ** 2 / e for o, e in groups), len(groups)


SMALL_HIST = Histogram(bin_width=0.5, origin=0.0, total=47, bins=(
    (0.5, 4), (1.0, 9), (1.5, 12), (2.0, 10), (2.5, 7), (3.0, 3), (3.5, 0), (4.0, 2)))


@pytest.mark.parametrize("width", [None, 1.0, 0.3])
@pytest.mark.parametrize("fitted_params", [0, 2])
def test_chi_square_statistic_matches_reference(fixed_sample, width, fitted_params):
    # None: a hand-made histogram whose fifth group merges two bins and
    # whose last two bins, short of 5 together, join that group
    hist = SMALL_HIST if width is None else build_histogram(fixed_sample, width, 0.0)
    model = WeibullModel(2.0, 2.0) if width is None else FIXTURE_MODEL
    statistic, groups = reference_chi_square(hist, model)
    got = goodness_of_fit(hist, model, "chi-square", 0.05, fitted_params=fitted_params)
    assert got.statistic == pytest.approx(statistic, rel=1e-12)
    assert got.dof == groups - 1 - fitted_params


def test_ks_accepts_generating_model(fixed_sample):
    result = goodness_of_fit(None, FIXTURE_MODEL, "ks", 0.05, samples=fixed_sample)
    assert result.passed
    assert (result.method, result.dof) == ("ks", 0)


def test_ks_rejects_wrong_model(fixed_sample):
    result = goodness_of_fit(None, WRONG_MODEL, "ks", 0.05, samples=fixed_sample)
    assert not result.passed


def reference_ks_statistic(values, model):
    xs = sorted(values)
    n = len(xs)
    d = 0.0
    for i, x in enumerate(xs, start=1):
        f = weibull_cdf(model, x)
        d = max(d, i / n - f, f - (i - 1) / n)
    return d


KS_MODELS = [FIXTURE_MODEL, WRONG_MODEL, WeibullModel(0.4, 30.0), WeibullModel(300.0, 1.0)]
# the model's (i - 1/2)/5 quantiles, the largest moved far out: D is
# F(50) - 4/5, a term of the pruned scan's last block alone
LAST_BLOCK_D = [FIXTURE_MODEL.scale * (-math.log1p(-(i - 0.5) / 5)) ** (1 / FIXTURE_MODEL.shape)
                for i in range(1, 5)] + [50.0]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.one_of(st.just(0.0), st.floats(0.0, 50.0)), min_size=5, max_size=60),
    st.sampled_from(KS_MODELS),
)
@example(LAST_BLOCK_D, FIXTURE_MODEL)
def test_ks_statistic_matches_reference_loop(values, model):
    got = goodness_of_fit(None, model, "ks", 0.05, samples=DefectSampleSet(tuple(values)))
    assert got.statistic == reference_ks_statistic(values, model)


def ks_sample(kind: str, n: int, rng: random.Random) -> list:
    values = sample(FIXTURE_MODEL, n, rng)
    if kind == "ties":
        return [round(v, 1) for v in values]
    if kind == "zeros":
        return [0.0 if rng.random() < 0.1 else v for v in values]
    return values


# n up to 2000 spans many blocks of the pruned scan; the generating and the
# fitted model leave D small, so most blocks are skipped
@settings(max_examples=60, deadline=None)
@given(
    st.integers(5, 2000),
    st.sampled_from(["draws", "ties", "zeros"]),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["fitted", "generating", "wrong", "saturated"]),
)
def test_ks_statistic_matches_reference_loop_on_large_samples(n, kind, seed, which):
    values = ks_sample(kind, n, random.Random(seed))
    if which == "fitted":
        positive = [v for v in values if v > 0.0]
        if len(set(positive)) < 2:
            return
        model = fit_weibull(DefectSampleSet(tuple(values))).model
    else:
        model = {"generating": FIXTURE_MODEL, "wrong": WRONG_MODEL,
                 "saturated": WeibullModel(300.0, 1.0)}[which]
    got = goodness_of_fit(None, model, "ks", 0.05, samples=DefectSampleSet(tuple(values)))
    assert got.statistic == reference_ks_statistic(values, model)


def test_ks_scan_skips_most_blocks_near_the_fit(monkeypatch):
    values = sample(FIXTURE_MODEL, 2000, random.Random("pruned"))
    samples = DefectSampleSet(tuple(values))
    model = fit_weibull(samples).model
    calls = []
    cdf = gof._cdf
    monkeypatch.setattr(gof, "_cdf", lambda *args: calls.append(args) or cdf(*args))
    got = goodness_of_fit(None, model, "ks", 0.05, samples=samples)
    assert got.statistic == reference_ks_statistic(values, model)
    assert len(calls) < len(values) / 2


def test_ks_statistic_with_zeros_and_saturated_cdf():
    # shape 300 puts ln z**a = 300 * ln 20 ~ 899 > 700 at x = 20: the CDF
    # saturates at exactly 1 there and is exactly 0 at the zeros
    model = WeibullModel(300.0, 1.0)
    values = (0.0, 0.0, 0.5, 0.999, 1.0, 1.001, 20.0, 20.0, 1e6)
    got = goodness_of_fit(None, model, "ks", 0.05, samples=DefectSampleSet(values))
    assert got.statistic == reference_ks_statistic(values, model)
    assert weibull_cdf(model, 20.0) == 1.0


def test_ks_needs_five_samples():
    with pytest.raises(InsufficientData):
        goodness_of_fit(None, FIXTURE_MODEL, "ks", 0.05, samples=DefectSampleSet((1.0, 2.0)))


def test_ks_requires_samples_argument(fixture_hist):
    with pytest.raises(ValueError):
        goodness_of_fit(fixture_hist, FIXTURE_MODEL, "ks", 0.05)


def test_chi_square_requires_histogram_argument(fixed_sample):
    with pytest.raises(ValueError, match="histogram"):
        goodness_of_fit(None, FIXTURE_MODEL, "chi-square", 0.05, samples=fixed_sample)


def test_unknown_method_rejected(fixture_hist, fixed_sample):
    with pytest.raises(ValueError, match="unknown"):
        goodness_of_fit(fixture_hist, FIXTURE_MODEL, "anderson", 0.05, samples=fixed_sample)


def test_significance_bounds(fixture_hist):
    with pytest.raises(ValueError, match="significance must be in"):
        goodness_of_fit(fixture_hist, FIXTURE_MODEL, "chi-square", 0.0)


def test_passed_flag_must_match_statistic_and_threshold():
    with pytest.raises(ValueError, match="inconsistent"):
        GofResult(statistic=1.0, threshold=2.0, dof=1, passed=False, method="chi-square",
                  significance=0.05)


def test_stricter_significance_loosens_threshold(fixture_hist):
    at_05 = goodness_of_fit(fixture_hist, FIXTURE_MODEL, "chi-square", 0.05)
    at_01 = goodness_of_fit(fixture_hist, FIXTURE_MODEL, "chi-square", 0.01)
    assert at_01.threshold > at_05.threshold


# scipy is the oracle here and a test dependency only
CHI2_DOFS = [*range(1, 31), 100, 200, 1000, 5000, 20000]
KS_SIZES = [*range(5, 60), 73, 99, 101, 141, 199, 201, 350, 499, 501, 999, 1000, 1001, 2000,
            5000, 20000, 100000]


@pytest.mark.parametrize("significance", [0.5, 0.05, 0.001])
def test_chi2_quantile_matches_scipy(significance):
    for dof in CHI2_DOFS:
        expected = chi2.ppf(1.0 - significance, dof)
        assert chi2_ppf(1.0 - significance, dof) == pytest.approx(expected, rel=1e-12), dof


@pytest.mark.parametrize("dof,significance", [(1, 0.951), (1, 0.999), (1, 1 - 1e-9),
                                               (2, 0.9962), (2, 0.99999)])
def test_chi2_quantile_deep_in_the_lower_tail_matches_scipy(dof, significance):
    # the Wilson-Hilferty start falls at or below 0 here, so the start
    # comes from the series P(a, x) ~ x^a / Gamma(a + 1)
    h = 2.0 / (9.0 * dof)
    assert 1.0 - h + NormalDist().inv_cdf(1.0 - significance) * math.sqrt(h) <= 0.0
    expected = chi2.ppf(1.0 - significance, dof)
    assert chi2_ppf(1.0 - significance, dof) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("dof,significance", [(8, 1 - 1e-8), (9, 1 - 1e-9), (10, 1 - 1e-10),
                                               (11, 1 - 1e-10)])
def test_chi2_quantile_far_below_its_start_matches_scipy(dof, significance):
    # a full Newton step from the Wilson-Hilferty start, far below the
    # root, lands where the density underflows to 0; each step is kept
    # within [x/2, 2x] instead
    expected = chi2.ppf(1.0 - significance, dof)
    assert chi2_ppf(1.0 - significance, dof) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("significance", KS_SIGNIFICANCES)
def test_ks_quantile_matches_scipy(significance):
    # the table for a model given from outside freezes kstwo.ppf at eight
    # sizes; the lookup between and beyond them stays near the exact law
    for n in KS_SIZES:
        expected = kstwo.ppf(1.0 - significance, n)
        assert ks_critical(n, significance, 0) == pytest.approx(expected, rel=5e-3), n


@pytest.mark.parametrize("fitted_params,significance", [(1, 0.05), (3, 0.05), (2, 0.2), (0, 0.001)])
def test_ks_outside_its_tables_is_rejected(fixed_sample, fitted_params, significance):
    with pytest.raises(ValueError, match="^ks "):
        goodness_of_fit(None, FIXTURE_MODEL, "ks", significance, samples=fixed_sample,
                        fitted_params=fitted_params)


def test_analysis_checks_ks_significance():
    Analysis(gof_method="chi-square", significance=0.2)
    for significance in KS_SIGNIFICANCES:
        Analysis(gof_method="ks", significance=significance)
    with pytest.raises(ValueError):
        Analysis(gof_method="ks", significance=0.2)


def unit_weibull(n: int, rng: random.Random) -> list[float]:
    return sample(WeibullModel(1.0, 1.0), n, rng)


def fitted_ks(n: int, draws: int, rng: random.Random, draw=unit_weibull) -> list:
    """KS at 0.05 on draws samples of n values, each judged against the
    Weibull fitted to it; with the default draw, the generator of the
    fitted table."""
    results = []
    for _ in range(draws):
        values = DefectSampleSet(tuple(draw(n, rng)))
        fit = fit_weibull(values)
        results.append(goodness_of_fit(None, fit.model, "ks", 0.05, samples=values,
                                       fitted_params=2))
    return results


@pytest.mark.parametrize("row", range(len(_KS_SIZES)))
def test_fitted_table_rederived_by_monte_carlo(row):
    # fresh draws, fewer where a draw costs more: each of the row's points
    # must lie between the order statistics 3 binomial sigma either side
    # of its rank
    n = _KS_SIZES[row]
    draws = 4000 if n <= 200 else 2000
    points = sorted(math.sqrt(n) * r.statistic
                    for r in fitted_ks(n, draws, random.Random(f"recheck/{n}")))
    for point, significance in zip(_KS_TABLES[2][row], KS_SIGNIFICANCES):
        rank = (1.0 - significance) * draws
        half_width = 3.0 * math.sqrt(draws * significance * (1.0 - significance))
        lo = points[math.floor(rank - half_width)]
        hi = points[math.ceil(rank + half_width)]
        assert lo <= point <= hi, (significance, lo, hi)


def _rejection_rate(results) -> float:
    return sum(not r.passed for r in results) / len(results)


@pytest.mark.parametrize("n", [10, 50, 200])
def test_fitted_ks_size_matches_significance(n):
    # true Weibull data at the default operating point, not the table's
    # unit model: with fitted parameters the law of D_n depends on n alone
    draws = 2000
    rate = _rejection_rate(fitted_ks(n, draws, random.Random(f"size/{n}"),
                                     lambda k, rng: sample(FIXTURE_MODEL, k, rng)))
    assert abs(rate - 0.05) <= 3.0 * math.sqrt(0.05 * 0.95 / draws), rate


def test_fitted_ks_rejects_lognormal():
    rate = _rejection_rate(fitted_ks(200, 200, random.Random("power"),
                                     lambda k, rng: [rng.lognormvariate(0.0, 0.6) for _ in range(k)]))
    assert rate >= 0.8, rate
