import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, kstwo

from webrely.errors import InsufficientData
from webrely.stats import (
    DefectSampleSet,
    WeibullModel,
    build_histogram,
    goodness_of_fit,
    weibull_cdf,
)
from webrely.stats._quantiles import chi2_ppf, ks_ppf

from conftest import FIXTURE_MODEL

WRONG_MODEL = WeibullModel(10.0, 0.5)


@pytest.fixture(scope="module")
def fixture_hist(fixed_sample):
    return build_histogram(fixed_sample, 1.0, 0.0)


def test_chi_square_accepts_generating_model(fixture_hist):
    # decision frozen after a one-off cross-check against scipy's kstest
    # on the same fixed-seed fixture (p ~ 0.88)
    result = goodness_of_fit(fixture_hist, FIXTURE_MODEL, "chi-square", 0.05)
    assert result.passed
    assert result.statistic <= result.threshold
    assert result.dof >= 1


def test_chi_square_rejects_wrong_model(fixture_hist):
    result = goodness_of_fit(fixture_hist, WRONG_MODEL, "chi-square", 0.05)
    assert not result.passed


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


def test_ks_accepts_generating_model(fixed_sample):
    result = goodness_of_fit(None, FIXTURE_MODEL, "ks", 0.05, samples=fixed_sample)
    assert result.passed
    assert result.method == "ks"


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


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.one_of(st.just(0.0), st.floats(0.0, 50.0)), min_size=5, max_size=60),
    st.sampled_from(KS_MODELS),
)
def test_ks_statistic_matches_reference_loop(values, model):
    got = goodness_of_fit(None, model, "ks", 0.05, samples=DefectSampleSet(tuple(values)))
    assert got.statistic == reference_ks_statistic(values, model)


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


def test_unknown_method_rejected(fixture_hist):
    with pytest.raises(ValueError):
        goodness_of_fit(fixture_hist, FIXTURE_MODEL, "anderson", 0.05)


def test_significance_bounds(fixture_hist):
    with pytest.raises(ValueError):
        goodness_of_fit(fixture_hist, FIXTURE_MODEL, "chi-square", 0.0)


def test_stricter_significance_loosens_threshold(fixture_hist):
    at_05 = goodness_of_fit(fixture_hist, FIXTURE_MODEL, "chi-square", 0.05)
    at_01 = goodness_of_fit(fixture_hist, FIXTURE_MODEL, "chi-square", 0.01)
    assert at_01.threshold > at_05.threshold


# scipy is the oracle here and a test dependency only
CHI2_DOFS = [*range(1, 31), 100, 200, 1000, 5000, 20000]
KS_SIZES = [5, 6, 17, 40, 139, 140, 141, 1000, 100000]


@pytest.mark.parametrize("significance", [0.5, 0.05, 0.001])
def test_chi2_quantile_matches_scipy(significance):
    for dof in CHI2_DOFS:
        expected = chi2.ppf(1.0 - significance, dof)
        assert chi2_ppf(1.0 - significance, dof) == pytest.approx(expected, rel=1e-12), dof


@pytest.mark.parametrize("significance", [0.95, 0.9, 0.5, 0.05, 0.001])
def test_ks_quantile_matches_scipy(significance):
    for n in KS_SIZES:
        expected = kstwo.ppf(1.0 - significance, n)
        assert ks_ppf(1.0 - significance, n) == pytest.approx(expected, rel=0, abs=1e-10), n
