import pytest
from scipy.stats import chi2, kstwo

from webrely.errors import InsufficientData
from webrely.stats import (
    DefectSampleSet,
    WeibullModel,
    build_histogram,
    goodness_of_fit,
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
