import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from webrely.stats import WeibullModel, sample, weibull_cdf, weibull_mean, weibull_pdf


def test_model_rejects_nonpositive_params():
    with pytest.raises(ValueError):
        WeibullModel(0.0, 1.0)
    with pytest.raises(ValueError):
        WeibullModel(1.0, -2.0)
    with pytest.raises(ValueError):
        WeibullModel(math.nan, 1.0)


@pytest.mark.parametrize(
    "shape,scale,coef",
    [
        (1.63, 2.4, 0.391),
        (2.16, 12.8, 0.00876),
        (1.26, 5.19, 0.158),
    ],
)
def test_leading_coefficient_reference_models(shape, scale, coef):
    got = WeibullModel(shape, scale).leading_coefficient
    assert abs(got - coef) / coef < 0.005


def test_pdf_zero_for_negative_x():
    m = WeibullModel(1.63, 2.4)
    assert weibull_pdf(m, -0.5) == 0.0


def test_pdf_at_origin_by_shape():
    assert weibull_pdf(WeibullModel(1.63, 2.4), 0.0) == 0.0
    assert weibull_pdf(WeibullModel(1.0, 2.4), 0.0) == pytest.approx(1 / 2.4)
    assert weibull_pdf(WeibullModel(0.7, 2.4), 0.0) == math.inf


def test_pdf_closed_form_value():
    # coefficient * exp(-(x/scale)**shape) at x = 1
    m = WeibullModel(1.63, 2.4)
    oracle = 1.63 * 2.4**-1.63 * math.exp(-((1 / 2.4) ** 1.63))
    got = weibull_pdf(m, 1.0)
    assert got == pytest.approx(oracle, rel=1e-12)
    # the rounded-coefficient rendering of the same density
    assert abs(got - 0.3076) < 2e-4


def test_cdf_basics():
    m = WeibullModel(1.63, 2.4)
    assert weibull_cdf(m, 0.0) == 0.0
    assert weibull_cdf(m, -1.0) == 0.0
    # at x = scale the exponent is exactly 1 regardless of shape
    for shape in (0.5, 1.0, 1.63, 4.2):
        assert weibull_cdf(WeibullModel(shape, 2.4), 2.4) == pytest.approx(1 - math.exp(-1))
    assert 1.0 - weibull_cdf(m, 100.0) < 1e-12


def test_extreme_arguments_stay_finite():
    m = WeibullModel(5.0, 2.4)
    assert weibull_pdf(m, 1e300) == 0.0
    assert weibull_cdf(m, 1e300) == 1.0


def test_cdf_monotone():
    m = WeibullModel(0.8, 3.0)
    xs = [i * 0.25 for i in range(200)]
    cs = [weibull_cdf(m, x) for x in xs]
    assert all(b >= a for a, b in zip(cs, cs[1:]))
    assert all(0.0 <= c <= 1.0 for c in cs)


def test_mean_exponential_special_case():
    # shape 1 degenerates to the exponential distribution
    assert weibull_mean(WeibullModel(1.0, 2.4)) == pytest.approx(2.4, rel=1e-12)


def test_mean_analytic_half_root_pi():
    assert weibull_mean(WeibullModel(2.0, 1.0)) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-12)


def test_mean_reference_model():
    got = weibull_mean(WeibullModel(2.16, 12.8))
    oracle = 12.8 * math.gamma(1 + 1 / 2.16)
    assert got == pytest.approx(oracle, rel=1e-10)
    assert got == pytest.approx(11.34, abs=5e-3)


@pytest.mark.parametrize("shape", [0.5, 1.0, 1.63, 2.16, 5.0])
@pytest.mark.parametrize("scale", [0.1, 2.4, 12.8, 20.0])
def test_pdf_integrates_to_one(shape, scale):
    # upper limit chosen so the analytic tail mass exp(-(hi/scale)**shape)
    # is below 1e-9; at shape 0.5 that takes ~430 scale units, so a flat
    # 50-scale span would leave 8.5e-4 in the tail and cannot hit 1e-6
    m = WeibullModel(shape, scale)
    hi = scale * math.log(1e9) ** (1.0 / shape)
    total, _ = integrate.quad(lambda x: weibull_pdf(m, x), 0.0, hi, limit=200)
    assert 1.0 - 1e-6 <= total <= 1.0 + 1e-6


@settings(max_examples=60, deadline=None)
@given(
    shape=st.floats(0.5, 5.0),
    scale=st.floats(0.1, 20.0),
    frac=st.floats(0.2, 3.0),
)
def test_cdf_derivative_matches_pdf(shape, scale, frac):
    m = WeibullModel(shape, scale)
    x = frac * scale
    h = 1e-5 * scale
    fd = (weibull_cdf(m, x + h) - weibull_cdf(m, x - h)) / (2 * h)
    p = weibull_pdf(m, x)
    # deep in the tail the CDF difference cancels below float precision,
    # so require a dimensionless density of at least 1e-4 for the check
    if p * scale >= 1e-4:
        assert abs(fd - p) / p < 1e-4


def test_sampler_deterministic_and_positive():
    m = WeibullModel(1.63, 2.4)
    a = sample(m, 50, random.Random(9))
    b = sample(m, 50, random.Random(9))
    assert a == b
    assert all(v > 0 for v in a)


def test_sampler_mean_roughly_matches_model():
    m = WeibullModel(1.63, 2.4)
    draws = sample(m, 20000, random.Random(5))
    assert sum(draws) / len(draws) == pytest.approx(weibull_mean(m), rel=0.03)
