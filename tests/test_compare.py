import math
import random

import pytest

from webrely.stats import WeibullModel, compare_models, weibull_cdf
from webrely.stats.compare import CDF_GRID_POINTS, CDF_GRID_SCALE_SPAN

IDEAL = WeibullModel(1.63, 2.4)
REAL = WeibullModel(2.16, 12.8)
POST = WeibullModel(1.26, 5.19)


def test_equal_models():
    report = compare_models(IDEAL, IDEAL)
    assert report.verdict == "equal"
    assert report.mean_ratio == 1.0
    assert report.sup_cdf_distance == 0.0


def test_ideal_beats_real():
    report = compare_models(IDEAL, REAL)
    assert report.mean_a == pytest.approx(2.4 * math.gamma(1 + 1 / 1.63), rel=1e-10)
    assert report.mean_b == pytest.approx(12.8 * math.gamma(1 + 1 / 2.16), rel=1e-10)
    assert report.mean_a == pytest.approx(2.15, abs=5e-3)
    assert report.mean_b == pytest.approx(11.34, abs=5e-3)
    assert report.verdict == "a more reliable"


def test_post_improvement_beats_real():
    report = compare_models(POST, REAL)
    assert report.mean_a == pytest.approx(4.83, abs=5e-3)
    assert report.verdict == "a more reliable"
    assert report.mean_ratio == pytest.approx(0.426, abs=1e-3)


def test_verdict_flips_with_order():
    assert compare_models(REAL, IDEAL).verdict == "b more reliable"


def test_sup_distance_positive_for_distinct_models():
    report = compare_models(IDEAL, REAL)
    assert 0.0 < report.sup_cdf_distance <= 1.0
    # the two CDFs are far apart: ideal mass sits an order of magnitude lower
    assert report.sup_cdf_distance > 0.5


def _reference_sup_distance(a: WeibullModel, b: WeibullModel) -> float:
    """The sup distance with weibull_cdf called per point, log(scale) each time."""
    step = CDF_GRID_SCALE_SPAN * max(a.scale, b.scale) / (CDF_GRID_POINTS - 1)
    return max(abs(weibull_cdf(a, i * step) - weibull_cdf(b, i * step))
               for i in range(CDF_GRID_POINTS))


def test_sup_distance_matches_per_point_cdf_bit_for_bit():
    rng = random.Random(22)
    for _ in range(100):
        a, b = (WeibullModel(math.exp(rng.uniform(-1.5, 3.0)), math.exp(rng.uniform(-7.0, 7.0)))
                for _ in range(2))
        assert compare_models(a, b).sup_cdf_distance == _reference_sup_distance(a, b)
