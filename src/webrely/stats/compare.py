"""Side-by-side comparison of two fitted reliability models.

Lower expected defect density means higher reliability, so the model with
the smaller Weibull mean wins the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .weibull import WeibullModel, _cdf, weibull_mean

__all__ = ["ComparisonReport", "compare_models", "CDF_GRID_POINTS", "CDF_GRID_SCALE_SPAN"]

# sup-distance grid: evenly spaced points on [0, span * max(scale_a, scale_b)];
# at 12 scale units the remaining CDF mass is negligible for any shape >= 0.5
CDF_GRID_POINTS = 2048
CDF_GRID_SCALE_SPAN = 12.0


@dataclass(frozen=True)
class ComparisonReport:
    model_a: WeibullModel
    model_b: WeibullModel
    mean_a: float
    mean_b: float
    mean_ratio: float
    sup_cdf_distance: float
    verdict: str  # "equal" | "a more reliable" | "b more reliable"


def compare_models(a: WeibullModel, b: WeibullModel) -> ComparisonReport:
    """Compare expected defect densities and CDF shapes of two models."""
    mean_a = weibull_mean(a)
    mean_b = weibull_mean(b)
    hi = CDF_GRID_SCALE_SPAN * max(a.scale, b.scale)
    step = hi / (CDF_GRID_POINTS - 1)
    shape_a, log_scale_a = a.shape, math.log(a.scale)
    shape_b, log_scale_b = b.shape, math.log(b.scale)
    sup = 0.0
    for i in range(CDF_GRID_POINTS):
        x = i * step
        sup = max(sup, abs(_cdf(shape_a, log_scale_a, x) - _cdf(shape_b, log_scale_b, x)))
    if mean_a == mean_b:
        verdict = "equal"
    elif mean_a < mean_b:
        verdict = "a more reliable"
    else:
        verdict = "b more reliable"
    return ComparisonReport(
        model_a=a,
        model_b=b,
        mean_a=mean_a,
        mean_b=mean_b,
        mean_ratio=mean_a / mean_b,
        sup_cdf_distance=sup,
        verdict=verdict,
    )
