"""Two-parameter Weibull distribution: density, CDF, mean, sampling.

The density is

    f(x) = shape * scale**(-shape) * x**(shape - 1) * exp(-(x / scale)**shape)

for x > 0 and 0 for x < 0.  Defect densities are modeled with this law
throughout the toolkit; no other distribution family is provided.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

__all__ = ["WeibullModel", "weibull_pdf", "weibull_cdf", "weibull_mean", "sample"]


@dataclass(frozen=True)
class WeibullModel:
    """Shape/scale parameter pair, both strictly positive."""

    shape: float
    scale: float

    def __post_init__(self):
        if not (self.shape > 0.0 and math.isfinite(self.shape)):
            raise ValueError(f"shape must be a positive finite real, got {self.shape}")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be a positive finite real, got {self.scale}")

    @property
    def leading_coefficient(self) -> float:
        """Constant factor shape * scale**(-shape) multiplying x**(shape-1)."""
        return self.shape * self.scale ** (-self.shape)


def weibull_pdf(model: WeibullModel, x: float) -> float:
    """Density at x.

    x < 0 has density 0.  At x = 0 the limit depends on the shape:
    0 for shape > 1, 1/scale for shape == 1, and unbounded for
    shape < 1, in which case math.inf is returned as the sentinel.
    """
    if x < 0.0:
        return 0.0
    a, b = model.shape, model.scale
    if x == 0.0:
        if a > 1.0:
            return 0.0
        if a == 1.0:
            return 1.0 / b
        return math.inf
    # work in logs so large x or extreme shapes cannot overflow the power
    log_x, log_b = math.log(x), math.log(b)
    log_z_pow = a * (log_x - log_b)
    if log_z_pow > 700.0:  # exp(-z**a) underflows to an exact 0 density
        return 0.0
    return math.exp(math.log(a) - a * log_b + (a - 1.0) * log_x - math.exp(log_z_pow))


def weibull_cdf(model: WeibullModel, x: float) -> float:
    """P(X <= x); 0 for x < 0, monotone non-decreasing, bounded by 1."""
    return _cdf(model.shape, math.log(model.scale), x)


def _cdf(shape: float, log_scale: float, x: float) -> float:
    """weibull_cdf's formula, for loops that compute log(scale) once."""
    if x <= 0.0:
        return 0.0
    log_z_pow = shape * (math.log(x) - log_scale)
    if log_z_pow > 700.0:
        return 1.0
    return -math.expm1(-math.exp(log_z_pow))


def weibull_mean(model: WeibullModel) -> float:
    """Expected value scale * gamma(1 + 1/shape)."""
    return model.scale * math.gamma(1.0 + 1.0 / model.shape)


def sample(model: WeibullModel, n: int, rng: random.Random) -> list[float]:
    """Draw n values by inverting the CDF: x = scale * (-ln(1-u))**(1/shape).

    Deterministic for a given rng state; used for synthetic fixtures and
    fit-recovery checks.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    a, b = model.shape, model.scale
    return [b * (-math.log1p(-rng.random())) ** (1.0 / a) for _ in range(n)]
