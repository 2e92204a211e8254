"""Critical values of the chi-square and Kolmogorov-Smirnov tests.

chi2_ppf inverts the regularised lower incomplete gamma P(dof/2, x/2),
summed as a series below a + 1 and as a Lentz continued fraction above
(Numerical Recipes, 3rd ed., section 6.2), by Newton's method from the
Wilson-Hilferty approximation.

ks_critical reads the upper point of sqrt(n) * D_n, D_n the two-sided KS
statistic, from one table per number of parameters fitted to the same
data.  Rows are n = 5 ... 1000, linear in 1/sqrt(n) between them; the
last row serves every larger n.  Table 0, a model given from outside, is
scipy.stats.kstwo.ppf frozen to four places: the lookup stays within
0.17 % of that exact law for n <= 2000 and 0.4 % up to n = 100 000.
Table 2 is for a Weibull fitted by fit_weibull.  ln X is then a
location-scale family, so the null law of D_n depends on n alone
(Lilliefors, JASA 62, 1967; D'Agostino & Stephens, Goodness-of-Fit
Techniques, 1986, ch. 4).  Its row n is the empirical upper point of
200 000 draws: random.Random(n) feeds sample() at shape = scale = 1,
fit_weibull fits each sample and D_n judges it against its own fit;
tests/test_gof.py keeps this generator.  Both tables are for continuous
data: zeros, which the fit leaves out, are outside their calibration.
"""

from __future__ import annotations

import math
from bisect import bisect_right

_EPS = 2.0**-52
_TINY = 2.0**-1022


def _log_front(a: float, x: float) -> float:
    """log(x^a e^-x / Gamma(a)), kept free of cancellation at large a."""
    if a < 30.0:
        return a * math.log(x) - x - math.lgamma(a)
    d = (x - a) / a
    # Stirling: lgamma(a) = (a - 1/2) log a - a + log(2 pi) / 2 + stirling
    stirling = (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - 1.0 / (1680.0 * a * a))
                              / (a * a)) / (a * a)) / a
    return a * (math.log1p(d) - d) + 0.5 * math.log(a / (2.0 * math.pi)) - stirling


def _gamma_p_minus(a: float, x: float, p: float) -> tuple[float, float]:
    """P(a, x) - p and the Gamma(a) density at x > 0, where P is the
    regularised lower incomplete gamma: a series below a + 1, and above it
    a Lentz continued fraction for Q = 1 - P."""
    front = math.exp(_log_front(a, x))
    if x < a + 1.0:
        term = total = 1.0 / a
        ap = a
        while term > total * _EPS:
            ap += 1.0
            term *= x / ap
            total += term
        return total * front - p, front / x
    b = x + 1.0 - a
    c, d = 1.0 / _TINY, 1.0 / b
    h, i, delta = d, 0, 0.0
    while abs(delta - 1.0) > _EPS:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / ((an * d + b) or _TINY)
        c = (b + an / c) or _TINY
        delta = d * c
        h *= delta
    return (1.0 - p) - h * front, front / x


def chi2_ppf(p: float, dof: float) -> float:
    """The x with Pr(chi-square with dof degrees of freedom <= x) = p."""
    # statistics (with fractions and decimal) loads only for a chi-square test
    from statistics import NormalDist

    a = 0.5 * dof
    h = 2.0 / (9.0 * dof)
    x = 0.5 * dof * (1.0 - h + NormalDist().inv_cdf(p) * math.sqrt(h)) ** 3
    if x <= 0.0:  # far lower tail of few dof: P(a, x) ~ x^a / Gamma(a + 1)
        x = math.exp((math.log(p) + math.lgamma(a + 1.0)) / a)
    for _ in range(100):  # Newton, each step kept within [x/2, 2x]
        resid, density = _gamma_p_minus(a, x, p)
        # a density that underflows to 0 steps to the bound on resid's side
        newton = x - resid / density if density else -math.copysign(math.inf, resid)
        x_old, x = x, min(max(newton, 0.5 * x), 2.0 * x)
        if abs(x - x_old) <= 1e-15 * x_old:
            break
    return 2.0 * x


KS_SIGNIFICANCES = (0.10, 0.05, 0.025, 0.01)
_KS_SIZES = (5, 10, 20, 50, 100, 200, 500, 1000)
# sqrt(n) * D_n upper points: fitted parameters -> one row per _KS_SIZES
# entry, one column per KS_SIGNIFICANCES entry
_KS_TABLES = {
    0: (  # sqrt(n) * scipy.stats.kstwo.ppf(1 - significance, n)
        (1.1392, 1.2595, 1.3699, 1.4949),
        (1.1658, 1.2941, 1.4092, 1.5461),
        (1.1839, 1.3151, 1.4338, 1.5760),
        (1.1992, 1.3322, 1.4530, 1.5983),
        (1.2066, 1.3403, 1.4617, 1.6081),
        (1.2118, 1.3457, 1.4675, 1.6144),
        (1.2163, 1.3504, 1.4724, 1.6196),
        (1.2185, 1.3527, 1.4748, 1.6221),
    ),
    2: (  # the seeded Monte Carlo of the module docstring
        (0.7318, 0.7859, 0.8307, 0.8891),
        (0.7612, 0.8238, 0.8816, 0.9504),
        (0.7809, 0.8470, 0.9094, 0.9816),
        (0.7977, 0.8676, 0.9316, 1.0069),
        (0.8067, 0.8763, 0.9384, 1.0160),
        (0.8119, 0.8825, 0.9473, 1.0256),
        (0.8169, 0.8875, 0.9525, 1.0316),
        (0.8206, 0.8912, 0.9544, 1.0343),
    ),
}


def ks_critical(n: int, significance: float, fitted_params: int) -> float:
    """The upper significance point of D_n for a model with fitted_params
    parameters fitted to the same n >= 5 values."""
    if fitted_params not in _KS_TABLES:
        raise ValueError(f"ks is calibrated for 0 or 2 fitted parameters, got {fitted_params}")
    if significance not in KS_SIGNIFICANCES:
        raise ValueError(f"ks significance must be one of {KS_SIGNIFICANCES}, got {significance}")
    rows, column = _KS_TABLES[fitted_params], KS_SIGNIFICANCES.index(significance)
    i = bisect_right(_KS_SIZES, n) - 1
    point = rows[i][column]
    if i + 1 < len(_KS_SIZES):
        lo, hi = _KS_SIZES[i] ** -0.5, _KS_SIZES[i + 1] ** -0.5
        point += (n**-0.5 - lo) / (hi - lo) * (rows[i + 1][column] - point)
    return point / math.sqrt(n)
