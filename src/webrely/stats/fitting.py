"""Maximum-likelihood Weibull fitting on defect-density samples.

The shape estimate solves the score equation

    g(a) = sum(x_i**a * ln x_i) / sum(x_i**a) - 1/a - mean(ln x_i) = 0

by bracketed Newton-Raphson from a = 1 (_bracketed_root).  g and its slope
are summed in one centred form over the sample's sorted view: with
d_i = ln x_i - ln x_max and weights w_i = exp(a * d_i) in (0, 1],

    g(a)  = sum(w * d) / sum(w) - 1/a - mean(d)
    g'(a) = sum(w * d**2) / sum(w) - (sum(w * d) / sum(w))**2 + 1/a**2

so no weight overflows at any shape, and the sums, added in ascending
order, depend on the values and not on their order.  The scale then
follows directly as (sum(x_i**a) / n) ** (1/a), or as
x_max * (sum(w) / n) ** (1/a) where x**a would leave double precision.

g is strictly increasing (its derivative is a weighted variance of ln x
plus 1/a**2) and runs from -inf at 0+ to max(ln x) - mean(ln x) > 0, so
every sample of two or more distinct positive values has exactly one
root, and the bracketed iteration reaches it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat

from ..errors import EmptySample, NoConvergence, NonIdentifiable
from .gof import GofResult
from .samples import DefectSampleSet
from .weibull import WeibullModel

__all__ = ["FitReport", "fit_weibull", "score"]

# beyond this value of a * max|ln x| the direct powers x**a would overflow
# or underflow double precision, so the scale takes its centred form
_LOG_SPACE_LIMIT = 600.0

# the largest |g| fit_weibull accepts, the iteration budget and the start
TOLERANCE = 1e-9
MAX_ITERATIONS = 100
INITIAL_SHAPE = 1.0


@dataclass(frozen=True)
class FitReport:
    """Fit outcome: the model plus convergence and data bookkeeping.

    residual is |g(shape)| at the returned estimate; zeros_excluded counts
    sample values equal to 0 that had to be left out of the likelihood
    (ln 0 is undefined), reported so the exclusion stays visible.
    """

    model: WeibullModel
    sample_count: int
    iterations: int
    residual: float
    method: str = "newton-raphson"
    zeros_excluded: int = 0
    source_label: str = ""
    gof: GofResult | None = None


def _centred(ascending) -> tuple[list[float], float]:
    """(d, mean(d)) of an ascending positive sample, d_i = ln x_i - ln x_max."""
    log_max = math.log(ascending[-1])
    ds = [l - log_max for l in map(math.log, ascending)]
    return ds, math.fsum(ds) / len(ds)


def _score_and_slope(ds: list[float], mean_d: float, a: float) -> tuple[float, float]:
    exp = math.exp
    s0 = s1 = s2 = 0.0
    for d in ds:
        w = exp(a * d)
        wd = w * d
        s0 += w
        s1 += wd
        s2 += wd * d
    ratio = s1 / s0
    # the weighted variance of d, s2/s0 - ratio**2, is >= 0, hence g' > 0
    return ratio - 1.0 / a - mean_d, (s2 / s0 - ratio * ratio) + 1.0 / (a * a)


def score(values, a: float) -> float:
    """g(a) for the given strictly positive sample; exposed for oracles."""
    return _score_and_slope(*_centred(sorted(values)), a)[0]


def _scale_for(ascending, ds: list[float], a: float) -> float:
    n = len(ds)
    x_max = ascending[-1]
    if a * max(-math.log(ascending[0]), math.log(x_max)) <= _LOG_SPACE_LIMIT:
        # direct form of the closed-scale equation, kept exact for re-substitution
        return (math.fsum(map(pow, ascending, repeat(a, n))) / n) ** (1.0 / a)
    return x_max * (math.fsum(map(math.exp, map(a.__mul__, ds))) / n) ** (1.0 / a)


def _bracketed_root(score_and_slope, start: float) -> tuple[float, int, float]:
    """Root of an increasing g on (0, inf); score_and_slope(a) is (g, g').

    Newton-Raphson from start inside a bracket (lo, hi), first (0, inf), that
    each evaluated a narrows by the sign of g: a step that leaves it, or is
    not finite, becomes its midpoint, or doubles a while hi is infinite
    ("rtsafe", Numerical Recipes 3rd ed. section 9.4), until a step is at
    most 1e-13 * a.  Returns (root, iterations, residual): the evaluated a
    with the smallest |g| and that |g|, so g is not evaluated again.
    """
    lo, hi = 0.0, math.inf
    a, best_a, best_g = start, start, math.inf
    for iterations in range(1, MAX_ITERATIONS + 1):
        g, g_prime = score_and_slope(a)
        if abs(g) < best_g:
            best_g, best_a = abs(g), a
        step = g / g_prime
        if abs(step) <= 1e-13 * a:
            break
        if g < 0.0:
            lo = a
        else:
            hi = a
        a_next = a - step
        if not lo < a_next < hi:  # also catches inf and nan
            a_next = 2.0 * a if hi == math.inf else 0.5 * (lo + hi)
        a = a_next
    return best_a, iterations, best_g


def fit_weibull(samples: DefectSampleSet) -> FitReport:
    """Fit shape and scale to the retained sample by maximum likelihood.

    Zero values are excluded (with a logged warning and a count in the
    report); at least two strictly positive, not-all-equal values must
    remain.  Raises NonIdentifiable when all values are equal and
    NoConvergence when the iteration budget runs out above tolerance.
    """
    sv = samples.sorted_values
    zeros = bisect_right(sv, 0.0)
    positive = sv[zeros:]
    if zeros:
        import logging  # only here, so a process that fits no zeros never loads it

        logging.getLogger(__name__).warning(
            "excluding %d zero value(s) from MLE sample %r (support is x > 0)",
            zeros,
            samples.source_label,
        )
    if len(positive) < 2:
        raise EmptySample(
            f"need >= 2 strictly positive values to fit, got {len(positive)}"
        )
    if positive[0] == positive[-1]:
        raise NonIdentifiable(
            "all sample values are equal; the shape score g(a) = -1/a has no root"
        )

    ds, mean_d = _centred(positive)
    a, iterations, residual = _bracketed_root(
        lambda a: _score_and_slope(ds, mean_d, a), INITIAL_SHAPE
    )
    if residual > TOLERANCE:
        raise NoConvergence(
            f"residual |g| = {residual:.3e} above tolerance {TOLERANCE:g} "
            f"after {iterations} iterations"
        )
    return FitReport(
        model=WeibullModel(shape=a, scale=_scale_for(positive, ds, a)),
        sample_count=len(positive),
        iterations=iterations,
        residual=residual,
        zeros_excluded=zeros,
        source_label=samples.source_label,
    )
