"""Maximum-likelihood Weibull fitting on defect-density samples.

The shape estimate solves the score equation

    g(a) = sum(x_i**a * ln x_i) / sum(x_i**a) - 1/a - mean(ln x_i) = 0

by bracketed Newton-Raphson from a = 1 (_bracketed_root).  The scale then
follows directly as (sum(x_i**a) / n) ** (1/a).

g is strictly increasing (its derivative is a weighted variance of ln x
plus 1/a**2) and runs from -inf at 0+ to max(ln x) - mean(ln x) > 0, so
every sample of two or more distinct positive values has exactly one
root, and the bracketed iteration reaches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

from ..errors import EmptySample, NoConvergence, NonIdentifiable
from .gof import GofResult
from .samples import DefectSampleSet
from .weibull import WeibullModel

__all__ = ["FitReport", "fit_weibull", "score"]

# beyond this value of a * max|ln x| the direct powers x**a would overflow
# or underflow double precision, so sums switch to a shifted log-space form
_LOG_SPACE_LIMIT = 600.0

# |g| at which a shape is accepted, the iteration budget and the starting
# shape
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


def _sums(log_xs: list[float], max_abs_log: float, a: float) -> tuple[float, float, float]:
    """Return (S1/S0, S2_ratio, log S0) for S_k = sum(x**a * (ln x)**k).

    max_abs_log is max|ln x|, computed once per sample by the caller.  Uses
    direct powers while safe and a shifted log-space (log-sum-exp) form
    when a * max|ln x| exceeds the overflow limit.
    """
    exp = math.exp
    s0 = s1 = s2 = 0.0
    if a * max_abs_log <= _LOG_SPACE_LIMIT:
        for l in log_xs:
            w = exp(a * l)
            wl = w * l
            s0 += w
            s1 += wl
            s2 += wl * l
        return s1 / s0, s2 / s0, math.log(s0)
    shift = a * max(log_xs)
    for l in log_xs:
        w = exp(a * l - shift)
        wl = w * l
        s0 += w
        s1 += wl
        s2 += wl * l
    return s1 / s0, s2 / s0, shift + math.log(s0)


def _max_abs(log_xs: list[float]) -> float:
    return max(max(log_xs), -min(log_xs))


def score(values, a: float) -> float:
    """g(a) for the given strictly positive sample; exposed for oracles."""
    log_xs = list(map(math.log, values))
    return _score_and_slope(log_xs, _max_abs(log_xs), math.fsum(log_xs) / len(log_xs), a)[0]


def _score_and_slope(
    log_xs: list[float], max_abs_log: float, mean_log: float, a: float
) -> tuple[float, float]:
    ratio, ratio2, _ = _sums(log_xs, max_abs_log, a)
    g = ratio - 1.0 / a - mean_log
    # weighted variance of ln x is ratio2 - ratio**2 >= 0, hence g' > 0
    g_prime = (ratio2 - ratio * ratio) + 1.0 / (a * a)
    return g, g_prime


def _scale_for(values: list[float], log_xs: list[float], max_abs_log: float, a: float) -> float:
    n = len(values)
    if a * max_abs_log <= _LOG_SPACE_LIMIT:
        # direct form of the closed-scale equation, kept exact for re-substitution
        return (math.fsum(map(pow, values, repeat(a, n))) / n) ** (1.0 / a)
    _, _, log_s0 = _sums(log_xs, max_abs_log, a)
    return math.exp((log_s0 - math.log(n)) / a)


def _bracketed_root(score_and_slope, start: float) -> tuple[float, int, float]:
    """Root of an increasing g on (0, inf); score_and_slope(a) is (g, g').

    Newton-Raphson from start, kept inside a bracket (lo, hi) that starts
    at (0, inf): a step that leaves the bracket, or is not finite, becomes the
    bracket's midpoint, or doubles a while hi is still infinite ("rtsafe",
    Numerical Recipes 3rd ed. section 9.4).  Returns (root, iterations,
    residual): the evaluated a with the smallest |g| and that |g|, so g is not
    evaluated again.  A residual above TOLERANCE means MAX_ITERATIONS ran out.
    """
    lo, hi = 0.0, math.inf
    a, best_a, best_g, polish = start, start, math.inf, 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        g, g_prime = score_and_slope(a)
        if abs(g) < best_g:
            best_g, best_a = abs(g), a
        step = g / g_prime
        if abs(g) <= TOLERANCE:
            # where g is flat (the Weibull score of near-identical samples)
            # |g| <= tol still leaves the root loose, so polish until the step
            # stalls; the sign of g is rounding noise here, so the bracket stays put
            if abs(step) <= 1e-13 * max(1.0, a) or polish >= 3:
                break
            polish += 1
        elif g < 0.0:
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
    positive = [v for v in samples.values if v > 0.0]
    zeros = samples.n - len(positive)
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
    if min(positive) == max(positive):
        raise NonIdentifiable(
            "all sample values are equal; the shape score g(a) = -1/a has no root"
        )

    log_xs = list(map(math.log, positive))
    max_abs_log = _max_abs(log_xs)
    mean_log = math.fsum(log_xs) / len(log_xs)

    a, iterations, residual = _bracketed_root(
        lambda a: _score_and_slope(log_xs, max_abs_log, mean_log, a), INITIAL_SHAPE
    )
    if residual > TOLERANCE:
        raise NoConvergence(
            f"residual |g| = {residual:.3e} above tolerance {TOLERANCE:g} "
            f"after {iterations} iterations"
        )
    scale = _scale_for(positive, log_xs, max_abs_log, a)
    return FitReport(
        model=WeibullModel(shape=a, scale=scale),
        sample_count=len(positive),
        iterations=iterations,
        residual=residual,
        zeros_excluded=zeros,
        source_label=samples.source_label,
    )

