"""Defect-density sample sets: anomaly discarding to a fixed point, and histogram binning."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from ..errors import EmptySample

__all__ = [
    "AnomalyPolicy",
    "DefectSampleSet",
    "DiscardRecord",
    "Histogram",
    "apply_policy",
    "build_histogram",
]


@dataclass(frozen=True)
class DiscardRecord:
    value: float
    reason: str


@dataclass(frozen=True)
class DefectSampleSet:
    """Retained per-run defect densities plus the discard bookkeeping.

    retained values union discarded values always equals the raw input the
    set was built from; nothing is dropped silently.
    """

    values: tuple[float, ...]
    discarded: tuple[DiscardRecord, ...] = ()
    source_label: str = ""

    def __post_init__(self):
        for v in self.values:
            if not 0.0 <= v < math.inf:  # also catches nan
                raise ValueError(f"defect density must be finite and >= 0, got {v}")

    @property
    def n(self) -> int:
        return len(self.values)

    @cached_property
    def sorted_values(self) -> tuple[float, ...]:
        """The retained values in ascending order, sorted once per set;
        apply_policy fills it in from the window it already holds."""
        return tuple(sorted(self.values))


@dataclass(frozen=True)
class AnomalyPolicy:
    """Outlier-discard rule applied to raw run values.

    method is one of:
      "tukey"  - discard values outside [Q1 - k*IQR, Q3 + k*IQR]
      "zscore" - discard values with |x - mean| > k * std
      "none"   - keep everything

    The default is Tukey fences with k = 3, a deliberately permissive
    setting for right-skewed defect-density data.
    """

    method: str = "tukey"
    k: float = 3.0

    def __post_init__(self):
        if self.method not in ("tukey", "zscore", "none"):
            raise ValueError(f"unknown anomaly policy method {self.method!r}")
        if not 0.0 < self.k < math.inf:  # also catches nan
            raise ValueError(f"policy parameter k must be positive and finite, got {self.k}")


def _quantile(s: list[float], i: int, j: int, q: float) -> float:
    # linear interpolation between the order statistics of s[i:j] (numpy/R default)
    n = j - i
    if n == 1:
        return s[i]
    h = (n - 1) * q
    lo = int(math.floor(h))
    return s[i + lo] + (h - lo) * (s[i + lo + 1] - s[i + lo])


def _rule(policy: AnomalyPolicy, s: list[float], i: int, j: int):
    """The policy's rule on the window s[i:j]: (outside, reason), two
    functions of a value, or None when it discards nothing ("none", or a
    z-score window with no spread).  What either rule discards lies at the
    window's ends: Tukey keeps an interval, and |z| grows with the distance
    from the mean.  The z-score sums are exactly rounded (math.fsum), so
    they do not depend on the order of the values.
    """
    k = policy.k
    if policy.method == "tukey":
        q1 = _quantile(s, i, j, 0.25)
        q3 = _quantile(s, i, j, 0.75)
        lo = q1 - k * (q3 - q1)
        hi = q3 + k * (q3 - q1)
        reason = f"tukey(k={k:g}): outside [{lo:g}, {hi:g}]"
        return (lambda v: v < lo or v > hi), (lambda v: reason)
    if policy.method == "zscore":
        window = s[i:j]
        mean = math.fsum(window) / len(window)
        std = math.sqrt(math.fsum((v - mean) ** 2 for v in window) / len(window))
        if std == 0.0:
            return None
        return (lambda v: abs(v - mean) / std > k,
                lambda v: f"zscore(k={k:g}): |z| = {abs(v - mean) / std:.3f}")
    return None


def apply_policy(samples: DefectSampleSet, policy: AnomalyPolicy) -> DefectSampleSet:
    """Split the retained values into kept and discarded per the policy.

    The policy is re-applied until a pass discards nothing (a fixed point),
    so applying it to its own output discards nothing further.  Each pass
    narrows one window s[i:j] of the sorted values from both ends.
    Deterministic: retained values keep their input order, and new records
    follow the set's earlier ones grouped by pass, in input order within a
    pass; each reason gives its pass's fences (tukey) or the value's |z|.

    An empty input, or one the policy discards entirely, comes back with no
    retained values; deciding that this is an error is the caller's job.
    The result's sorted_values is the final window, so it is not sorted again.
    """
    values = list(map(float, samples.values))
    s = sorted(values)
    i, j = 0, len(s)
    # discarded value -> its pass; equal values always leave in the same pass
    first_out: dict[float, int] = {}
    reasons = []  # each pass's reason function
    while i < j and (rule := _rule(policy, s, i, j)) is not None:
        outside, reason = rule
        i0, j0 = i, j
        while i < j and outside(s[i]):
            first_out[s[i]] = len(reasons)
            i += 1
        while i < j and outside(s[j - 1]):
            j -= 1
            first_out[s[j]] = len(reasons)
        if (i, j) == (i0, j0):
            break
        reasons.append(reason)

    first, last = (s[i], s[j - 1]) if i < j else (math.inf, -math.inf)
    kept: list[float] = []
    by_pass: list[list[DiscardRecord]] = [[] for _ in reasons]
    for v in values:
        if first <= v <= last:
            kept.append(v)
        else:
            p = first_out[v]
            by_pass[p].append(DiscardRecord(v, reasons[p](v)))
    dropped = tuple(record for records in by_pass for record in records)
    result = DefectSampleSet(tuple(kept), samples.discarded + dropped, samples.source_label)
    # what cached_property would store on first read (the dataclass is
    # frozen, so write the instance dict directly); trimming s in place
    # first spares the fit's peak memory a second copy of the window
    del s[j:], s[:i]
    result.__dict__["sorted_values"] = tuple(s)
    return result


@dataclass(frozen=True)
class Histogram:
    """Binned frequencies with contiguous equal-width bins.

    bins holds (lower_edge, count) pairs, each lower edge origin + i *
    bin_width for a whole number i; a bin ends where the next begins, the
    last one bin_width past its lower edge.  Leading and trailing empty bins
    are trimmed, interior empty bins are kept so edges stay contiguous.
    """

    bin_width: float
    origin: float
    bins: tuple[tuple[float, int], ...]
    total: int = 0


def build_histogram(samples: DefectSampleSet, bin_width: float = 1.0, origin: float = 0.0) -> Histogram:
    """Bin retained values at floor((x - origin) / bin_width).

    Requires bin_width > 0 and at least two retained values (the same floor
    as fitting; a histogram of fewer points is not a population).
    """
    if not bin_width > 0.0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    if samples.n < 2:
        raise EmptySample(f"histogram needs >= 2 retained values, got {samples.n}")

    # floor is monotone, so the bin indices of the sorted view ascend
    indices = [math.floor((v - origin) / bin_width) for v in samples.sorted_values]
    lo = indices[0]
    counts = [0] * (indices[-1] - lo + 1)
    for i in indices:
        counts[i - lo] += 1
    bins = tuple((origin + (lo + j) * bin_width, c) for j, c in enumerate(counts))
    return Histogram(bin_width=bin_width, origin=origin, bins=bins, total=samples.n)
