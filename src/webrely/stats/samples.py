"""Defect-density sample sets: anomaly discarding and histogram binning."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

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
        if self.k <= 0:
            raise ValueError("policy parameter k must be positive")


def _quantile(sorted_values: list[float], q: float) -> float:
    # linear interpolation between order statistics (the numpy/R default)
    n = len(sorted_values)
    if n == 1:
        return sorted_values[0]
    h = (n - 1) * q
    lo = int(math.floor(h))
    if lo >= n - 1:
        return sorted_values[-1]
    return sorted_values[lo] + (h - lo) * (sorted_values[lo + 1] - sorted_values[lo])


def _one_pass(values: list[float], policy: AnomalyPolicy) -> tuple[list[float], list[DiscardRecord]]:
    """One zscore pass (or the identity for "none"); tukey has _tukey."""
    if policy.method == "none":
        return list(values), []
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    std = math.sqrt(var)
    if std == 0.0:
        return list(values), []
    kept: list[float] = []
    dropped: list[DiscardRecord] = []
    for v in values:
        z = abs(v - mean) / std
        if z > policy.k:
            dropped.append(DiscardRecord(v, f"zscore(k={policy.k:g}): |z| = {z:.3f}"))
        else:
            kept.append(v)
    return kept, dropped


def _tukey(values: list[float], policy: AnomalyPolicy) -> tuple[list[float], list[DiscardRecord]]:
    """Tukey fences re-applied to a fixed point over a single sort.

    Each pass keeps a contiguous window s[i:j] of the sorted values (equal
    values fall on the same side of a fence), so a pass's quartiles come
    from the current window and its fences move i and j by bisection.
    Records come out grouped by pass, in input order within a pass; when a
    pass's fences exclude the whole window, every value is discarded.
    """
    s = sorted(values)
    i, j = 0, len(s)
    fences: list[tuple[float, float]] = []
    while i < j:
        window = s[i:j]
        q1 = _quantile(window, 0.25)
        q3 = _quantile(window, 0.75)
        spread = q3 - q1
        lo = q1 - policy.k * spread
        hi = q3 + policy.k * spread
        i_next = bisect_left(s, lo, i, j)
        j_next = bisect_right(s, hi, i, j)
        if i_next == i and j_next == j:
            break
        fences.append((lo, hi))
        i, j = i_next, j_next

    first, last = (s[i], s[j - 1]) if i < j else (math.inf, -math.inf)
    kept: list[float] = []
    by_pass: list[list[DiscardRecord]] = [[] for _ in fences]
    reasons = [f"tukey(k={policy.k:g}): outside [{lo:g}, {hi:g}]" for lo, hi in fences]
    for v in values:
        if first <= v <= last:
            kept.append(v)
            continue
        for p, (lo, hi) in enumerate(fences):
            if v < lo or v > hi:
                by_pass[p].append(DiscardRecord(v, reasons[p]))
                break
    return kept, [record for records in by_pass for record in records]


def apply_policy(samples: DefectSampleSet, policy: AnomalyPolicy) -> DefectSampleSet:
    """Split the retained values into kept and discarded per the policy.

    The policy is re-applied until it stops discarding (a fixed point), so
    applying it to its own output never discards anything further.  For
    tukey the fixed point uses one sort: every pass narrows a window of the
    same sorted values.  Deterministic: input order is preserved among the
    retained values, new records follow the set's earlier ones grouped by
    the pass that discarded them, and each reason records that pass's fences.

    An empty input, or one the policy discards entirely, comes back with no
    retained values; deciding that this is an error is the caller's job.
    """
    values = [float(v) for v in samples.values]

    if policy.method == "tukey":
        kept, dropped = _tukey(values, policy)
    else:
        kept, dropped = values, []
        while kept:
            kept_next, dropped_now = _one_pass(kept, policy)
            if not dropped_now:
                break
            dropped.extend(dropped_now)
            kept = kept_next
    return DefectSampleSet(tuple(kept), samples.discarded + tuple(dropped), samples.source_label)


@dataclass(frozen=True)
class Histogram:
    """Binned frequencies with contiguous equal-width bins.

    bins holds (lower_edge, count) pairs; a bin covers
    [lower_edge, lower_edge + bin_width).  Leading and trailing empty bins
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

    indices = [math.floor((v - origin) / bin_width) for v in samples.values]
    lo = min(indices)
    hi = max(indices)
    counts = [0] * (hi - lo + 1)
    for i in indices:
        counts[i - lo] += 1
    bins = tuple((origin + (lo + j) * bin_width, c) for j, c in enumerate(counts))
    return Histogram(bin_width=bin_width, origin=origin, bins=bins, total=samples.n)
