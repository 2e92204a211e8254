import math
import random
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from webrely.errors import AllDiscarded, EmptySample
from webrely.project import Analysis, EiProject
from webrely.stats import (
    AnomalyPolicy,
    DefectSampleSet,
    DiscardRecord,
    WeibullModel,
    apply_policy,
    build_histogram,
    sample,
)

TUKEY3 = AnomalyPolicy("tukey", 3.0)


def discard(raw, policy):
    return apply_policy(DefectSampleSet(tuple(raw)), policy)


def test_policy_validation():
    with pytest.raises(ValueError):
        AnomalyPolicy("median", 1.0)
    with pytest.raises(ValueError):
        AnomalyPolicy("tukey", 0.0)


def test_no_spread_retains_everything():
    out = discard([1.0, 1.0, 1.0, 1.0], TUKEY3)
    assert out.values == (1.0, 1.0, 1.0, 1.0)
    assert out.discarded == ()


def test_single_extreme_outlier_discarded():
    # Q1 = Q3 = 1 so the fences collapse to [1, 1] and 1000 falls outside
    out = discard([1.0, 1.0, 1.0, 1.0, 1000.0], TUKEY3)
    assert out.values == (1.0, 1.0, 1.0, 1.0)
    assert [d.value for d in out.discarded] == [1000.0]
    assert "tukey" in out.discarded[0].reason


def test_505_run_fixture_discards_exactly_five():
    # 500 plausible run values plus 5 planted extremes; the policy must
    # remove the plant and nothing else
    from conftest import FIXTURE_SEED

    rng = random.Random(FIXTURE_SEED)
    base = sample(WeibullModel(1.63, 2.4), 500, rng)
    planted = [20.0, 25.0, 30.0, 35.0, 40.0]
    out = discard(base + planted, TUKEY3)
    assert out.n == 500
    assert sorted(d.value for d in out.discarded) == planted


def test_zscore_policy():
    out = discard([1.0, 2.0, 3.0, 2.0, 1.0, 500.0], AnomalyPolicy("zscore", 2.0))
    assert 500.0 not in out.values
    assert out.n == 5


def test_none_policy_keeps_all():
    out = discard([1.0, 2.0, 1000.0], AnomalyPolicy("none"))
    assert out.n == 3
    # z-score at the same k = 3 discards 1000 here (|z| = 4.5)
    raw = [1.0, 2.0] * 10 + [1000.0]
    assert discard(raw, AnomalyPolicy("zscore")).n == 20
    out = discard(raw, AnomalyPolicy("none"))
    assert (out.values, out.discarded) == (tuple(raw), ())


def test_all_discarded_raises(tmp_path):
    # with k < 1 both points sit exactly one standard deviation out
    with pytest.raises(AllDiscarded):
        EiProject(tmp_path).persist_phase(
            "x", DefectSampleSet((0.0, 1.0)), {}, Analysis("zscore", 0.5)
        )


def test_empty_input_raises(tmp_path):
    with pytest.raises(EmptySample):
        EiProject(tmp_path).persist_phase("x", DefectSampleSet(()), {})


def test_infinite_input_rejected():
    with pytest.raises(ValueError):
        discard([1.0, math.inf], TUKEY3)


def test_negative_input_rejected():
    with pytest.raises(ValueError):
        discard([1.0, -2.0], TUKEY3)


def test_discard_is_deterministic():
    data = [random.Random(3).uniform(0, 10) for _ in range(100)] + [400.0]
    a = discard(data, TUKEY3)
    b = discard(data, TUKEY3)
    assert a == b


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=60),
    st.sampled_from(["tukey", "zscore"]),
    st.floats(1.0, 5.0),
)
def test_discard_idempotent(raw, method, k):
    policy = AnomalyPolicy(method, k)
    first = discard(raw, policy)
    again = discard(first.values, policy)
    assert again.values == first.values
    assert again.discarded == ()


def reference_tukey(values, k):
    """Tukey fences as repeated passes: each pass sorts what the last one
    kept, recomputes its quartiles and drops, in input order, what lies
    outside its own fences.  Returns None when every value is dropped."""

    def quantile(s, q):
        n = len(s)
        if n == 1:
            return s[0]
        h = (n - 1) * q
        lo = int(math.floor(h))
        if lo >= n - 1:
            return s[-1]
        return s[lo] + (h - lo) * (s[lo + 1] - s[lo])

    kept, dropped = list(values), []
    while kept:
        s = sorted(kept)
        q1, q3 = quantile(s, 0.25), quantile(s, 0.75)
        lo, hi = q1 - k * (q3 - q1), q3 + k * (q3 - q1)
        reason = f"tukey(k={k:g}): outside [{lo:g}, {hi:g}]"
        now = [DiscardRecord(v, reason) for v in kept if v < lo or v > hi]
        if not now:
            return tuple(kept), tuple(dropped)
        dropped.extend(now)
        kept = [v for v in kept if lo <= v <= hi]
    return None


# ties (small integers, zeros) mixed with a heavy right tail (Pareto-like)
TUKEY_VALUES = st.one_of(
    st.just(0.0),
    st.integers(0, 6).map(float),
    st.floats(0.0, 10.0),
    st.floats(0.01, 1.0).map(lambda u: u ** -3.0),
    st.floats(1e3, 1e12),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(TUKEY_VALUES, min_size=1, max_size=80), st.sampled_from([1.0, 1.5, 3.0]))
@example(raw=[0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 50.0, 1e9], k=1.0)
@example(raw=[0.0, 1.0], k=1.0)
def test_one_sort_tukey_matches_multi_pass_reference(raw, k):
    expected = reference_tukey(raw, k)
    out = discard(raw, AnomalyPolicy("tukey", k))
    if expected is None:
        assert out.values == ()
        return
    assert (out.values, out.discarded) == expected


def test_tukey_records_grouped_by_pass_in_input_order():
    # pass 1 drops 1000 and 200; pass 2 (fences from the remaining values)
    # drops 30 and 25, each pass listing its values in input order
    raw = [5.0, 1000.0, 6.0, 30.0, 4.0, 5.0, 200.0, 6.0, 25.0, 5.0, 4.0, 6.0, 5.0]
    out = discard(raw, AnomalyPolicy("tukey", 1.5))
    assert [d.value for d in out.discarded] == [1000.0, 200.0, 30.0, 25.0]
    assert out.discarded == reference_tukey(raw, 1.5)[1]
    assert len({d.reason for d in out.discarded}) == 2


def reference_zscore(values, k):
    """The z-score rule as repeated passes: each pass takes the mean and
    standard deviation of what the last one kept, exactly rounded
    (math.fsum), and drops, in input order, every value with |z| > k."""
    kept, dropped = list(values), []
    while kept:
        n = len(kept)
        mean = math.fsum(kept) / n
        std = math.sqrt(math.fsum((v - mean) ** 2 for v in kept) / n)
        if std == 0.0:
            break
        now = []
        for v in kept:
            z = abs(v - mean) / std
            if z > k:
                now.append(DiscardRecord(v, f"zscore(k={k:g}): |z| = {z:.3f}"))
        if not now:
            break
        dropped.extend(now)
        kept = [v for v in kept if abs(v - mean) / std <= k]
    return tuple(kept), tuple(dropped)


@settings(max_examples=300, deadline=None)
@given(st.lists(TUKEY_VALUES, min_size=1, max_size=80), st.sampled_from([0.5, 1.0, 2.0, 3.0]))
@example(raw=[0.0, 1.0], k=0.5)
@example(raw=[0.0, 0.0, 1.0, 1.0, 2.0, 50.0, 1e9], k=1.0)
# |z| of the outlier is 2 to within rounding, so a sum that is not exactly
# rounded keeps or discards it by the order of the input
@example(raw=[4.0, 1873.8269590821571, 564723231272.2075, 6.0, 0.0], k=2.0)
def test_one_sort_zscore_matches_multi_pass_reference(raw, k):
    out = discard(raw, AnomalyPolicy("zscore", k))
    assert (out.values, out.discarded) == reference_zscore(raw, k)


def test_zscore_verdict_does_not_depend_on_input_order():
    # the pinned example above: |z| of the outlier is 2 to within rounding;
    # every one of the 120 orderings keeps the same values
    raw = [4.0, 1873.8269590821571, 564723231272.2075, 6.0, 0.0]
    kept = {out.sorted_values for out in
            (discard(order, AnomalyPolicy("zscore", 2.0)) for order in permutations(raw))}
    assert len(kept) == 1


def test_zscore_records_grouped_by_pass_in_input_order():
    # pass 1 drops 1e6; the rest then has mean 38.5 and std 78.5, so pass 2
    # drops 200 and 210, listed in input order, each with its own |z|
    raw = [1.0, 210.0, 2.0, 1e6, 1.0, 2.0, 200.0, 1.0, 2.0, 1.0, 2.0, 1.0]
    out = discard(raw, AnomalyPolicy("zscore", 2.0))
    assert [d.value for d in out.discarded] == [1e6, 210.0, 200.0]
    assert out.discarded == reference_zscore(raw, 2.0)[1]
    assert out.values == (1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(TUKEY_VALUES, max_size=80),
    st.sampled_from(["tukey", "zscore", "none"]),
    st.sampled_from([0.1, 0.5, 1.0, 3.0]),
)
@example(raw=[0.0, 2.0], method="zscore", k=0.1)  # all discarded
@example(raw=[0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 50.0, 50.0, 0.0], method="tukey", k=0.5)
@example(raw=[], method="none", k=3.0)
def test_policy_result_carries_its_sorted_window(raw, method, k):
    out = discard(raw, AnomalyPolicy(method, k))
    # filled in by apply_policy, not sorted again on first read
    assert "sorted_values" in vars(out)
    assert out.sorted_values == tuple(sorted(out.values))


def test_sorted_values_of_a_set_built_directly():
    assert DefectSampleSet((3.0, 0.0, 1.5, 0.0)).sorted_values == (0.0, 0.0, 1.5, 3.0)


def test_partition_covers_raw_input():
    data = [5.0, 5.0, 5.0, 5.0, 5.0, 99.0, 5.0]
    out = discard(data, TUKEY3)
    assert sorted(out.values + tuple(d.value for d in out.discarded)) == sorted(data)


def test_apply_policy_merges_discard_history():
    base = DefectSampleSet((1.0, 1.0, 1.0, 1.0, 50.0), (), "real")
    out = apply_policy(base, TUKEY3)
    assert out.source_label == "real"
    assert out.n == 4
    assert len(out.discarded) == 1


# histogram


def test_basic_binning():
    ss = DefectSampleSet((0.2, 0.7, 1.5))
    hist = build_histogram(ss, 1.0, 0.0)
    assert hist.bins == ((0.0, 2), (1.0, 1))
    assert hist.total == 3


def test_histogram_requires_two_values():
    with pytest.raises(EmptySample):
        build_histogram(DefectSampleSet(()), 1.0, 0.0)
    with pytest.raises(EmptySample):
        build_histogram(DefectSampleSet((3.0,)), 1.0, 0.0)


def test_histogram_requires_positive_width():
    with pytest.raises(ValueError):
        build_histogram(DefectSampleSet((1.0, 2.0)), 0.0, 0.0)


def test_repeated_value_single_bin():
    ss = DefectSampleSet(tuple([10.0] * 63))
    hist = build_histogram(ss, 1.0, 0.0)
    assert hist.bins == ((10.0, 63),)


def test_interior_gaps_kept_edges_contiguous():
    ss = DefectSampleSet((0.5, 4.5))
    hist = build_histogram(ss, 1.0, 0.0)
    assert hist.bins == ((0.0, 1), (1.0, 0), (2.0, 0), (3.0, 0), (4.0, 1))


def test_origin_and_width_respected():
    ss = DefectSampleSet((1.0, 1.9, 2.1))
    hist = build_histogram(ss, 0.5, 1.0)
    # floor((x-1)/0.5): 1.0 -> 0, 1.9 -> 1, 2.1 -> 2
    assert hist.bins == ((1.0, 1), (1.5, 1), (2.0, 1))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False), min_size=2, max_size=200),
    st.floats(0.01, 50.0),
    st.floats(-10.0, 10.0),
)
def test_histogram_conserves_count(values, width, origin):
    ss = DefectSampleSet(tuple(values))
    hist = build_histogram(ss, width, origin)
    assert sum(c for _, c in hist.bins) == hist.total == ss.n
    assert all(c >= 0 for _, c in hist.bins)
    lowers = [l for l, _ in hist.bins]
    assert lowers == sorted(lowers)
