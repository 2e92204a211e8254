import math
import random
from decimal import Decimal, localcontext

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from webrely.errors import EmptySample, NoConvergence, NonIdentifiable
from webrely.project import EiProject
from webrely.simulator import SimConfig, run_campaign
from webrely.stats import DefectSampleSet, fit_weibull, fitting
from webrely.stats.fitting import score


def oracle_score(values, a):
    """Shape score written straight from the estimator definition.

    Powers are normalised by max(x)**a so they stay in [0, 1]; terms that
    underflow carry negligible weight anyway.  This keeps the oracle exact
    for roots beyond the point where raw x**a would overflow.
    """
    n = len(values)
    xmax = max(values)
    s0 = sum((x / xmax) ** a for x in values)
    s1 = sum((x / xmax) ** a * math.log(x) for x in values)
    return s1 / s0 - 1.0 / a - sum(math.log(x) for x in values) / n


def bisect_oracle(values, lo=1e-3, hi=1e3, steps=300):
    # widen the bracket until it holds the root: the solver's bracket starts
    # at (0, inf), and a root outside [1e-3, 1e3] (e.g. 1049.27 for
    # near-equal values) would otherwise read as the bracket end
    while oracle_score(values, lo) > 0.0:
        lo /= 2.0
    while oracle_score(values, hi) < 0.0:
        hi *= 2.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if oracle_score(values, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_two_point_sample_matches_oracle():
    values = (1.0, math.e)
    report = fit_weibull(DefectSampleSet(values))
    alpha_star = bisect_oracle(values)
    # closed-form root of exp(a) = (a+2)/(a-2)
    assert report.model.shape == pytest.approx(2.397, abs=0.01)
    assert report.model.scale == pytest.approx(2.110, abs=0.01)
    assert report.model.shape == pytest.approx(alpha_star, abs=1e-6)
    assert report.sample_count == 2
    assert report.iterations > 0


def test_constant_sample_non_identifiable():
    with pytest.raises(NonIdentifiable):
        fit_weibull(DefectSampleSet((3.0, 3.0, 3.0)))


def test_too_few_positive_values():
    with pytest.raises(EmptySample):
        fit_weibull(DefectSampleSet((0.0, 0.0, 2.0)))


def test_zeros_excluded_and_counted(caplog):
    with_zeros = fit_weibull(DefectSampleSet((0.0, 0.0, 1.0, math.e)))
    without = fit_weibull(DefectSampleSet((1.0, math.e)))
    assert with_zeros.zeros_excluded == 2
    assert with_zeros.model == without.model
    assert with_zeros.sample_count == 2


def test_recovers_generating_parameters(fixed_sample):
    report = fit_weibull(fixed_sample)
    assert 1.45 <= report.model.shape <= 1.80
    assert 2.2 <= report.model.scale <= 2.6
    assert report.residual <= 1e-9


def test_scale_resubstitution_exact(fixed_sample):
    report = fit_weibull(fixed_sample)
    a = report.model.shape
    xs = fixed_sample.values
    assert report.model.scale == (math.fsum(x**a for x in xs) / len(xs)) ** (1.0 / a)


def test_wide_spread_stays_newton_inside_the_bracket():
    # sixteen decades of spread: the first Newton step from a = 1 leaves
    # (0, inf), and the bracket turns it into a midpoint instead
    values = (1e-8, 1.0, 1e8)
    report = fit_weibull(DefectSampleSet(values))
    assert report.method == "newton-raphson"
    assert report.iterations <= 20
    assert report.residual <= 1e-9
    assert report.model.shape == pytest.approx(bisect_oracle(values), rel=1e-9)


def test_near_equal_sample_with_root_far_above_one_converges():
    # the root is near 3.85e7: doubling while the bracket is open reaches it
    values = [0.023518549418094812, 0.023518549418094812, 0.023518550711860032]
    report = fit_weibull(DefectSampleSet(tuple(values)))
    assert report.model.shape > 1e7
    assert abs(score(values, report.model.shape)) <= 1e-9


def test_no_convergence_with_tiny_budget(monkeypatch):
    monkeypatch.setattr(fitting, "MAX_ITERATIONS", 4)
    with pytest.raises(NoConvergence):
        fit_weibull(DefectSampleSet((1.0, math.e)))


NEAR_EQUAL = (0.023518549418094812, 0.023518549418094812, 0.023518550711860032)


@pytest.mark.parametrize(
    "values,pinned",
    [
        ((1.0, math.e), (2.399357280515468, 2.111344648570565, 7, 5.551115123125783e-17)),
        # midpoint: the first step leaves (0, 1)
        ((1e-8, 1.0, 1e8), (0.07572778467992955, 1757.5814893789573, 10, 7.105427357601002e-13)),
        # doubling, polish and the centred form of the scale
        (NEAR_EQUAL, (38472041.49951197, 0.023518550172224574, 31, 0.0)),
        (None, (1.5758354592490726, 2.384095250224099, 6, 4.440892098500626e-16)),
    ],
    ids=["two-point", "wide-spread", "near-equal", "fixed-sample"],
)
def test_fit_and_its_bookkeeping_are_pinned(values, pinned, fixed_sample):
    # every bit of each value, so a change to the solver that moves one shows
    samples = fixed_sample if values is None else DefectSampleSet(values)
    report = fit_weibull(samples)
    assert (report.model.shape, report.model.scale, report.iterations, report.residual) == pinned


@pytest.mark.parametrize("seed", range(4))
def test_fit_json_depends_only_on_the_values(seed, tmp_path):
    # the simulate phase's sample and the same values shuffled: the fit
    # sums run over the sorted view, so fit.json keeps every byte
    project = EiProject(tmp_path)
    samples = run_campaign(SimConfig(seed=seed))
    shuffled = list(samples.values)
    random.Random(seed).shuffle(shuffled)
    assert shuffled != list(samples.values)
    project.persist_phase("ideal", samples, {})
    project.persist_phase("shuffled", DefectSampleSet(tuple(shuffled), (), "ideal"), {})
    fit_json = [(tmp_path / "phases" / label / "fit.json").read_bytes()
                for label in ("ideal", "shuffled")]
    assert fit_json[0] == fit_json[1]


def exact_score_changes_sign(values, a, eps):
    """Whether g, from the exact values of the doubles to 50 digits, is
    negative at a * (1 - eps) and positive at a * (1 + eps): a lies within a
    relative eps of its root."""
    with localcontext() as ctx:
        ctx.prec = 50
        xs = [Decimal(x) for x in values]
        top = max(xs)
        # ln(x / x_max) keeps every digit of a near-equal sample's spread
        ds = [(x / top).ln() for x in xs]
        mean_d = sum(ds) / len(ds)
        g = []
        for shape in (Decimal(a) * (1 - Decimal(eps)), Decimal(a) * (1 + Decimal(eps))):
            ws = [(shape * d).exp() for d in ds]
            g.append(sum(w * d for w, d in zip(ws, ds)) / sum(ws) - 1 / shape - mean_d)
    return g[0] < 0 < g[1]


def test_near_equal_samples_converge():
    # relative spreads of 1e-15 to 1e-6: centred sums keep the rounding
    # noise in g below TOLERANCE down to a spread of a few ulps, and from a
    # spread of 1e-12 the shape is near the root of the exact g; below it the
    # rounding of ln x - ln x_max alone moves the root by about 1 %
    for seed in range(400):
        rng = random.Random(seed)
        base = 10.0 ** rng.uniform(-3.0, 3.0)
        spread = 10.0 ** rng.uniform(-15.0, -6.0)
        values = tuple(base * (1.0 + spread * rng.random()) for _ in range(rng.randint(3, 40)))
        if min(values) == max(values):
            continue
        report = fit_weibull(DefectSampleSet(values))
        assert report.residual <= fitting.TOLERANCE
        realised = max(values) / min(values) - 1.0
        if realised >= 1e-12:
            eps = 1e-6 if realised >= 1e-9 else 1e-3
            assert exact_score_changes_sign(values, report.model.shape, eps), seed
    # a shape below 1 stops at a step of 1e-13 of itself, not of 1
    rng = random.Random(8)
    values = tuple(math.exp(rng.uniform(-20.0, 20.0)) for _ in range(5))
    shape = fit_weibull(DefectSampleSet(values)).model.shape
    assert shape < 0.1
    assert exact_score_changes_sign(values, shape, 1e-14)


def solve(score_and_slope, start):
    """_bracketed_root's (root, iterations, residual) and the points at
    which it evaluated score_and_slope, in order."""
    points = []

    def recorded(a):
        points.append(a)
        return score_and_slope(a)

    return fitting._bracketed_root(recorded, start), points


def newton(score_and_slope, a):
    g, g_prime = score_and_slope(a)
    return a - g / g_prime


def test_root_newton_step_inside_the_bracket():
    assert solve(lambda a: (a - 3.0, 1.0), 1.0) == ((3.0, 2, 0.0), [1.0, 3.0])


def test_root_exact_zero_stops_at_once():
    assert solve(lambda a: (a - 1.0, 1.0), 1.0) == ((1.0, 1, 0.0), [1.0])


def test_root_step_past_the_open_bracket_doubles():
    # a slope that rounding left with the wrong sign, as the Weibull score's
    # is for near-equal samples, sends the step below lo = 1
    def f(a):
        return a - 4.0, -1.0 if a == 1.0 else 1.0

    assert solve(f, 1.0) == ((4.0, 3, 0.0), [1.0, 2.0, 4.0])


def test_root_step_past_the_closed_bracket_takes_the_midpoint():
    # from a = 1 (hi = 1) the Newton step of this concave g lands below 0
    def f(a):
        return 1.0 - math.exp(4.0 * (0.5 - a)), 4.0 * math.exp(4.0 * (0.5 - a))

    assert newton(f, 1.0) < 0.0
    assert solve(f, 1.0) == ((0.5, 2, 0.0), [1.0, 0.5])


def test_root_step_below_the_lower_bracket_takes_the_midpoint():
    # from a = 0.9 (lo = 0.9) Newton overshoots to 3.13 (hi = 3.13), and
    # its step from there lands at 0.77, below lo
    def f(a):
        return math.tanh(a - 2.0), 1.0 / math.cosh(a - 2.0) ** 2

    above = newton(f, 0.9)
    assert newton(f, above) < 0.9
    midpoint = 0.5 * (0.9 + above)
    assert solve(f, 0.9) == ((2.0, 5, 0.0), [0.9, above, midpoint, newton(f, midpoint), 2.0])


def test_root_non_finite_step_takes_the_midpoint():
    # g overflows to inf above a = 3.8, so the step from there is inf
    def f(a):
        return (a - 2.0) * 1e308, 1e308

    assert solve(f, 10.0) == ((2.0, 4, 0.0), [10.0, 5.0, 2.5, 2.0])


def test_root_polish_stops_on_a_stalled_step():
    assert solve(lambda a: (a - 1.0 - 1e-20, 1.0), 1.0) == ((1.0, 1, 1e-20), [1.0])


def test_root_flat_score_is_polished_until_the_step_stalls():
    # |g| <= TOLERANCE at every point: only the relative step stops the solver
    def f(a):
        return 1e-12 * (a**3 - 8.0), 3e-12 * a * a

    points = [1.0]
    while True:
        g, g_prime = f(points[-1])
        if abs(g / g_prime) <= 1e-13 * points[-1]:
            break
        points.append(points[-1] - g / g_prime)
    assert points[-1] == 2.0
    assert solve(f, 1.0) == ((2.0, len(points), 0.0), points)


def test_root_exhausted_budget_returns_the_best_point(monkeypatch):
    monkeypatch.setattr(fitting, "MAX_ITERATIONS", 2)

    def f(a):
        return a**3 - 8.0, 3.0 * a * a

    # g(1) = -7 and g(10/3) = 29: the residual is 7, far above TOLERANCE
    assert solve(f, 1.0) == ((1.0, 2, 7.0), [1.0, newton(f, 1.0)])


def test_score_log_space_path_finite():
    # 2**900 overflows a double; the centred weights, each in (0, 1], do not
    got = score([0.5, 2.0], 900.0)
    assert math.isfinite(got)
    assert got > 0.6


def test_score_paths_agree_near_switchover():
    values = [0.8, 1.1, 1.9, 2.5]
    # a * max|ln x| (ln 2.5 ~ 0.916) passes _LOG_SPACE_LIMIT = 600 near
    # a = 655, where the scale changes form; the score has one form on both sides
    below = score(values, 650.0)
    above = score(values, 660.0)
    assert abs(below - above) < 1e-3


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.01, 20.0, allow_nan=False), min_size=2, max_size=50),
)
@example(values=[16.0, 16.0625, 16.0625, 16.0625])
def test_matches_bisection_oracle(values):
    if max(values) - min(values) < 1e-6:
        return
    report = fit_weibull(DefectSampleSet(tuple(values)))
    assert report.model.shape == pytest.approx(bisect_oracle(values), abs=1e-6)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1e4)), min_size=2, max_size=60),
)
@example(values=[0.0, 1.0, 2.0, 3.0, 500.0])
def test_newton_residual_is_score_at_estimate(values):
    positive = [v for v in values if v > 0.0]
    try:
        report = fit_weibull(DefectSampleSet(tuple(values)))
    except (EmptySample, NonIdentifiable):
        return
    assert report.residual == abs(score(positive, report.model.shape))


def test_newton_residual_on_fixture(fixed_sample):
    report = fit_weibull(fixed_sample)
    assert report.method == "newton-raphson"
    assert report.residual == abs(score(fixed_sample.values, report.model.shape))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0.05, 15.0, allow_nan=False), min_size=3, max_size=30),
    st.floats(0.1, 100.0),
)
def test_scale_equivariance(values, c):
    if max(values) - min(values) < 1e-3:
        return
    base = fit_weibull(DefectSampleSet(tuple(values)))
    scaled = fit_weibull(DefectSampleSet(tuple(v * c for v in values)))
    assert abs(scaled.model.shape - base.model.shape) < 1e-8 * max(1.0, base.model.shape)
    assert scaled.model.scale == pytest.approx(base.model.scale * c, rel=1e-8)


def test_report_carries_label(fixed_sample):
    report = fit_weibull(fixed_sample)
    assert report.source_label == "synthetic-fixture"
    assert report.gof is None
