import hashlib
import heapq
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from webrely.errors import EmptySample, InvariantBreach
from webrely.simulator import engine
from webrely.simulator import (
    SimConfig,
    admit_decision,
    run_campaign,
    run_single,
    stream_for_run,
    write_trace_csv,
)
from webrely.stats import fit_weibull


def small_cfg(**overrides) -> SimConfig:
    base = dict(events_per_run=50, runs=20, seed=7)
    base.update(overrides)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(interarrival_mean=0.0)
    with pytest.raises(ValueError):
        SimConfig(fault_probability=1.5)


def traced(cfg: SimConfig, run_index: int) -> tuple:
    """run_single's result and its trace as (clock, kind, queue_size) rows."""
    rows = []
    result = run_single(cfg, run_index, trace=lambda t, kind, q: rows.append((t, kind, q)))
    return result, rows


def test_run_starts_with_an_arrival():
    _, rows = traced(SimConfig(seed=7), 0)
    clock, kind, queue_size = rows[0]
    assert kind == "arrival"
    assert clock > 0.0
    assert queue_size == 1  # the run starts empty, and an empty queue admits


def test_same_run_index_same_trace():
    assert traced(SimConfig(seed=7), 3) == traced(SimConfig(seed=7), 3)


def test_distinct_run_streams():
    _, a = traced(SimConfig(seed=7), 3)
    _, b = traced(SimConfig(seed=7), 4)
    assert a[0][0] != b[0][0]


def test_empty_queue_always_admits():
    # 1/(0+1) = 1 and random() < 1.0 always holds
    rng = random.Random(0)
    assert all(admit_decision(0, 100, rng) for _ in range(1000))


def test_zero_capacity_always_rejects():
    rng = random.Random(0)
    assert not any(admit_decision(0, 0, rng) for _ in range(1000))
    result = run_single(small_cfg(capacity=0), 0)
    assert result.admitted == 0
    assert result.rejected == 50


def test_admission_rate_at_queue_of_three():
    rng = random.Random(123)
    hits = sum(admit_decision(3, 100, rng) for _ in range(100_000))
    assert hits / 100_000 == pytest.approx(0.25, abs=0.02)


def test_interarrival_calibration():
    rng = stream_for_run(0, 0)
    draws = [rng.expovariate(1.0 / 4.0) for _ in range(10_000)]
    assert sum(draws) / len(draws) == pytest.approx(4.0, rel=0.05)


def test_service_calibration_with_truncation():
    rng = stream_for_run(0, 1)
    draws = [max(rng.normalvariate(3.0, 1.0), 0.01) for _ in range(100_000)]
    assert sum(draws) / len(draws) == pytest.approx(3.0, abs=0.03)


def test_no_faults_when_probability_zero():
    result = run_single(small_cfg(fault_probability=0.0), 0)
    assert result.defect_density == 0
    assert result.admitted > 0


def test_every_admission_faults_at_probability_one():
    result = run_single(small_cfg(fault_probability=1.0), 0)
    assert result.defect_density == result.admitted


def test_replay_identical():
    cfg = small_cfg()
    assert run_single(cfg, 4) == run_single(cfg, 4)


def test_error_exits_count_in_both_counters():
    result, rows = traced(small_cfg(fault_probability=1.0, events_per_run=5), 0)
    exits = [kind for _, kind, _ in rows if kind != "arrival"]
    assert exits == ["error"] * result.admitted
    assert result.defect_density == result.admitted
    assert rows[-1][2] == 0


def test_run_conservation():
    cfg = small_cfg(events_per_run=200)
    result = run_single(cfg, 2)
    assert result.admitted + result.rejected == 200
    assert result.defect_density <= result.admitted


def test_campaign_empty_when_no_runs():
    samples = run_campaign(small_cfg(runs=0))
    assert samples.values == ()
    with pytest.raises(EmptySample):
        fit_weibull(samples)


def test_campaign_bit_identical():
    cfg = small_cfg(runs=30)
    assert run_campaign(cfg).values == run_campaign(cfg).values


def test_campaign_results_in_run_order():
    cfg = small_cfg(runs=10)
    expected = [float(run_single(cfg, i).defect_density) for i in range(cfg.runs)]
    assert list(run_campaign(cfg).values) == expected


def test_trace_monotone_and_bounded(tmp_path):
    rows = []
    cfg = small_cfg(capacity=3, events_per_run=300)
    run_single(cfg, 0, trace=lambda t, kind, q: rows.append((t, kind, q)))
    times = [t for t, _, _ in rows]
    assert times == sorted(times)
    assert all(0 <= q <= 3 for _, _, q in rows)


def test_trace_csv_written(tmp_path):
    path = tmp_path / "trace.csv"
    result = write_trace_csv(small_cfg(events_per_run=10), 0, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "clock,event_type,queue_size"
    # one row per processed event: all arrivals plus one exit per admission
    assert len(lines) - 1 == 10 + result.admitted


@settings(max_examples=30, deadline=None)
@given(
    capacity=st.integers(0, 5),
    events=st.integers(1, 60),
    fault=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32),
)
def test_queue_bounds_property(capacity, events, fault, seed):
    cfg = SimConfig(capacity=capacity, events_per_run=events, runs=1, fault_probability=fault, seed=seed)
    seen = []
    result = run_single(cfg, 0, trace=lambda t, kind, q: seen.append(q))
    assert all(0 <= q <= capacity for q in seen)
    assert result.admitted + result.rejected == events


def test_mean_density_monotone_in_fault_probability():
    means = []
    for p in (0.0, 0.25, 0.5, 1.0):
        cfg = small_cfg(runs=40, events_per_run=100, fault_probability=p)
        samples = run_campaign(cfg)
        means.append(sum(samples.values) / len(samples.values))
    assert means == sorted(means)
    assert means[0] == 0.0


def oracle_mean_density(cfg: SimConfig) -> float:
    """Straight-line re-implementation: no event heap, just a purge of an
    exit-time list at each arrival.  Distributionally equivalent to the
    engine; used as an independent cross-check of campaign means."""
    total = 0
    for run in range(cfg.runs):
        rng = random.Random(f"oracle/{cfg.seed}/{run}")
        clock = 0.0
        exits: list[float] = []
        defects = 0
        for _ in range(cfg.events_per_run):
            clock += rng.expovariate(1.0 / cfg.interarrival_mean)
            exits = [t for t in exits if t > clock]
            n = len(exits)
            if n < cfg.capacity and rng.random() < 1.0 / (n + 1):
                t = max(rng.normalvariate(cfg.service_mean, cfg.service_std), 0.01)
                if rng.random() < cfg.fault_probability:
                    defects += 1
                    exits.append(clock + rng.random() * t)
                else:
                    exits.append(clock + t)
        total += defects
    return total / cfg.runs


def test_campaign_mean_matches_straight_line_oracle():
    cfg = SimConfig(runs=500, seed=11)
    samples = run_campaign(cfg)
    mean = sum(samples.values) / len(samples.values)
    oracle = oracle_mean_density(cfg)
    assert mean == pytest.approx(oracle, rel=0.10)


def test_default_campaign_is_right_skewed():
    # no exact shape value is pinned here: it would depend on the fault
    # occurrence model, which is an explicit extension point; the
    # defensible property is a fitted shape above 1 for every seed
    for seed in range(5):
        cfg = SimConfig(runs=200, seed=seed)
        report = fit_weibull(run_campaign(cfg))
        assert report.model.shape > 1.0


GOLDEN = Path(__file__).parent / "data" / "sim_golden.json"


def observe_golden(overrides: dict, tmp_path: Path) -> dict:
    """Every run's (defect_density, admitted, rejected) and the sha256 of
    run 0's trace CSV, for SimConfig(**overrides)."""
    cfg = SimConfig(**overrides)
    path = tmp_path / "trace.csv"
    write_trace_csv(cfg, 0, path)
    return {
        "overrides": overrides,
        "runs": [
            [r.defect_density, r.admitted, r.rejected]
            for r in (run_single(cfg, i) for i in range(cfg.runs))
        ],
        "trace0_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
    }


def test_random_stream_matches_golden(tmp_path):
    # pins the exact random stream: the draw order (gap, admission, view,
    # service, fault, error position) and SERVICE_FLOOR, which the last
    # config reaches; a change to either shows here
    for expected in json.loads(GOLDEN.read_text()):
        assert observe_golden(expected["overrides"], tmp_path) == expected, expected["overrides"]


def _reference_run_single(cfg: SimConfig, run_index: int, trace=None) -> engine.RunResult:
    """run_single as one heap of arrivals and exits, with the gap and service
    drawn through rng.expovariate and rng.normalvariate: the engine must
    match it result for result and event for event."""
    if cfg.events_per_run == 0:
        return engine.RunResult(0, 0, 0)
    rng = engine.stream_for_run(cfg.seed, run_index)
    rate = 1.0 / cfg.interarrival_mean
    push, pop = heapq.heappush, heapq.heappop
    clock = 0.0
    queue = admitted = rejected = errors = 0
    events = [(rng.expovariate(rate), 0, engine.ARRIVAL)]
    seq = 1
    unscheduled = cfg.events_per_run - 1
    while events:
        when, _, kind = pop(events)
        if when < clock:
            raise InvariantBreach("event time went backwards")
        clock = when
        if kind == engine.ARRIVAL:
            if unscheduled:
                push(events, (clock + rng.expovariate(rate), seq, engine.ARRIVAL))
                seq += 1
                unscheduled -= 1
            if admit_decision(queue, cfg.capacity, rng):
                rng.random()  # the view uniform
                queue += 1
                admitted += 1
                service = max(rng.normalvariate(cfg.service_mean, cfg.service_std), engine.SERVICE_FLOOR)
                faulted = rng.random() < cfg.fault_probability
                at = rng.random() * service
                if faulted:
                    push(events, (clock + at, seq, engine.ERROR_EXIT))
                else:
                    push(events, (clock + service, seq, engine.DEPARTURE))
                seq += 1
            else:
                rejected += 1
        else:
            if queue <= 0:
                raise InvariantBreach("departure with empty queue: event ordering bug")
            queue -= 1
            if kind == engine.ERROR_EXIT:
                errors += 1
        if trace is not None:
            trace(clock, kind, queue)
    if queue:
        raise InvariantBreach(f"drained run left {queue} users in the system")
    return engine.RunResult(defect_density=errors, admitted=admitted, rejected=rejected)


def assert_matches_reference(cfg: SimConfig, run_index: int) -> None:
    expected_rows = []
    expected = _reference_run_single(
        cfg, run_index, trace=lambda t, kind, q: expected_rows.append((t, kind, q))
    )
    assert traced(cfg, run_index) == (expected, expected_rows)


def test_matches_reference_on_golden_configs():
    for overrides in (entry["overrides"] for entry in json.loads(GOLDEN.read_text())):
        cfg = SimConfig(**overrides)
        for run_index in range(cfg.runs):
            assert_matches_reference(cfg, run_index)


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.sampled_from([0, 1, 2, 3, 100]),
    events=st.integers(0, 200),
    fault=st.sampled_from([0.0, 0.5, 1.0]),
    # (interarrival mean, service mean): the default point, a service mean
    # that SERVICE_FLOOR binds, and arrivals far faster than service
    means=st.sampled_from([(4.0, 3.0), (4.0, 0.005), (0.001, 3.0)]),
    seed=st.integers(0, 2**32),
    run_index=st.integers(0, 1000),
)
def test_matches_reference_property(capacity, events, fault, means, seed, run_index):
    interarrival_mean, service_mean = means
    cfg = SimConfig(
        interarrival_mean=interarrival_mean,
        service_mean=service_mean,
        capacity=capacity,
        events_per_run=events,
        fault_probability=fault,
        seed=seed,
    )
    assert_matches_reference(cfg, run_index)


class ScriptedStream(random.Random):
    """A stream whose random() returns the given uniforms in order; the
    stdlib's expovariate and normalvariate draw through it too."""

    def __init__(self, uniforms):
        super().__init__(0)
        self._uniforms = iter(uniforms)

    def random(self):
        return next(self._uniforms)


def _gap(u: float) -> float:
    return -math.log(1.0 - u) / 1.0  # interarrival_mean = 1.0


def _landing(clock: float, target: float) -> float:
    """The uniform whose gap from clock lands on target (the tie cases
    check that it lands exactly)."""
    return -math.expm1(-(target - clock))


# Each user admitted below draws admission 0.0 (always admits), view 0.0,
# service uniforms 0.5 and 0.0 (z = 0, so the service is exactly
# service_mean, or SERVICE_FLOOR when service_mean is below it), fault 0.5
# (never faults at probability 0) and position 0.5.
_ADMITTED = [0.0, 0.0, 0.5, 0.0, 0.5, 0.5]
_T1 = _gap(0.5) + _gap(0.5)
_T2 = _gap(0.5) + _gap(0.25) + _gap(0.25)
# the first user's floor-bound exit, at the first arrival plus SERVICE_FLOOR
_TF = _gap(0.5) + engine.SERVICE_FLOOR
TIE_CASES = {
    # the arrival was scheduled first (lower seq), so it goes first: the
    # first user's service equals the second gap, and the second arrival
    # meets a full queue
    "arrival-first": (
        2, _gap(0.5), [0.5, 0.5, *_ADMITTED], _T1, [(_T1, "arrival", 1), (_T1, "departure", 0)]
    ),
    # the exit was scheduled first: the first user's exit lands exactly on
    # the third arrival, scheduled after it (T2 - c1 is exact, so c1 + it is T2)
    "exit-first": (
        3,
        _T2 - _gap(0.5),
        [0.5, 0.25, *_ADMITTED, 0.25, *_ADMITTED],
        _T2,
        [(_T2, "departure", 0), (_T2, "arrival", 1)],
    ),
    # the same two orders with a floor-bound service: the second gap equals
    # SERVICE_FLOOR, or the second and third gaps add up to it
    "arrival-first-floor": (
        2, 0.005, [0.5, _landing(_gap(0.5), _TF), *_ADMITTED], _TF,
        [(_TF, "arrival", 1), (_TF, "departure", 0)],
    ),
    "exit-first-floor": (
        3,
        0.005,
        [0.5, 0.005, *_ADMITTED, _landing(_gap(0.5) + _gap(0.005), _TF), *_ADMITTED],
        _TF,
        [(_TF, "departure", 0), (_TF, "arrival", 1)],
    ),
}


@pytest.mark.parametrize("case", TIE_CASES, ids=list(TIE_CASES))
def test_tie_between_exit_and_arrival_goes_by_seq(monkeypatch, case):
    events, service_mean, uniforms, tie, tied_rows = TIE_CASES[case]
    monkeypatch.setattr(engine, "stream_for_run", lambda seed, run_index: ScriptedStream(uniforms))
    cfg = SimConfig(
        interarrival_mean=1.0, service_mean=service_mean, capacity=1,
        events_per_run=events, fault_probability=0.0,
    )
    _, rows = traced(cfg, 0)
    assert [row for row in rows if row[0] == tie] == tied_rows
    assert_matches_reference(cfg, 0)


@pytest.mark.parametrize("fault_probability", [0.0, 1.0])
def test_overflowing_service_times_drain_as_in_the_reference(fault_probability):
    # 1e308 + z * 1e308 overflows to inf once z exceeds about 0.8, so some
    # users hold an exit at inf, which only the drain after the last arrival
    # takes; at probability 1 the error position random() * inf is inf too
    def cfg(events):
        return SimConfig(
            service_mean=1e308, service_std=1e308,
            events_per_run=events, fault_probability=fault_probability,
        )

    for events in (1, 10):
        for run_index in range(40):
            assert_matches_reference(cfg(events), run_index)
    # with one arrival per run, that arrival is the last and is always
    # admitted, so a run whose trace ends at inf is one whose last arrival
    # was admitted with an infinite exit
    ends = [traced(cfg(1), run_index)[1][-1][0] for run_index in range(40)]
    assert math.inf in ends


def test_engine_draws_are_the_stdlib_variates(monkeypatch):
    # each run draws from one shared stream, in order: first gap; then at
    # the first arrival the second gap, admission, view, service, fault and
    # position; the second arrival meets a full queue and draws nothing.
    # Both gaps lie far below half an ulp of the service, so the departure
    # clock is exactly the service draw
    assert engine._NV_MAGICCONST == random.NV_MAGICCONST
    shared, twin = random.Random("stream-definition"), random.Random("stream-definition")
    monkeypatch.setattr(engine, "stream_for_run", lambda seed, run_index: shared)
    cfg = SimConfig(
        interarrival_mean=1e-30, service_mean=50.0, service_std=5.0,
        capacity=1, events_per_run=2, fault_probability=0.0,
    )
    rate = 1.0 / cfg.interarrival_mean
    for _ in range(10_000):
        first, second = twin.expovariate(rate), twin.expovariate(rate)
        twin.random(), twin.random()
        service = twin.normalvariate(cfg.service_mean, cfg.service_std)
        twin.random(), twin.random()
        _, rows = traced(cfg, 0)
        assert rows == [
            (first, "arrival", 1),
            (first + second, "arrival", 1),
            (service, "departure", 0),
        ]
