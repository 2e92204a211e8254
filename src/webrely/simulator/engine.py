"""Deterministic single-run event loop for the ideal-conditions model.

Users arrive with exponential gaps and arrive applies admit_decision: a
user is admitted when the server has spare capacity AND an independent
uniform draw clears the 1/(n+1) rule for the current queue size n.  An
admitted user holds a normally distributed service time and either
departs normally or, with the configured fault probability, exits early
at a uniform point inside its service interval, counting one error.

Replayability: every run owns a private RNG stream derived from
(seed, run_index) and draws in a fixed documented order per arrival:
next interarrival gap, admission uniform (only when below capacity), view
choice, service time, fault uniform, error-position uniform.  The error
position is drawn even when no fault fires so that runs with different
fault probabilities share all other randomness.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

from ..errors import InvariantBreach
from .config import SimConfig

ARRIVAL = "arrival"
DEPARTURE = "departure"
ERROR_EXIT = "error"

SERVICE_FLOOR = 0.01  # seconds; Normal(3, 1) goes negative with p ~ 0.0013


def stream_for_run(seed: int, run_index: int) -> random.Random:
    """Private RNG stream for one run; string seeding keeps it stable
    across processes and platforms."""
    return random.Random(f"{seed}/run{run_index}")


def admit_decision(queue_size: int, capacity: int, rng: random.Random) -> bool:
    """Capacity gate plus the 1/(n+1) thinning rule."""
    if queue_size >= capacity:
        return False
    return rng.random() < 1.0 / (queue_size + 1)


@dataclass
class SimState:
    rng: random.Random
    clock: float = 0.0
    queue_size: int = 0
    events: list = field(default_factory=list)
    seq: int = 0
    arrivals_scheduled: int = 0
    admitted: int = 0
    rejected: int = 0
    departed: int = 0
    errors: int = 0
    view_counts: dict = field(default_factory=dict)

    def schedule(self, when: float, kind: str, payload=None) -> None:
        heapq.heappush(self.events, (when, self.seq, kind, payload))
        self.seq += 1


def init_run(cfg: SimConfig, run_index: int) -> SimState:
    """Fresh state with counters at zero and the first arrival scheduled."""
    state = SimState(rng=stream_for_run(cfg.seed, run_index))
    first = state.rng.expovariate(1.0 / cfg.interarrival_mean)
    state.schedule(first, ARRIVAL)
    state.arrivals_scheduled = 1
    return state


def _choose_view(state: SimState, cfg: SimConfig) -> str:
    u = state.rng.random()
    acc = 0.0
    views = list(cfg.view_mix.items())
    for view, weight in views:
        acc += weight
        if u < acc:
            return view
    return views[-1][0]


def arrive(state: SimState, cfg: SimConfig) -> SimState:
    """Process one arrival: schedule the next one, apply admit_decision, and
    hand admitted users to add_departure."""
    if state.arrivals_scheduled < cfg.events_per_run:
        gap = state.rng.expovariate(1.0 / cfg.interarrival_mean)
        state.schedule(state.clock + gap, ARRIVAL)
        state.arrivals_scheduled += 1

    if not admit_decision(state.queue_size, cfg.capacity, state.rng):
        state.rejected += 1
        return state

    view = _choose_view(state, cfg)
    state.queue_size += 1
    state.admitted += 1
    state.view_counts[view] = state.view_counts.get(view, 0) + 1
    return add_departure(state, cfg, view)


def add_departure(state: SimState, cfg: SimConfig, view: str) -> SimState:
    """Draw the service time and schedule either the normal departure or an
    early error exit at a uniform point inside the service interval."""
    t = state.rng.normalvariate(cfg.service_mean, cfg.service_std)
    if t < SERVICE_FLOOR:
        t = SERVICE_FLOOR
    faulted = state.rng.random() < cfg.fault_probability
    at = state.rng.random() * t  # consumed even without a fault: keeps
    # streams aligned across fault_probability settings
    if faulted:
        state.schedule(state.clock + at, ERROR_EXIT, view)
    else:
        state.schedule(state.clock + t, DEPARTURE, view)
    return state


def departure(state: SimState, kind: str = DEPARTURE) -> SimState:
    """Take one user out of the system; error exits also count one error."""
    if state.queue_size <= 0:
        raise InvariantBreach("departure with empty queue: event ordering bug")
    state.queue_size -= 1
    state.departed += 1
    if kind == ERROR_EXIT:
        state.errors += 1
    return state


@dataclass(frozen=True)
class RunResult:
    defect_density: int
    admitted: int
    rejected: int


def run_single(cfg: SimConfig, run_index: int, trace=None) -> RunResult:
    """Drive one run to exhaustion: cfg.events_per_run arrivals, then drain.

    trace, when given, is called as trace(clock, kind, queue_size) after
    every processed event.
    """
    if cfg.events_per_run == 0:
        return RunResult(0, 0, 0)
    state = init_run(cfg, run_index)
    while state.events:
        when, _, kind, _ = heapq.heappop(state.events)
        if when < state.clock:
            raise InvariantBreach("event time went backwards")
        state.clock = when
        if kind == ARRIVAL:
            arrive(state, cfg)
        else:
            departure(state, kind)
        if trace is not None:
            trace(state.clock, kind, state.queue_size)
    if state.admitted != state.departed:
        raise InvariantBreach(
            f"drained run left {state.admitted - state.departed} users in the system"
        )
    return RunResult(
        defect_density=state.errors,
        admitted=state.admitted,
        rejected=state.rejected,
    )
