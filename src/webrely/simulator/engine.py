"""Deterministic single-run event loop for the ideal-conditions model.

One run is one function, run_single, over local state: the clock, the
queue size, the counters and a heap of (when, seq, kind) events, where
seq breaks ties in scheduling order.  Users arrive with exponential gaps
and each arrival applies admit_decision: a user is admitted when the
server has spare capacity AND an independent uniform draw clears the
1/(n+1) rule for the current queue size n.  An admitted user holds a
normally distributed service time and either departs normally or, with
the configured fault probability, exits early at a uniform point inside
its service interval, counting one error.

Replayability: every run owns a private RNG stream derived from
(seed, run_index) and draws in a fixed documented order per arrival:
next interarrival gap, admission uniform (only when below capacity), view
uniform, service time, fault uniform, error-position uniform.  The view
and error-position uniforms are drawn even when unused so that runs with
different settings share all other randomness.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

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
    rng = stream_for_run(cfg.seed, run_index)
    rate = 1.0 / cfg.interarrival_mean
    push, pop = heapq.heappush, heapq.heappop
    clock = 0.0
    queue = admitted = rejected = errors = 0
    events = [(rng.expovariate(rate), 0, ARRIVAL)]
    seq = 1
    unscheduled = cfg.events_per_run - 1
    while events:
        when, _, kind = pop(events)
        if when < clock:
            raise InvariantBreach("event time went backwards")
        clock = when
        if kind == ARRIVAL:
            if unscheduled:
                push(events, (clock + rng.expovariate(rate), seq, ARRIVAL))
                seq += 1
                unscheduled -= 1
            if admit_decision(queue, cfg.capacity, rng):
                # the view uniform: no simulated count depends on the view,
                # but the draw keeps every later draw where the documented
                # order puts it
                rng.random()
                queue += 1
                admitted += 1
                service = max(rng.normalvariate(cfg.service_mean, cfg.service_std), SERVICE_FLOOR)
                faulted = rng.random() < cfg.fault_probability
                at = rng.random() * service  # drawn even without a fault
                if faulted:
                    push(events, (clock + at, seq, ERROR_EXIT))
                else:
                    push(events, (clock + service, seq, DEPARTURE))
                seq += 1
            else:
                rejected += 1
        else:
            if queue <= 0:
                raise InvariantBreach("departure with empty queue: event ordering bug")
            queue -= 1
            if kind == ERROR_EXIT:
                errors += 1
        if trace is not None:
            trace(clock, kind, queue)
    if queue:
        raise InvariantBreach(f"drained run left {queue} users in the system")
    return RunResult(defect_density=errors, admitted=admitted, rejected=rejected)
