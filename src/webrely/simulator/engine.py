"""Deterministic single-run event loop for the ideal-conditions model.

One run is one function, run_single, over local state: the clock, the
queue size, the counters, the next arrival's (when, seq) and a heap of
(when, seq, kind) exits of the users in the system.  Each arrival first
takes the exits before it by (when, seq), with seq breaking exact ties
in scheduling order; after the last, (when, seq) is (inf, inf) and the
same step drains the rest.  Users arrive with exponential gaps and each
arrival applies admit_decision: a user is admitted when the server has
spare capacity AND an independent uniform draw clears the 1/(n+1) rule
for the current queue size n.  An admitted user holds a normally
distributed service time and either departs normally or, with the
configured fault probability, exits early at a uniform point inside its
service interval, counting one error.

Replayability: every run owns a private RNG stream derived from
(seed, run_index) and draws in a fixed documented order per arrival:
next interarrival gap, admission uniform (only when below capacity), view
uniform, service time, fault uniform, error-position uniform.  The view
and error-position uniforms are drawn even when unused so that runs with
different settings share all other randomness.  The engine writes its
two non-uniform draws out in the loop, over the stream's random():

    gap      -log(1.0 - random()) / rate, with rate = 1 / interarrival_mean
    service  mu + z * sigma, z by the Kinderman-Monahan ratio of uniforms:
             u1 = random(); u2 = 1.0 - random();
             z = _NV_MAGICCONST * (u1 - 0.5) / u2, retried until
             z * z / 4.0 <= -log(u2); then floored at SERVICE_FLOOR

These are the operations of random.Random.expovariate and normalvariate,
so a run draws the same numbers as it would through those methods.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from math import exp, inf, log, sqrt

from ..errors import InvariantBreach
from .config import SimConfig

ARRIVAL = "arrival"
DEPARTURE = "departure"
ERROR_EXIT = "error"

SERVICE_FLOOR = 0.01  # seconds; Normal(3, 1) goes negative with p ~ 0.0013
_NV_MAGICCONST = 4 * exp(-0.5) / sqrt(2.0)  # the service draw's ratio-of-uniforms bound


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
    rng = stream_for_run(cfg.seed, run_index)
    random = rng.random
    rate = 1.0 / cfg.interarrival_mean
    mu, sigma = cfg.service_mean, cfg.service_std
    capacity, fault_probability = cfg.capacity, cfg.fault_probability
    push, pop = heapq.heappush, heapq.heappop
    clock = 0.0
    queue = admitted = rejected = errors = 0
    exits = []
    when, order = -log(1.0 - random()) / rate, 0  # the next arrival
    seq = 1
    arrivals_left = cfg.events_per_run
    while True:
        while exits:  # the exits before the next arrival, (when, order)
            exit_when = exits[0][0]
            if exit_when > when or exit_when == when and exits[0][1] > order:
                break
            _, _, kind = pop(exits)
            if exit_when < clock:
                raise InvariantBreach("event time went backwards")
            clock = exit_when
            if queue <= 0:
                raise InvariantBreach("departure with empty queue: event ordering bug")
            queue -= 1
            if kind == ERROR_EXIT:
                errors += 1
            if trace is not None:
                trace(clock, kind, queue)
        if not arrivals_left:
            break
        if when < clock:
            raise InvariantBreach("event time went backwards")
        clock = when
        arrivals_left -= 1
        if arrivals_left:  # clock + gap, the gap -log(1.0 - random()) / rate
            when, order = clock - log(1.0 - random()) / rate, seq
            seq += 1
        else:
            when = order = inf
        if admit_decision(queue, capacity, rng):
            random()  # the view uniform: unused, but kept in the documented order
            queue += 1
            admitted += 1
            while True:
                u1 = random()
                u2 = 1.0 - random()
                z = _NV_MAGICCONST * (u1 - 0.5) / u2
                if z * z / 4.0 <= -log(u2):
                    break
            service = mu + z * sigma
            if service < SERVICE_FLOOR:
                service = SERVICE_FLOOR
            faulted = random() < fault_probability
            at = random() * service  # drawn even without a fault
            if faulted:
                push(exits, (clock + at, seq, ERROR_EXIT))
            else:
                push(exits, (clock + service, seq, DEPARTURE))
            seq += 1
        else:
            rejected += 1
        if trace is not None:
            trace(clock, ARRIVAL, queue)
    if queue:
        raise InvariantBreach(f"drained run left {queue} users in the system")
    return RunResult(defect_density=errors, admitted=admitted, rejected=rejected)
