"""Simulation configuration and its key-value file format."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

VIEWS = ("professor", "student", "public")


def _default_view_mix() -> dict[str, float]:
    return {"professor": 0.3, "student": 0.4, "public": 0.3}


@dataclass(frozen=True)
class SimConfig:
    """Ideal-case parameters: exponential arrivals into a capacity-capped
    queue with normally distributed service times.

    Defaults mirror the reference operating point: mean interarrival 4 s,
    service 3 s with 1 s spread, 100 concurrent users, 100 arrivals per
    run, 500 runs.
    """

    interarrival_mean: float = 4.0
    service_mean: float = 3.0
    service_std: float = 1.0
    capacity: int = 100
    events_per_run: int = 100
    runs: int = 500
    fault_probability: float = 0.03
    seed: int = 0
    view_mix: dict[str, float] = field(default_factory=_default_view_mix)

    def __post_init__(self):
        if self.interarrival_mean <= 0 or self.service_mean <= 0 or self.service_std <= 0:
            raise ValueError("interarrival/service means and std must be positive")
        if self.capacity < 0:
            raise ValueError("capacity must be >= 0")
        if self.events_per_run < 0 or self.runs < 0:
            raise ValueError("events_per_run and runs must be >= 0")
        if not 0.0 <= self.fault_probability <= 1.0:
            raise ValueError("fault_probability must be in [0, 1]")
        if set(self.view_mix) != set(VIEWS):
            raise ValueError(f"view_mix must weight exactly {VIEWS}")
        total = sum(self.view_mix.values())
        if any(w < 0 for w in self.view_mix.values()) or not math.isclose(total, 1.0, rel_tol=1e-9):
            raise ValueError("view_mix weights must be non-negative and sum to 1")


def _parse_view_mix(value: str) -> dict[str, float]:
    weights = [float(w) for w in value.split(",")]
    if len(weights) != 3:
        raise ValueError("view_mix needs 3 weights (professor,student,public)")
    return dict(zip(VIEWS, weights))


def sim_config_from_kv(pairs: dict[str, str]) -> SimConfig:
    """Consume simulation keys from a parsed key-value mapping.  view_mix is
    three comma-separated weights in professor,student,public order."""
    from ..kvconfig import take

    return SimConfig(
        interarrival_mean=take(pairs, "interarrival_mean", float, 4.0),
        service_mean=take(pairs, "service_mean", float, 3.0),
        service_std=take(pairs, "service_std", float, 1.0),
        capacity=take(pairs, "capacity", int, 100),
        events_per_run=take(pairs, "events_per_run", int, 100),
        runs=take(pairs, "runs", int, 500),
        fault_probability=take(pairs, "fault_probability", float, 0.03),
        seed=take(pairs, "seed", int, 0),
        view_mix=take(pairs, "view_mix", _parse_view_mix, _default_view_mix()),
    )


def sim_config_to_dict(cfg: SimConfig) -> dict:
    return asdict(cfg)
