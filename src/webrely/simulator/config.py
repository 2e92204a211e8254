"""Simulation configuration."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass


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

    def __post_init__(self):
        for name in ("interarrival_mean", "service_mean", "service_std"):
            if not 0.0 < getattr(self, name) < math.inf:  # also catches nan
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 1.0 / self.interarrival_mean < math.inf:
            raise ValueError(f"interarrival_mean {self.interarrival_mean} gives no finite arrival rate")
        if self.capacity < 0:
            raise ValueError("capacity must be >= 0")
        if self.events_per_run < 0 or self.runs < 0:
            raise ValueError("events_per_run and runs must be >= 0")
        if not 0.0 <= self.fault_probability <= 1.0:
            raise ValueError("fault_probability must be in [0, 1]")


def sim_config_to_dict(cfg: SimConfig) -> dict:
    return asdict(cfg)
