"""Discrete-event simulation of the system under ideal conditions."""

from .campaign import run_campaign, write_trace_csv
from .config import SimConfig, sim_config_to_dict
from .engine import admit_decision, run_single, stream_for_run

__all__ = [
    "SimConfig",
    "admit_decision",
    "run_campaign",
    "run_single",
    "sim_config_to_dict",
    "stream_for_run",
    "write_trace_csv",
]
