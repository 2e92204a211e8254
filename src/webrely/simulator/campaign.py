"""Campaign driver: many independent runs, one defect density each."""

from __future__ import annotations

from pathlib import Path

from ..stats import DefectSampleSet
from ..stats.serialize import csv_writer
from .config import SimConfig
from .engine import RunResult, run_single

__all__ = ["run_campaign", "write_trace_csv"]


def run_campaign(cfg: SimConfig, source_label: str = "ideal") -> DefectSampleSet:
    """One defect density per run, in run index order.  Runs share nothing,
    so this could be farmed out to workers; results are keyed by run index
    either way."""
    values = tuple(float(run_single(cfg, i).defect_density) for i in range(cfg.runs))
    return DefectSampleSet(values, (), source_label)


def write_trace_csv(cfg: SimConfig, run_index: int, path: str | Path) -> RunResult:
    """Re-run one run with a per-event trace written as clock,event_type,queue_size."""
    with open(path, "w", newline="") as fh:
        writer = csv_writer(fh)
        writer.writerow(["clock", "event_type", "queue_size"])
        result = run_single(
            cfg, run_index, trace=lambda t, kind, q: writer.writerow([f"{t:.6f}", kind, q])
        )
    return result
