"""Evaluation campaign: repeated generate/run/analyze rounds."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import TargetDown
from ..stats import DefectSampleSet, DiscardRecord
from ..stats.serialize import dump_json
from .analyzer import analyze_logs
from .cases import TestProfile, default_profiles, generate_test_cases
from .model import SiteModel
from .runner import HarnessConfig, arrival_offsets, run_evaluation

__all__ = ["CampaignConfig", "run_campaign"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CampaignConfig:
    evaluations: int = 500
    cases_per_round: int = field(default=1000, metadata={"key": "cases"})
    walk_length: int = 6
    seed: int = 0
    harness: HarnessConfig = HarnessConfig()
    profiles: dict[str, TestProfile] = field(default_factory=default_profiles)

    def __post_init__(self):
        if self.evaluations < 0 or self.cases_per_round < 1 or self.walk_length < 1:
            raise ValueError("campaign sizes must be positive")


def run_campaign(
    target: str,
    model: SiteModel,
    cfg: CampaignConfig,
    log_root: str | Path,
    round_callback=None,
    source_label: str = "real",
) -> DefectSampleSet:
    """Run cfg.evaluations rounds sequentially; one defect density each.

    Rounds use seeds derived from (cfg.seed, round index) so a campaign is
    reproducible end to end.  A round whose target probe fails, or in
    which no tester arrived, is recorded as a discarded value, never
    silently dropped.  round_callback(index), when given, runs before
    each round (progress reporting, fault injection in tests).
    """
    log_root = Path(log_root)
    values: list[float] = []
    discarded: list[DiscardRecord] = []
    for index in range(cfg.evaluations):
        if round_callback is not None:
            round_callback(index)
        round_seed = cfg.seed * 1_000_003 + index
        # a case for each tester that arrives; the rest would never run
        arrivals = len(arrival_offsets(cfg.harness, cfg.cases_per_round, round_seed))
        cases = generate_test_cases(
            model, cfg.profiles, arrivals, round_seed, cfg.walk_length
        ) if arrivals else []
        round_dir = log_root / f"round-{index:04d}"
        try:
            paths = run_evaluation(
                target, cases, cfg.profiles, cfg.harness, round_dir, round_seed
            )
        except TargetDown as exc:
            log.warning("round %d aborted: %s", index, exc)
            discarded.append(DiscardRecord(math.nan, f"round {index} aborted: {exc}"))
            continue
        error_log = analyze_logs(paths)
        if error_log.nav_errors:
            log.warning(
                "round %d had %d nav errors; its density counts only the steps that ran",
                index, error_log.nav_errors,
            )
        dump_json(error_log.to_dict(), round_dir / "error_log.json")
        if not arrivals:  # a density of 0 would read as a round with no fault
            reason = f"round {index}: no tester arrived in the window"
            discarded.append(DiscardRecord(math.nan, reason))
            continue
        values.append(float(error_log.defect_density))
    return DefectSampleSet(tuple(values), tuple(discarded), source_label)
