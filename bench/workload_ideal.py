"""ideal: the simulator campaign at the default operating point, then
EiProject.persist_phase with the default chi-square analysis, in process.

One operation is one ideal phase.  Phases repeat with the same inputs
until --seconds have passed; the first is checked in full, every later
one must write byte-identical artefacts.
"""

from __future__ import annotations

import json
import random
import shutil
import time
from pathlib import Path
from statistics import median

import webrely.project as project
import webrely.simulator as simulator
import webrely.simulator.campaign as sim_campaign

import checks
from common import peak_rss_mb, quantile
from tracing import Tracer, maybe_span, patched, project_metrics, project_patches

# twice the default 500, so that the campaign, not persist_phase, dominates
# the phase (about 0.4 s against 7 ms on 2 CPUs) while a run still holds
# some 40 phases, whose median rides out the host's bursts of contention
RUNS = 1000
RERUN_CHECKS = 5


class Workload:
    def __init__(self, seed: int, seconds: int, work: Path):
        self.seed = seed
        self.seconds = seconds
        self.work = work

    def setup(self, tracer: Tracer | None = None) -> None:
        self.cfg = simulator.SimConfig(runs=RUNS, seed=self.seed)
        self.config_doc = {"command": "simulate", "sim": simulator.sim_config_to_dict(self.cfg)}

    def close(self) -> None:
        pass

    def _patches(self, runs: list, tracer: Tracer | None) -> list:
        real = sim_campaign.run_single

        def run_single(cfg, run_index, trace=None):
            start = time.perf_counter()
            result = real(cfg, run_index, trace)
            runs.append((run_index, result, time.perf_counter() - start))
            return result

        if tracer is None:
            return [(sim_campaign, "run_single", run_single)]
        return project_patches(tracer, project) + [
            (sim_campaign, "run_single", tracer.wrap(run_single, "simulator.run_single")),
        ]

    def measure(self, tracer: Tracer | None = None) -> dict:
        runs: list = []
        phase_s: list[float] = []
        run_s: list[float] = []
        failed = 0
        reference: dict[str, bytes] | None = None
        deadline = time.perf_counter() + self.seconds
        with patched(self._patches(runs, tracer)):
            while True:
                root = self.work / f"project-{len(phase_s)}"
                runs.clear()
                start = time.perf_counter()
                with maybe_span(tracer, "simulator.campaign"):
                    samples = simulator.run_campaign(self.cfg, source_label="ideal")
                with maybe_span(tracer, "project.persist"):
                    project.EiProject(root).persist_phase("ideal", samples, self.config_doc)
                phase_s.append(time.perf_counter() - start)
                run_s.extend(r[2] for r in runs)
                if tracer is not None:
                    tracer.count("simulator.arrivals", len(runs) * self.cfg.events_per_run)
                    tracer.count("simulator.events", sum(
                        self.cfg.events_per_run + r[1].admitted for r in runs))
                directory = root / "phases" / "ideal"
                artefacts = _read_phase(directory)
                if reference is None:
                    rss = peak_rss_mb()
                    reference = artefacts
                    failures = self._check(directory, samples, runs)
                else:
                    failures = [] if artefacts == reference else ["phase artefacts differ from the first phase"]
                    shutil.rmtree(root)
                if failures:
                    failed += 1
                    print("ideal: " + "; ".join(failures[:5]), flush=True)
                if time.perf_counter() >= deadline:
                    break
        return {
            "task_s": median(phase_s),
            "op_ms_p50": 1000.0 * median(run_s),
            "peak_rss_mb": rss,
            "attempted": len(phase_s),
            "failed": failed,
            "summary": f"{len(phase_s)} phases of {RUNS} runs, median {median(phase_s):.3f} s",
        }

    def _check(self, directory: Path, samples, runs) -> list[str]:
        cfg = self.cfg
        results = [(index, result) for index, result, _ in runs]
        fit = json.loads((directory / "fit.json").read_text())
        sample_set = json.loads((directory / "sample_set.json").read_text())
        retained = sample_set["retained"]
        discarded = [d["value"] for d in sample_set["discarded"]]
        densities = [float(r.defect_density) for _, r in results]
        rng = random.Random(f"{self.seed}/rerun")
        picked = [results[i] for i in sorted(rng.sample(range(len(results)), RERUN_CHECKS))]
        failures = []
        failures += checks.expect(
            sorted(i for i, _ in results) == list(range(cfg.runs)),
            f"campaign ran {len(results)} runs, expected indices 0..{cfg.runs - 1}",
        )
        failures += checks.expect(
            list(samples.values) == densities, "sample values differ from the runs' densities"
        )
        failures += checks.check_run_accounting(results, cfg.events_per_run)
        failures += checks.check_error_total(
            densities, sum(r.admitted for _, r in results), cfg.fault_probability
        )
        failures += checks.check_multiset(densities, retained, discarded)
        failures += checks.check_zeros_excluded(fit["zeros_excluded"], retained)
        failures += checks.check_loglik(retained, fit["shape"], fit["scale"])
        failures += checks.check_chi2_threshold(fit["gof"])
        failures += checks.check_reproduced(picked, lambda i: simulator.run_single(cfg, i))
        return failures

    @staticmethod
    def layer_metrics(tracer: Tracer) -> dict[str, float]:
        campaign = tracer.durations("simulator.campaign")
        runs = tracer.durations("simulator.run_single")
        return {
            "simulator.campaign_s": median(campaign),
            "simulator.campaign_self_s": median(tracer.self_durations("simulator.campaign")),
            "simulator.arrivals_per_s": tracer.counts["simulator.arrivals"] / sum(campaign),
            "simulator.run_ms_p50": 1000.0 * median(runs),
            "simulator.run_ms_p99": 1000.0 * quantile(runs, 0.99),
            "simulator.events": tracer.counts["simulator.events"] / len(campaign),
            **project_metrics(tracer),
        }


def _read_phase(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}
