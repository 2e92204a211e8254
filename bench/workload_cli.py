"""cli: `webrely fit` on two large seeded Weibull samples, then `webrely compare`.

Each command runs as its own process, the way a user runs it.  One
iteration is fit a, fit b, compare a b in a fresh project directory;
iterations repeat with the same inputs until --seconds have passed.  One
operation is one command.  The first iteration is checked in full, every
later one must write byte-identical artefacts.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import sys
import time
from pathlib import Path
from statistics import median

from common import BENCH_DIR, run_child
from tracing import Tracer, maybe_span, project_metrics

# (label, shape, scale): b has the larger mean, so compare must find a more reliable
SAMPLES = (("a", 1.5, 2.4), ("b", 2.2, 5.0))
SAMPLE_SIZE = 100_000
ANALYSIS = "gof_method = ks\n"
# what the webrely console script runs
CONSOLE = "import sys; from webrely.cli import main; sys.exit(main())"
IMPORT_PROBES = 3


def weibull_values(seed: int, label: str, shape: float, scale: float) -> list[float]:
    """Inverse-CDF draws from the benchmark's own stream, not webrely's sampler."""
    rng = random.Random(f"{seed}/{label}")
    return [scale * (-math.log(1.0 - rng.random())) ** (1.0 / shape) for _ in range(SAMPLE_SIZE)]


class Workload:
    def __init__(self, seed: int, seconds: int, work: Path):
        self.seed = seed
        self.seconds = seconds
        self.work = work

    def setup(self, tracer: Tracer | None = None) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.inputs = {}
        for label, shape, scale in SAMPLES:
            values = weibull_values(self.seed, label, shape, scale)
            (self.work / f"{label}.txt").write_text("".join(f"{v!r}\n" for v in values))
            self.inputs[label] = values
        (self.work / "analysis.cfg").write_text(ANALYSIS)

    def close(self) -> None:
        pass

    def _commands(self, project_dir: Path) -> list[tuple[str, list[str]]]:
        shared = ["--project-dir", str(project_dir), "--config", str(self.work / "analysis.cfg")]
        fits = [
            (f"fit {label}", shared + ["fit", "--samples", str(self.work / f"{label}.txt"),
                                       "--label", label])
            for label, _, _ in SAMPLES
        ]
        compare = ["--project-dir", str(project_dir), "compare", "a", "b"]
        # compare twice: it is the short command, and needs as many samples as fit
        return fits + [("compare", compare), ("compare again", compare)]

    def measure(self, tracer: Tracer | None = None) -> dict:
        fit_s: list[float] = []
        compare_s: list[float] = []
        rss = 0.0
        attempted = failed = 0
        reference: dict[str, bytes] | None = None
        deadline = time.perf_counter() + self.seconds
        iteration = 0
        while True:
            project_dir = self.work / f"project-{iteration}"
            codes = {}
            for op, args in self._commands(project_dir):
                spans = self.work / f"spans-{iteration}-{op.replace(' ', '-')}.json"
                if tracer is None:
                    argv = [sys.executable, "-c", CONSOLE] + args
                else:
                    argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans)] + args
                with maybe_span(tracer, "cli.command"):
                    child = run_child(argv, self.work)
                    if tracer is not None and spans.exists():
                        tracer.adopt(json.loads(spans.read_text()))
                (compare_s if op.startswith("compare") else fit_s).append(child.wall_s)
                rss = max(rss, child.maxrss_mb)
                codes[op] = child.returncode
                if child.returncode != 0:
                    print(f"cli: {op} exited {child.returncode}: {child.stderr[-500:]}", flush=True)
            failures = {op: [f"exit {code}"] for op, code in codes.items() if code != 0}
            artefacts = {
                str(p.relative_to(project_dir)): p.read_bytes()
                for p in sorted(project_dir.rglob("*")) if p.is_file()
            }
            if reference is None:
                reference = artefacts
                first = (project_dir, failures)
            else:
                shutil.rmtree(project_dir, ignore_errors=True)
                for op in codes:
                    key = "compare/" if op.startswith("compare") else f"phases/{op[-1]}/"
                    mine = {k: v for k, v in artefacts.items() if k.startswith(key)}
                    if mine != {k: v for k, v in reference.items() if k.startswith(key)}:
                        failures.setdefault(op, []).append("artefacts differ from the first iteration")
                failed += _report(failures)
            attempted += len(codes)
            iteration += 1
            if time.perf_counter() >= deadline:
                break
        # checked last: the checker's memory would otherwise count in the
        # children's peak RSS, which Linux carries over from the parent at fork
        project_dir, failures = first
        for op, found in self._check(project_dir).items():
            failures.setdefault(op, []).extend(found)
        failed += _report(failures)
        return {
            "task_s": median(fit_s),
            "op_ms_p50": 1000.0 * median(compare_s),
            "peak_rss_mb": rss,
            "attempted": attempted,
            "failed": failed,
            "summary": f"{iteration} iterations: fit median {median(fit_s):.3f} s, "
                       f"compare median {median(compare_s):.3f} s",
        }

    def _check(self, project_dir: Path) -> dict[str, list[str]]:
        import checks  # scipy is the checker's, kept out of the set-up

        failures: dict[str, list[str]] = {}
        for label, _, _ in SAMPLES:
            phase = project_dir / "phases" / label
            try:
                fit = json.loads((phase / "fit.json").read_text())
                sample_set = json.loads((phase / "sample_set.json").read_text())
            except FileNotFoundError as exc:
                failures[f"fit {label}"] = [f"missing artefact: {exc}"]
                continue
            retained = sample_set["retained"]
            discarded = [d["value"] for d in sample_set["discarded"]]
            failures[f"fit {label}"] = (
                checks.check_multiset(self.inputs[label], retained, discarded)
                + checks.check_loglik(retained, fit["shape"], fit["scale"])
                + checks.check_ks(retained, fit["shape"], fit["scale"], fit["gof"]["statistic"])
            )
        try:
            report = json.loads((project_dir / "compare" / "a__vs__b" / "report.json").read_text())
        except FileNotFoundError as exc:
            failures["compare"] = [f"missing artefact: {exc}"]
        else:
            failures["compare"] = checks.check_compare(report)
        return failures

    def layer_metrics(self, tracer: Tracer) -> dict[str, float]:
        probes = [
            run_child([sys.executable, "-c", "import webrely.cli"], self.work).wall_s
            for _ in range(IMPORT_PROBES)
        ]
        mains = tracer.durations("cli.main")
        startup = [wall - main for wall, main in zip(tracer.durations("cli.command"), mains)]
        return {
            **project_metrics(tracer),
            "stats.load_samples_s": median(tracer.durations("stats.load_samples")),
            "stats.compare_models_s": median(tracer.durations("stats.compare_models")),
            "cli.import_s": median(probes),
            "cli.startup_s": median(startup),
        }


def _report(failures: dict[str, list[str]]) -> int:
    """Print each failed command's findings; returns how many failed."""
    bad = [op for op, found in failures.items() if found]
    for op in bad:
        print(f"cli: {op}: " + "; ".join(failures[op][:5]), flush=True)
    return len(bad)
