"""Benchmark of webrely's evaluate / improve / re-evaluate loop.

usage: python3 bench/run.py --workload {ideal,live,cli} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports webrely from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 the workload runs
once plainly and once with spans around its layers, and the metrics are
the per-layer ones, including the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import sys
import tempfile
from pathlib import Path
from statistics import median

from common import BENCH_DIR, ROOT, SRC, run_child
from tracing import Tracer

WORKLOADS = ("ideal", "live", "cli")
SETUP_PROBES = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set the workload up, tear it down and exit (one sample of setup_s)",
    )
    return parser.parse_args(argv)


def setup_seconds(args, work: Path) -> float:
    """Median wall time of fresh processes that only set the workload up:
    interpreter start, imports, inputs, and for live the target and crawl."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    walls = []
    for i in range(SETUP_PROBES):
        child = run_child(argv, work / f"probe-{i}")
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe exited {child.returncode}: {child.stderr[-2000:]}")
        walls.append(child.wall_s)
    return median(walls)


def run_once(module, args, work: Path, tracer: Tracer | None = None):
    workload = module.Workload(args.seed, args.seconds, work)
    try:
        workload.setup(tracer)
        result = workload.measure(tracer)
        layers = workload.layer_metrics(tracer) if tracer is not None else {}
    finally:
        workload.close()
    print(f"{args.workload}{' (traced)' if tracer else ''}: {result['summary']}", flush=True)
    return result, layers


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "webrely" / "__init__.py").is_file():
        print(f"error: no webrely sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    module = importlib.import_module(f"workload_{args.workload}")
    (BENCH_DIR / "work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH_DIR / "work"))
    try:
        if args.setup_only:
            workload = module.Workload(args.seed, args.seconds, work)
            try:
                workload.setup()
            finally:
                workload.close()
            return 0
        if args.trace == 0:
            setup_s = setup_seconds(args, work)
            result, _ = run_once(module, args, work / "run")
            values = {
                "setup_s": setup_s,
                "peak_rss_mb": result["peak_rss_mb"],
                "task_s": result["task_s"],
                "op_ms_p50": result["op_ms_p50"],
            }
            wanted = spec["end_to_end"]
            attempted, failed = result["attempted"], result["failed"]
        else:
            plain, _ = run_once(module, args, work / "plain")
            tracer = Tracer()
            traced, values = run_once(module, args, work / "traced", tracer)
            values["trace.overhead_pct"] = 100.0 * (traced["task_s"] / plain["task_s"] - 1.0)
            tracer.dump(BENCH_DIR / "results" / f"trace-{args.workload}-seed{args.seed}.json")
            wanted = spec["per_layer"]
            names = {m["name"] for m in wanted}
            unknown = set(values) - names
            if unknown:
                raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
            # a layer this workload never calls did no work: 0
            values = {name: values.get(name, 0.0) for name in names}
            attempted = plain["attempted"] + traced["attempted"]
            failed = plain["failed"] + traced["failed"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
