"""live: concurrent testers against `webrely mock-serve` in its own process.

Set-up starts the target with the fault table in faults.json and crawls
the site.  The measured phase is one harness.run_campaign of ROUNDS
rounds; every tester is due at the start and the pool has one worker per
CPU, so this is a closed loop with that many testers in flight.  One
operation is one tester (test case); its log and its round are checked.
"""

from __future__ import annotations

import http.client
import json
import os
import time
from pathlib import Path
from statistics import median
from urllib.parse import urlparse

import webrely.harness as harness
import webrely.harness.campaign as harness_campaign

import checks
from common import BENCH_DIR, MockServe, grouped_quantile, peak_rss_mb
from tracing import Tracer, maybe_span, patched

FAULTS = BENCH_DIR / "faults.json"
# Ten short rounds rather than a few long ones: the round time is reported
# as a median over rounds, which rides out the host's bursts of contention.
# Cases per round scale with --seconds (120 at 20 s, about 20 s for all
# rounds at 2 CPUs); the work depends on --seconds only, never on speed.
ROUNDS = 10
CASES_PER_SECOND = 6
WALK_LENGTH = 6
# long enough that the window never cuts a walk short
DURATION_S = 3600.0
BARE_REQUESTS = 200
BARE_PATH = "/courses/view"


class Workload:
    def __init__(self, seed: int, seconds: int, work: Path):
        self.seed = seed
        self.cases = CASES_PER_SECOND * seconds
        self.work = work
        self.target: MockServe | None = None

    def setup(self, tracer: Tracer | None = None) -> None:
        # the target imports webrely on the other CPU while this process crawls
        self.target = MockServe(FAULTS)
        self.table = {
            (f["path"], f["action"]): f["behavior"] for f in json.loads(FAULTS.read_text())
        }
        # A read fault that answers 500 hides its page from crawl_site, which
        # skips non-200 pages, so the crawl runs against a clean mock with the
        # same site and the faults stay on pages the model plans steps for.
        auth = {view: p.credentials for view, p in harness.default_profiles().items()}
        with harness.MockTarget() as clean, maybe_span(tracer, "crawler.crawl"):
            self.model = harness.crawl_site(clean.base_url, auth)
        self.url = self.target.wait_ready()
        self.cfg = harness.CampaignConfig(
            evaluations=ROUNDS,
            cases_per_round=self.cases,
            walk_length=WALK_LENGTH,
            seed=self.seed,
            harness=harness.HarnessConfig(
                duration_s=DURATION_S,
                arrival_mean_s=1e-6,
                workers=len(os.sched_getaffinity(0)),
            ),
        )

    def close(self) -> None:
        if self.target is not None:
            self.target.stop()
            self.target = None

    def _patches(self, rounds: list, tracer: Tracer | None) -> list:
        generate = harness_campaign.generate_test_cases

        def generate_test_cases(*args, **kwargs):
            cases = generate(*args, **kwargs)
            rounds.append(cases)
            return cases

        if tracer is None:
            return [(harness_campaign, "generate_test_cases", generate_test_cases)]
        return [
            (harness_campaign, "generate_test_cases",
             tracer.wrap(generate_test_cases, "cases.generate")),
            (harness_campaign, "run_evaluation",
             tracer.wrap(harness_campaign.run_evaluation, "runner.run_evaluation")),
            (harness_campaign, "analyze_logs",
             tracer.wrap(harness_campaign.analyze_logs, "analyzer.analyze")),
        ]

    def measure(self, tracer: Tracer | None = None) -> dict:
        rounds: list = []
        marks: list[float] = []
        log_root = self.work / "logs"
        if tracer is not None:
            self.bare_ms = _bare_requests(self.url)
        cpu0, mock0 = time.process_time(), self.target.cpu_s()
        with patched(self._patches(rounds, tracer)), maybe_span(tracer, "harness.campaign"):
            start = time.perf_counter()
            harness.run_campaign(
                self.url, self.model, self.cfg, log_root,
                round_callback=lambda index: marks.append(time.perf_counter()),
            )
            end = time.perf_counter()
        self.cpu_s = time.process_time() - cpu0
        self.mock_cpu_s = self.target.cpu_s() - mock0
        rss = peak_rss_mb()
        self.round_s = [b - a for a, b in zip(marks, marks[1:] + [end])]

        failed = 0
        lifetimes: list[int] = []
        steps = logins = self.records = 0
        for index, cases in enumerate(rounds):
            round_dir = log_root / f"round-{index:04d}"
            summary = round_dir / "error_log.json"
            if not summary.exists():  # run_campaign discarded the round
                print(f"live: round {index} left no error_log.json", flush=True)
                failed += len(cases)
                continue
            error_log = json.loads(summary.read_text())
            self.records += error_log["records"]
            round_failures = checks.check_round(
                error_log,
                checks.tally_faults(cases, self.table),
                harness.predict_faults(cases, self.table),
            )
            bad = 0
            for tester, case in enumerate(cases):
                path = round_dir / f"tester-{tester:05d}.log"
                lines = path.read_text().splitlines() if path.exists() else []
                failures = checks.check_tester_log(lines, case, self.table)
                if failures:
                    bad += 1
                    print("live: " + "; ".join(failures[:3]), flush=True)
                else:
                    # begin to end record, in the log's whole milliseconds
                    lifetimes.append(int(lines[-1].split("\t", 1)[0]) - int(lines[0].split("\t", 1)[0]))
                steps += len(case.steps)
                logins += case.view != "public"
            if round_failures:
                print(f"live: round {index}: " + "; ".join(round_failures), flush=True)
                bad = len(cases)
            failed += bad
        self.requests = steps + logins
        self.lifetimes = lifetimes
        phase = end - start
        return {
            "task_s": median(self.round_s),
            "op_ms_p50": grouped_quantile(lifetimes, 0.5),
            "peak_rss_mb": rss,
            "attempted": sum(len(cases) for cases in rounds),
            "failed": failed,
            "summary": f"{ROUNDS} rounds of {self.cases} cases: {steps} steps and "
                       f"{logins} logins in {phase:.2f} s, {steps / phase:.1f} steps/s",
        }

    def layer_metrics(self, tracer: Tracer) -> dict[str, float]:
        analyze = tracer.durations("analyzer.analyze")
        return {
            "crawler.crawl_s": median(tracer.durations("crawler.crawl")),
            "crawler.pages": float(len(self.model.nodes)),
            "cases.generate_s": median(tracer.durations("cases.generate")),
            "campaign.round_s": median(self.round_s),
            "campaign.round_growth": self.round_s[-1] / self.round_s[0],
            "campaign.self_s": median(tracer.self_durations("harness.campaign")),
            "runner.run_evaluation_s": median(tracer.durations("runner.run_evaluation")),
            "analyzer.analyze_s": median(analyze),
            "analyzer.records_per_s": self.records / sum(analyze),
            "runner.requests": float(self.requests),
            "runner.cpu_ms_per_req": 1000.0 * self.cpu_s / self.requests,
            "runner.case_ms_p99": grouped_quantile(self.lifetimes, 0.99),
            "mock.cpu_ms_per_req": 1000.0 * self.mock_cpu_s / self.requests,
            "mock.bare_req_ms_p50": median(self.bare_ms),
        }


def _bare_requests(url: str) -> list[float]:
    """Sequential GETs with a bare stdlib client, one connection each (the
    mock speaks HTTP/1.0): the floor under a tester's request."""
    parsed = urlparse(url)
    times = []
    for _ in range(BARE_REQUESTS):
        start = time.perf_counter()
        conn = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=10)
        try:
            conn.request("GET", BARE_PATH)
            response = conn.getresponse()
            response.read()
        finally:
            conn.close()
        if response.status != 200:
            raise RuntimeError(f"bare GET {BARE_PATH} answered {response.status}")
        times.append(1000.0 * (time.perf_counter() - start))
    return times
