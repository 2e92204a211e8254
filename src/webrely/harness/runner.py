"""Concurrent tester execution against a live HTTP target, on one thread.

One tester per test case.  One rule decides what a round runs: a tester
whose arrival falls inside duration_s runs its whole walk.  Testers share
only the immutable case list and the target address.  A step's outcome
is decided by three rules: 2xx status class, the page marker for the
node must be present, and the fixture fault marker must be absent.  A
step that gets no answer (one of crawler.CLIENT_ERRORS) is a nav_error.
Testers of authenticated views log in through crawler.logging_in, the
rule the crawl uses, and write their logs as analyzer.ActivityRecord
lines.  Each tester holds one crawler.Session, and a step's URL is joined
from the target and its node path once per process, not on every step.

A round's testers run on the calling thread, as generators on
crawler.drive's selectors loop.  A tester yields wherever its Session
would block: the connect, the TLS handshake, the rest of a request that
does not fit the send buffer, and the answer; the loop resumes it when
that socket is ready.  Tester i starts at the later of its arrival (t0 +
its offset) and a free slot among cfg.workers testers in flight, in
index order.  Every wait is bounded by request_timeout_s: when one runs
out, the loop throws TimeoutError into that tester, so the step is a
nav_error.  The target's host is resolved once per round, by the probe
before the loop starts, and every tester's Session connects to those
addresses, so the loop resolves no name unless a redirect leads to
another host.
"""

from __future__ import annotations

import math
import random
import time
from collections.abc import Generator
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from urllib.parse import urljoin

from ..errors import AuthFailed, TargetDown, Unreachable
from .analyzer import ActivityRecord
from .cases import TestCase, TestProfile
from .crawler import CLIENT_ERRORS, Session, Wait, drive, logging_in
from .mock import FAULT_MARKER

__all__ = ["HarnessConfig", "run_evaluation"]


@dataclass(frozen=True)
class HarnessConfig:
    duration_s: float = field(default=100.0, metadata={"key": "duration"})
    arrival_mean_s: float = field(default=4.0, metadata={"key": "arrival_mean"})
    workers: int = 100
    request_timeout_s: float = field(default=10.0, metadata={"key": "request_timeout"})

    def __post_init__(self):
        for name in ("duration_s", "arrival_mean_s", "request_timeout_s"):
            if not 0.0 < getattr(self, name) < math.inf:  # also catches nan
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.workers < 1:
            raise ValueError("need at least one worker")


def _classify(status: int, text: str, node_path: str) -> str:
    if 500 <= status < 600:
        return f"fault:http-{status}"
    if not 200 <= status < 300:
        return "nav_error"
    if FAULT_MARKER in text:
        return "fault:error-marker"
    if f"page:{node_path}" not in text:
        return "fault:missing-marker"
    return "ok"


# a round's steps visit a few node paths of one target over and over
_step_url = lru_cache(maxsize=1024)(urljoin)


def _execute_step(session: Session, target: str, step) -> Generator[Wait, None, str]:
    form = None if step.action == "read" else {**step.data, "op": step.action}
    try:
        page = yield from session.fetching(_step_url(target, step.node_path), form)
    except CLIENT_ERRORS:
        return "nav_error"
    return _classify(page.status, page.text, step.node_path)


def _tester(
    tester_id: int,
    case: TestCase,
    profile: TestProfile,
    target: str,
    log_path: Path,
    addresses: dict[tuple[str, int], list],
) -> Generator[Wait, None, None]:
    with open(log_path, "w", encoding="utf-8") as fh:

        def record(step_index: int, action: str, outcome: str, node: str) -> None:
            fh.write(ActivityRecord(int(time.time() * 1000), tester_id, case.id,
                                    step_index, action, outcome, node).to_line())

        record(-1, "begin", "ok", "-")
        try:
            with Session(addresses) as session:
                if profile.credentials is not None:
                    try:
                        yield from logging_in(session, target, case.view, profile.credentials)
                    except (Unreachable, AuthFailed):
                        record(-1, "login", "nav_error", "-")
                        return
                    record(-1, "login", "ok", "-")
                for index, step in enumerate(case.steps):
                    outcome = yield from _execute_step(session, target, step)
                    record(index, step.action, outcome, step.node_path)
        finally:
            record(-1, "end", "ok", "-")


def run_evaluation(
    target: str,
    cases: list[TestCase],
    profiles: dict[str, TestProfile],
    cfg: HarnessConfig,
    log_dir: str | Path,
    seed: int,
) -> list[Path]:
    """Execute the cases whose testers arrive in the window; returns their log files.

    Raises TargetDown when the pre-run probe gets no answer at all, that
    is, when Session.fetch raises one of crawler.CLIENT_ERRORS: a refused
    connection, a timeout or a URL that is not http(s).  Mid-run client
    errors degrade to nav_error outcomes so one flaky page never kills an
    evaluation.  A login that crawler.logging_in refuses (no answer, or
    no 200/302/303 with a Location) is logged as a login meta record with
    outcome nav_error, which the analyzer counts, and the steps of that
    case do not run.  Any other error in a tester closes every tester in
    flight, each log ending with its end record, and propagates.  The
    testers connect to the addresses the probe resolved.
    """
    log_dir = Path(log_dir)
    log_dir.mkdir(parents=True, exist_ok=True)
    try:
        with Session() as probe:
            probe.fetch(target, timeout=cfg.request_timeout_s)
    except CLIENT_ERRORS as exc:
        raise TargetDown(f"target {target} did not answer the probe: {exc}") from exc

    rng = random.Random(f"{seed}/arrivals")
    offset = 0.0
    t0 = time.monotonic()
    paths: list[Path] = []
    starts = []
    for i, case in enumerate(cases):
        offset += rng.expovariate(1.0 / cfg.arrival_mean_s)
        if offset >= cfg.duration_s:
            break  # arrivals only increase, so every later tester is outside too
        path = log_dir / f"tester-{i:05d}.log"
        paths.append(path)
        starts.append((t0 + offset, _tester(i, case, profiles[case.view], target, path,
                                            probe.addresses)))
    drive(starts, cfg.workers, cfg.request_timeout_s)
    return paths
