"""Helpers shared by the workloads: child processes, the mock target,
quantiles and memory readings."""

from __future__ import annotations

import math
import os
import resource
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# how long a child may take before it is killed; well inside the 180 s a run has
CHILD_TIMEOUT_S = 120.0


def child_env() -> dict[str, str]:
    """Environment for child interpreters: webrely from this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def quantile(values, q: float) -> float:
    """Linear interpolation between order statistics (the numpy default)."""
    s = sorted(values)
    if not s:
        raise ValueError("quantile of an empty list")
    h = (len(s) - 1) * q
    lo = math.floor(h)
    if lo >= len(s) - 1:
        return float(s[-1])
    return s[lo] + (h - lo) * (s[lo + 1] - s[lo])


def grouped_quantile(values, q: float) -> float:
    """Quantile of whole-millisecond readings, each taken as the bin
    [v - 0.5, v + 0.5) and interpolated inside its bin, as
    statistics.median_grouped does for the median.  The activity logs
    stamp whole milliseconds, so a plain median would read the same
    integer on every run."""
    s = sorted(values)
    if not s:
        raise ValueError("quantile of an empty list")
    target = q * len(s)
    below = 0
    i = 0
    while i < len(s):
        v = s[i]
        j = i
        while j < len(s) and s[j] == v:
            j += 1
        count = j - i
        if below + count >= target:
            return v - 0.5 + (target - below) / count
        below += count
        i = j
    return s[-1] + 0.5


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_cpu_s(pid: int) -> float:
    """User plus system CPU time of another process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@dataclass(frozen=True)
class ChildResult:
    returncode: int
    wall_s: float
    maxrss_mb: float
    stderr: str


def run_child(argv: list[str], out_dir: Path, timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run a child to completion and return its wall time and its own peak
    memory (from wait4, so no other child is counted)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    err_path = out_dir / "child.stderr"
    with open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=subprocess.DEVNULL, stderr=err, env=child_env(), cwd=ROOT
        )
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        returncode=proc.returncode,
        wall_s=wall,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stderr=err_path.read_text(),
    )


class MockServe:
    """`webrely mock-serve` in its own process on an ephemeral port."""

    def __init__(self, faults_path: Path):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "webrely.cli", "mock-serve", "--port", "0",
             "--faults", str(faults_path)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=child_env(),
            cwd=ROOT, text=True,
        )

    def wait_ready(self, timeout: float = 60.0) -> str:
        """Block until the target prints its URL; returns it."""
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        # "mock target serving on http://127.0.0.1:PORT (Ctrl-C to stop)"
        words = line.split()
        if len(words) < 5 or not words[4].startswith("http://"):
            raise RuntimeError(f"mock target did not start: {line!r}")
        return words[4]

    def cpu_s(self) -> float:
        return process_cpu_s(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
