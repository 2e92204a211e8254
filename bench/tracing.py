"""Spans around calls into webrely, kept in memory, and their self times.

A span has a name, a start, an end and the index of its parent span.  The
benchmark records spans around its own calls into each layer and around
the public functions it swaps in for the duration of a traced run
(`patched`); nothing inside webrely changes.  Self time is a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from statistics import median


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def adopt(self, doc: dict) -> None:
        """Append spans and counts written by another process (see dump).
        Its root spans become children of the span open in this thread;
        perf_counter is the system-wide monotonic clock on Linux, so the
        times of both processes are on one axis."""
        stack = self._stack()
        with self._lock:
            base = len(self.spans)
            for name, start, end, parent in doc["spans"]:
                if parent is None:
                    parent = stack[-1] if stack else None
                else:
                    parent += base
                self.spans.append([name, start, end, parent])
            for name, amount in doc["counts"].items():
                self.counts[name] = self.counts.get(name, 0) + amount

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))

    # --- aggregates ---------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_durations(self, name: str) -> list[float]:
        own = self_times(self.spans)
        return [own[i] for i, span in enumerate(self.spans) if span[0] == name]


def maybe_span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


@contextmanager
def patched(replacements):
    """Set owner.attr = new for each (owner, attr, new) and restore on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    for owner, attr, new in replacements:
        setattr(owner, attr, new)
    try:
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the union of its children's intervals,
    each clipped to the parent's interval."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            lo = max(c_start, reach)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def project_patches(tracer: Tracer, project) -> list:
    """Spans around the stats calls that EiProject.persist_phase makes, named
    by layer, and a count of Newton-Raphson iterations per fit."""
    fit = project.fit_weibull

    def fit_weibull(*args, **kwargs):
        report = fit(*args, **kwargs)
        tracer.count("stats.fit_iterations", report.iterations)
        tracer.count("stats.fits")
        return report

    return [
        (project, "apply_policy", tracer.wrap(project.apply_policy, "stats.apply_policy")),
        (project, "build_histogram", tracer.wrap(project.build_histogram, "stats.build_histogram")),
        (project, "fit_weibull", tracer.wrap(fit_weibull, "stats.fit_weibull")),
        (project, "goodness_of_fit", tracer.wrap(project.goodness_of_fit, "stats.gof")),
    ]


def project_metrics(tracer: Tracer) -> dict[str, float]:
    return {
        "project.persist_s": median(tracer.durations("project.persist")),
        "project.persist_self_s": median(tracer.self_durations("project.persist")),
        "stats.apply_policy_s": median(tracer.durations("stats.apply_policy")),
        "stats.build_histogram_s": median(tracer.durations("stats.build_histogram")),
        "stats.fit_weibull_s": median(tracer.durations("stats.fit_weibull")),
        "stats.gof_s": median(tracer.durations("stats.gof")),
        "stats.fit_iterations": tracer.counts["stats.fit_iterations"] / tracer.counts["stats.fits"],
    }
