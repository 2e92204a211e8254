"""Activity logs: their one line format (ActivityRecord.to_line, read back
by parse_log_file), and their analysis into defect density, MTTF and fault
signatures."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = ["ActivityRecord", "ErrorLog", "analyze_logs", "parse_log_file"]


@dataclass(frozen=True)
class ActivityRecord:
    timestamp_ms: int
    tester_id: int
    test_case_id: str
    step_index: int
    action: str
    outcome: str
    node: str

    def to_line(self) -> str:
        """One tab-separated log line, newline included, in field order."""
        return (
            f"{self.timestamp_ms}\t{self.tester_id}\t{self.test_case_id}\t{self.step_index}"
            f"\t{self.action}\t{self.outcome}\t{self.node}\n"
        )


@dataclass
class ErrorLog:
    """Aggregate of one evaluation round.

    defect_density counts fault outcomes; mttf_ms is total active tester
    time divided by faults and None while no fault was seen (the
    undefined marker, never zero).  fault_signatures groups faults by
    (node, action, code).
    """

    defect_density: int = 0
    total_active_ms: int = 0
    duration_ms: int = 0
    mttf_ms: float | None = None
    fault_signatures: dict[tuple[str, str, str], int] = field(default_factory=dict)
    nav_errors: int = 0
    steps_ok: int = 0
    records: int = 0
    testers: int = 0
    skipped_lines: list[str] = field(default_factory=list)
    by_action: dict[str, int] = field(default_factory=dict)

    def summary_dict(self) -> dict:
        """Seed-deterministic content only: times and log-file detail stay
        out so a regenerated run produces a byte-identical summary."""
        doc = self.to_dict()
        for key in ("total_active_ms", "duration_ms", "mttf_ms", "records", "skipped_lines"):
            del doc[key]
        return doc

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["fault_signatures"] = [
            {"node": n, "action": a, "code": c, "count": cnt}
            for (n, a, c), cnt in sorted(self.fault_signatures.items())
        ]
        return doc


def parse_log_file(path: str | Path) -> tuple[list[ActivityRecord], list[str]]:
    """Parse one activity log of ActivityRecord.to_line() lines; malformed
    lines are skipped and reported, never fatal."""
    records: list[ActivityRecord] = []
    skipped: list[str] = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        parts = line.split("\t")
        if len(parts) != 7:
            skipped.append(f"{path}:{lineno}: expected 7 fields, got {len(parts)}")
            continue
        try:  # the fields in to_line's order
            records.append(ActivityRecord(int(parts[0]), int(parts[1]), parts[2],
                                          int(parts[3]), *parts[4:]))
        except ValueError as exc:
            skipped.append(f"{path}:{lineno}: {exc}")
    return records, skipped


def analyze_logs(log_paths) -> ErrorLog:
    """Merge per-tester logs into one error log.

    Output is independent of file ordering: every aggregate is a sum or a
    sorted grouping.  Active time per tester spans its first to its last
    record, which the begin/end meta records pin to the tester lifetime.
    Meta records count as no step, except a failed login: it is one
    nav_error, and the steps of its case never ran.
    """
    out = ErrorLog()
    spans: dict[int, tuple[int, int]] = {}
    for path in sorted(str(p) for p in log_paths):
        records, skipped = parse_log_file(path)
        out.skipped_lines.extend(skipped)
        for rec in records:
            out.records += 1
            lo, hi = spans.get(rec.tester_id, (rec.timestamp_ms, rec.timestamp_ms))
            spans[rec.tester_id] = (min(lo, rec.timestamp_ms), max(hi, rec.timestamp_ms))
            if rec.step_index < 0:
                if rec.action == "login" and rec.outcome == "nav_error":
                    out.nav_errors += 1
                continue
            out.by_action[rec.action] = out.by_action.get(rec.action, 0) + 1
            if rec.outcome.startswith("fault:"):
                out.defect_density += 1
                key = (rec.node, rec.action, rec.outcome.split(":", 1)[1])
                out.fault_signatures[key] = out.fault_signatures.get(key, 0) + 1
            elif rec.outcome == "nav_error":
                out.nav_errors += 1
            else:
                out.steps_ok += 1
    out.testers = len(spans)
    out.total_active_ms = sum(hi - lo for lo, hi in spans.values())
    if spans:
        out.duration_ms = max(hi for _, hi in spans.values()) - min(
            lo for lo, _ in spans.values()
        )
    out.mttf_ms = out.total_active_ms / out.defect_density if out.defect_density else None
    return out
