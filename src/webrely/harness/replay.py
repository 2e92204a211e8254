"""Offline replay of test cases against a fault table, no HTTP involved.

Predicts exactly what a full evaluation on the mock target must measure:
each executed step whose (node, action) pair is seeded faults once.  Used
as the independent oracle for harness correctness checks.
"""

from __future__ import annotations

from .cases import TestCase

__all__ = ["predict_faults", "predict_density"]


def predict_faults(
    cases: list[TestCase], fault_table: dict[tuple[str, str], str]
) -> dict[tuple[str, str, str], int]:
    """Fault signature counts (node, action, code) assuming every step runs."""
    hits: dict[tuple[str, str, str], int] = {}
    for case in cases:
        for step in case.steps:
            behavior = fault_table.get((step.node_path, step.action))
            if behavior is None:
                continue
            key = (step.node_path, step.action, behavior)
            hits[key] = hits.get(key, 0) + 1
    return hits


def predict_density(cases: list[TestCase], fault_table: dict[tuple[str, str], str]) -> int:
    return sum(predict_faults(cases, fault_table).values())
