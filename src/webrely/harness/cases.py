"""Test profiles and randomized navigational test cases."""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import EmptyModel
from .crawler import Credentials
from .mock import COURSE_IDS, CREDENTIALS
from .model import ACTIONS, Node, SiteModel

__all__ = [
    "ACTIONS",
    "Step",
    "TestCase",
    "TestProfile",
    "default_profiles",
    "generate_test_cases",
]

WRITE_ACTIONS = ("insert", "update", "delete")


@dataclass(frozen=True)
class TestProfile:
    """A view plus its permitted action mix.

    Public users may only read, so any write weight on a public profile is
    rejected outright.
    """

    __test__ = False  # domain class, not a pytest collectable

    view: str
    credentials: Credentials | None
    action_mix: dict[str, float]

    def __post_init__(self):
        unknown = set(self.action_mix) - set(ACTIONS)
        if unknown:
            raise ValueError(f"unknown actions in mix: {sorted(unknown)}")
        if any(w < 0 for w in self.action_mix.values()):
            raise ValueError("action weights must be non-negative")
        if sum(self.action_mix.values()) <= 0:
            raise ValueError("at least one action weight must be positive")
        if self.view == "public":
            writes = [a for a in WRITE_ACTIONS if self.action_mix.get(a, 0.0) > 0]
            if writes:
                raise ValueError(f"public profiles are read-only, got weights for {writes}")

    def permitted(self) -> tuple[str, ...]:
        return tuple(a for a in ACTIONS if self.action_mix.get(a, 0.0) > 0)


def default_profiles() -> dict[str, TestProfile]:
    """The three standard profiles, wired to the bundled mock credentials."""
    writer = {"read": 0.55, "insert": 0.15, "update": 0.15, "delete": 0.15}
    profiles = {"public": TestProfile("public", None, {"read": 1.0})}
    for view, (username, password) in CREDENTIALS.items():
        profiles[view] = TestProfile(view, Credentials(username, password), dict(writer))
    return profiles


@dataclass(frozen=True)
class Step:
    node_path: str
    action: str
    data: dict


@dataclass(frozen=True)
class TestCase:
    __test__ = False  # domain class, not a pytest collectable

    id: str
    view: str
    seed: int
    steps: tuple[Step, ...]


def _step_data(rng: random.Random, node: Node, action: str) -> dict:
    data = {}
    for form in node.forms:
        if form.op == action:
            for name in form.fields:
                if name.endswith("_id") or name == "credits":
                    data[name] = str(rng.choice(COURSE_IDS))
                else:
                    data[name] = f"v{rng.randrange(1_000_000)}"
            break
    return data


def _choose_action(rng: random.Random, node: Node, profile: TestProfile) -> str:
    usable = [a for a in profile.permitted() if a in node.actions]
    if not usable:
        return "read"
    return rng.choices(usable, [profile.action_mix[a] for a in usable])[0]


def generate_test_cases(
    model: SiteModel,
    profiles: dict[str, TestProfile],
    count: int,
    seed: int,
    walk_length: int = 6,
) -> list[TestCase]:
    """count random walks through the model, tagged with their profile.

    Views are sampled uniformly over the given profiles; every step's
    action is drawn from the profile mix restricted to what the node
    offers.  Deterministic for a given (model, profiles, count, seed).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not model.nodes:
        raise EmptyModel("site model has no nodes")
    views = sorted(v for v in profiles if v in model.entry_points)
    if not views:
        raise EmptyModel("no profile matches any crawled view")

    rng = random.Random(f"{seed}/cases")
    cases = []
    for i in range(count):
        view = views[rng.randrange(len(views))]
        profile = profiles[view]
        node = model.entry_node(view)
        steps = []
        for _ in range(walk_length):
            action = _choose_action(rng, node, profile)
            steps.append(Step(node.path, action, _step_data(rng, node, action)))
            outgoing = model.out_edges(node.id)
            if not outgoing:
                break
            node = model.nodes[outgoing[rng.randrange(len(outgoing))]]
        cases.append(TestCase(id=f"case-{i:05d}", view=view, seed=seed, steps=tuple(steps)))
    return cases
