import pytest

from webrely.errors import EmptyModel
from webrely.harness import (
    Credentials,
    MockTarget,
    TestProfile,
    crawl_site,
    default_profiles,
    generate_test_cases,
)
from webrely.harness.model import Node, SiteModel

AUTH = {
    "public": None,
    "professor": Credentials("prof", "prof123"),
    "student": Credentials("stud", "stud123"),
}


@pytest.fixture(scope="module")
def model():
    with MockTarget() as target:
        return crawl_site(target.base_url, AUTH)


def test_public_profile_rejects_write_weights():
    with pytest.raises(ValueError):
        TestProfile("public", None, {"read": 0.5, "insert": 0.5})


def test_profile_needs_positive_weight():
    with pytest.raises(ValueError):
        TestProfile("student", None, {"read": 0.0})
    with pytest.raises(ValueError):
        TestProfile("student", None, {"fly": 1.0})


def test_thousand_cases_are_valid_walks(model):
    cases = generate_test_cases(model, default_profiles(), 1000, seed=99)
    assert len(cases) == 1000
    for case in cases:
        assert case.steps[0].node_path == model.entry_node(case.view).path
        for step in case.steps:
            node = model.nodes[f"{case.view}:{step.node_path}"]
            assert step.action in node.actions


def test_walk_follows_edges(model):
    cases = generate_test_cases(model, default_profiles(), 200, seed=5, walk_length=8)
    for case in cases:
        for current, following in zip(case.steps, case.steps[1:]):
            src = f"{case.view}:{current.node_path}"
            dst = f"{case.view}:{following.node_path}"
            assert (src, dst) in model.edges


def test_public_cases_never_write(model):
    profiles = {"public": default_profiles()["public"]}
    cases = generate_test_cases(model, profiles, 300, seed=4)
    assert cases
    for case in cases:
        assert case.view == "public"
        assert all(step.action == "read" for step in case.steps)


def test_generation_deterministic(model):
    a = generate_test_cases(model, default_profiles(), 50, seed=7)
    b = generate_test_cases(model, default_profiles(), 50, seed=7)
    assert a == b
    c = generate_test_cases(model, default_profiles(), 50, seed=8)
    assert a != c


def test_write_steps_carry_form_data(model):
    cases = generate_test_cases(model, default_profiles(), 400, seed=11)
    writes = [s for c in cases for s in c.steps if s.action != "read"]
    assert writes
    for step in writes:
        assert step.data  # every write fills its form fields


# /a links to /b, a dead end
DEAD_END = SiteModel(
    nodes={node.id: node for node in (Node("student", "/a", ("insert", "read")),
                                      Node("student", "/b", ("read",)))},
    edges=frozenset({("student:/a", "student:/b")}),
    entry_points={"student": "student:/a"},
)


def test_walk_ends_at_a_dead_end():
    profiles = {"student": default_profiles()["student"]}
    cases = generate_test_cases(DEAD_END, profiles, 20, seed=3, walk_length=5)
    assert [[step.node_path for step in case.steps] for case in cases] == [["/a", "/b"]] * 20


def test_step_reads_where_the_profile_allows_no_action_of_the_node():
    profiles = {"student": TestProfile("student", None, {"delete": 1.0})}
    cases = generate_test_cases(DEAD_END, profiles, 20, seed=3, walk_length=5)
    assert {(step.action, len(step.data)) for case in cases for step in case.steps} == {("read", 0)}


def test_empty_model_rejected():
    empty = SiteModel(nodes={}, edges=frozenset(), entry_points={})
    with pytest.raises(EmptyModel):
        generate_test_cases(empty, default_profiles(), 5, seed=1)


def test_count_validation(model):
    with pytest.raises(ValueError):
        generate_test_cases(model, default_profiles(), 0, seed=1)

