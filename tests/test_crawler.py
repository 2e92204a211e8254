from pathlib import Path

import pytest

from webrely.errors import AuthFailed, Unreachable
from webrely.harness import (
    CrawlLimits,
    Credentials,
    MockTarget,
    SiteModel,
    crawl_site,
)
from webrely.harness.crawler import Session, login
from webrely.stats.serialize import read_json

AUTH = {
    "public": None,
    "professor": Credentials("prof", "prof123"),
    "student": Credentials("stud", "stud123"),
}


@pytest.fixture(scope="module")
def crawled():
    with MockTarget() as target:
        model = crawl_site(target.base_url, AUTH)
        again = crawl_site(target.base_url, AUTH)
    return model, again


def test_public_topology_exact(crawled):
    model, _ = crawled
    assert [n.path for n in model.view_nodes("public")] == [
        "/", "/about", "/courses", "/courses/view",
    ]
    public_edges = {(s, d) for s, d in model.edges if s.startswith("public:")}
    assert public_edges == {
        ("public:/", "public:/about"),
        ("public:/", "public:/courses"),
        ("public:/about", "public:/"),
        ("public:/courses", "public:/courses/view"),
        ("public:/courses/view", "public:/courses"),
    }


def test_form_actions_discovered(crawled):
    model, _ = crawled
    by_path = {n.path: n for n in model.view_nodes("professor")}
    assert by_path["/professor/courses"].actions == ("read", "insert")
    assert by_path["/professor/courses/edit"].actions == ("read", "delete", "update")
    insert_forms = [f for f in by_path["/professor/courses"].forms if f.op == "insert"]
    assert insert_forms and set(insert_forms[0].fields) == {"name", "credits"}


def test_whole_site_model_of_the_clean_mock(crawled):
    # every view's nodes, actions, form fields and edges
    model, _ = crawled
    assert model.to_dict() == read_json(Path(__file__).parent / "data" / "mock_site_model.json")


def test_entry_points_follow_login_redirects(crawled):
    model, _ = crawled
    assert model.entry_points == {
        "public": "public:/",
        "professor": "professor:/professor",
        "student": "student:/student",
    }


def test_repeated_crawls_identical(crawled):
    model, again = crawled
    assert model.to_dict() == again.to_dict()


def test_model_json_roundtrip(crawled):
    model, _ = crawled
    assert SiteModel.from_dict(model.to_dict()).to_dict() == model.to_dict()


def test_post_login_returns_redirect_unfollowed():
    with MockTarget() as target:
        entry = login(Session(), target.base_url, "professor", AUTH["professor"], 5)
    assert entry == "/professor"


def test_unreachable_root():
    with pytest.raises(Unreachable):
        crawl_site("http://127.0.0.1:9", {"public": None})


def test_auth_failure():
    with MockTarget() as target:
        with pytest.raises(AuthFailed):
            crawl_site(target.base_url, {"professor": Credentials("prof", "wrong")})


def test_page_cap_marks_truncated():
    with MockTarget() as target:
        model = crawl_site(
            target.base_url, {"public": None}, CrawlLimits(max_depth=5, max_pages_per_view=2)
        )
    assert model.truncated
    assert len(model.view_nodes("public")) <= 2


def test_limit_validation():
    with pytest.raises(ValueError):
        CrawlLimits(max_depth=0)
