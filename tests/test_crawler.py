import re
import socketserver
import time
from contextlib import contextmanager
from http.cookiejar import CookieJar
from http.server import BaseHTTPRequestHandler
from pathlib import Path
from urllib.parse import urlparse
from urllib.request import HTTPCookieProcessor, ProxyHandler, Request, build_opener

import pytest

from webrely import __version__
from webrely.errors import AuthFailed, Unreachable
from webrely.harness import (
    CrawlLimits,
    Credentials,
    HarnessConfig,
    MockTarget,
    SiteModel,
    Step,
    TestCase,
    crawl_site,
    default_profiles,
    parse_log_file,
    run_evaluation,
)
from webrely.harness import mock
from webrely.harness.crawler import MAX_REDIRECTS, Session, login
from webrely.stats.serialize import dump_json

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


def test_whole_site_model_of_the_clean_mock(crawled, tmp_path):
    # every view's nodes, actions, form fields and edges, as model.json's bytes
    model, _ = crawled
    dump_json(model.to_dict(), tmp_path / "model.json")
    golden = Path(__file__).parent / "data" / "mock_site_model.json"
    assert (tmp_path / "model.json").read_bytes() == golden.read_bytes()


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
    with MockTarget() as target, Session() as session:
        entry = login(session, target.base_url, "professor", AUTH["professor"], 5)
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


@contextmanager
def _counting_accepts(target: MockTarget):
    """Yields a list that gets one entry per connection the target accepts."""
    accepted = []
    server = target._server
    process = server.process_request

    def counting(request, client_address):
        accepted.append(client_address)
        process(request, client_address)

    server.process_request = counting
    try:
        yield accepted
    finally:
        del server.process_request


def test_tester_keeps_one_connection(tmp_path):
    steps = (
        Step("/professor", "read", {}),
        Step("/professor/courses", "read", {}),
        Step("/professor/courses", "insert", {"name": "x", "credits": "1"}),
        Step("/professor/courses/edit", "read", {}),
        Step("/professor/courses/edit", "update", {"course_id": "1", "name": "y"}),
        Step("/professor/students", "read", {}),
    )
    case = TestCase(id="case-k", view="professor", seed=0, steps=steps)
    cfg = HarnessConfig(duration_s=60.0, arrival_mean_s=0.001, workers=1)
    with MockTarget() as target, _counting_accepts(target) as accepted:
        paths = run_evaluation(target.base_url, [case], default_profiles(), cfg, tmp_path, 0)
    records, _ = parse_log_file(paths[0])
    assert [(r.action, r.outcome) for r in records if r.action not in ("begin", "end")] == [
        ("login", "ok")] + [(step.action, "ok") for step in steps]
    # one for the probe, one for the tester's login and its six steps
    assert len(accepted) == 2


def test_connection_closed_while_idle_is_replaced(monkeypatch):
    monkeypatch.setattr(mock._Handler, "timeout", 0.2)
    posts = []
    do_post = mock._Handler.do_POST

    def counting_post(handler):
        posts.append(handler.path)
        do_post(handler)

    monkeypatch.setattr(mock._Handler, "do_POST", counting_post)
    with MockTarget() as target, _counting_accepts(target) as accepted, Session() as session:
        login(session, target.base_url, "professor", AUTH["professor"], 5)
        time.sleep(0.6)  # the mock hangs up on the idle connection
        assert session.fetch(target.base_url + "/professor", timeout=5).status == 200
        time.sleep(0.6)
        page = session.fetch(target.base_url + "/professor/courses",
                             {"op": "insert", "name": "Once", "credits": "1"}, timeout=5)
        assert page.status == 200 and "added course" in page.text
        catalog = session.fetch(target.base_url + "/courses", timeout=5).text
    assert posts == ["/login", "/professor/courses"]
    assert catalog.count("Once") == 1
    assert len(accepted) == 3


class _Redirects(BaseHTTPRequestHandler):
    """GET /loop/<n> redirects to /loop/<n + 1> forever; POST /see-other
    answers 303, POST /temporary answers 307, both to /landing."""

    protocol_version = "HTTP/1.1"
    seen: list  # (method, path, request body)

    def log_message(self, *a):
        pass

    def _answer(self, status, location=None, body=b""):
        self.send_response(status)
        if location:
            self.send_header("Location", location)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        self.seen.append(("GET", self.path, self.headers.get("Content-Length")))
        if self.path.startswith("/loop/"):
            self._answer(302, f"/loop/{int(self.path.rsplit('/', 1)[1]) + 1}")
        else:
            self._answer(200, body=b"landed")

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.seen.append(("POST", self.path, body))
        self._answer(303 if self.path == "/see-other" else 307, "/landing")


@pytest.fixture
def redirects(serving):
    """Yields (base URL, requests seen) for a _Redirects server."""
    seen = []
    with serving(type("Handler", (_Redirects,), {"seen": seen})) as url:
        yield url, seen


def test_post_redirected_by_303_lands_with_a_get(redirects):
    url, seen = redirects
    with Session() as session:
        page = session.fetch(url + "/see-other", {"a": "1"}, timeout=5)
    assert (page.status, page.text) == (200, "landed")
    assert seen == [("POST", "/see-other", b"a=1"), ("GET", "/landing", None)]


def test_post_answered_307_is_not_resent(redirects):
    url, seen = redirects
    with Session() as session:
        page = session.fetch(url + "/temporary", {"a": "1"}, timeout=5)
    assert (page.status, page.location) == (307, "/landing")
    assert seen == [("POST", "/temporary", b"a=1")]


def test_redirect_loop_stops_after_max_hops(redirects):
    url, seen = redirects
    with Session() as session:
        page = session.fetch(url + "/loop/0", timeout=5)
    assert MAX_REDIRECTS == 10
    assert (page.status, page.location) == (302, "/loop/11")
    assert [path for _, path, _ in seen] == [f"/loop/{i}" for i in range(11)]


def test_unfollowed_redirect_keeps_its_location(redirects):
    url, seen = redirects
    with Session() as session:
        page = session.fetch(url + "/loop/0", timeout=5, follow=False)
    assert (page.status, page.location) == (302, "/loop/1")
    assert len(seen) == 1


def test_kept_alive_requests_do_not_stall():
    # with Nagle's algorithm on in the mock, each answer's body waits for
    # the client's delayed ACK (about 40 ms): 100 requests would take 4 s
    with MockTarget() as target, Session() as session:
        started = time.monotonic()
        for _ in range(100):
            assert session.fetch(target.base_url + "/about", timeout=5).status == 200
        elapsed = time.monotonic() - started
    assert elapsed < 2.0


class _OddCharset(BaseHTTPRequestHandler):
    """Answers every GET with a page whose Content-Type names charset."""

    protocol_version = "HTTP/1.1"
    charset: str

    def log_message(self, *a):
        pass

    def do_GET(self):
        body = f"<html><body>\n<!-- page:{self.path} -->\n</body></html>\n".encode()
        self.send_response(200)
        self.send_header("Content-Type", f"text/html; charset={self.charset}")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.mark.parametrize("charset", ["bogus-8", "utf\x00-8"])
def test_unknown_charset_is_read_as_utf8(charset, serving, tmp_path):
    handler = type("Handler", (_OddCharset,), {"charset": charset})
    case = TestCase(id="case-c", view="public", seed=0, steps=(Step("/odd", "read", {}),))
    cfg = HarnessConfig(duration_s=60.0, arrival_mean_s=0.001, workers=1)
    with serving(handler) as url:
        with Session() as session:
            page = session.fetch(url + "/odd", timeout=5)
        paths = run_evaluation(url, [case], default_profiles(), cfg, tmp_path, 0)
    assert page.status == 200 and "page:/odd" in page.text
    records, _ = parse_log_file(paths[0])
    assert [(r.action, r.outcome) for r in records if r.action == "read"] == [("read", "ok")]


class _Wire(socketserver.StreamRequestHandler):
    """Records each request's head and body as the bytes that arrived, and
    answers every path with "ok", plus the status and header lines that
    answers gives it (200 and none by default)."""

    answers: dict  # path -> (status line tail, header lines)
    seen: list  # bytes of each request

    def handle(self):
        while True:
            head = b""
            while not head.endswith(b"\r\n\r\n"):
                line = self.rfile.readline()
                if not line:
                    return
                head += line
            length = re.search(rb"\r\nContent-Length: (\d+)\r\n", head)
            self.seen.append(head + (self.rfile.read(int(length[1])) if length else b""))
            status, lines = self.answers.get(head.split(b" ")[1].decode(), (b"200 OK", b""))
            self.wfile.write(b"HTTP/1.1 " + status + b"\r\n" + lines
                             + b"Content-Type: text/html; charset=utf-8\r\n"
                             + b"Content-Length: 2\r\n\r\nok")


def _wire(answers: dict) -> tuple[type, list]:
    """A _Wire handler for serving, and the list it records requests in."""
    seen = []
    return type("Handler", (_Wire,), {"answers": answers, "seen": seen}), seen


def _head(method: str, url: str, *lines: str) -> bytes:
    """A request head as urllib's headers put it on the wire through http.client."""
    parts = urlparse(url)
    return "".join([f"{method} {parts.path or '/'}{'?' + parts.query if parts.query else ''} "
                    f"HTTP/1.1\r\nHost: {parts.netloc}\r\nAccept-Encoding: identity\r\n",
                    *(line + "\r\n" for line in lines), "\r\n"]).encode()


def test_request_bytes_on_the_wire(serving):
    answers = {
        "/login": (b"302 Found", b"Location: /a/home\r\nSet-Cookie: session=tok; Path=/\r\n"
                                 b"Set-Cookie: scoped=1; Path=/a\r\n"),
        "/a/drop": (b"200 OK", b"Set-Cookie: scoped=; Max-Age=0; Path=/a\r\n"),
    }
    agent = f"User-agent: webrely/{__version__}"
    form_type = "Content-type: application/x-www-form-urlencoded"
    both, session_only = "Cookie: scoped=1; session=tok", "Cookie: session=tok"
    handler, seen = _wire(answers)
    with serving(handler) as url, Session() as session:
        assert session.fetch(url + "/", timeout=5).text == "ok"
        assert login(session, url, "professor", AUTH["professor"], 5) == "/a/home"
        for path in ("/a/page", "/a/page?x=1", "/b", "/a/drop", "/a/page"):
            assert session.fetch(url + path, timeout=5).status == 200
        session.fetch(url + "/a/form", {"op": "insert", "name": "x y"}, timeout=5)
    login_body = b"view=professor&username=prof&password=prof123"
    assert seen == [
        _head("GET", url + "/", agent),
        _head("POST", url + "/login", f"Content-Length: {len(login_body)}", agent, form_type)
        + login_body,
        _head("GET", url + "/a/page", both, agent),
        _head("GET", url + "/a/page?x=1", both, agent),
        _head("GET", url + "/b", session_only, agent),
        _head("GET", url + "/a/drop", both, agent),
        _head("GET", url + "/a/page", session_only, agent),
        _head("POST", url + "/a/form", "Content-Length: 18", session_only, agent, form_type)
        + b"op=insert&name=x+y",
    ]


def test_cookie_expires_when_the_jar_says(serving, monkeypatch):
    now = [1_700_000_000.5]
    monkeypatch.setattr(time, "time", lambda: now[0])
    answers = {"/set": (b"200 OK", b"Set-Cookie: brief=1; Max-Age=60; Path=/\r\n")}
    agent = f"User-agent: webrely/{__version__}"
    handler, seen = _wire(answers)
    # the reference: urllib's own cookie handling over a jar of its own
    jar = CookieJar()
    with serving(handler) as url, Session() as session:
        session.fetch(url + "/set", timeout=5)
        build_opener(ProxyHandler({}), HTTPCookieProcessor(jar)).open(url + "/set").read()
        sent = []
        for elapsed in (0, 59, 59.49, 59.5, 60, 61):
            now[0] = 1_700_000_000.5 + elapsed
            session.fetch(url + "/page", timeout=5)
            request = Request(url + "/page")
            jar.add_cookie_header(request)
            sent.append((elapsed, seen[-1], request.has_header("Cookie")))
    cookie = _head("GET", url + "/page", "Cookie: brief=1", agent)
    bare = _head("GET", url + "/page", agent)
    assert sent == [(0, cookie, True), (59, cookie, True), (59.49, cookie, True),
                    (59.5, bare, False), (60, bare, False), (61, bare, False)]


def test_jar_is_asked_once_per_url(monkeypatch, tmp_path):
    asked, extracted = [], []
    add, extract = CookieJar.add_cookie_header, CookieJar.extract_cookies

    def counting_add(jar, request):
        asked.append(urlparse(request.full_url).path)
        add(jar, request)

    def counting_extract(jar, response, request):
        extracted.append(urlparse(request.full_url).path)
        extract(jar, response, request)

    monkeypatch.setattr(CookieJar, "add_cookie_header", counting_add)
    monkeypatch.setattr(CookieJar, "extract_cookies", counting_extract)
    steps = (
        Step("/professor", "read", {}),
        Step("/professor/courses", "read", {}),
        Step("/professor/courses", "insert", {"name": "x", "credits": "1"}),
        Step("/professor/courses/edit", "read", {}),
        Step("/professor/courses/edit", "update", {"course_id": "1", "name": "y"}),
        Step("/professor", "read", {}),
    )
    case = TestCase(id="case-j", view="professor", seed=0, steps=steps)
    cfg = HarnessConfig(duration_s=60.0, arrival_mean_s=0.001, workers=1)
    with MockTarget() as target:
        paths = run_evaluation(target.base_url, [case], default_profiles(), cfg, tmp_path, 0)
    records, _ = parse_log_file(paths[0])
    assert [r.outcome for r in records] == ["ok"] * (len(steps) + 3)
    # the probe and the login go out with an empty jar; only the login sets a cookie
    assert asked == ["/professor", "/professor/courses", "/professor/courses/edit"]
    assert extracted == ["/login"]
