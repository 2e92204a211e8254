import errno
import http.client
import socket
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.cookies import SimpleCookie
from urllib.parse import urlencode, urlparse

import pytest

from webrely.harness import FAULT_MARKER, MockTarget, SeededFault, default_profiles, mock
from webrely.harness.crawler import Session, crawl_site
from webrely.harness.mock import CREDENTIALS
from webrely.harness.runner import HarnessConfig


def _fetch(url: str, form: dict | None = None):
    """One request through a Session of its own, closed after the answer."""
    with Session() as session:
        return session.fetch(url, form, timeout=5)


def test_public_pages_carry_markers():
    with MockTarget() as target:
        for path in ("/", "/courses", "/courses/view", "/about"):
            r = _fetch(target.base_url + path)
            assert r.status == 200
            assert f"page:{path}" in r.text
            assert FAULT_MARKER not in r.text


def test_view_pages_require_login():
    with MockTarget() as target, Session() as s:
        assert _fetch(target.base_url + "/professor").status == 403
        r = s.fetch(
            target.base_url + "/login",
            {"view": "professor", "username": "prof", "password": "prof123"},
            timeout=5,
        )
        assert r.status == 200  # after redirect
        assert s.fetch(target.base_url + "/professor", timeout=5).status == 200
        # a professor session does not open student pages
        assert s.fetch(target.base_url + "/student", timeout=5).status == 403


def test_bad_credentials_rejected():
    with MockTarget() as target:
        r = _fetch(target.base_url + "/login",
                   {"view": "professor", "username": "prof", "password": "wrong"})
        assert r.status == 403


def test_concurrent_logins_get_distinct_sessions():
    logins = 32
    barrier = threading.Barrier(logins)

    def login(_):
        barrier.wait()
        url = urlparse(target.base_url)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
        try:
            conn.request(
                "POST", "/login",
                urlencode({"view": "student", "username": "stud", "password": "stud123"}),
                {"Content-Type": "application/x-www-form-urlencoded"},
            )
            cookie = conn.getresponse().getheader("Set-Cookie")
        finally:
            conn.close()
        return SimpleCookie(cookie)["session"].value

    with MockTarget() as target, ThreadPoolExecutor(logins) as pool:
        tokens = list(pool.map(login, range(logins)))
    assert len(set(tokens)) == logins


@pytest.mark.parametrize("method, path", [
    ("GET", "/nope"),
    ("GET", "/login"),  # login only takes a POST
    ("POST", "/"),  # the read-only pages take no POST
    ("POST", "/about"),
    ("POST", "/courses/view"),
    ("POST", "/nope"),
])
def test_unknown_path_is_404(method, path):
    form = None if method == "GET" else {}
    with MockTarget() as target:
        assert _fetch(target.base_url + path, form).status == 404


# each form page with a write that would show in the catalog or the grade list
FORM_POSTS = {
    "/professor/courses": ("professor", {"op": "insert", "name": "x", "credits": "1"}),
    "/professor/courses/edit": ("professor", {"op": "delete", "course_id": "1"}),
    "/professor/students": (
        "professor", {"op": "update", "student": "stud", "course_id": "1", "grade": "A"}),
    "/student/courses": ("student", {"op": "insert", "course_id": "2"}),
    "/student/profile": ("student", {"op": "delete", "course_id": "1"}),
}


def _login(target, view: str) -> Session:
    s = Session()
    username, password = CREDENTIALS[view]
    r = s.fetch(target.base_url + "/login",
                {"view": view, "username": username, "password": password}, timeout=5)
    assert r.status == 200
    return s


@pytest.mark.parametrize("path", sorted(FORM_POSTS))
def test_form_post_without_the_view_session_is_403(path):
    view, form = FORM_POSTS[path]
    other_view = "student" if view == "professor" else "professor"
    with MockTarget() as target, _login(target, "professor") as prof, \
            _login(target, other_view) as other:

        def tables():
            return (_fetch(target.base_url + "/courses").text,
                    prof.fetch(target.base_url + "/professor/students", timeout=5).text)

        before = tables()
        assert _fetch(target.base_url + path, form).status == 403
        assert other.fetch(target.base_url + path, form, timeout=5).status == 403
        assert tables() == before


def test_unknown_op_changes_nothing():
    with MockTarget() as target, _login(target, "professor") as s:
        r = s.fetch(target.base_url + "/professor/courses/edit",
                    {"op": "bogus", "course_id": "1"}, timeout=5)
        assert r.status == 200
        assert "page:/professor/courses/edit" in r.text and "<p>no change</p>" in r.text


def test_crud_roundtrip():
    with MockTarget() as target, Session() as s:
        s.fetch(target.base_url + "/login",
                {"view": "professor", "username": "prof", "password": "prof123"}, timeout=5)
        r = s.fetch(target.base_url + "/professor/courses",
                    {"op": "insert", "name": "Queueing Theory", "credits": "4"}, timeout=5)
        assert r.status == 200 and "added course" in r.text
        r = s.fetch(target.base_url + "/professor/courses/edit",
                    {"op": "update", "course_id": "1", "name": "Systems"}, timeout=5)
        assert "updated course 1" in r.text
        r = s.fetch(target.base_url + "/professor/courses/edit",
                    {"op": "delete", "course_id": "1"}, timeout=5)
        assert "deleted" in r.text
        # deleting again is tolerated, the page stays healthy
        r = s.fetch(target.base_url + "/professor/courses/edit",
                    {"op": "delete", "course_id": "1"}, timeout=5)
        assert r.status == 200 and "page:/professor/courses/edit" in r.text


def test_course_table_stays_bounded():
    with MockTarget() as target, Session() as s:
        s.fetch(target.base_url + "/login",
                {"view": "professor", "username": "prof", "password": "prof123"}, timeout=5)
        for _ in range(200):
            r = s.fetch(target.base_url + "/professor/courses",
                        {"op": "insert", "name": "Extra", "credits": "3"}, timeout=5)
            assert r.status == 200 and "page:/professor/courses" in r.text
        catalog = s.fetch(target.base_url + "/courses", timeout=5).text
        assert catalog.count("<li>") == 9
        r = s.fetch(target.base_url + "/professor/courses/edit",
                    {"op": "delete", "course_id": "7"}, timeout=5)
        assert "<p>deleted</p>" in r.text
        catalog = s.fetch(target.base_url + "/courses", timeout=5).text
        assert catalog.count("<li>") == 8 and "?id=7" not in catalog
        r = s.fetch(target.base_url + "/professor/courses",
                    {"op": "insert", "name": "Refill", "credits": "3"}, timeout=5)
        assert "added course 7" in r.text


def test_garbage_form_data_tolerated():
    with MockTarget() as target, Session() as s:
        s.fetch(target.base_url + "/login",
                {"view": "student", "username": "stud", "password": "stud123"}, timeout=5)
        r = s.fetch(target.base_url + "/student/courses",
                    {"op": "insert", "course_id": "vnot-a-number"}, timeout=5)
        assert r.status == 200
        assert "page:/student/courses" in r.text


def test_fault_behaviors():
    faults = [
        SeededFault("/about", "read", "http-500"),
        SeededFault("/courses", "read", "error-marker"),
        SeededFault("/", "read", "missing-marker"),
    ]
    with MockTarget(faults) as target:
        assert _fetch(target.base_url + "/about").status == 500
        r = _fetch(target.base_url + "/courses")
        assert r.status == 200 and FAULT_MARKER in r.text
        r = _fetch(target.base_url + "/")
        assert r.status == 200 and "page:/" not in r.text


def test_fault_scoped_to_action():
    # a fault seeded on insert leaves plain reads of the same node healthy
    faults = [SeededFault("/professor/courses", "insert", "http-500")]
    with MockTarget(faults) as target, Session() as s:
        s.fetch(target.base_url + "/login",
                {"view": "professor", "username": "prof", "password": "prof123"}, timeout=5)
        assert s.fetch(target.base_url + "/professor/courses", timeout=5).status == 200
        r = s.fetch(target.base_url + "/professor/courses",
                    {"op": "insert", "name": "x", "credits": "1"}, timeout=5)
        assert r.status == 500


def test_invalid_fault_behavior_rejected():
    with pytest.raises(ValueError):
        MockTarget([SeededFault("/", "read", "explode")])


def test_invalid_fault_action_rejected():
    # a fault on an action no test step takes would never fire
    with pytest.raises(ValueError, match="raed"):
        SeededFault("/", "raed", "http-500")


def test_listen_backlog_absorbs_connection_burst():
    # bound and listening but not accepting yet: every connection of the
    # burst must wait in the kernel's accept queue, independent of timing
    target = MockTarget()
    url = urlparse(target.base_url)
    socks = []
    try:
        for _ in range(64):
            # a connection the backlog cannot hold times out here
            sock = socket.create_connection((url.hostname, url.port), timeout=0.5)
            socks.append(sock)
            sock.sendall(b"GET /about HTTP/1.0\r\n\r\n")
        target.start()
        for sock in socks:
            sock.settimeout(5)
            with sock.makefile("rb") as response:
                status_line = response.readline()
            assert status_line.split()[1] == b"200"
    finally:
        target.stop()
        for sock in socks:
            sock.close()


@pytest.mark.parametrize("length", ["abc", "-1"])
def test_bad_content_length_is_400(length):
    # a POST whose Content-Length is not a count of bytes gets an answer,
    # not a dropped connection or a read that waits for the client to close;
    # then the mock hangs up, since it cannot tell where the body ends and
    # would read it as the next request
    with MockTarget() as target:
        url = urlparse(target.base_url)
        timeout = HarnessConfig().request_timeout_s
        with socket.create_connection((url.hostname, url.port), timeout=timeout) as sock:
            sock.sendall(f"POST /login HTTP/1.1\r\nHost: mock\r\nContent-Length: {length}"
                         "\r\n\r\nview=professor".encode())
            with sock.makefile("rb") as response:
                status_line = response.readline()
                # well before the mock's own 10 s read timeout would hang up
                sock.settimeout(3.0)
                rest = response.read()  # to EOF
    assert status_line.split()[1] == b"400"
    assert b"HTTP/1." not in rest  # one answer, then EOF


@pytest.mark.parametrize("head", [
    "GET /about HTTP/1.1\r\nContent-Length: 34",
    "POST /login HTTP/1.1\r\nTransfer-Encoding: chunked",
])
def test_unread_body_ends_the_connection(head):
    # a body the mock does not read must not be taken for the next request
    body = "GET /nope HTTP/1.1\r\nHost: mock\r\n\r\n"
    with MockTarget() as target:
        url = urlparse(target.base_url)
        with socket.create_connection((url.hostname, url.port), timeout=3.0) as sock:
            sock.sendall(f"{head}\r\nHost: mock\r\n\r\n{body}".encode())
            with sock.makefile("rb") as response:
                answers = response.read().count(b"HTTP/1.1 ")  # to EOF
    assert answers == 1


def test_short_body_is_dropped_after_read_timeout(monkeypatch, capsys):
    # a body shorter than its Content-Length must not hold a server thread
    # until the client gives up: the handler's read timeout hangs up on it,
    # no later than the harness's own default request timeout
    assert 0.0 < mock._Handler.timeout <= HarnessConfig().request_timeout_s
    monkeypatch.setattr(mock._Handler, "timeout", 0.2)
    with MockTarget() as target:
        url = urlparse(target.base_url)
        with socket.create_connection((url.hostname, url.port), timeout=5.0) as sock:
            sock.sendall(b"POST /login HTTP/1.0\r\nContent-Length: 100\r\n\r\nview=p")
            started = time.monotonic()
            assert sock.recv(1024) == b""  # closed with no answer, well before 5 s
            assert time.monotonic() - started < 4.0
    assert "Traceback" not in capsys.readouterr().err


def test_stop_is_prompt_with_an_idle_client():
    # stop() waits for serve_forever's next poll, and server_close joins
    # every handler thread, so an idle kept-alive client would hold stop()
    # for the handler's 10 s read timeout unless stop() hangs up on it
    auth = {view: profile.credentials for view, profile in default_profiles().items()}
    took = []
    for _ in range(5):
        target = MockTarget().start()
        with Session() as session:
            try:
                crawl_site(target.base_url, auth)
                assert session.fetch(target.base_url + "/courses", timeout=5).status == 200
            finally:
                started = time.monotonic()
                target.stop()
                took.append(time.monotonic() - started)
            (connection,) = session._connections.values()
            connection.sock.settimeout(1.0)
            assert connection.sock.recv(1) == b""  # hung up on
    assert statistics.median(took) < 0.25  # half of socketserver's default poll


def test_busy_port_raises_address_in_use():
    # the bind error itself, not one raised while cleaning up after it
    with socket.socket() as busy:
        busy.bind(("127.0.0.1", 0))
        busy.listen()
        with pytest.raises(OSError) as info:
            MockTarget(port=busy.getsockname()[1])
    assert info.value.errno == errno.EADDRINUSE
