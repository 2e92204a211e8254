"""Bundled mock web target for hermetic harness runs.

Serves a miniature course-registration site with three views (public,
professor, student), cookie login, CRUD forms over in-memory tables, and a
declarative fault table mapping (path, action) pairs to failure behaviors.
Every healthy page carries a "page:<path>" marker comment that testers
check for; seeded faults break the response in one of three ways:

    http-500        respond with status 500
    error-marker    respond 200 but embed the fault marker string
    missing-marker  respond 200 without the page marker

Each page is one row of the _PAGES table: the view its session must hold
(None for public pages), its title, its body, its write ops (op -> a
mutation that returns the note shown above the forms) and the note for a
POSTed op the page lacks.  GET and POST take one request path, _serve:
POST /login logs in; an unknown path, or a POST to a page without write
ops, is 404; a missing or wrong session is 403; the op's mutation and the
body run under the state lock; the fault on (path, op) picks the rendering.

CRUD handlers are tolerant (updating or deleting a missing row, or
inserting into a full course table, renders a normal page), so outcomes
depend only on the fault table and never on request interleaving.  The
listen backlog (1024) is far above the harness's burst of at most one
connection per worker (100 by default), so testers that start together
are queued by the kernel, never refused.  The mock speaks HTTP/1.1 and
keeps each connection open until its client hangs up; stop() hangs up on
every open connection.

http.server accepts each connection, reads each request line and
dispatches it.  The handler parses an HTTP/1.0 or 1.1 request line and its
header block itself, and leaves every other line to http.server's own
parse_request, with its checks and error answers.  It writes each answer
in one piece, with the bytes send_response would write.  Error answers
(send_error) stay the stdlib's, and go out in two writes.
tests/test_mock_framing.py checks the bytes against http.server's own path.
"""

from __future__ import annotations

import socket
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from email.utils import formatdate
from functools import lru_cache
from http import HTTPStatus
from http.client import HTTPException, LineTooLong
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from ..stats.serialize import read_json
from .crawler import LOGIN_PATH
from .http import header_fields
from .model import ACTIONS

FAULT_MARKER = "##FAULT-MARKER##"
FAULT_BEHAVIORS = ("http-500", "error-marker", "missing-marker")
_FAULT_KEYS = {"path", "action", "behavior"}

CREDENTIALS = {
    "professor": ("prof", "prof123"),
    "student": ("stud", "stud123"),
}

VIEW_HOMES = {"professor": "/professor", "student": "/student"}

# the ids an insert fills; generated test cases draw theirs from here too, so
# their deletes reach every inserted row
COURSE_IDS = range(1, 10)

# seconds between serve_forever's checks for a shutdown request, so about
# the longest stop() waits; socketserver's default, 0.5 s, would add half
# a second to every stop
_POLL_INTERVAL = 0.02


@dataclass(frozen=True)
class SeededFault:
    path: str
    action: str  # one of ACTIONS
    behavior: str  # one of FAULT_BEHAVIORS

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.behavior not in FAULT_BEHAVIORS:
            raise ValueError(f"unknown fault behavior {self.behavior!r}")


def load_fault_table(path: str | Path) -> list[SeededFault]:
    """Fault file: JSON list of {"path", "action", "behavior"} objects; any
    other shape, action or behavior raises ValueError before a target serves."""
    doc = read_json(path)
    if not (isinstance(doc, list)
            and all(isinstance(f, dict) and _FAULT_KEYS <= f.keys() for f in doc)):
        raise ValueError(f"{path}: expected a JSON list of {{path, action, behavior}} objects")
    return [SeededFault(f["path"], f["action"], f["behavior"]) for f in doc]


def _to_int(value: str | None) -> int:
    """Forms arrive with arbitrary test data; junk ids behave like id 0."""
    try:
        return int(value or 0)
    except ValueError:
        return 0


def _page(path: str, title: str, body: str) -> str:
    return (
        f"<html><head><title>{title}</title></head>\n"
        f"<body>\n<!-- page:{path} -->\n<h1>{title}</h1>\n{body}\n</body></html>\n"
    )


_FORBIDDEN = "<html><body><h1>Forbidden</h1></body></html>\n"


class _State:
    def __init__(self):
        self.lock = threading.Lock()
        self.courses = {1: {"name": "Distributed Systems", "credits": "8"},
                        2: {"name": "Compilers", "credits": "6"}}
        self.registrations = {("stud", 1): {"grade": ""}}
        self.profiles = {"stud": {"email": "stud@example.edu"}}
        self.sessions: dict[str, str] = {}


def _add_course(state: _State, form: dict) -> str:
    free = [i for i in COURSE_IDS if i not in state.courses]
    if not free:
        return ""
    state.courses[free[0]] = {"name": form.get("name", f"course-{free[0]}"),
                              "credits": form.get("credits", "0")}
    return f"<p>added course {free[0]}</p>"


def _rename_course(state: _State, form: dict) -> str:
    cid = _to_int(form.get("course_id"))
    if cid not in state.courses:
        return "<p>no change</p>"
    state.courses[cid]["name"] = form.get("name", state.courses[cid]["name"])
    return f"<p>updated course {cid}</p>"


def _delete_course(state: _State, form: dict) -> str:
    removed = state.courses.pop(_to_int(form.get("course_id")), None)
    return "<p>deleted</p>" if removed else "<p>nothing deleted</p>"


def _grade(state: _State, form: dict) -> str:
    key = (form.get("student", ""), _to_int(form.get("course_id")))
    if key not in state.registrations:
        return "<p>no such registration</p>"
    state.registrations[key]["grade"] = form.get("grade", "")
    return "<p>grade recorded</p>"


def _register(state: _State, form: dict) -> str:
    cid = _to_int(form.get("course_id"))
    state.registrations[("stud", cid)] = {"grade": ""}
    return f"<p>registered for {cid}</p>"


def _update_profile(state: _State, form: dict) -> str:
    state.profiles["stud"]["email"] = form.get("email", "")
    return "<p>profile updated</p>"


def _drop(state: _State, form: dict) -> str:
    removed = state.registrations.pop(("stud", _to_int(form.get("course_id"))), None)
    return "<p>dropped</p>" if removed else "<p>nothing dropped</p>"


def _catalog(state: _State, note: str, query: str) -> str:
    rows = "".join(f'<li><a href="/courses/view?id={cid}">{c["name"]}</a></li>'
                   for cid, c in sorted(state.courses.items()))
    return f"<ul>{rows}</ul>"


def _course_detail(state: _State, note: str, query: str) -> str:
    course = state.courses.get(_to_int(parse_qs(query).get("id", ["0"])[0]))
    detail = f'{course["name"]} ({course["credits"]} credits)' if course else "no course selected"
    return f'<p>{detail}</p>\n<a href="/courses">Back to catalog</a>'


def _course_names(state: _State) -> str:
    return "".join(f"<li>{c['name']}</li>" for c in state.courses.values())


def _grades(state: _State) -> str:
    return "".join(f"<li>{s} in {cid}: {r['grade'] or 'ungraded'}</li>"
                   for (s, cid), r in sorted(state.registrations.items()))


def _form_page(path: str, listing: Callable[[_State], str] | None,
               forms: list[tuple[str, tuple[str, ...], str]],
               link: str) -> Callable[[_State, str, str], str]:
    """Body of a page with forms: the listing, the note, each (op, fields,
    button) form posting back to path, then the link."""
    html = [f'<form method="post" action="{path}"><input type="hidden" name="op" value="{op}">'
            + "".join(f'<input name="{name}">' for name in fields)
            + f"<button>{button}</button></form>" for op, fields, button in forms]

    def body(state: _State, note: str, query: str) -> str:
        head = f"<ul>{listing(state)}</ul>" if listing else ""
        return "\n".join([head + note, *html, link])
    return body


@dataclass(frozen=True)
class _Page:
    view: str | None  # the session view the page requires; None for public pages
    title: str
    body: str | Callable[[_State, str, str], str]  # body(state, note, query string)
    # op -> mutation(state, form), run under the state lock; returns the note
    ops: dict[str, Callable[[_State, dict], str]] = field(default_factory=dict)
    no_op_note: str = ""  # the note for a POSTed op the page lacks


_PAGES = {
    "/": _Page(None, "University Course Portal",
               '<a href="/courses">Courses</a> <a href="/about">About</a>'),
    "/courses": _Page(None, "Course Catalog", _catalog),
    "/courses/view": _Page(None, "Course Detail", _course_detail),
    "/about": _Page(None, "About", '<a href="/">Home</a>'),
    "/professor": _Page("professor", "Professor Desk",
                        '<a href="/professor/courses">My courses</a> '
                        '<a href="/professor/students">Students</a>'),
    "/professor/courses": _Page(
        "professor", "Course Management",
        _form_page("/professor/courses", _course_names, [("insert", ("name", "credits"), "Add")],
                   '<a href="/professor/courses/edit">Edit courses</a>'),
        {"insert": _add_course}),
    "/professor/courses/edit": _Page(
        "professor", "Edit Courses",
        _form_page("/professor/courses/edit", None,
                   [("update", ("course_id", "name"), "Update"),
                    ("delete", ("course_id",), "Delete")],
                   '<a href="/professor/courses">Back</a>'),
        {"update": _rename_course, "delete": _delete_course}, "<p>no change</p>"),
    "/professor/students": _Page(
        "professor", "Student Registrations",
        _form_page("/professor/students", _grades,
                   [("update", ("student", "course_id", "grade"), "Grade")],
                   '<a href="/professor">Desk</a>'),
        {"update": _grade}),
    "/student": _Page("student", "Student Desk",
                      '<a href="/student/courses">Register</a> '
                      '<a href="/student/profile">Profile</a>'),
    "/student/courses": _Page(
        "student", "Course Registration",
        _form_page("/student/courses", _course_names, [("insert", ("course_id",), "Register")],
                   '<a href="/student">Desk</a>'),
        {"insert": _register}),
    "/student/profile": _Page(
        "student", "Student Profile",
        _form_page("/student/profile", None,
                   [("update", ("email",), "Update"), ("delete", ("course_id",), "Drop")],
                   '<a href="/student">Desk</a>'),
        {"update": _update_profile, "delete": _drop}),
}


@lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The Date value of an answer sent in this whole second, as
    date_time_string formats it."""
    return formatdate(second, usegmt=True)


class _Handler(BaseHTTPRequestHandler):
    server_version = "MockTarget/0.1"
    # keep-alive, as browsers use it; every answer carries a Content-Length
    protocol_version = "HTTP/1.1"
    # an answer goes out in one write, but send_error writes an error
    # answer's head and body apart, and a 100 Continue goes before its
    # answer; with Nagle's algorithm the second write waits for the
    # client's delayed ACK (about 40 ms)
    disable_nagle_algorithm = True
    # seconds a connection may sit silent, for example mid-way through a
    # body shorter than its Content-Length; then the server hangs up
    timeout = 10.0

    def log_message(self, fmt, *args):  # silence request logging
        pass

    def parse_request(self) -> bool:
        """Parse an HTTP/1.0 or 1.1 request line of three words whose target
        does not start with "//", as Session and http.client send it, and
        read its header block with http.header_fields: self.headers maps
        each lowercase field name to its first value.  Any other request
        line (HTTP/0.9, another version, a wrong word count, a "//" target)
        goes to BaseHTTPRequestHandler.parse_request, which makes its own
        checks and error answers; self.headers is then its HTTPMessage,
        which the handler reads by lowercase name too, as it ignores case."""
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if (len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1")
                or words[1].startswith("//")):
            return super().parse_request()
        self.command, self.path, self.request_version = words
        self.close_connection = self.request_version == "HTTP/1.0"
        try:
            fields = header_fields(self.rfile)
        except LineTooLong as err:
            self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Line too long", str(err))
            return False
        except HTTPException as err:
            self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Too many headers",
                            str(err))
            return False
        self.headers = {name: values[0] for name, values in fields.items()}
        connection = self.headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (self.headers.get("expect", "").lower() == "100-continue"
                and self.request_version == "HTTP/1.1"):
            return self.handle_expect_100()
        return True

    def _send(self, status: int, html: str, headers: dict | None = None):
        """Write the answer in one piece, as the bytes send_response,
        send_header and end_headers would write: the status line, Server,
        Date, Content-Type, Content-Length, then headers, and the body.  An
        answer to an HTTP/0.9 request is its body alone."""
        payload = html.encode("utf-8")
        headers = headers or {}
        if headers.get("Connection") == "close":
            self.close_connection = True  # as send_header sets it
        if self.request_version == "HTTP/0.9":
            self.wfile.write(payload)
            return
        head = "%s %d %s\r\nServer: %s\r\nDate: %s\r\n" \
               "Content-Type: text/html; charset=utf-8\r\nContent-Length: %d\r\n%s\r\n" % (
                   self.protocol_version, status, self.responses[status][0],
                   self.version_string(), _http_date(int(time.time())), len(payload),
                   "".join(f"{name}: {value}\r\n" for name, value in headers.items()))
        self.wfile.write(head.encode("latin-1") + payload)

    def _session_view(self, state: _State) -> str | None:
        cookie = self.headers.get("cookie", "")
        for part in cookie.split(";"):
            name, _, value = part.strip().partition("=")
            if name == "session":
                return state.sessions.get(value)
        return None

    # The handler reads a body only as the Content-Length bytes of a POST.
    # Bytes of any other body would be read as the next request, so the
    # connection ends after the answer instead.

    def do_GET(self):
        if "content-length" in self.headers or "transfer-encoding" in self.headers:
            self.close_connection = True
        self._serve(None)

    def do_POST(self):
        if "transfer-encoding" in self.headers:
            self.close_connection = True
        length = self.headers.get("content-length", "0").strip()
        if not (length.isascii() and length.isdigit()):  # junk or negative
            # the body cannot be skipped, so it would be read as the next
            # request: hang up after the answer (the header sets close_connection)
            self._send(400, "<html><body><h1>Bad Request</h1></body></html>\n",
                       {"Connection": "close"})
            return
        # bytes that are not UTF-8 become U+FFFD, as parse_qs decodes escapes
        raw = self.rfile.read(int(length)).decode("utf-8", "replace")
        self._serve({k: v[0] for k, v in parse_qs(raw).items()})

    def _serve(self, form: dict | None):
        """Answer a GET (form None) or a POST of form."""
        url = urlparse(self.path)
        state: _State = self.server.state  # type: ignore[attr-defined]
        if form is not None and url.path == LOGIN_PATH:
            self._login(state, form)
            return
        page = _PAGES.get(url.path)
        if page is None or (form is not None and not page.ops):
            self._send(404, "<html><body><h1>Not Found</h1></body></html>\n")
            return
        if page.view is not None and self._session_view(state) != page.view:
            self._send(403, _FORBIDDEN)
            return
        op = "read" if form is None else form.get("op", "read")
        with state.lock:
            if form is None:
                note = ""
            else:
                mutate = page.ops.get(op)
                note = mutate(state, form) if mutate else page.no_op_note
            body = page.body(state, note, url.query) if callable(page.body) else page.body
        behavior = self.server.faults.get((url.path, op))  # type: ignore[attr-defined]
        if behavior == "http-500":
            self._send(500, "<html><body><h1>Internal Server Error</h1></body></html>\n")
        elif behavior == "error-marker":
            self._send(200, _page(url.path, page.title, body + f"\n<p>{FAULT_MARKER}</p>"))
        elif behavior == "missing-marker":
            self._send(200, f"<html><body><h1>{page.title}</h1>\n{body}\n</body></html>\n")
        else:
            self._send(200, _page(url.path, page.title, body))

    def _login(self, state: _State, form: dict):
        view = form.get("view", "")
        expected = CREDENTIALS.get(view)
        if not expected or (form.get("username"), form.get("password")) != expected:
            self._send(403, _FORBIDDEN)
            return
        with state.lock:
            token = f"{view}-{len(state.sessions)}"
            state.sessions[token] = view
        self._send(302, "", {"Location": VIEW_HOMES[view],
                             "Set-Cookie": f"session={token}; Path=/"})


class _QuietServer(ThreadingHTTPServer):
    # socketserver's default backlog of 5 drops connections when dozens of
    # testers start at once; the kernel caps this at net.core.somaxconn
    request_queue_size = 1024

    def __init__(self, *args):
        # set before binding: a failed bind calls server_close, which uses both
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()
        super().__init__(*args)

    def process_request(self, request, client_address):
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self):
        # an idle kept-alive connection holds its handler thread, which
        # server_close joins, until the client hangs up or the read timeout
        # passes; a stopped target hangs up on every client at once
        with self._open_lock:
            for request in self._open:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # already reset by the client
        super().server_close()

    def handle_error(self, request, client_address):
        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionResetError, TimeoutError)):
            return  # client hung up or went silent; routine under concurrency
        super().handle_error(request, client_address)


class MockTarget:
    """In-process HTTP fixture; start on port 0 for an ephemeral port."""

    def __init__(self, faults: list[SeededFault] | None = None,
                 host: str = "127.0.0.1", port: int = 0):
        table = {(f.path, f.action): f.behavior for f in faults or ()}
        self._server = _QuietServer((host, port), _Handler)
        self._server.faults = table  # type: ignore[attr-defined]
        self._server.state = _State()  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def fault_table(self) -> dict[tuple[str, str], str]:
        return dict(self._server.faults)  # type: ignore[attr-defined]

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "MockTarget":
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        args=(_POLL_INTERVAL,), daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._server.shutdown()  # blocks forever unless serve_forever runs
            self._thread.join(timeout=5)
        self._server.server_close()

    def __enter__(self) -> "MockTarget":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
