"""Bundled mock web target for hermetic harness runs.

Serves a miniature course-registration site with three views (public,
professor, student), cookie login, CRUD forms over in-memory tables, and a
declarative fault table mapping (path, action) pairs to failure behaviors.
Every healthy page carries a "page:<path>" marker comment that testers
check for; seeded faults break the response in one of three ways:

    http-500        respond with status 500
    error-marker    respond 200 but embed the fault marker string
    missing-marker  respond 200 without the page marker

CRUD handlers are tolerant (updating or deleting a missing row, or
inserting into a full course table, renders a normal page), so outcomes
depend only on the fault table and never on request interleaving.  The
listen backlog (1024) is far above the harness's burst of at most one
connection per worker (100 by default), so testers that start together
are queued by the kernel, never refused.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from ..stats.serialize import read_json

FAULT_MARKER = "##FAULT-MARKER##"
FAULT_BEHAVIORS = ("http-500", "error-marker", "missing-marker")

CREDENTIALS = {
    "professor": ("prof", "prof123"),
    "student": ("stud", "stud123"),
}

VIEW_HOMES = {"professor": "/professor", "student": "/student"}

# generated test cases draw course ids 1-9, so their deletes reach every inserted row
_COURSE_IDS = range(1, 10)


@dataclass(frozen=True)
class SeededFault:
    path: str
    action: str  # read | insert | update | delete
    behavior: str  # one of FAULT_BEHAVIORS

    def __post_init__(self):
        if self.behavior not in FAULT_BEHAVIORS:
            raise ValueError(f"unknown fault behavior {self.behavior!r}")


def load_fault_table(path: str | Path) -> list[SeededFault]:
    """Fault file: JSON list of {"path", "action", "behavior"} objects."""
    return [SeededFault(f["path"], f["action"], f["behavior"]) for f in read_json(path)]


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


class _State:
    def __init__(self):
        self.lock = threading.Lock()
        self.courses = {1: {"name": "Distributed Systems", "credits": "8"},
                        2: {"name": "Compilers", "credits": "6"}}
        self.registrations = {("stud", 1): {"grade": ""}}
        self.profiles = {"stud": {"email": "stud@example.edu"}}
        self.sessions: dict[str, str] = {}


class _Handler(BaseHTTPRequestHandler):
    server_version = "MockTarget/0.1"

    # --- plumbing -------------------------------------------------------

    def log_message(self, fmt, *args):  # silence request logging
        pass

    @property
    def faults(self) -> dict[tuple[str, str], str]:
        return self.server.faults  # type: ignore[attr-defined]

    @property
    def state(self) -> _State:
        return self.server.state  # type: ignore[attr-defined]

    def _send(self, status: int, html: str, headers: dict | None = None):
        payload = html.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(payload)))
        for k, v in (headers or {}).items():
            self.send_header(k, v)
        self.end_headers()
        self.wfile.write(payload)

    def _render(self, path: str, action: str, title: str, body: str):
        behavior = self.faults.get((path, action))
        if behavior == "http-500":
            self._send(500, "<html><body><h1>Internal Server Error</h1></body></html>\n")
        elif behavior == "error-marker":
            self._send(200, _page(path, title, body + f"\n<p>{FAULT_MARKER}</p>"))
        elif behavior == "missing-marker":
            self._send(200, f"<html><body><h1>{title}</h1>\n{body}\n</body></html>\n")
        else:
            self._send(200, _page(path, title, body))

    def _session_view(self) -> str | None:
        cookie = self.headers.get("Cookie", "")
        for part in cookie.split(";"):
            name, _, value = part.strip().partition("=")
            if name == "session":
                return self.state.sessions.get(value)
        return None

    def _deny(self):
        self._send(403, "<html><body><h1>Forbidden</h1></body></html>\n")

    # --- request entry points -------------------------------------------

    def do_GET(self):
        path = urlparse(self.path).path
        handler = _GET_ROUTES.get(path)
        if handler is None:
            self._send(404, "<html><body><h1>Not Found</h1></body></html>\n")
            return
        handler(self)

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length).decode("utf-8")
        form = {k: v[0] for k, v in parse_qs(raw).items()}
        path = urlparse(self.path).path
        if path == "/login":
            self._login(form)
            return
        handler = _POST_ROUTES.get(path)
        if handler is None:
            self._send(404, "<html><body><h1>Not Found</h1></body></html>\n")
            return
        handler(self, form)

    # --- auth -------------------------------------------------------------

    def _login(self, form: dict):
        view = form.get("view", "")
        expected = CREDENTIALS.get(view)
        if not expected or (form.get("username"), form.get("password")) != expected:
            self._deny()
            return
        with self.state.lock:
            token = f"{view}-{len(self.state.sessions)}"
            self.state.sessions[token] = view
        self._send(
            302,
            "",
            {"Location": VIEW_HOMES[view], "Set-Cookie": f"session={token}; Path=/"},
        )

    def _require(self, view: str) -> bool:
        if self._session_view() != view:
            self._deny()
            return False
        return True

    # --- public view ------------------------------------------------------

    def _home(self):
        body = '<a href="/courses">Courses</a> <a href="/about">About</a>'
        self._render("/", "read", "University Course Portal", body)

    def _courses(self):
        with self.state.lock:
            rows = "".join(
                f'<li><a href="/courses/view?id={cid}">{c["name"]}</a></li>'
                for cid, c in sorted(self.state.courses.items())
            )
        self._render("/courses", "read", "Course Catalog", f"<ul>{rows}</ul>")

    def _courses_view(self):
        query = parse_qs(urlparse(self.path).query)
        cid = _to_int(query.get("id", ["0"])[0])
        with self.state.lock:
            course = self.state.courses.get(cid)
        detail = (
            f'{course["name"]} ({course["credits"]} credits)'
            if course
            else "no course selected"
        )
        self._render("/courses/view", "read", "Course Detail",
                     f"<p>{detail}</p>\n<a href=\"/courses\">Back to catalog</a>")

    def _about(self):
        self._render("/about", "read", "About", '<a href="/">Home</a>')

    # --- professor view -----------------------------------------------------

    def _professor_home(self):
        if not self._require("professor"):
            return
        body = ('<a href="/professor/courses">My courses</a> '
                '<a href="/professor/students">Students</a>')
        self._render("/professor", "read", "Professor Desk", body)

    def _professor_courses(self, form: dict | None = None):
        if not self._require("professor"):
            return
        action = "read"
        note = ""
        if form is not None:
            action = form.get("op", "read")
            if action == "insert":
                with self.state.lock:
                    free = [i for i in _COURSE_IDS if i not in self.state.courses]
                    if free:
                        self.state.courses[free[0]] = {
                            "name": form.get("name", f"course-{free[0]}"),
                            "credits": form.get("credits", "0"),
                        }
                        note = f"<p>added course {free[0]}</p>"
        with self.state.lock:
            rows = "".join(f"<li>{c['name']}</li>" for c in self.state.courses.values())
        body = (
            f"<ul>{rows}</ul>{note}"
            '\n<form method="post" action="/professor/courses">'
            '<input type="hidden" name="op" value="insert">'
            '<input name="name"><input name="credits"><button>Add</button></form>'
            '\n<a href="/professor/courses/edit">Edit courses</a>'
        )
        self._render("/professor/courses", action, "Course Management", body)

    def _professor_courses_edit(self, form: dict | None = None):
        if not self._require("professor"):
            return
        action = "read"
        note = ""
        if form is not None:
            action = form.get("op", "read")
            cid = _to_int(form.get("course_id"))
            with self.state.lock:
                if action == "update" and cid in self.state.courses:
                    self.state.courses[cid]["name"] = form.get("name", self.state.courses[cid]["name"])
                    note = f"<p>updated course {cid}</p>"
                elif action == "delete":
                    removed = self.state.courses.pop(cid, None)
                    note = "<p>deleted</p>" if removed else "<p>nothing deleted</p>"
                else:
                    note = "<p>no change</p>"
        body = (
            f"{note}"
            '\n<form method="post" action="/professor/courses/edit">'
            '<input type="hidden" name="op" value="update">'
            '<input name="course_id"><input name="name"><button>Update</button></form>'
            '\n<form method="post" action="/professor/courses/edit">'
            '<input type="hidden" name="op" value="delete">'
            '<input name="course_id"><button>Delete</button></form>'
            '\n<a href="/professor/courses">Back</a>'
        )
        self._render("/professor/courses/edit", action, "Edit Courses", body)

    def _professor_students(self, form: dict | None = None):
        if not self._require("professor"):
            return
        action = "read"
        note = ""
        if form is not None:
            action = form.get("op", "read")
            if action == "update":
                key = (form.get("student", ""), _to_int(form.get("course_id")))
                with self.state.lock:
                    if key in self.state.registrations:
                        self.state.registrations[key]["grade"] = form.get("grade", "")
                        note = "<p>grade recorded</p>"
                    else:
                        note = "<p>no such registration</p>"
        with self.state.lock:
            rows = "".join(
                f"<li>{s} in {cid}: {r['grade'] or 'ungraded'}</li>"
                for (s, cid), r in sorted(self.state.registrations.items())
            )
        body = (
            f"<ul>{rows}</ul>{note}"
            '\n<form method="post" action="/professor/students">'
            '<input type="hidden" name="op" value="update">'
            '<input name="student"><input name="course_id"><input name="grade">'
            "<button>Grade</button></form>"
            '\n<a href="/professor">Desk</a>'
        )
        self._render("/professor/students", action, "Student Registrations", body)

    # --- student view ---------------------------------------------------------

    def _student_home(self):
        if not self._require("student"):
            return
        body = ('<a href="/student/courses">Register</a> '
                '<a href="/student/profile">Profile</a>')
        self._render("/student", "read", "Student Desk", body)

    def _student_courses(self, form: dict | None = None):
        if not self._require("student"):
            return
        action = "read"
        note = ""
        if form is not None:
            action = form.get("op", "read")
            if action == "insert":
                cid = _to_int(form.get("course_id"))
                with self.state.lock:
                    self.state.registrations[("stud", cid)] = {"grade": ""}
                note = f"<p>registered for {cid}</p>"
        with self.state.lock:
            rows = "".join(f"<li>{c['name']}</li>" for c in self.state.courses.values())
        body = (
            f"<ul>{rows}</ul>{note}"
            '\n<form method="post" action="/student/courses">'
            '<input type="hidden" name="op" value="insert">'
            '<input name="course_id"><button>Register</button></form>'
            '\n<a href="/student">Desk</a>'
        )
        self._render("/student/courses", action, "Course Registration", body)

    def _student_profile(self, form: dict | None = None):
        if not self._require("student"):
            return
        action = "read"
        note = ""
        if form is not None:
            action = form.get("op", "read")
            with self.state.lock:
                if action == "update":
                    self.state.profiles["stud"]["email"] = form.get("email", "")
                    note = "<p>profile updated</p>"
                elif action == "delete":
                    cid = _to_int(form.get("course_id"))
                    removed = self.state.registrations.pop(("stud", cid), None)
                    note = "<p>dropped</p>" if removed else "<p>nothing dropped</p>"
        body = (
            f"{note}"
            '\n<form method="post" action="/student/profile">'
            '<input type="hidden" name="op" value="update">'
            '<input name="email"><button>Update</button></form>'
            '\n<form method="post" action="/student/profile">'
            '<input type="hidden" name="op" value="delete">'
            '<input name="course_id"><button>Drop</button></form>'
            '\n<a href="/student">Desk</a>'
        )
        self._render("/student/profile", action, "Student Profile", body)


_GET_ROUTES = {
    "/": _Handler._home,
    "/courses": _Handler._courses,
    "/courses/view": _Handler._courses_view,
    "/about": _Handler._about,
    "/professor": _Handler._professor_home,
    "/professor/courses": lambda h: h._professor_courses(None),
    "/professor/courses/edit": lambda h: h._professor_courses_edit(None),
    "/professor/students": lambda h: h._professor_students(None),
    "/student": _Handler._student_home,
    "/student/courses": lambda h: h._student_courses(None),
    "/student/profile": lambda h: h._student_profile(None),
}

_POST_ROUTES = {
    "/professor/courses": _Handler._professor_courses,
    "/professor/courses/edit": _Handler._professor_courses_edit,
    "/professor/students": _Handler._professor_students,
    "/student/courses": _Handler._student_courses,
    "/student/profile": _Handler._student_profile,
}


class _QuietServer(ThreadingHTTPServer):
    # socketserver's default backlog of 5 drops connections when dozens of
    # testers start at once; the kernel caps this at net.core.somaxconn
    request_queue_size = 1024

    def handle_error(self, request, client_address):
        import sys

        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionResetError)):
            return  # client hung up mid-write; routine under concurrency
        super().handle_error(request, client_address)


class MockTarget:
    """In-process HTTP fixture; start on port 0 for an ephemeral port."""

    def __init__(self, faults: dict[tuple[str, str], str] | list[SeededFault] | None = None,
                 host: str = "127.0.0.1", port: int = 0):
        if isinstance(faults, list):
            table = {(f.path, f.action): f.behavior for f in faults}
        else:
            table = dict(faults or {})
        for (path, action), behavior in table.items():
            SeededFault(path, action, behavior)  # validates
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
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
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
