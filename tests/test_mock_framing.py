"""MockTarget answers with the bytes of http.server's own request path.

Each raw request of the corpus is served over a socket both to MockTarget
and to a reference: the mock's handler with BaseHTTPRequestHandler's
parse_request, writing its answers through send_response, send_header and
end_headers.  Both must write the same bytes, the Date value aside, and
both must hang up, or keep the connection, after the last answer.
"""

import re
import socket
import time
from email.utils import formatdate
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler
from urllib.parse import urlparse

import pytest

from webrely.harness import MockTarget, mock
from webrely.harness.http import Session

LOGIN = b"view=student&username=stud&password=stud123"
POST_LOGIN = b"POST /login HTTP/1.1\r\nContent-Length: 43\r\n\r\n" + LOGIN
# sent after the corpus requests: an answer to it shows the connection was kept
PROBE = b"GET /about HTTP/1.1\r\nConnection: close\r\n\r\n"


def _get(target: bytes, *lines: bytes, version: bytes = b"HTTP/1.1") -> bytes:
    return b"GET %s %s\r\n%s\r\n" % (target, version, b"".join(line + b"\r\n" for line in lines))


def _student(*lines: bytes) -> tuple[bytes, bytes]:
    """A login as the student, then a GET of the student desk with lines."""
    return POST_LOGIN, _get(b"/student", *lines)


# name -> (requests sent one by one on one connection, whether the server
# hangs up after the last one's answer)
CORPUS = {
    "get": ((_get(b"/", b"Host: example"),), False),
    "get-query": ((_get(b"/courses/view?id=1"),), False),
    "get-not-found": ((_get(b"/nope"),), False),
    "get-forbidden": ((_get(b"/student"),), False),
    "get-http10": ((_get(b"/", version=b"HTTP/1.0"),), True),
    "get-http10-keep-alive": ((_get(b"/", b"Connection: keep-alive", version=b"HTTP/1.0"),),
                              False),
    "get-http09": ((b"GET /\r\n\r\n",), True),
    "get-http09-not-found": ((b"GET /nope\r\nX-A: 1\r\n\r\n",), True),
    "post-http09": ((b"POST /login\r\n\r\n",), True),
    "head-http09": ((b"HEAD /\r\n\r\n",), True),
    "post-login": ((POST_LOGIN,), False),
    "post-login-http10": ((POST_LOGIN.replace(b"HTTP/1.1", b"HTTP/1.0"),), True),
    "post-bad-login": ((b"POST /login HTTP/1.1\r\nContent-Length: 6\r\n\r\nview=x",), False),
    "post-page-without-ops": ((b"POST /about HTTP/1.1\r\nContent-Length: 0\r\n\r\n",), False),
    "post-lowercase-content-length": (
        (b"POST /login HTTP/1.1\r\ncontent-length: 43\r\n\r\n" + LOGIN,), False),
    "login-then-cookie": (_student(b"Cookie: session=student-0"), False),
    "duplicate-cookie-first-kept": (
        _student(b"Cookie: session=student-0", b"Cookie: session=bogus"), False),
    "duplicate-cookie-first-bogus": (
        _student(b"Cookie: session=bogus", b"Cookie: session=student-0"), False),
    "folded-cookie": (_student(b"Cookie: theme=dark;", b" session=student-0"), False),
    "latin-1-cookie": ((_get(b"/student", b"Cookie: session=\xe9"),), False),
    "connection-close": ((_get(b"/", b"Connection: close"),), True),
    "connection-close-uppercase": ((_get(b"/", b"Connection: CLOSE"),), True),
    "connection-keep-alive": ((_get(b"/", b"Connection: keep-alive"),), False),
    "duplicate-connection-first-kept": (
        (_get(b"/", b"connection: keep-alive", b"Connection: close"),), False),
    "folded-connection": ((_get(b"/", b"Connection:", b" close"),), False),
    "a-line-that-is-no-field-ends-the-fields": (
        (_get(b"/", b"no colon here", b"Connection: close"),), False),
    "lf-line-ends": ((b"GET / HTTP/1.1\nConnection: close\n\n",), True),
    "expect-100-continue": (
        (b"POST /login HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 43\r\n\r\n" + LOGIN,),
        False),
    "expect-100-continue-http10": (
        (b"POST /login HTTP/1.0\r\nExpect: 100-Continue\r\nContent-Length: 43\r\n\r\n" + LOGIN,),
        True),
    "get-with-a-body": ((_get(b"/", b"Content-Length: 5") + b"hello",), True),
    "get-with-transfer-encoding": (
        (_get(b"/", b"Transfer-Encoding: chunked") + b"0\r\n\r\n",), True),
    "junk-content-length": ((b"POST /login HTTP/1.1\r\nContent-Length: 4x\r\n\r\n",), True),
    "negative-content-length": ((b"POST /login HTTP/1.1\r\nContent-Length: -5\r\n\r\n",), True),
    "bad-version": ((_get(b"/", version=b"HTTP/1.x"),), True),
    "version-with-a-superscript-digit": ((_get(b"/", version=b"HTTP/1.\xb2"),), True),
    "version-with-eleven-digits": ((_get(b"/", version=b"HTTP/1.00000000001"),), True),
    "version-with-leading-zeros": ((_get(b"/", version=b"HTTP/01.01"),), False),
    "http2": ((_get(b"/", version=b"HTTP/2.0"),), True),
    "four-words": ((_get(b"/ x"),), True),
    "one-word": ((b"GET\r\n\r\n",), True),
    "empty-request-line": ((b"\r\n",), True),
    "unknown-method": ((b"PUT / HTTP/1.1\r\n\r\n",), True),
    "double-slash-path": ((_get(b"//about"),), False),
    # fields sent on http.server's request path that the handler then reads
    "post-login-version-with-a-leading-zero": ((POST_LOGIN.replace(b"HTTP/1.1", b"HTTP/01.1"),),
                                               False),
    "login-then-cookie-version-with-a-trailing-digit": (
        (POST_LOGIN, _get(b"/student", b"Cookie: session=student-0", version=b"HTTP/1.01")),
        False),
    "post-login-double-slash": ((POST_LOGIN.replace(b"/login", b"//login"),), False),
    "field-line-of-65536-bytes": ((_get(b"/", b"X-Long: " + b"a" * 65526),), False),
    "field-line-of-65537-bytes": ((_get(b"/", b"X-Long: " + b"a" * 65527),), True),
    "head-with-a-field-line-too-long": (
        (_get(b"/", b"X-Long: " + b"a" * 65527).replace(b"GET", b"HEAD", 1),), True),
    "99-fields": ((_get(b"/", *[b"X-F: %d" % i for i in range(99)]),), False),
    "100-fields": ((_get(b"/", *[b"X-F: %d" % i for i in range(100)]),), True),
    "101-fields": ((_get(b"/", *[b"X-F: %d" % i for i in range(101)]),), True),
}


class _Reference(mock._Handler):
    """The mock's handler on http.server's own request path."""

    parse_request = BaseHTTPRequestHandler.parse_request

    def _send(self, status, html, headers=None):
        payload = html.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)


def _whole(data: bytes) -> bool:
    """Whether data holds a whole answer: any interim 1xx heads, then a head
    and the Content-Length bytes after it.  An answer with no status line
    (to an HTTP/0.9 request) is whole only when the server hangs up."""
    while data.startswith(b"HTTP/"):
        head, blank, rest = data.partition(b"\r\n\r\n")
        if not blank:
            return False
        if head[9:10] != b"1":
            length = re.search(rb"\r\nContent-Length: (\d+)", head)
            return length is not None and len(rest) >= int(length[1])
        data = rest
    return False


def _answer(sock: socket.socket) -> bytes:
    data = b""
    while not _whole(data):
        try:
            chunk = sock.recv(1 << 16)
        except ConnectionResetError:
            break
        if not chunk:
            break
        data += chunk
    return data


def _exchange(target: MockTarget, requests: tuple[bytes, ...]) -> tuple[bytes, bool]:
    """The bytes answered to requests, each sent once the answer before it
    has arrived, and whether the server hung up after the last answer."""
    url = urlparse(target.base_url)
    with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
        answers = b""
        for request in requests:
            sock.sendall(request)
            answers += _answer(sock)
        try:
            sock.sendall(PROBE)
            probed = _answer(sock)
        except ConnectionError:
            probed = b""
    return answers, not probed


def _masked(answers: bytes) -> bytes:
    return re.sub(rb"\r\nDate: [^\r\n]*", b"\r\nDate: -", answers)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_mock_answers_as_http_server_answers(name):
    requests, hangs_up = CORPUS[name]
    with MockTarget() as target:
        first = int(time.time())
        answers, hung_up = _exchange(target, requests)
        last = int(time.time())
    with MockTarget() as reference:
        reference._server.RequestHandlerClass = _Reference
        expected, reference_hung_up = _exchange(reference, requests)
    assert _masked(answers) == _masked(expected)
    assert (hung_up, reference_hung_up) == (hangs_up, hangs_up)
    # each Date is the time of its answer, as date_time_string writes it
    dates = {formatdate(second, usegmt=True).encode() for second in range(first, last + 1)}
    assert set(re.findall(rb"\r\nDate: ([^\r\n]*)", answers)) <= dates


def test_only_lines_no_client_sends_take_http_servers_parse(monkeypatch):
    # super().parse_request looks the stdlib's method up at call time
    calls = []
    parse = BaseHTTPRequestHandler.parse_request

    def counting_parse(handler):
        calls.append(handler.raw_requestline)
        return parse(handler)

    monkeypatch.setattr(BaseHTTPRequestHandler, "parse_request", counting_parse)
    form = {"view": "student", "username": "stud", "password": "stud123"}
    with MockTarget() as target:
        with Session() as session:
            assert session.fetch(target.base_url + "/about", timeout=5).status == 200
            page = session.fetch(target.base_url + "/login", form, timeout=5, follow=False)
            assert page.status == 302
        url = urlparse(target.base_url)
        connection = HTTPConnection(url.hostname, url.port, timeout=5)
        try:
            connection.request("GET", "/courses")
            assert connection.getresponse().read().count(b"page:/courses") == 1
        finally:
            connection.close()
        assert calls == []
        _exchange(target, (_get(b"/", version=b"HTTP/1.01"),))
        _exchange(target, (b"GET /\r\n\r\n",))
    assert calls == [b"GET / HTTP/1.01\r\n", b"GET /\r\n"]


def test_an_answer_is_one_write(monkeypatch):
    # with Nagle's algorithm on, the second of two writes would wait for the
    # client's delayed ACK; the mock turns it off, and writes once anyway
    writes = []
    setup = mock._Handler.setup

    def counting_setup(handler):
        setup(handler)
        write = handler.wfile.write
        handler.wfile.write = lambda data: writes.append(data) or write(data)

    monkeypatch.setattr(mock._Handler, "setup", counting_setup)
    with MockTarget() as target, Session() as session:
        page = session.fetch(target.base_url + "/about", timeout=5)
    assert page.status == 200
    assert len(writes) == 1 and writes[0].startswith(b"HTTP/1.1 200 OK\r\n")
