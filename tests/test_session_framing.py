"""Session reads every answer as http.client.HTTPResponse reads it.

Each raw answer of the corpus is served over a socket to a Session and
replayed from memory through http.client, the reference: both must agree
on status, Location, text, cookies set and whether the connection is
kept.  Malformed answers must raise one of CLIENT_ERRORS, close the
connection, and turn into a tester's nav_error.  Read from its bytes as
they arrive, split anywhere, each answer reads as it does whole.
"""

import io
import re
import shutil
import socket
import socketserver
import ssl
import subprocess
from collections import deque
from contextlib import contextmanager
from http.client import HTTPConnection, HTTPException, HTTPResponse, HTTPSConnection, parse_headers
from http.cookiejar import CookieJar
from urllib.request import Request

import pytest
from hypothesis import given
from hypothesis import strategies as st

from webrely.harness import (
    HarnessConfig,
    Step,
    TestCase,
    default_profiles,
    parse_log_file,
    run_evaluation,
)
import webrely.harness.http as harness_http
from webrely.harness.http import CLIENT_ERRORS, Session, _fields, _host, _receiving

OK = b"HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\nContent-Length: 2\r\n\r\nok"

# name -> (raw answer, whether the server closes the stream after it)
CORPUS = {
    "http10": (b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok", False),
    "http10-connection-keep-alive": (
        b"HTTP/1.0 200 OK\r\nConnection: Keep-Alive\r\nContent-Length: 2\r\n\r\nok", False),
    "http10-keep-alive-field": (
        b"HTTP/1.0 200 OK\r\nKeep-Alive: timeout=5\r\nContent-Length: 2\r\n\r\nok", False),
    "http10-proxy-connection": (
        b"HTTP/1.0 200 OK\r\nProxy-Connection: keep-alive\r\nContent-Length: 2\r\n\r\nok", False),
    "http11-connection-close": (
        b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok", False),
    "continue-then-200": (
        b"HTTP/1.1 100 Continue\r\nX-Interim: 1\r\n\r\n"
        b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nlast", False),
    "204-with-a-length": (b"HTTP/1.1 204 No Content\r\nContent-Length: 5\r\n\r\n", False),
    "304-with-a-length": (b"HTTP/1.1 304 Not Modified\r\nContent-Length: 9\r\n\r\n", False),
    "chunked-extensions-trailer": (
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 99\r\n"
        b"Content-Type: text/plain; charset=utf-8\r\n\r\n"
        b"3;name=value\r\nabc\r\n0A\r\n0123456789\r\n0;last\r\nExpires: never\r\nX-Sum: 1\r\n\r\n",
        False),
    "content-length": (b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello", False),
    "bad-content-length": (b"HTTP/1.1 200 OK\r\nContent-Length: 5x\r\n\r\nto the end", True),
    "negative-content-length": (b"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\nto the end", True),
    "read-to-close": (b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\nno framing", True),
    "two-set-cookies": (
        b"HTTP/1.1 200 OK\r\nSet-Cookie: a=1; Path=/\r\nSet-Cookie: b=2; Path=/\r\n"
        b"Content-Length: 2\r\n\r\nok", False),
    "repeated-location": (
        b"HTTP/1.1 302 Found\r\nLocation: /one\r\nLocation: /two\r\nContent-Length: 0\r\n\r\n",
        False),
    "tabs-and-trailing-spaces": (
        b"HTTP/1.1 302 Found\r\nLocation:\t /tabbed \t\r\n"
        b"Content-Type: text/html;\tcharset=latin-1  \r\nContent-Length: 4\r\n\r\ncaf\xe9", False),
    "folded-field-and-lone-cr": (
        b"HTTP/1.1 301 Moved\r\nLocation: /a\r\n  /b\r\nContent-Length: 2\r\n"
        b"Location: one\r two\r\n\r\nok", False),
    "unix-from-and-nameless-lines": (
        b"HTTP/1.1 302 Found\r\nFrom nowhere\r\n cont\r\nLocation: /kept\r\n: nameless\r\n"
        b" dropped\r\nContent-Length: 2\r\n\r\nok", False),
    "a-line-that-is-no-field-ends-the-fields": (
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nno colon here\r\nLocation: /ignored\r\n"
        b"Connection: close\r\n\r\nok", False),
    "lf-line-ends": (b"HTTP/1.1 303 See Other\nLocation: /lf\nContent-Length: 2\n\nok", False),
    "cookie-and-utf8-body": (
        b"HTTP/1.1 200 OK\r\nset-cookie: c=3; Path=/x\r\nContent-Type: text/html\r\n"
        b"Content-Length: 5\r\n\r\n\xc3\xa9\xff!!", False),
}

# name -> (raw answer, whether the server closes the stream after it)
MALFORMED = {
    "bad-status-line": (b"HTTX/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok", False),
    "status-line-of-one-word": (b"HTTP/1.1\r\n", False),
    "status-not-a-number": (b"HTTP/1.1 2OO OK\r\nContent-Length: 2\r\n\r\nok", False),
    "status-below-100": (b"HTTP/1.1 099 Low\r\nContent-Length: 2\r\n\r\nok", False),
    "status-over-999": (b"HTTP/1.1 1000 High\r\nContent-Length: 2\r\n\r\nok", False),
    "unknown-protocol": (b"HTTP/2 200 OK\r\nContent-Length: 2\r\n\r\nok", False),
    "no-answer": (b"", True),
    "truncated-body": (b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort", True),
    "truncated-chunk": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\na\r\nabc", True),
    "chunk-size-not-hex": (
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nabc\r\n0\r\n\r\n", False),
    "status-line-too-long": (b"HTTP/1.1 200 " + b"K" * 70_000 + b"\r\n\r\n", True),
    "field-line-too-long": (b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n", True),
    "too-many-fields": (b"HTTP/1.1 200 OK\r\n" + b"X-F: 1\r\n" * 101 + b"\r\n", True),
}


class _Replay:
    """The socket an HTTPResponse reads: the raw answer, then the end of the stream."""

    def __init__(self, raw: bytes):
        self.raw = raw

    def makefile(self, mode):
        return io.BytesIO(self.raw)


def _cookies(jar: CookieJar) -> list:
    return sorted((c.name, c.value, c.domain, c.path) for c in jar)


def _reference(raw: bytes, url: str) -> tuple:
    """(status, location, text, cookies, connection closed) as
    http.client and a urllib cookie jar read the answer."""
    response = HTTPResponse(_Replay(raw), method="GET")
    response.begin()
    body = response.read()
    jar = CookieJar()
    jar.extract_cookies(response, Request(url))
    text = body.decode(response.headers.get_content_charset() or "utf-8", "replace")
    location = response.getheader("Location")
    return response.status, location, text, _cookies(jar), response.will_close


class _Raw(socketserver.StreamRequestHandler):
    """Answers each request on a connection with the raw bytes its path maps
    to, and hangs up after those of a path in closing."""

    answers: dict  # path -> raw answer
    closing: set  # paths after whose answer the server closes the stream
    accepted: list  # one entry per connection

    def handle(self):
        self.accepted.append(self.client_address)
        while True:
            head = b""
            while not head.endswith(b"\r\n\r\n"):
                line = self.rfile.readline()
                if not line:
                    return
                head += line
            length = re.search(rb"\r\nContent-Length: (\d+)\r\n", head)
            if length:
                self.rfile.read(int(length[1]))
            path = head.split(b" ")[1].decode()
            try:
                self.wfile.write(self.answers[path])
            except OSError:
                return  # the client gave up on an answer that is too long
            if path in self.closing:
                return


@pytest.fixture
def raw_server(serving):
    """raw_server(answers, closing) is a context manager that serves
    answers by path, and OK at / and /ok, and yields (base URL,
    connections accepted)."""

    @contextmanager
    def serve(answers: dict, closing: set):
        accepted = []
        handler = type("Handler", (_Raw,), {
            "answers": {"/": OK, "/ok": OK, **answers}, "closing": closing,
            "accepted": accepted})
        with serving(handler) as url:
            yield url, accepted

    return serve


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_answer_reads_as_http_client_reads_it(name, raw_server):
    raw, closes_stream = CORPUS[name]
    with raw_server({"/x": raw}, {"/x"} if closes_stream else set()) as (url, accepted):
        status, location, text, cookies, closed = _reference(raw, url + "/x")
        with Session() as session:
            page = session.fetch(url + "/x", timeout=5, follow=False)
            got_cookies = _cookies(session._jar)
            # the next request rides the same connection unless this answer closed it
            assert session.fetch(url + "/ok", timeout=5).text == "ok"
    assert (page.status, page.location, page.text) == (status, location, text)
    assert got_cookies == cookies
    assert len(accepted) == 1 + closed


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_answer_raises_and_closes(name, raw_server):
    raw, closes_stream = MALFORMED[name]
    with pytest.raises(HTTPException):
        _reference(raw, "http://127.0.0.1/x")
    with raw_server({"/x": raw}, {"/x"} if closes_stream else set()) as (url, accepted):
        with Session() as session:
            with pytest.raises(CLIENT_ERRORS):
                session.fetch(url + "/x", timeout=5)
            assert session.fetch(url + "/ok", timeout=5).text == "ok"
    assert len(accepted) == 2  # the error closed the connection; the next fetch reconnected


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_answer_is_a_testers_nav_error(name, raw_server, tmp_path):
    raw, closes_stream = MALFORMED[name]
    steps = (Step("/x", "read", {}), Step("/ok", "read", {}))
    case = TestCase(id="case-m", view="public", seed=0, steps=steps)
    cfg = HarnessConfig(duration_s=60.0, arrival_mean_s=0.001, workers=1, request_timeout_s=5.0)
    with raw_server({"/x": raw}, {"/x"} if closes_stream else set()) as (url, _):
        paths = run_evaluation(url, [case], default_profiles(), cfg, tmp_path, 0)
    records, _ = parse_log_file(paths[0])
    # /ok carries no page marker, so its step is a fault, but it is answered
    assert [(r.action, r.node, r.outcome) for r in records] == [
        ("begin", "-", "ok"), ("read", "/x", "nav_error"),
        ("read", "/ok", "fault:missing-marker"), ("end", "-", "ok")]


class _Arriving:
    """A non-blocking socket on which the chunks have arrived, followed by
    the end of the stream if it closes; past them, recv would block."""

    def __init__(self, chunks: list, closes_stream: bool):
        self.chunks = deque([chunk for chunk in chunks if chunk] + [b""] * closes_stream)

    def recv(self, size: int) -> bytes:
        if not self.chunks:
            raise BlockingIOError
        chunk = self.chunks.popleft()
        if len(chunk) > size:
            self.chunks.appendleft(chunk[size:])
        return chunk[:size]


def _read_as_it_arrives(chunks: list, closes_stream: bool):
    """What the exchange makes of an answer that arrives in chunks: the
    answer, or the class of the error it raises, once the bytes so far
    hold the answer, or else when the stream ends after them; None while
    it waits for more."""
    receiving = _receiving(_Arriving(chunks, closes_stream))
    try:
        next(receiving)  # the wait for the answer's first bytes
        next(receiving)  # a wait for more
    except StopIteration as stop:
        return stop.value
    except HTTPException as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("name", sorted(CORPUS) + sorted(MALFORMED))
def test_answer_split_anywhere_reads_as_it_does_whole(name):
    raw, closes_stream = CORPUS.get(name) or MALFORMED[name]
    whole = _read_as_it_arrives([raw], closes_stream)
    if name in CORPUS:
        assert isinstance(whole, tuple)  # (status, fields, body, closes)
        # an answer that stops short while the stream is open asks for more
        assert all(_read_as_it_arrives([raw[:end]], False) is None for end in range(len(raw)))
    else:
        assert isinstance(whole, type) and issubclass(whole, HTTPException)
    for split in range(len(raw) + 1):
        assert _read_as_it_arrives([raw[:split], raw[split:]], closes_stream) == whole, split
    assert _read_as_it_arrives([raw[i:i + 1] for i in range(len(raw))], closes_stream) == whole


LONG_BODY = 4 << 20


class _Trickling(socketserver.StreamRequestHandler):
    """Answers one GET with a body of LONG_BODY bytes in writes of 4 KB,
    Nagle's algorithm off: framed by its length at /length, by the end of
    the stream at /close, and at /chunked in chunks of 4 KB, each chunk
    with its size line and CRLF in a write of its own."""

    def handle(self):
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        head = b""
        while not head.endswith(b"\r\n\r\n"):
            line = self.rfile.readline()
            if not line:
                return
            head += line
        path = head.split(b" ")[1]
        if path == b"/chunked":
            self.wfile.write(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n")
            for _ in range(LONG_BODY // 4096):
                self.wfile.write(b"1000\r\n%s\r\n" % (b"x" * 4096))
            self.wfile.write(b"0\r\n\r\n")
            return
        framing = b"" if path == b"/close" else b"Content-Length: %d\r\n" % LONG_BODY
        self.wfile.write(b"HTTP/1.1 200 OK\r\n%s\r\n" % framing)
        for _ in range(LONG_BODY // 4096):
            self.wfile.write(b"x" * 4096)


@pytest.mark.parametrize("path", ["/length", "/close", "/chunked"])
def test_a_long_answer_in_small_writes_is_read_once(path, serving, monkeypatch):
    status_lines = []
    status_line = harness_http._status_line

    def counted(stream):
        status_lines.append(stream)
        return status_line(stream)

    monkeypatch.setattr(harness_http, "_status_line", counted)
    with serving(_Trickling) as url, Session() as session:
        page = session.fetch(url + path, timeout=10)
    assert page.text == "x" * LONG_BODY
    # the answer is read from its start once, not once per write or chunk
    assert len(status_lines) == 1


def test_bytes_past_an_answer_are_never_the_next_answer(raw_server):
    answers = {"/x": b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1 500 Stale\r\n"
                     b"Content-Length: 5\r\n\r\nstale"}
    with raw_server(answers, set()) as (url, _), Session() as session:
        assert session.fetch(url + "/x", timeout=5).text == "ok"
        pages = [session.fetch(url + "/ok", timeout=5) for _ in range(3)]
    assert [(p.status, p.text) for p in pages] == [(200, "ok")] * 3


def test_interim_answers_are_skipped(raw_server):
    # http.client takes a 103 for the final answer; RFC 9110 section 15.2
    # has a client skip every 1xx before the final one
    answers = {"/x": b"HTTP/1.1 103 Early Hints\r\nLink: </s.css>; rel=preload\r\n\r\n"
                     b"HTTP/1.1 102 Processing\r\n\r\n"
                     b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nlast"}
    with raw_server(answers, set()) as (url, accepted), Session() as session:
        page = session.fetch(url + "/x", timeout=5)
        assert session.fetch(url + "/ok", timeout=5).text == "ok"
    assert (page.status, page.text) == (200, "last")
    assert len(accepted) == 1


# email.feedparser's view of a header block is the reference for Session's
_FIELD_LINES = st.sampled_from([
    "A: 1", "a:2", "B:\t x \t", " cont", "\tcont", "From x", "From: y", ":z", "no colon",
    "C: a\rb", "D:", "", "\xe9: 1", "E: \x85x", "F: v\x0bw", "G:  ", " ",
])
_LINE_ENDS = st.sampled_from(["\r\n", "\n", "\r"])


@given(st.lists(st.tuples(_FIELD_LINES, _LINE_ENDS), max_size=8), _LINE_ENDS)
def test_fields_are_those_parse_headers_finds(lines, end):
    block = "".join(line + ending for line, ending in lines) + end
    message = parse_headers(io.BytesIO(block.encode("latin-1")))
    expected = {}
    for name in message.keys():
        expected.setdefault(name.lower(), message.get_all(name))
    assert _fields(block) == expected


def test_https_exchange_over_a_local_self_signed_certificate(tmp_path, monkeypatch, serving):
    openssl = shutil.which("openssl")
    if openssl is None:
        pytest.skip("needs the openssl command to make a certificate")
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(
        [openssl, "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1",
         "-nodes", "-days", "1", "-subj", "/CN=localhost", "-addext",
         "subjectAltName=DNS:localhost", "-keyout", str(key), "-out", str(cert)],
        check=True, capture_output=True)
    server_side = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    server_side.load_cert_chain(cert, key)
    server_names = []
    server_side.sni_callback = lambda sock, name, context: server_names.append(name)
    # https connections trust only this certificate, and check it names localhost
    monkeypatch.setattr(ssl, "_create_default_https_context",
                        lambda: ssl.create_default_context(cafile=str(cert)))
    accepted = []

    class Handler(_Raw):
        answers = {"/a": OK, "/b": b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nyes"}
        closing = set()

        def setup(self):
            self.request = server_side.wrap_socket(self.request, server_side=True)
            super().setup()

        def finish(self):
            super().finish()
            self.request.close()  # the server closes only the socket it accepted

    Handler.accepted = accepted
    with serving(Handler) as url, Session() as session:
        port = url.rsplit(":", 1)[1]
        texts = [session.fetch(f"https://localhost:{port}{path}", timeout=5).text
                 for path in ("/a", "/b")]
    assert texts == ["ok", "yes"]
    assert len(accepted) == 1  # one TLS connection, kept alive
    assert server_names == ["localhost"]  # SNI names the host


@pytest.mark.parametrize("scheme, netloc", [
    ("http", "example.com"), ("http", "example.com:80"), ("http", "example.com:8080"),
    ("https", "example.com:443"), ("https", "example.com:80"), ("http", "[::1]"),
    ("http", "[::1]:8080"), ("http", "[fe80::1%eth0]:81"), ("https", "bücher.example"),
])
def test_host_line_is_the_one_putrequest_writes(scheme, netloc):
    kind = HTTPSConnection if scheme == "https" else HTTPConnection
    reference = kind(netloc)
    reference.putrequest("GET", "/")
    connection = kind(netloc)
    host = _host(connection.host, connection.port, connection.default_port)
    assert b"Host: " + host == reference._buffer[1]


@pytest.mark.parametrize("path", ["/a b", "/a\x7fb", "/a\r\nX-Injected: 1", "/caf\xe9"])
def test_target_http_client_refuses_is_refused(path):
    with pytest.raises(Exception) as reference:
        HTTPConnection("127.0.0.1", 9).putrequest("GET", path)
    with Session() as session, pytest.raises(type(reference.value)):
        session.fetch("http://127.0.0.1:9" + path, timeout=5)
