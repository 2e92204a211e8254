"""Breadth-first site discovery, one pass per view, and the login rule.

Authenticated views log in first and start from wherever the login
redirects; the public view starts at the crawl root.  Links and form
targets are visited in sorted order and node identities are sorted paths,
so repeated crawls of a static site produce identical models.  login is
the one login rule of the harness: the crawl and every tester use it,
the crawl through login and a tester through logging_in, the generator
that login drives.

Session is the one HTTP client, with one http.cookiejar.CookieJar and the
headers and redirect rules of urllib.  Session frames the HTTP/1.1
exchange itself (RFC 9112) the way http.client does, over a non-blocking
socket that it connects as http.client.HTTPConnection would.  A request's
bytes are those of a urllib.request.Request for the same URL, and an
answer is read by the rules of http.client.HTTPResponse: the same
status, fields, body and keep-alive, without building an email message;
the cookie jar reads Set-Cookie from the parsed fields.  Unlike
http.client, it skips every interim 1xx answer, not only 100 Continue.

The exchange is a generator, Session.fetching, that yields (socket,
selectors event) wherever it would block.  drive runs such generators on
one selectors loop, each wait bounded by a timeout: Session.fetch and
login run one, the harness's runner a round of testers.  Name resolution
is the one blocking call in the exchange: a getaddrinfo the first time a
Session connects to a host it has no addresses for, which returns at
once for an IP literal.  What depends only on its inputs is worked out once and
reused: a URL's route (scheme, host, request target), a Content-Type's
charset, and a URL's Cookie header until the jar changes or a cookie
expires.  The mock target reads each request's header block with the
same reader.
"""

from __future__ import annotations

import errno
import logging
import math
import os
import re
import select
import socket
import ssl
import string
import time
from collections import deque
from collections.abc import Generator
from dataclasses import dataclass, field, replace
from functools import lru_cache
from html.parser import HTMLParser
from http.client import (
    BadStatusLine,
    HTTPConnection,
    HTTPException,
    HTTPMessage,
    HTTPSConnection,
    IncompleteRead,
    InvalidURL,
    LineTooLong,
    RemoteDisconnected,
    UnknownProtocol,
)
from http.cookiejar import CookieJar
from selectors import EVENT_READ, EVENT_WRITE
from types import SimpleNamespace
from urllib.parse import quote, urlencode, urljoin, urlparse
from urllib.request import Request

from .. import __version__
from ..errors import AuthFailed, Unreachable
from .model import FormSpec, Node, SiteModel, node_id

__all__ = [
    "CLIENT_ERRORS", "Credentials", "CrawlLimits", "Session", "Wait", "crawl_site", "drive",
    "logging_in", "login",
]

log = logging.getLogger(__name__)

LOGIN_PATH = "/login"


@dataclass(frozen=True)
class Credentials:
    username: str
    password: str


@dataclass(frozen=True)
class CrawlLimits:
    max_depth: int = 5
    max_pages_per_view: int = field(default=50, metadata={"key": "max_pages"})

    def __post_init__(self):
        if self.max_depth < 1 or self.max_pages_per_view < 1:
            raise ValueError("crawl limits must be positive")


# every ASCII character, which quote leaves as it is
_ASCII = bytes(range(128))


class _PageScan(HTMLParser):
    """Collects same-site link paths and form specs from one page."""

    def __init__(self, base_path: str):
        super().__init__()
        self.base_path = base_path
        self.links: list[str] = []
        self.forms: list[FormSpec] = []
        self._form: FormSpec | None = None

    @staticmethod
    def _to_path(base_path: str, href: str) -> str | None:
        parsed = urlparse(href)
        if parsed.scheme or parsed.netloc:
            return None  # off-site
        path = urlparse(urljoin(base_path, href)).path or "/"
        # a path that is not ASCII goes on the wire as UTF-8, percent-encoded
        # (RFC 3986 section 2.1), as browsers send it
        return path if path.isascii() else quote(path, _ASCII)

    def handle_starttag(self, tag, attrs):
        attrs = dict(attrs)
        if tag == "a" and attrs.get("href"):
            path = self._to_path(self.base_path, attrs["href"])
            if path:
                self.links.append(path)
        elif tag == "form":
            action = self._to_path(self.base_path, attrs.get("action") or self.base_path)
            method = (attrs.get("method") or "get").lower()
            self._form = FormSpec(action or self.base_path, method, "read", ())
        elif tag == "input" and self._form is not None:
            name = attrs.get("name")
            if not name:
                return
            if name == "op":
                self._form = replace(self._form, op=attrs.get("value", "read"))
            else:
                self._form = replace(self._form, fields=self._form.fields + (name,))

    def handle_endtag(self, tag):
        if tag == "form" and self._form is not None:
            self.forms.append(self._form)
            self._form = None


# raised by Session.fetch when no answer arrives; timeouts and refused or
# dropped connections are OSErrors, and a malformed or truncated answer is
# an HTTPException
CLIENT_ERRORS = (OSError, HTTPException)

MAX_REDIRECTS = 10
# spelled as urllib.request.Request stores them (str.capitalize), so the
# request bytes are those of a urllib request
_HEADERS = {"User-agent": f"webrely/{__version__}"}
_FORM_HEADERS = {**_HEADERS, "Content-type": "application/x-www-form-urlencoded"}


def _header_bytes(headers: dict[str, str]) -> bytes:
    """headers as putheader writes them, each line ending in CRLF."""
    return b"".join(b"%s: %s\r\n" % (name.encode("ascii"), value.encode("latin-1"))
                    for name, value in headers.items())


_GET_LINES = _header_bytes(_HEADERS)
_FORM_LINES = _header_bytes(_FORM_HEADERS)

# http.client's limits: the longest status, field, chunk-size or trailer
# line, and the most field lines in one answer
_MAXLINE = 65536
_MAXHEADERS = 100
# what http.client's putrequest refuses in a request target
_BAD_TARGET = re.compile("[\x00-\x20\x7f]").search
# The lines of a header block as email.feedparser, which parse_headers
# runs, reads them.  Each match is one of: a field (a name of printable
# ASCII but ":", a colon, and the value, which goes on over each following
# line that starts with a space or tab); a line that belongs to no field (a
# unix-from line, one that starts with a colon, or a continuation after
# either); or the first line that is neither, which ends the fields and is
# taken with all that follows.  Lines end in CRLF, CR or LF.
_BLOCK_LINES = re.compile(
    r"([\041-\071\073-\176]+):[ \t]*([^\r\n]*(?:(?:\r\n|\r|\n)[ \t][^\r\n]*)*)(?:\r\n|\r|\n|\Z)"
    r"|(?:From |:|[ \t])[^\r\n]*(?:\r\n|\r|\n|\Z)"
    r"|[\s\S]*"
).findall


@dataclass(frozen=True)
class Page:
    status: int
    location: str | None
    text: str


@lru_cache(maxsize=256)
def _route(url: str) -> tuple[str, str, bytes] | None:
    """(scheme, host, request target) of an http(s) URL, as
    urllib.request.Request parses them and putrequest checks and encodes
    the target; None for any other URL.  Raises InvalidURL for a target
    that holds a control character or a space."""
    parts = urlparse(url)
    if parts.scheme not in ("http", "https") or not parts.netloc:
        return None
    request = Request(url)
    target = request.selector or "/"
    bad = _BAD_TARGET(target)
    if bad:
        raise InvalidURL(f"URL can't contain control characters. {target!r} "
                         f"(found at least {bad.group()!r})")
    return request.type, request.host, target.encode("ascii")


def _host(host: str, port: int, default_port: int) -> bytes:
    """The Host value putrequest sends to a connection's host and port:
    IDNA for a name that is not ASCII, brackets round an IPv6 address with
    its zone dropped, and no port when it is the scheme's default."""
    try:
        name = host.encode("ascii")
    except UnicodeEncodeError:
        name = host.encode("idna")
    if ":" in host:
        name = b"[" + name.partition(b"%")[0] + b"]"
    return name if port == default_port else b"%s:%d" % (name, port)


@lru_cache(maxsize=64)
def _charset(content_type: str | None) -> str:
    """The charset a Content-Type value names, as an answer's
    get_content_charset reads it, or utf-8 when it names none."""
    headers = HTTPMessage()
    if content_type is not None:
        headers["Content-Type"] = content_type
    return headers.get_content_charset() or "utf-8"


def _hung_up(sock) -> bool:
    """True when an idle kept-alive socket has something to read: the
    server's EOF or reset, or bytes that no request asked for.  Either way
    the connection cannot carry another request."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


def _line(reader, kind: str) -> bytes:
    """The next line, raising LineTooLong when it is over _MAXLINE bytes."""
    line = reader.readline(_MAXLINE + 1)
    if len(line) > _MAXLINE:
        raise LineTooLong(kind)
    return line


def _status_line(reader) -> tuple[str, int]:
    """The version and status of the next status line, read as
    HTTPResponse._read_status reads it."""
    line = str(_line(reader, "status line"), "iso-8859-1")
    if not line:
        raise RemoteDisconnected("Remote end closed connection without response")
    words = line.split(None, 2)
    if len(words) < 2 or not words[0].startswith("HTTP/"):
        raise BadStatusLine(line)
    try:
        status = int(words[1])
    except ValueError:
        raise BadStatusLine(line) from None
    if not 100 <= status <= 999:
        raise BadStatusLine(line)
    return words[0], status


def _lines(reader, kind: str, most: float = _MAXHEADERS) -> list[bytes]:
    """The lines up to and including the blank one that ends a header block
    or a trailer, or up to the end of the stream."""
    lines = []
    while True:
        line = _line(reader, f"{kind} line")
        lines.append(line)
        if len(lines) > most:
            raise HTTPException(f"got more than {most} headers")
        if line in (b"\r\n", b"\n", b""):
            return lines


def _fields(block: str) -> dict[str, list[str]]:
    """Lowercase field name -> its values in order, as get_all returns them
    from the HTTPMessage that parse_headers makes of the header block."""
    fields: dict[str, list[str]] = {}
    for name, value in _BLOCK_LINES(block):
        if name:
            fields.setdefault(name.lower(), []).append(value)
    return fields


def _first(fields: dict[str, list[str]], name: str) -> str | None:
    """A field's first value, as HTTPMessage.get returns it."""
    values = fields.get(name)
    return values[0] if values else None


def _exactly(reader, size: int) -> bytes:
    data = reader.read(size)
    if len(data) < size:
        raise IncompleteRead(data, size - len(data))
    return data


def _chunked(reader) -> bytes:
    """A chunked body: each chunk's size line, its extensions dropped, then
    the chunk and the two bytes after it; the last chunk's trailer lines
    are read and dropped."""
    chunks = []
    while True:
        try:
            size = int(_line(reader, "chunk size").partition(b";")[0], 16)
        except ValueError:
            raise IncompleteRead(b"".join(chunks)) from None
        if size == 0:
            _lines(reader, "trailer", math.inf)
            return b"".join(chunks)
        chunks.append(_exactly(reader, size))
        _exactly(reader, 2)


def _closes(version: str, fields: dict[str, list[str]]) -> bool:
    """Whether the server closes the connection after this answer, by the
    rule of HTTPResponse._check_close."""
    connection = (_first(fields, "connection") or "").lower()
    if version not in ("HTTP/1.0", "HTTP/0.9"):
        return "close" in connection
    return not (_first(fields, "keep-alive") or "keep-alive" in connection
                or "keep-alive" in (_first(fields, "proxy-connection") or "").lower())


# status, fields, body, and whether the server closes the connection after it
_Answer = tuple[int, dict[str, list[str]], bytes, bool]


def _answer(reader) -> _Answer:
    """(status, fields, body, closes) of the next answer on reader, framed
    as HTTPResponse.begin and read() frame it (see Session)."""
    version, status = _status_line(reader)
    while 100 <= status < 200 and status != 101:  # interim answers (RFC 9110 section 15.2)
        _lines(reader, "header")
        version, status = _status_line(reader)
    if not (version in ("HTTP/1.0", "HTTP/0.9") or version.startswith("HTTP/1.")):
        raise UnknownProtocol(version)
    fields = _fields(b"".join(_lines(reader, "header")).decode("iso-8859-1"))
    closes = _closes(version, fields)
    try:
        length = int(_first(fields, "content-length") or "")
    except ValueError:
        length = -1  # no length: an invalid one counts as none, as a negative one does
    if (_first(fields, "transfer-encoding") or "").lower() == "chunked":
        body = _chunked(reader)
    elif status in (101, 204, 304):
        body = b""
    elif length < 0:
        body, closes = reader.read(), True
    else:
        body = _exactly(reader, length)
    return status, fields, body, closes


class _NeedMore(Exception):
    """The bytes received so far end before the answer does; end is the
    length they must reach before reading them again can tell more."""

    def __init__(self, end: float):
        super().__init__(end)
        self.end = end


class _Received:
    """A reader, for _answer, over the bytes of a stream received so far.

    It reads as a buffered reader of the stream would, except where that
    reader would wait for more: at the end of the bytes it raises
    _NeedMore, unless the stream has ended there.
    """

    __slots__ = ("data", "ended", "at")

    def __init__(self, data: bytes, ended: bool):
        self.data = data
        self.ended = ended
        self.at = 0

    def _upto(self, end: float) -> bytes:
        if end > len(self.data):
            if not self.ended:
                raise _NeedMore(end)
            end = len(self.data)
        taken = self.data[self.at:end]
        self.at = end
        return taken

    def readline(self, limit: int) -> bytes:
        """Up to and including the next LF, at most limit bytes."""
        end = self.data.find(b"\n", self.at, self.at + limit) + 1 or self.at + limit
        return self._upto(min(end, len(self.data) + 1))  # any byte more may be the LF

    def read(self, size: int = -1) -> bytes:
        """size bytes, or all that is left of the stream when size is negative."""
        return self._upto(math.inf if size < 0 else self.at + size)


# what Session.fetching and logging_in yield wherever they would block: a
# socket and the selectors event to wait for on it (EVENT_READ or EVENT_WRITE)
Wait = tuple[socket.socket, int]

# the most bytes one recv asks for
_RECV_SIZE = 65536


def drive(starts: list[tuple[float, Generator[Wait, None, object]]], slots: int,
          timeout: float) -> list:
    """Run each (start time, steps) from the later of its start time and a
    free slot among slots, in order, on one poll loop, and return the
    values they return, in order.

    steps yields a Wait wherever it would block, and the loop resumes it
    when that socket is ready.  A wait that lasts timeout seconds gets
    TimeoutError thrown in, where the socket call would have raised it.
    An error that escapes one steps first closes every other in flight and
    then propagates.
    """
    pending = deque(range(len(starts)))
    values: list = [None] * len(starts)
    # index -> (when its wait runs out, the file descriptor it waits on);
    # every wait lasts the same timeout, so the earliest to run out is first
    waiting: dict[int, tuple[float, int]] = {}
    waiter: dict[int, int] = {}  # file descriptor -> index
    poller = select.poll()

    def resume(index: int, error: BaseException | None = None) -> None:
        steps = starts[index][1]
        try:
            sock, event = steps.send(None) if error is None else steps.throw(error)
        except StopIteration as stop:
            values[index] = stop.value
            return
        fd = sock.fileno()
        waiting[index] = (time.monotonic() + timeout, fd)
        waiter[fd] = index
        poller.register(fd, select.POLLIN if event == EVENT_READ else select.POLLOUT)

    try:
        while pending or waiting:
            while pending and len(waiting) < slots and starts[pending[0]][0] <= time.monotonic():
                resume(pending.popleft())
            wake = next(iter(waiting.values()))[0] if waiting else math.inf
            if pending and len(waiting) < slots:
                wake = min(wake, starts[pending[0]][0])
            for fd, _ in poller.poll(max(wake - time.monotonic(), 0.0) * 1000):
                poller.unregister(fd)
                index = waiter.pop(fd)
                del waiting[index]
                resume(index)
            now = time.monotonic()
            while waiting:
                index, (deadline, fd) = next(iter(waiting.items()))
                if deadline > now:
                    break
                poller.unregister(fd)
                del waiter[fd]
                del waiting[index]
                resume(index, TimeoutError("timed out"))
    except BaseException:
        for index in waiting:
            starts[index][1].close()
        raise
    return values


def _receiving(sock: socket.socket) -> Generator[Wait, None, _Answer]:
    """_answer over the bytes of the next answer on sock as they arrive.

    They are read again from their start only once they reach the length
    the last reading stopped short of, or the stream ends, so an answer
    framed by its length is read at most twice once its header block is in.
    """
    received = bytearray()
    needed = 1  # the length received must reach before it can tell more
    yield sock, EVENT_READ  # no answer comes before its request
    while True:
        chunk = yield from _retrying(sock, sock.recv, EVENT_READ, _RECV_SIZE)
        received += chunk
        if chunk and len(received) < needed:
            continue
        try:
            return _answer(_Received(bytes(received), not chunk))
        except _NeedMore as more:
            needed = more.end


def _retrying(sock: socket.socket, call, event: int, *args) -> Generator[Wait, None, object]:
    """call(*args) on the non-blocking sock, waiting for event on it, or for
    what TLS asks for, each time the call would block."""
    while True:
        try:
            return call(*args)
        except ssl.SSLWantReadError:
            yield sock, EVENT_READ
        except ssl.SSLWantWriteError:
            yield sock, EVENT_WRITE
        except BlockingIOError:
            yield sock, event


def _connecting(connection: HTTPConnection,
                addresses: dict[tuple[str, int], list]) -> Generator[Wait, None, None]:
    """Open connection's socket as HTTPConnection.connect does, without
    blocking: try each address in turn and raise the last one's error when
    none connects, set TCP_NODELAY, and for https wrap the socket in TLS by
    the connection's SSL context, with SNI for its host.  The addresses
    are getaddrinfo's for (host, port), looked up, blocking, only when
    addresses does not hold them yet, and kept there."""
    key = (connection.host, connection.port)
    if key not in addresses:
        addresses[key] = socket.getaddrinfo(*key, 0, socket.SOCK_STREAM)
    error: OSError = OSError("getaddrinfo returns an empty list")
    for family, kind, proto, _, address in addresses[key]:
        sock = socket.socket(family, kind, proto)
        try:
            sock.setblocking(False)
            code = sock.connect_ex(address)
            if code == errno.EINPROGRESS:
                yield sock, EVENT_WRITE
                code = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if code:
                raise OSError(code, os.strerror(code))
        except OSError as exc:
            sock.close()
            error = exc
            continue
        except BaseException:
            sock.close()
            raise
        break
    else:
        raise error
    connection.sock = sock  # from here on, an error closes it with the connection
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    if isinstance(connection, HTTPSConnection):
        connection.sock = sock = connection._context.wrap_socket(
            sock, server_hostname=connection.host, do_handshake_on_connect=False)
        yield from _retrying(sock, sock.do_handshake, EVENT_READ)


class Session:
    """HTTP/1.1 client with one cookie jar, for one crawl view or one tester.

    It keeps one connection per (scheme, host) open until close(), an
    error, or an answer after which the server closes it.  Session opens
    each connection as http.client does (TCP_NODELAY, and TLS with SNI
    for https), writes each request on it in one piece and reads each
    answer itself, as http.client.HTTPResponse would:

    - a 1xx answer other than 101 Switching Protocols is interim and is
      skipped, where http.client skips only 100 Continue;
    - a 101, 204 or 304 answer has no body, unless it is chunked;
    - a chunked body is unchunked, its chunk extensions and trailer dropped;
    - else a Content-Length that is a non-negative integer sizes the body;
    - else the body runs to the end of the stream, and the connection
      closes after it;
    - the connection is kept after an HTTP/1.1 answer unless its
      Connection field says close, and after an HTTP/1.0 one only when it
      asks for keep-alive.

    There is no answer when the connection is refused, reset or times out
    (an OSError), and when the answer is malformed or cut short (an
    HTTPException): a status line that is not HTTP/1.x with a status of
    three digits, a line over 65 536 bytes, more than 100 fields, a body
    shorter than its length, or a chunk size that is not hex.  Either way
    the connection is closed and the next request opens a new one.

    Its sockets never block.  fetching is the exchange as a generator
    that yields a Wait wherever a socket call would block: the connect,
    the TLS handshake, the rest of a request that does not fit the send
    buffer, and the answer.  It reads the answer again from its start
    only once the bytes received reach the length the last reading
    stopped short of: the end of the header block or of the body, the
    next chunk, or, for a body that runs to the end of the stream, the
    end.  fetch runs that generator alone on drive's loop.  A host's name
    is resolved by a blocking getaddrinfo the first time a connection to
    it opens, and kept in addresses, which a Session can share with
    another; it returns at once for an IP literal.

    Proxy environment variables are not honoured: a proxy's failures must
    never count as the target's.
    """

    def __init__(self, addresses: dict[tuple[str, int], list] | None = None):
        self._jar = CookieJar()
        # (host, port) -> its getaddrinfo list, shared with the Session that
        # passed it in, if any
        self.addresses = {} if addresses is None else addresses
        self._connections: dict[tuple[str, str], HTTPConnection] = {}
        # URL -> the header lines add_cookie_header adds to a request for it
        self._cookie_lines: dict[str, bytes] = {}
        self._holds_cookies = False
        self._cookies_expire = math.inf  # the earliest expires in the jar

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        for connection in self._connections.values():
            connection.close()
        self._connections.clear()

    def fetch(self, url: str, form: dict | None = None, *, timeout: float,
              follow: bool = True) -> Page:
        """fetching driven to its end, waiting on each socket for at most
        timeout seconds; a wait that runs out is a TimeoutError."""
        return drive([(0.0, self.fetching(url, form, follow=follow))], 1, timeout)[0]

    def fetching(self, url: str, form: dict | None = None, *,
                 follow: bool = True) -> Generator[Wait, None, Page]:
        """GET url, or POST form to it; every answer, whatever its status, is
        a Page.  Raises one of CLIENT_ERRORS when no answer comes back,
        including for a URL that is not http(s) and for an answer that is
        malformed or cut short.

        Redirects follow urllib's rules: a GET follows 301, 302, 303, 307
        and 308; a POST follows only 301, 302 and 303, as a GET without its
        body.  The answer after MAX_REDIRECTS hops, a redirect to a URL that
        is not http(s), and with follow=False every 3xx, is the Page.  No
        request is sent twice.  The text is the body decoded by its charset,
        or as UTF-8 when it names none or one with no codec; bytes that do
        not decode become U+FFFD.
        """
        route = _route(url)
        if route is None:
            raise InvalidURL(f"not an http(s) URL: {url!r}")
        data = None if form is None else urlencode(form).encode()
        page = yield from self._exchange(url, route, data)
        for _ in range(MAX_REDIRECTS):
            moved = page.status in (301, 302, 303) or (page.status in (307, 308) and data is None)
            if not (follow and moved and page.location):
                break
            url = urljoin(url, quote(page.location, string.punctuation, "iso-8859-1"))
            route = _route(url)
            if route is None:
                break
            data = None
            page = yield from self._exchange(url, route, data)
        return page

    def _exchange(self, url: str, route: tuple[str, str, bytes],
                  data: bytes | None) -> Generator[Wait, None, Page]:
        """One request and its answer over the kept-alive connection.

        The request is written in one piece, in urllib's order: the request
        line, Host, Accept-Encoding, Content-Length for a POST, the jar's
        headers, then the request's own.  Each answer is read from the bytes
        received for it alone, so bytes past its framing are never taken for
        the next answer.  Any error closes the connection, and so does an
        answer after which the server closes it.
        """
        scheme, host, target = route
        cookies = self._cookies_for(url)
        connection = self._connection(scheme, host)
        head = b"%s %s HTTP/1.1\r\nHost: %s\r\nAccept-Encoding: identity\r\n" % (
            b"GET" if data is None else b"POST", target,
            _host(connection.host, connection.port, connection.default_port))
        if data is None:
            request = b"%s%s%s\r\n" % (head, cookies, _GET_LINES)
        else:
            request = b"%sContent-Length: %d\r\n%s%s\r\n%s" % (
                head, len(data), cookies, _FORM_LINES, data)
        try:
            if connection.sock is None:
                yield from _connecting(connection, self.addresses)
            sock = connection.sock
            unsent = memoryview(request)
            while unsent:
                unsent = unsent[(yield from _retrying(sock, sock.send, EVENT_WRITE, unsent)):]
            status, fields, body, closes = yield from _receiving(sock)
        except BaseException:
            connection.close()  # half a request or answer: the next one reconnects
            raise
        if closes:
            connection.close()
        # the jar makes no cookie from an answer without these fields, and
        # reads them with get_all on what the answer's info() returns
        if "set-cookie" in fields or "set-cookie2" in fields:
            info = SimpleNamespace(
                get_all=lambda name, default=None: fields.get(name.lower(), default))
            self._jar.extract_cookies(SimpleNamespace(info=lambda: info), Request(url))
            self._jar_changed()
        charset = _charset(_first(fields, "content-type"))
        try:
            text = body.decode(charset, "replace")
        except (LookupError, ValueError):
            # no text codec by that name (a NUL in the name is a ValueError)
            text = body.decode("utf-8", "replace")
        location = fields.get("location")
        return Page(status, None if location is None else ", ".join(location), text)

    def _cookies_for(self, url: str) -> bytes:
        """The header lines CookieJar.add_cookie_header adds to a request for url.

        They change only when the jar does, so the jar is asked only while
        it holds a cookie, and once per URL until an answer sets a cookie or
        the clock reaches the earliest expiry in the jar.
        """
        if int(time.time()) >= self._cookies_expire:  # when Cookie.is_expired turns true
            self._jar.clear_expired_cookies()
            self._jar_changed()
        if not self._holds_cookies:
            return b""
        lines = self._cookie_lines.get(url)
        if lines is None:
            request = Request(url)
            self._jar.add_cookie_header(request)
            lines = self._cookie_lines[url] = _header_bytes(request.unredirected_hdrs)
        return lines

    def _jar_changed(self) -> None:
        """Forget every remembered Cookie header and note what the jar holds now."""
        self._cookie_lines.clear()
        expires = [cookie.expires for cookie in self._jar]
        self._holds_cookies = bool(expires)
        self._cookies_expire = min((e for e in expires if e is not None), default=math.inf)

    def _connection(self, scheme: str, host: str) -> HTTPConnection:
        connection = self._connections.get((scheme, host))
        if connection is None:
            kind = HTTPSConnection if scheme == "https" else HTTPConnection
            connection = self._connections[(scheme, host)] = kind(host)
        elif connection.sock is not None and _hung_up(connection.sock):
            connection.close()  # the server hung up while idle; the request reconnects
        return connection


def logging_in(session: Session, root: str, view: str,
               creds: Credentials) -> Generator[Wait, None, str]:
    """POST the login form and return the entry path it redirects to.

    The redirect is not followed, so the landing page's own health stays a
    separate observation from the login.  Raises Unreachable when no answer
    comes back, and AuthFailed unless the answer is a 200, 302 or 303 that
    carries a Location.  A generator over Session.fetching; login drives it.
    """
    try:
        response = yield from session.fetching(
            urljoin(root, LOGIN_PATH),
            {"view": view, "username": creds.username, "password": creds.password},
            follow=False,
        )
    except CLIENT_ERRORS as exc:
        raise Unreachable(f"login for view {view!r} failed to connect: {exc}") from exc
    if response.status not in (200, 302, 303):
        raise AuthFailed(f"view {view!r}: login rejected with status {response.status}")
    entry = response.location
    if not entry:
        raise AuthFailed(f"view {view!r}: login response carried no redirect target")
    return urlparse(entry).path or "/"


def login(session: Session, root: str, view: str, creds: Credentials,
          timeout: float) -> str:
    """logging_in driven to its end, as Session.fetch drives Session.fetching."""
    return drive([(0.0, logging_in(session, root, view, creds))], 1, timeout)[0]


def crawl_site(
    root: str,
    auth: dict[str, Credentials | None],
    limits: CrawlLimits = CrawlLimits(),
) -> SiteModel:
    """Discover nodes, edges and forms for every view in auth.

    auth maps view name to credentials (None for unauthenticated views).
    Raises Unreachable if the root never answers and AuthFailed when a
    login is rejected.  Hitting a limit only flags the model as truncated.
    """
    nodes: dict[str, Node] = {}
    edges: set[tuple[str, str]] = set()
    entry_points: dict[str, str] = {}
    truncated = False

    for view in sorted(auth):
        creds = auth[view]
        with Session() as session:
            if creds is None:
                entry_path = urlparse(root).path or "/"
            else:
                entry_path = login(session, root, view, creds, timeout=10)
            entry_points[view] = node_id(view, entry_path)

            seen: set[str] = {entry_path}
            frontier: deque[tuple[str, int]] = deque([(entry_path, 0)])
            pages = 0
            while frontier:
                path, depth = frontier.popleft()
                if pages >= limits.max_pages_per_view:
                    truncated = True
                    log.info("view %s: page cap %d reached", view, limits.max_pages_per_view)
                    break
                pages += 1
                try:
                    response = session.fetch(urljoin(root, path), timeout=10)
                except CLIENT_ERRORS as exc:
                    if path == entry_path:
                        raise Unreachable(f"crawl root {root} unreachable: {exc}") from exc
                    log.warning("view %s: %s unreachable during crawl, skipped", view, path)
                    continue
                if response.status != 200:
                    if path == entry_path:
                        raise Unreachable(
                            f"entry {path} for view {view!r} answered {response.status}"
                        )
                    log.warning("view %s: %s answered %d", view, path, response.status)
                    continue

                scan = _PageScan(path)
                scan.feed(response.text)

                ops = sorted({f.op for f in scan.forms if f.op != "read"})
                nodes[node_id(view, path)] = Node(
                    view=view, path=path, actions=tuple(["read"] + ops), forms=tuple(scan.forms)
                )

                targets = set(scan.links)
                targets.update(f.action_path for f in scan.forms if f.action_path != path)
                for target in sorted(targets):
                    edges.add((node_id(view, path), node_id(view, target)))
                    if target not in seen:
                        if depth + 1 <= limits.max_depth:
                            seen.add(target)
                            frontier.append((target, depth + 1))
                        else:
                            truncated = True

    # drop edges pointing at pages that were never fetched (cap or depth cut)
    edges = {(s, d) for s, d in edges if s in nodes and d in nodes}
    return SiteModel(
        nodes=nodes, edges=frozenset(edges), entry_points=entry_points, truncated=truncated
    )
