"""The harness's one HTTP client, Session, and the poll loop that runs it, drive.

Session's docstring states the client's rules: how it connects, what it
sends, how it reads an answer and what counts as none.  A request's bytes
are those of a urllib.request.Request for the same URL, its cookies those
of an http.cookiejar.CookieJar, and an answer reads as
http.client.HTTPResponse reads it, without building an email message and
only once, as its bytes arrive.

drive runs generators over Session.fetching on one select.poll loop, each
wait bounded by a timeout: Session.fetch and the crawler's login run one,
the runner a round of testers.  What depends only on its inputs is worked
out once and reused: a URL's route (scheme, host, request target), a
Content-Type's charset, and a URL's Cookie header until the jar changes or
a cookie expires.  The mock target reads each request's header block with
header_fields, the reader of the client's answers.
"""

from __future__ import annotations

import errno
import math
import os
import re
import socket
import ssl
import string
import time
from collections import deque
from collections.abc import Generator
from dataclasses import dataclass
from functools import lru_cache
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
from select import POLLIN, POLLOUT, poll
from types import SimpleNamespace
from urllib.parse import quote, urlencode, urljoin, urlparse
from urllib.request import Request

from .. import __version__

__all__ = ["CLIENT_ERRORS", "MAX_REDIRECTS", "Page", "Session", "Wait", "drive", "header_fields"]

# raised by Session.fetch when no answer arrives; timeouts and refused or
# dropped connections are OSErrors, and a malformed or truncated answer is
# an HTTPException
CLIENT_ERRORS = (OSError, HTTPException)

MAX_REDIRECTS = 10
# a request's own header lines, spelled as urllib.request.Request stores
# them (str.capitalize), so the request bytes are those of a urllib request
_GET_LINES = b"User-agent: webrely/%s\r\n" % __version__.encode("latin-1")
_FORM_LINES = _GET_LINES + b"Content-type: application/x-www-form-urlencoded\r\n"


def _header_bytes(headers: dict[str, str]) -> bytes:
    """headers as putheader writes them, each line ending in CRLF."""
    return b"".join(b"%s: %s\r\n" % (name.encode("ascii"), value.encode("latin-1"))
                    for name, value in headers.items())


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
    poller = poll()
    poller.register(sock, POLLIN)
    return bool(poller.poll(0))


# what Session.fetching and each generator over it yield wherever they would
# block: a socket and the poll event (POLLIN or POLLOUT) to wait for on it
Wait = tuple[socket.socket, int]

# the most bytes one recv asks for
_RECV_SIZE = 65536


class _Stream:
    """A buffered reader, for one answer, over the bytes of sock as they arrive.

    Its reads are generators: where a buffered reader of sock would block,
    they yield the Wait for more bytes and go on from where they stopped,
    so each byte received is scanned once.  Bytes received past those read
    go with the stream, never to the next answer.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._data, self._at, self._ended = bytearray(), 0, False  # all received; read to _at

    def _more(self) -> Generator[Wait, None, bool]:
        """Receive more bytes; False once the stream has ended."""
        if not self._ended:
            chunk = yield from _retrying(self._sock, self._sock.recv, POLLIN, _RECV_SIZE)
            self._data += chunk
            self._ended = not chunk
        return not self._ended

    def _take(self, size: float) -> bytes:
        """The next size bytes, or all those received when they are fewer."""
        at = self._at
        self._at = min(at + size, len(self._data))
        return bytes(self._data[at:self._at])

    def readline(self, limit: int) -> Generator[Wait, None, bytes]:
        """Up to and including the next LF, at most limit bytes, or what is
        left when the stream ends first."""
        at = searched = self._at  # the LF search goes on from searched
        while True:
            end = self._data.find(b"\n", searched, at + limit) + 1
            if end:
                return self._take(end - at)
            searched = len(self._data)
            if searched >= at + limit or not (yield from self._more()):
                return self._take(limit)

    def read(self, size: int = -1) -> Generator[Wait, None, bytes]:
        """size bytes, or all that is left of the stream when size is
        negative; raises IncompleteRead when the stream ends short of size."""
        wanted = math.inf if size < 0 else size
        while len(self._data) - self._at < wanted and (yield from self._more()):
            pass
        data = self._take(wanted)
        if len(data) < size:
            raise IncompleteRead(data, size - len(data))
        return data


def _line(stream, kind: str) -> Generator[Wait, None, bytes]:
    """The next line, raising LineTooLong when it is over _MAXLINE bytes."""
    line = yield from stream.readline(_MAXLINE + 1)
    if len(line) > _MAXLINE:
        raise LineTooLong(kind)
    return line


def _status_line(stream) -> Generator[Wait, None, tuple[str, int]]:
    """The version and status of the next status line, read as
    HTTPResponse._read_status reads it."""
    line = str((yield from _line(stream, "status line")), "iso-8859-1")
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


def _lines(stream, kind: str, most: float = _MAXHEADERS) -> Generator[Wait, None, list[bytes]]:
    """The lines up to and including the blank one that ends a header block
    or a trailer, or up to the end of the stream."""
    lines = []
    while True:
        line = yield from _line(stream, f"{kind} line")
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


def _header_block(stream) -> Generator[Wait, None, dict[str, list[str]]]:
    """The _fields of the next header block on stream."""
    return _fields(b"".join((yield from _lines(stream, "header"))).decode("iso-8859-1"))


def header_fields(file) -> dict[str, list[str]]:
    """The _fields of the next header block on a blocking binary file, read
    by _header_block through a readline that never waits."""

    def readline(limit: int) -> Generator[Wait, None, bytes]:
        return file.readline(limit)
        yield  # makes readline a generator, for yield from

    try:
        next(_header_block(SimpleNamespace(readline=readline)))
    except StopIteration as done:
        return done.value
    raise AssertionError("a blocking read waited")


def _first(fields: dict[str, list[str]], name: str) -> str | None:
    """A field's first value, as HTTPMessage.get returns it."""
    values = fields.get(name)
    return values[0] if values else None


def _chunked(stream) -> Generator[Wait, None, bytes]:
    """A chunked body: each chunk's size line, its extensions dropped, then
    the chunk and the two bytes after it; the last chunk's trailer lines
    are read and dropped."""
    chunks = []
    while True:
        try:
            size = int((yield from _line(stream, "chunk size")).partition(b";")[0], 16)
        except ValueError:
            raise IncompleteRead(b"".join(chunks)) from None
        if size == 0:
            yield from _lines(stream, "trailer", math.inf)
            return b"".join(chunks)
        chunks.append((yield from stream.read(size)))
        yield from stream.read(2)


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


def _answer(stream) -> Generator[Wait, None, _Answer]:
    """(status, fields, body, closes) of the next answer on stream, framed
    as HTTPResponse.begin and read() frame it (see Session)."""
    version, status = yield from _status_line(stream)
    while 100 <= status < 200 and status != 101:  # interim answers (RFC 9110 section 15.2)
        yield from _lines(stream, "header")
        version, status = yield from _status_line(stream)
    if not (version in ("HTTP/1.0", "HTTP/0.9") or version.startswith("HTTP/1.")):
        raise UnknownProtocol(version)
    fields = yield from _header_block(stream)
    closes = _closes(version, fields)
    try:
        length = int(_first(fields, "content-length") or "")
    except ValueError:
        length = -1  # no length: an invalid one counts as none, as a negative one does
    if (_first(fields, "transfer-encoding") or "").lower() == "chunked":
        body = yield from _chunked(stream)
    elif status in (101, 204, 304):
        body = b""
    elif length < 0:
        body, closes = (yield from stream.read()), True
    else:
        body = yield from stream.read(length)
    return status, fields, body, closes


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
    # file descriptor -> (the index that waits on it, when its wait runs
    # out).  Every wait lasts the same timeout, so the earliest to run out
    # is first; each is on a socket its steps hold open, so no two waits
    # share a descriptor.
    waiting: dict[int, tuple[int, float]] = {}
    poller = poll()

    def resume(index: int, error: BaseException | None = None) -> None:
        steps = starts[index][1]
        try:
            sock, event = steps.send(None) if error is None else steps.throw(error)
        except StopIteration as stop:
            values[index] = stop.value
            return
        fd = sock.fileno()
        waiting[fd] = (index, time.monotonic() + timeout)
        poller.register(fd, event)

    try:
        while pending or waiting:
            while pending and len(waiting) < slots and starts[pending[0]][0] <= time.monotonic():
                resume(pending.popleft())
            wake = next(iter(waiting.values()))[1] if waiting else math.inf
            if pending and len(waiting) < slots:
                wake = min(wake, starts[pending[0]][0])
            for fd, _ in poller.poll(max(wake - time.monotonic(), 0.0) * 1000):
                poller.unregister(fd)
                resume(waiting.pop(fd)[0])
            now = time.monotonic()
            while waiting:
                fd, (index, deadline) = next(iter(waiting.items()))
                if deadline > now:
                    break
                poller.unregister(fd)
                del waiting[fd]
                resume(index, TimeoutError("timed out"))
    except BaseException:
        for index, _ in waiting.values():
            starts[index][1].close()
        raise
    return values


def _receiving(sock: socket.socket) -> Generator[Wait, None, _Answer]:
    """_answer over a _Stream of the next answer's bytes on sock."""
    yield sock, POLLIN  # no answer comes before its request
    return (yield from _answer(_Stream(sock)))


def _retrying(sock: socket.socket, call, event: int, *args) -> Generator[Wait, None, object]:
    """call(*args) on the non-blocking sock, waiting for event on it, or for
    what TLS asks for, each time the call would block."""
    while True:
        try:
            return call(*args)
        except ssl.SSLWantReadError:
            yield sock, POLLIN
        except ssl.SSLWantWriteError:
            yield sock, POLLOUT
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
                yield sock, POLLOUT
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
        yield from _retrying(sock, sock.do_handshake, POLLIN)


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
    buffer, and the answer.  Each answer is read once, as its bytes
    arrive: a read that runs out of them waits for more and goes on where
    it stopped.  fetch runs that generator alone on drive's loop.  A
    host's name is resolved by a blocking getaddrinfo the first time a
    connection to it opens, and kept in addresses, which a Session can
    share with another; it returns at once for an IP literal.

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

        The request's lines go in urllib's order: the request line, Host,
        Accept-Encoding, Content-Length for a POST, the jar's headers, then
        the request's own.  Each answer is read from the bytes received for
        it alone, so bytes past its framing are never taken for the next
        answer.
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
                unsent = unsent[(yield from _retrying(sock, sock.send, POLLOUT, unsent)):]
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
