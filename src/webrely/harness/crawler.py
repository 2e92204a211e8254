"""Breadth-first site discovery, one pass per view, and the login rule.

Authenticated views log in first and start from wherever the login
redirects; the public view starts at the crawl root.  Links and form
targets are visited in sorted order and node identities are sorted paths,
so repeated crawls of a static site produce identical models.  login is
the one login rule of the harness: the crawl and every tester call it.

Session is the one HTTP client, with one http.cookiejar.CookieJar and the
headers and redirect rules of urllib.  http.client opens each connection;
Session frames the HTTP/1.1 exchange on it (RFC 9112) the way http.client
does.  A request's bytes are those of a urllib.request.Request for the
same URL, and an answer is read by the rules of http.client.HTTPResponse:
the same status, fields, body and keep-alive, without building an email
message except for an answer that sets a cookie.  What depends only on
its inputs is worked out once and reused: a URL's route (scheme, host,
request target), a connection's Host value, a Content-Type's charset, and
a URL's Cookie header until the jar changes or a cookie expires.
"""

from __future__ import annotations

import logging
import math
import re
import select
import string
import time
from collections import deque
from dataclasses import dataclass, replace
from email.parser import Parser
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
from types import SimpleNamespace
from urllib.parse import quote, urlencode, urljoin, urlparse
from urllib.request import Request

from .. import __version__
from ..errors import AuthFailed, Unreachable
from .model import FormSpec, Node, SiteModel, node_id

__all__ = ["CLIENT_ERRORS", "Credentials", "CrawlLimits", "Session", "crawl_site", "login"]

log = logging.getLogger(__name__)

LOGIN_PATH = "/login"


@dataclass(frozen=True)
class Credentials:
    username: str
    password: str


@dataclass(frozen=True)
class CrawlLimits:
    max_depth: int = 5
    max_pages_per_view: int = 50

    def __post_init__(self):
        if self.max_depth < 1 or self.max_pages_per_view < 1:
            raise ValueError("crawl limits must be positive")


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
        return path

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


@lru_cache(maxsize=64)
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


def _status_line(reader) -> tuple[str, int]:
    """The version and status of the next status line, read as
    HTTPResponse._read_status reads it."""
    line = str(reader.readline(_MAXLINE + 1), "iso-8859-1")
    if len(line) > _MAXLINE:
        raise LineTooLong("status line")
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
        line = reader.readline(_MAXLINE + 1)
        if len(line) > _MAXLINE:
            raise LineTooLong(f"{kind} line")
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
        line = reader.readline(_MAXLINE + 1)
        if len(line) > _MAXLINE:
            raise LineTooLong("chunk size")
        try:
            size = int(line.partition(b";")[0], 16)
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


def _answer(reader) -> tuple[int, str, dict[str, list[str]], bytes, bool]:
    """(status, header block, fields, body, closes) of the next answer
    on reader, framed as HTTPResponse.begin and read() frame it (see
    Session)."""
    version, status = _status_line(reader)
    while status == 100:
        _lines(reader, "header")
        version, status = _status_line(reader)
    if not (version in ("HTTP/1.0", "HTTP/0.9") or version.startswith("HTTP/1.")):
        raise UnknownProtocol(version)
    block = b"".join(_lines(reader, "header")).decode("iso-8859-1")
    fields = _fields(block)
    closes = _closes(version, fields)
    try:
        length = int(_first(fields, "content-length") or "")
    except ValueError:
        length = -1  # no length: an invalid one counts as none, as a negative one does
    if (_first(fields, "transfer-encoding") or "").lower() == "chunked":
        body = _chunked(reader)
    elif status in (204, 304) or 100 <= status < 200:
        body = b""
    elif length < 0:
        body, closes = reader.read(), True
    else:
        body = _exactly(reader, length)
    return status, block, fields, body, closes


class Session:
    """HTTP/1.1 client with one cookie jar, for one crawl view or one tester.

    It keeps one connection per (scheme, host) open until close(), an
    error, or an answer after which the server closes it.  http.client
    opens each connection (TCP_NODELAY, and TLS with SNI for https);
    Session writes each request on it in one piece and reads each answer
    itself, as http.client.HTTPResponse would:

    - a 100 Continue before the answer is skipped;
    - a 1xx, 204 or 304 answer has no body, unless it is chunked;
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

    Proxy environment variables are not honoured: a proxy's failures must
    never count as the target's.
    """

    def __init__(self):
        self._jar = CookieJar()
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
        page = self._exchange(url, route, data, timeout)
        for _ in range(MAX_REDIRECTS):
            moved = page.status in (301, 302, 303) or (page.status in (307, 308) and data is None)
            if not (follow and moved and page.location):
                break
            url = urljoin(url, quote(page.location, string.punctuation, "iso-8859-1"))
            route = _route(url)
            if route is None:
                break
            data = None
            page = self._exchange(url, route, data, timeout)
        return page

    def _exchange(self, url: str, route: tuple[str, str, bytes], data: bytes | None,
                  timeout: float) -> Page:
        """One request and its answer over the kept-alive connection.

        The request is written in one piece, in urllib's order: the request
        line, Host, Accept-Encoding, Content-Length for a POST, the jar's
        headers, then the request's own.  Each answer is read through a
        reader of its own, so bytes past its framing are never taken for
        the next answer.  Any error closes the connection, and so does an
        answer after which the server closes it.
        """
        scheme, host, target = route
        cookies = self._cookies_for(url)
        connection = self._connection(scheme, host, timeout)
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
                connection.connect()
            connection.sock.sendall(request)
            with connection.sock.makefile("rb") as reader:
                status, block, fields, body, closes = _answer(reader)
        except BaseException:
            connection.close()  # half a request or answer: the next one reconnects
            raise
        if closes:
            connection.close()
        # the jar makes no cookie from an answer without these fields, and
        # reads them from the HTTPMessage that the answer's info() returns
        if "set-cookie" in fields or "set-cookie2" in fields:
            message = Parser(_class=HTTPMessage).parsestr(block)
            self._jar.extract_cookies(SimpleNamespace(info=lambda: message), Request(url))
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

    def _connection(self, scheme: str, host: str, timeout: float) -> HTTPConnection:
        connection = self._connections.get((scheme, host))
        if connection is None:
            kind = HTTPSConnection if scheme == "https" else HTTPConnection
            connection = self._connections[(scheme, host)] = kind(host, timeout=timeout)
        elif connection.sock is not None and _hung_up(connection.sock):
            connection.close()  # the server hung up while idle; the request reconnects
        if connection.timeout != timeout:
            connection.timeout = timeout
            if connection.sock is not None:
                connection.sock.settimeout(timeout)
        return connection


def login(session: Session, root: str, view: str, creds: Credentials,
          timeout: float) -> str:
    """POST the login form and return the entry path it redirects to.

    The redirect is not followed, so the landing page's own health stays a
    separate observation from the login.  Raises Unreachable when no answer
    comes back, and AuthFailed unless the answer is a 200, 302 or 303 that
    carries a Location.
    """
    try:
        response = session.fetch(
            urljoin(root, LOGIN_PATH),
            {"view": view, "username": creds.username, "password": creds.password},
            timeout=timeout,
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
