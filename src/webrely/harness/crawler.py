"""Breadth-first site discovery, one pass per view, and the login rule.

Authenticated views log in first and start from wherever the login
redirects; the public view starts at the crawl root.  Links and form
targets are visited in sorted order and node identities are sorted paths,
so repeated crawls of a static site produce identical models.  login is
the one login rule of the harness: the crawl and every tester call it.

Session is the one HTTP client: http.client for the exchange and one
http.cookiejar.CookieJar, with the headers and redirect rules of urllib.
What depends only on its inputs is worked out once and reused: a URL's
route (scheme, host, selector), a Content-Type's charset, and a URL's
Cookie header until the jar changes or a cookie expires.  A request's
bytes are those of a urllib.request.Request for the same URL.
"""

from __future__ import annotations

import logging
import math
import select
import string
import time
from collections import deque
from dataclasses import dataclass, replace
from functools import lru_cache
from html.parser import HTMLParser
from http.client import HTTPConnection, HTTPException, HTTPMessage, HTTPSConnection, InvalidURL
from http.cookiejar import CookieJar
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
# dropped connections are OSErrors
CLIENT_ERRORS = (OSError, HTTPException)

MAX_REDIRECTS = 10
# spelled as urllib.request.Request stores them (str.capitalize), so the
# request bytes are those of a urllib request
_HEADERS = {"User-agent": f"webrely/{__version__}"}
_FORM_HEADERS = {**_HEADERS, "Content-type": "application/x-www-form-urlencoded"}


@dataclass(frozen=True)
class Page:
    status: int
    location: str | None
    text: str


@lru_cache(maxsize=256)
def _route(url: str) -> tuple[str, str, str] | None:
    """(scheme, host, selector) of an http(s) URL, as urllib.request.Request
    parses them; None for any other URL."""
    parts = urlparse(url)
    if parts.scheme not in ("http", "https") or not parts.netloc:
        return None
    request = Request(url)
    return request.type, request.host, request.selector


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


class Session:
    """HTTP/1.1 client with one cookie jar, for one crawl view or one tester.

    It keeps one connection per (scheme, host) open until close().  Proxy
    environment variables are not honoured: a proxy's failures must never
    count as the target's.
    """

    def __init__(self):
        self._jar = CookieJar()
        self._connections: dict[tuple[str, str], HTTPConnection] = {}
        # URL -> the headers add_cookie_header adds to a request for it
        self._cookie_headers: dict[str, dict[str, str]] = {}
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
        including for a URL that is not http(s).

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

    def _exchange(self, url: str, route: tuple[str, str, str], data: bytes | None,
                  timeout: float) -> Page:
        """One request and its answer over the kept-alive connection."""
        scheme, host, selector = route
        # urllib's order: the jar's headers, then the request's own
        headers = {**self._cookies_for(url), **(_HEADERS if data is None else _FORM_HEADERS)}
        connection = self._connection(scheme, host, timeout)
        try:
            connection.request("GET" if data is None else "POST", selector, data, headers)
            response = connection.getresponse()
            body = response.read()
        except BaseException:
            connection.close()  # half a request or answer: the next one reconnects
            raise
        # the jar makes no cookie from an answer without these headers
        if "Set-Cookie" in response.headers or "Set-Cookie2" in response.headers:
            self._jar.extract_cookies(response, Request(url))
            self._jar_changed()
        charset = _charset(response.headers.get("Content-Type"))
        try:
            text = body.decode(charset, "replace")
        except (LookupError, ValueError):
            # no text codec by that name (a NUL in the name is a ValueError)
            text = body.decode("utf-8", "replace")
        return Page(response.status, response.getheader("Location"), text)

    def _cookies_for(self, url: str) -> dict[str, str]:
        """The headers CookieJar.add_cookie_header adds to a request for url.

        They change only when the jar does, so the jar is asked only while
        it holds a cookie, and once per URL until an answer sets a cookie or
        the clock reaches the earliest expiry in the jar.
        """
        if int(time.time()) >= self._cookies_expire:  # when Cookie.is_expired turns true
            self._jar.clear_expired_cookies()
            self._jar_changed()
        if not self._holds_cookies:
            return {}
        headers = self._cookie_headers.get(url)
        if headers is None:
            request = Request(url)
            self._jar.add_cookie_header(request)
            headers = self._cookie_headers[url] = request.unredirected_hdrs
        return headers

    def _jar_changed(self) -> None:
        """Forget every remembered Cookie header and note what the jar holds now."""
        self._cookie_headers.clear()
        expires = [cookie.expires for cookie in self._jar]
        self._holds_cookies = bool(expires)
        self._cookies_expire = min((e for e in expires if e is not None), default=math.inf)

    def _connection(self, scheme: str, host: str, timeout: float) -> HTTPConnection:
        connection = self._connections.get((scheme, host))
        if connection is None:
            kind = HTTPSConnection if scheme == "https" else HTTPConnection
            connection = self._connections[(scheme, host)] = kind(host, timeout=timeout)
        elif connection.sock is not None and _hung_up(connection.sock):
            connection.close()  # the server hung up while idle; request() reconnects
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
