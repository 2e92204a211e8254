"""Breadth-first site discovery, one pass per view, and the login rule.

Authenticated views log in first and start from wherever the login
redirects; the public view starts at the crawl root.  Links and form
targets are visited in sorted order and node identities are sorted paths,
so repeated crawls of a static site produce identical models.  login is
the one login rule of the harness: the crawl and every tester use it,
the crawl through login and a tester through logging_in, the generator
that login drives.  Every request goes through one http.Session per view.
"""

from __future__ import annotations

import logging
from collections import deque
from collections.abc import Generator
from dataclasses import dataclass, field, replace
from html.parser import HTMLParser
from urllib.parse import quote, urljoin, urlparse

from ..errors import AuthFailed, Unreachable
from .http import CLIENT_ERRORS, Session, Wait, drive
from .model import FormSpec, Node, SiteModel, node_id

__all__ = ["Credentials", "CrawlLimits", "crawl_site", "logging_in", "login"]

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
