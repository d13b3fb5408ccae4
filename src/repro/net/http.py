"""HTTP message model used by the simulated browser and servers.

The crawler records every request/response pair, mirroring what OpenWPM
persists to its SQLite log.  Headers are case-insensitive multimaps with
convenience accessors for the handful of headers the analyses rely on
(``Referer``, ``Set-Cookie``, ``Cookie``, ``Location``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from .url import URL

__all__ = ["Headers", "Request", "Response", "STATUS_REASONS"]

STATUS_REASONS = {
    200: "OK",
    204: "No Content",
    301: "Moved Permanently",
    302: "Found",
    307: "Temporary Redirect",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    451: "Unavailable For Legal Reasons",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


class Headers:
    """A case-insensitive, order-preserving HTTP header multimap."""

    def __init__(self, items: Optional[List[Tuple[str, str]]] = None) -> None:
        self._items: List[Tuple[str, str]] = []
        if items:
            for name, value in items:
                self.add(name, value)

    def add(self, name: str, value: str) -> None:
        """Append a header field (duplicates allowed, e.g. ``Set-Cookie``)."""
        self._items.append((name, value))

    def set(self, name: str, value: str) -> None:
        """Replace all occurrences of ``name`` with a single value."""
        lowered = name.lower()
        self._items = [(n, v) for n, v in self._items if n.lower() != lowered]
        self._items.append((name, value))

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Return the first value for ``name``, or ``default``."""
        lowered = name.lower()
        for existing, value in self._items:
            if existing.lower() == lowered:
                return value
        return default

    def get_all(self, name: str) -> List[str]:
        """Return every value for ``name`` in insertion order."""
        lowered = name.lower()
        return [v for n, v in self._items if n.lower() == lowered]

    def remove(self, name: str) -> None:
        lowered = name.lower()
        self._items = [(n, v) for n, v in self._items if n.lower() != lowered]

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Headers):
            return NotImplemented
        return self._items == other._items

    def copy(self) -> "Headers":
        return Headers(list(self._items))

    def __repr__(self) -> str:
        return f"Headers({self._items!r})"


@dataclass
class Request:
    """An HTTP request issued by the browser.

    ``initiator`` is the FQDN of the document or script that caused the
    request; ``referrer`` carries the ``Referer`` header value used for
    inclusion-chain reconstruction (Bashir & Wilson style).
    """

    url: URL
    method: str = "GET"
    headers: Headers = field(default_factory=Headers)
    body: str = ""
    initiator: Optional[str] = None
    resource_type: str = "document"  # document | script | image | xhr | sub_frame

    @property
    def referrer(self) -> Optional[str]:
        return self.headers.get("Referer")

    @property
    def cookie_header(self) -> Optional[str]:
        return self.headers.get("Cookie")

    def __repr__(self) -> str:
        return f"Request({self.method} {self.url})"


@dataclass
class Response:
    """An HTTP response as observed by the browser.

    ``manifest`` is the server's *render manifest*: the ordered
    ``(kind, url)`` subresource references of an HTML body (kinds:
    ``script``/``img``/``iframe``/``link``), as the renderer emitted
    them.  The synthetic servers render every page from a structured
    embed list, so they can hand that structure to the browser and spare
    it re-parsing markup the universe itself just produced.  ``None``
    means "no manifest available" (non-HTML payloads, or a server that
    does not produce one) — the browser then falls back to parsing.
    """

    url: URL
    status: int
    headers: Headers = field(default_factory=Headers)
    body: str = ""
    manifest: Optional[Tuple[Tuple[str, str], ...]] = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def is_redirect(self) -> bool:
        return self.status in (301, 302, 307)

    @property
    def reason(self) -> str:
        return STATUS_REASONS.get(self.status, "Unknown")

    @property
    def location(self) -> Optional[str]:
        return self.headers.get("Location")

    @property
    def set_cookie_headers(self) -> List[str]:
        return self.headers.get_all("Set-Cookie")

    @property
    def content_type(self) -> str:
        return self.headers.get("Content-Type", "text/html")

    def __repr__(self) -> str:
        return f"Response({self.status} {self.url})"
