"""HTTP cookies: ``Set-Cookie`` parsing and a browser cookie jar.

The jar enforces the same-origin access rule the paper discusses in
Section 5.1.2 (a service can only read cookies scoped to its own domain),
which is precisely the restriction cookie *syncing* circumvents by moving
identifiers into URLs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .url import URL, is_subdomain_of

__all__ = ["Cookie", "CookieJar", "parse_set_cookie"]


@dataclass(frozen=True)
class Cookie:
    """A single HTTP cookie as stored by the browser."""

    name: str
    value: str
    domain: str
    path: str = "/"
    secure: bool = False
    http_only: bool = False
    session: bool = True
    max_age: Optional[int] = None
    #: FQDN of the response that set the cookie (observational metadata).
    set_by: str = ""
    #: True when ``Domain=`` was present, enabling subdomain sharing.
    domain_attribute: bool = False

    @property
    def key(self) -> Tuple[str, str, str]:
        """Identity of the cookie slot: (domain, path, name)."""
        return (self.domain, self.path, self.name)

    def matches_host(self, host: str) -> bool:
        """True if this cookie is sent to requests for ``host``."""
        if self.domain_attribute:
            return is_subdomain_of(host, self.domain)
        return host == self.domain


def parse_set_cookie(header: str, *, request_host: str) -> Optional[Cookie]:
    """Parse one ``Set-Cookie`` header value into a :class:`Cookie`.

    Returns ``None`` for malformed headers or cookies whose ``Domain``
    attribute the request host is not allowed to set (domain mismatch),
    following browser behavior.
    """
    parts = [part.strip() for part in header.split(";")]
    if not parts or "=" not in parts[0]:
        return None
    name, _, value = parts[0].partition("=")
    name = name.strip()
    if not name:
        return None

    domain = request_host
    domain_attribute = False
    path = "/"
    secure = False
    http_only = False
    session = True
    max_age: Optional[int] = None

    for attribute in parts[1:]:
        if not attribute:
            continue
        key, _, attr_value = attribute.partition("=")
        key = key.strip().lower()
        attr_value = attr_value.strip()
        if key == "domain" and attr_value:
            candidate = attr_value.lstrip(".").lower()
            # A host may only scope cookies to itself or a parent domain.
            if not is_subdomain_of(request_host, candidate):
                return None
            domain = candidate
            domain_attribute = True
        elif key == "path" and attr_value.startswith("/"):
            path = attr_value
        elif key == "secure":
            secure = True
        elif key == "httponly":
            http_only = True
        elif key == "max-age":
            try:
                max_age = int(attr_value)
            except ValueError:
                continue
            session = False
        elif key == "expires":
            session = False

    return Cookie(
        name=name,
        value=value,
        domain=domain,
        path=path,
        secure=secure,
        http_only=http_only,
        session=session,
        max_age=max_age,
        set_by=request_host,
        domain_attribute=domain_attribute,
    )


class CookieJar:
    """The browser's cookie store.

    The paper keeps a single browser session alive for the whole crawl to
    observe cookie synchronization; the jar is therefore long-lived and
    shared across page visits — and grows to tens of thousands of entries,
    so lookups are indexed by cookie domain rather than scanned.
    """

    def __init__(self) -> None:
        self._cookies: Dict[Tuple[str, str, str], Cookie] = {}
        self._by_domain: Dict[str, Dict[Tuple[str, str, str], Cookie]] = {}

    def __len__(self) -> int:
        return len(self._cookies)

    def __iter__(self):
        return iter(self._cookies.values())

    def store(self, cookie: Cookie) -> None:
        """Store or overwrite a cookie; ``Max-Age<=0`` deletes the slot."""
        if cookie.max_age is not None and cookie.max_age <= 0:
            removed = self._cookies.pop(cookie.key, None)
            if removed is not None:
                self._by_domain.get(removed.domain, {}).pop(cookie.key, None)
            return
        self._cookies[cookie.key] = cookie
        self._by_domain.setdefault(cookie.domain, {})[cookie.key] = cookie

    def store_from_response(self, headers: Iterable[str], request_host: str) -> List[Cookie]:
        """Parse and store every ``Set-Cookie`` header; return stored cookies."""
        stored = []
        for header in headers:
            cookie = parse_set_cookie(header, request_host=request_host)
            if cookie is not None:
                self.store(cookie)
                stored.append(cookie)
        return stored

    def cookies_for(self, url: URL) -> List[Cookie]:
        """Cookies that would be attached to a request for ``url``.

        Only the cookie domains that are suffixes of the request host can
        possibly match, so lookup walks the host's label suffixes instead
        of scanning the whole jar.
        """
        selected = []
        labels = url.host.split(".")
        for start in range(len(labels) - 1):
            domain = ".".join(labels[start:])
            bucket = self._by_domain.get(domain)
            if not bucket:
                continue
            for cookie in bucket.values():
                if not cookie.matches_host(url.host):
                    continue
                if cookie.secure and not url.is_secure:
                    continue
                if not url.path.startswith(cookie.path):
                    continue
                selected.append(cookie)
        # Longest path first, then name, for a deterministic Cookie header.
        selected.sort(key=lambda c: (-len(c.path), c.name))
        return selected

    def cookie_header_for(self, url: URL) -> Optional[str]:
        """Build the ``Cookie`` request header for ``url``, if any."""
        cookies = self.cookies_for(url)
        if not cookies:
            return None
        return "; ".join(f"{c.name}={c.value}" for c in cookies)

    def domains(self) -> List[str]:
        return sorted({c.domain for c in self._cookies.values()})

    def clear(self) -> None:
        self._cookies.clear()
        self._by_domain.clear()
