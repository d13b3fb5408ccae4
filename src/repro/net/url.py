"""URL parsing and domain-name utilities.

The paper's analyses operate almost exclusively on fully qualified domain
names (FQDNs) and registrable domains (eTLD+1).  This module provides a
small, dependency-free URL model plus public-suffix handling for the
synthetic universe, which uses a fixed set of suffixes (see
:data:`PUBLIC_SUFFIXES`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Optional, Tuple

__all__ = [
    "URL",
    "URLError",
    "PUBLIC_SUFFIXES",
    "parse_url",
    "registrable_domain",
    "fqdn_of",
    "is_subdomain_of",
]

#: Public suffixes recognized in the synthetic universe.  Multi-label
#: suffixes must appear before their parent label would match (handled by
#: longest-match logic below).  This mirrors the small slice of the real
#: Public Suffix List that the paper's corpus touches (.com, .net, country
#: codes with second-level registrations like .co.uk and .com.ru).
PUBLIC_SUFFIXES = frozenset(
    {
        "com",
        "net",
        "org",
        "xxx",
        "info",
        "biz",
        "tv",
        "io",
        "me",
        "eu",
        "es",
        "ru",
        "in",
        "sg",
        "us",
        "uk",
        "nl",
        "de",
        "fr",
        "it",
        "pt",
        "ro",
        "party",
        "top",
        "pro",
        "co.uk",
        "org.uk",
        "com.ru",
        "co.in",
        "com.sg",
    }
)

_SCHEME_RE = re.compile(r"^([a-zA-Z][a-zA-Z0-9+.-]*):")
_HOST_RE = re.compile(r"^[a-z0-9]([a-z0-9-]*[a-z0-9])?$")

_DEFAULT_PORTS = {"http": 80, "https": 443, "ws": 80, "wss": 443}


class URLError(ValueError):
    """Raised when a URL cannot be parsed."""


@dataclass(frozen=True)
class URL:
    """An absolute URL.

    Attributes mirror the generic URI components.  ``host`` is always
    lower-case; ``path`` always starts with ``/``.
    """

    scheme: str
    host: str
    port: Optional[int] = None
    path: str = "/"
    query: str = ""
    fragment: str = ""

    def __post_init__(self) -> None:
        if self.scheme not in ("http", "https", "ws", "wss"):
            raise URLError(f"unsupported scheme: {self.scheme!r}")
        if not self.host:
            raise URLError("empty host")
        for label in self.host.split("."):
            if not _HOST_RE.match(label):
                raise URLError(f"invalid host label: {label!r} in {self.host!r}")
        if not self.path.startswith("/"):
            raise URLError(f"path must be absolute: {self.path!r}")

    # -- derived components -------------------------------------------------

    @property
    def fqdn(self) -> str:
        """The fully qualified domain name (the host)."""
        return self.host

    @property
    def registrable_domain(self) -> str:
        """The eTLD+1 of the host (e.g. ``a.b.example.co.uk`` -> ``example.co.uk``)."""
        return registrable_domain(self.host)

    @property
    def effective_port(self) -> int:
        """The explicit port, or the scheme default."""
        if self.port is not None:
            return self.port
        return _DEFAULT_PORTS[self.scheme]

    @property
    def origin(self) -> Tuple[str, str, int]:
        """The (scheme, host, port) origin triple for same-origin checks."""
        return (self.scheme, self.host, self.effective_port)

    @property
    def is_secure(self) -> bool:
        return self.scheme in ("https", "wss")

    # -- manipulation --------------------------------------------------------

    def with_query_param(self, key: str, value: str) -> "URL":
        """Return a copy with ``key=value`` appended to the query string."""
        pair = f"{key}={value}"
        query = f"{self.query}&{pair}" if self.query else pair
        return URL(self.scheme, self.host, self.port, self.path, query, self.fragment)

    def query_params(self) -> Dict[str, str]:
        """Parse the query string into a dict (last occurrence wins)."""
        params: Dict[str, str] = {}
        if not self.query:
            return params
        for part in self.query.split("&"):
            if not part:
                continue
            key, _, value = part.partition("=")
            params[key] = value
        return params

    def __str__(self) -> str:
        netloc = self.host if self.port is None else f"{self.host}:{self.port}"
        url = f"{self.scheme}://{netloc}{self.path}"
        if self.query:
            url += f"?{self.query}"
        if self.fragment:
            url += f"#{self.fragment}"
        return url


def parse_url(raw: str, *, default_scheme: str = "https") -> URL:
    """Parse an absolute URL string into a :class:`URL`.

    A missing scheme is filled in with ``default_scheme`` so that bare domains
    from site lists (``pornhub.com``) parse directly.

    Parses are memoized in a bounded cache (a crawl re-parses the same
    embed and tracker URLs hundreds of thousands of times); :class:`URL`
    is frozen, so sharing instances is safe.
    """
    return _parse_url_cached(raw, default_scheme)


@lru_cache(maxsize=16_384)
def _parse_url_cached(raw: str, default_scheme: str) -> URL:
    raw = raw.strip()
    if not raw:
        raise URLError("empty URL")
    match = _SCHEME_RE.match(raw)
    if match:
        scheme = match.group(1).lower()
        rest = raw[match.end():]
        if not rest.startswith("//"):
            raise URLError(f"malformed URL: {raw!r}")
        rest = rest[2:]
    else:
        scheme = default_scheme
        rest = raw[2:] if raw.startswith("//") else raw

    fragment = ""
    if "#" in rest:
        rest, fragment = rest.split("#", 1)
    query = ""
    if "?" in rest:
        rest, query = rest.split("?", 1)
    if "/" in rest:
        netloc, path = rest.split("/", 1)
        path = "/" + path
    else:
        netloc, path = rest, "/"

    port: Optional[int] = None
    host = netloc.lower()
    if ":" in netloc:
        host, port_text = netloc.rsplit(":", 1)
        host = host.lower()
        try:
            port = int(port_text)
        except ValueError as exc:
            raise URLError(f"invalid port in {raw!r}") from exc
        if not 0 < port < 65536:
            raise URLError(f"port out of range in {raw!r}")

    return URL(scheme, host, port, path, query, fragment)


# Public suffixes never exceed two labels, so for hosts with three or
# more labels the answer depends only on the trailing label pair.  That
# pair is the cache key: wildcard services mint one-shot *leading*
# labels, so keying on the tail keeps the key space at the (small)
# population of real registrable domains instead of leaking linearly
# with crawl size.
@lru_cache(maxsize=8_192)
def _suffix_of_tail(tail: str) -> Optional[str]:
    """Longest matching public suffix for a host ending in ``tail``
    (two labels) that has at least one more label in front."""
    if tail in PUBLIC_SUFFIXES:
        return tail
    label = tail.rsplit(".", 1)[1]
    if label in PUBLIC_SUFFIXES:
        return label
    return None


def _suffix_of(host: str) -> Optional[str]:
    """Return the longest matching public suffix of ``host``, if any."""
    labels = host.split(".")
    if len(labels) > 2:
        return _suffix_of_tail(labels[-2] + "." + labels[-1])
    # Longest match first: try 2-label suffixes, then 1-label ones.
    for take in (2, 1):
        if len(labels) > take:
            candidate = ".".join(labels[-take:])
            if candidate in PUBLIC_SUFFIXES:
                return candidate
    if host in PUBLIC_SUFFIXES:
        return host
    return None


# Wildcard-subdomain services mint one-shot hostnames, so this cache
# sees an unbounded stream of cold keys on large crawls; the hot set
# (real site and service domains) is far smaller than the cap.
@lru_cache(maxsize=65_536)
def registrable_domain(host: str) -> str:
    """Return the registrable domain (eTLD+1) for ``host``.

    If the host has no recognized public suffix, fall back to the last two
    labels, matching what practical measurement pipelines do for unknown
    TLDs.  A bare suffix is returned unchanged.

    Memoized: this is the single most-called function in the pipeline
    (280k+ calls per run) over a small population of hosts.
    """
    host = host.lower().rstrip(".")
    suffix = _suffix_of(host)
    if suffix is None:
        labels = host.split(".")
        return ".".join(labels[-2:]) if len(labels) >= 2 else host
    if suffix == host:
        return host
    prefix = host[: -(len(suffix) + 1)]
    owner = prefix.split(".")[-1]
    return f"{owner}.{suffix}"


def fqdn_of(url_or_host) -> str:
    """Normalize a URL object, URL string, or bare host to an FQDN."""
    if isinstance(url_or_host, URL):
        return url_or_host.host
    text = str(url_or_host)
    if "://" in text or text.startswith("//"):
        return parse_url(text).host
    return text.split("/", 1)[0].lower().rstrip(".")


def is_subdomain_of(host: str, domain: str) -> bool:
    """True if ``host`` equals ``domain`` or is a subdomain of it."""
    host = host.lower()
    domain = domain.lower()
    return host == domain or host.endswith("." + domain)


def group_by_registrable(hosts: Iterable[str]) -> Dict[str, list]:
    """Group FQDNs by their registrable domain."""
    groups: Dict[str, list] = {}
    for host in hosts:
        groups.setdefault(registrable_domain(host), []).append(host)
    return groups
