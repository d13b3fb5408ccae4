"""Section 5.1.1 / Table 4 — HTTP cookie analysis.

The pipeline (all over crawl-log cookie records, deduplicated per
(page, cookie domain, name, value)):

1. count all stored cookies and the fraction of sites installing any;
2. filter to *potential identifier* cookies: non-session, value length of
   at least six characters;
3. split first-party / third-party by registrable domain;
4. decode values (base64 and URL decoding) hunting for the client IP and
   for geolocation coordinates;
5. rank the third-party domains installing the most ID cookies (Table 4).
"""

from __future__ import annotations

import base64
import binascii
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple
from urllib.parse import unquote

from ..browser.events import CookieRecord, CrawlLog

__all__ = [
    "CookieStats",
    "TopCookieDomain",
    "analyze_cookies",
    "decode_cookie_value",
    "MIN_ID_LENGTH",
]

MIN_ID_LENGTH = 6
HUGE_LENGTH = 1_000

_GEO_RE = re.compile(r"lat\s*=\s*(-?\d+(?:\.\d+)?).*?lon\s*=\s*(-?\d+(?:\.\d+)?)",
                     re.IGNORECASE | re.DOTALL)
_ISP_RE = re.compile(r"isp\s*=\s*([^&;]+)", re.IGNORECASE)


def decode_cookie_value(value: str) -> List[str]:
    """All plausible decodings of a cookie value (URL, then base64)."""
    decodings = [value]
    unquoted = unquote(value)
    if unquoted != value:
        decodings.append(unquoted)
    for candidate in list(decodings):
        padded = candidate + "=" * (-len(candidate) % 4)
        try:
            decoded = base64.b64decode(padded, validate=True).decode(
                "utf-8", errors="strict"
            )
        except (binascii.Error, UnicodeDecodeError, ValueError):
            continue
        if decoded and decoded.isprintable():
            decodings.append(decoded)
    return decodings


@dataclass(frozen=True)
class TopCookieDomain:
    """One Table 4 row."""

    domain: str
    site_fraction: float
    site_count: int
    cookie_count: int
    is_ats: bool
    in_regular_web: bool
    ip_cookie_fraction: float


@dataclass
class CookieStats:
    """Everything §5.1.1 reports."""

    total_cookies: int = 0
    sites_with_cookies: int = 0
    sites_visited: int = 0
    id_cookies: int = 0
    huge_id_cookies: int = 0
    first_party_id_cookies: int = 0
    third_party_id_cookies: int = 0
    third_party_cookie_domains: Set[str] = field(default_factory=set)
    sites_with_third_party_cookies: int = 0
    ip_cookies: int = 0
    ip_cookie_domains: Dict[str, int] = field(default_factory=dict)
    geo_cookies: int = 0
    geo_cookie_sites: Set[str] = field(default_factory=set)
    geo_cookies_with_isp: int = 0
    #: (name, value) -> number of distinct sites where observed.
    popular_cookies: Dict[Tuple[str, str], int] = field(default_factory=dict)
    top_domains: List[TopCookieDomain] = field(default_factory=list)

    @property
    def sites_with_cookies_fraction(self) -> float:
        return self.sites_with_cookies / self.sites_visited \
            if self.sites_visited else 0.0

    @property
    def sites_with_third_party_cookies_fraction(self) -> float:
        return self.sites_with_third_party_cookies / self.sites_visited \
            if self.sites_visited else 0.0

    def popular_cookie_site_coverage(self, top: int = 100) -> float:
        """Fraction of sites carrying at least one of the ``top`` most
        widespread (name, value) cookies."""
        if not self.popular_cookies or not self.sites_visited:
            return 0.0
        ranked = sorted(self.popular_cookies.values(), reverse=True)[:top]
        # Popular cookies overlap heavily on the same sites; the max single
        # coverage is the floor, the sum the (unreachable) ceiling.
        return min(1.0, max(ranked) / self.sites_visited)


def _dedupe(cookies: Iterable[CookieRecord]) -> Iterator[CookieRecord]:
    """Yield each (page, domain, name, value) cookie once, in order.

    The key starts with the page domain, so deduplicating one site's
    cookies at a time (:func:`~repro.core.mapmerge.map_cookies`) equals
    deduplicating the whole log.
    """
    seen: Set[Tuple[str, str, str, str]] = set()
    for cookie in cookies:
        key = (cookie.page_domain, cookie.domain, cookie.name, cookie.value)
        if key in seen:
            continue
        seen.add(key)
        yield cookie


def analyze_cookies(
    log: CrawlLog,
    *,
    ats_domains: Optional[Set[str]] = None,
    regular_web_domains: Optional[Set[str]] = None,
    top_n: int = 5,
) -> CookieStats:
    """Run the full §5.1.1 pipeline over one crawl log.

    The merge of :func:`~repro.core.mapmerge.map_cookies` over the log's
    per-site row groups (:meth:`~repro.browser.events.CrawlLog.site_groups`).
    """
    from .mapmerge import map_cookies, merge_cookies

    return merge_cookies(
        [map_cookies(site.visits, site.cookies, client_ip=log.client_ip)
         for site in log.site_groups()],
        ats_domains=ats_domains, regular_web_domains=regular_web_domains,
        top_n=top_n,
    )
