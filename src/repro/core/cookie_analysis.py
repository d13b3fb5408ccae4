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
from ..net.url import registrable_domain

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

    A generator rather than a list so the analysis streams: only the
    dedup key set is retained, never the records themselves — which is
    what lets :func:`analyze_cookies` run over a datastore cursor
    without hydrating the log.
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

    The per-site form the study runs is
    :func:`~repro.core.mapmerge.map_cookies` /
    :func:`~repro.core.mapmerge.merge_cookies`; this whole-log form is
    their reference.
    """
    stats = CookieStats()
    visited = {visit.site_domain for visit in log.successful_visits()}
    stats.sites_visited = len(visited)

    client_ip = log.client_ip
    sites_with_cookies: Set[str] = set()
    sites_with_tp: Set[str] = set()
    per_domain_cookies: Dict[str, int] = {}
    per_domain_sites: Dict[str, Set[str]] = {}
    per_domain_ip: Dict[str, int] = {}
    popular: Dict[Tuple[str, str], Set[str]] = {}

    for cookie in _dedupe(log.cookies):
        stats.total_cookies += 1
        sites_with_cookies.add(cookie.page_domain)
        if cookie.session or len(cookie.value) < MIN_ID_LENGTH:
            continue
        stats.id_cookies += 1
        if len(cookie.value) > HUGE_LENGTH:
            stats.huge_id_cookies += 1
        base = registrable_domain(cookie.domain)
        third_party = base != registrable_domain(cookie.page_domain)
        if third_party:
            stats.third_party_id_cookies += 1
            stats.third_party_cookie_domains.add(base)
            sites_with_tp.add(cookie.page_domain)
            per_domain_cookies[base] = per_domain_cookies.get(base, 0) + 1
            per_domain_sites.setdefault(base, set()).add(cookie.page_domain)
        else:
            stats.first_party_id_cookies += 1

        popular.setdefault((cookie.name, cookie.value), set()).add(
            cookie.page_domain
        )

        decodings = decode_cookie_value(cookie.value)
        has_ip = client_ip and any(client_ip in text for text in decodings)
        if has_ip:
            stats.ip_cookies += 1
            stats.ip_cookie_domains[base] = stats.ip_cookie_domains.get(base, 0) + 1
            if third_party:
                per_domain_ip[base] = per_domain_ip.get(base, 0) + 1
        for text in decodings:
            match = _GEO_RE.search(text)
            if match:
                stats.geo_cookies += 1
                stats.geo_cookie_sites.add(cookie.page_domain)
                if _ISP_RE.search(text):
                    stats.geo_cookies_with_isp += 1
                break

    stats.sites_with_cookies = len(sites_with_cookies)
    stats.sites_with_third_party_cookies = len(sites_with_tp)
    stats.popular_cookies = {
        key: len(sites) for key, sites in popular.items()
    }

    ranked = sorted(per_domain_sites.items(), key=lambda item: -len(item[1]))
    for domain, sites in ranked[:top_n]:
        count = per_domain_cookies.get(domain, 0)
        stats.top_domains.append(
            TopCookieDomain(
                domain=domain,
                site_fraction=len(sites) / stats.sites_visited
                if stats.sites_visited else 0.0,
                site_count=len(sites),
                cookie_count=count,
                is_ats=bool(ats_domains) and domain in ats_domains,
                in_regular_web=bool(regular_web_domains)
                and domain in regular_web_domains,
                ip_cookie_fraction=per_domain_ip.get(domain, 0) / count
                if count else 0.0,
            )
        )
    return stats
