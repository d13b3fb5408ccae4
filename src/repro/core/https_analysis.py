"""Section 5.2 / Table 6 — HTTPS adoption by popularity tier.

A site supports HTTPS when its landing page loaded over TLS (the crawler
tries HTTPS first and only downgrades on failure).  A third-party service
supports HTTPS when its observed requests use TLS.  A site is *fully*
HTTPS only when the page and every embedded third party use TLS; §5.2
additionally checks whether identifier cookies travel in the clear.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set

from ..browser.events import CrawlLog
from .partylabel import PartyLabels
from .popularity import PopularityReport

__all__ = ["HTTPSTierRow", "HTTPSReport", "analyze_https"]


@dataclass(frozen=True)
class HTTPSTierRow:
    """One Table 6 band: sites and third parties for a popularity tier."""

    interval: str
    site_count: int
    site_https_fraction: float
    service_count: int
    service_https_fraction: float


@dataclass
class HTTPSReport:
    rows: List[HTTPSTierRow] = field(default_factory=list)
    not_fully_https_sites: Set[str] = field(default_factory=set)
    cleartext_cookie_sites: Set[str] = field(default_factory=set)
    sites_visited: int = 0

    @property
    def not_fully_https_fraction(self) -> float:
        return len(self.not_fully_https_sites) / self.sites_visited \
            if self.sites_visited else 0.0

    @property
    def cleartext_cookie_fraction(self) -> float:
        """Of the not-fully-HTTPS sites, how many leak ID cookies in clear."""
        if not self.not_fully_https_sites:
            return 0.0
        return len(self.cleartext_cookie_sites & self.not_fully_https_sites) / \
            len(self.not_fully_https_sites)


def analyze_https(
    log: CrawlLog,
    labels: PartyLabels,
    popularity: PopularityReport,
) -> HTTPSReport:
    """Table 6 and the §5.2 cleartext-cookie check over one crawl log.

    The merge of :func:`~repro.core.mapmerge.map_https` over the log's
    per-site row groups (:meth:`~repro.browser.events.CrawlLog.site_groups`);
    only publisher-called third parties (``labels.third_party_direct``)
    count as a page's services.
    """
    from .mapmerge import map_https, merge_https

    return merge_https(
        [map_https(site.visits, site.requests, site.cookies,
                   client_ip=log.client_ip,
                   third_party_direct=labels.third_party_direct)
         for site in log.site_groups()],
        popularity=popularity,
    )
