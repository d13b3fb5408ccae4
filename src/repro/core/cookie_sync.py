"""Section 5.1.2 / Figure 4 — cookie-synchronization detection.

A sync is detected when a previously observed cookie *value* later appears
verbatim inside a request URL to a different domain.  Following the paper,
values are matched whole — never split on delimiters — so the measurement
is a lower bound.  Matching is implemented by extracting candidate tokens
(query-parameter values and path segments) from each request URL and
looking them up against the set of cookie values seen so far, which keeps
the scan linear in the number of requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

from ..browser.events import CrawlLog
from ..net.url import URLError, parse_url

__all__ = ["SyncEvent", "SyncReport", "detect_cookie_sync", "MIN_VALUE_LENGTH"]

#: Values shorter than this are too ambiguous to match (avoids false
#: positives on short tokens like "1" or "en").
MIN_VALUE_LENGTH = 8


@dataclass(frozen=True)
class SyncEvent:
    """One observed synchronization: a cookie value shipped to a partner."""

    page_domain: str     # site where it happened
    origin_domain: str   # registrable domain that owned the cookie
    destination: str     # registrable domain receiving the value
    cookie_name: str
    value: str


@dataclass
class SyncReport:
    """Aggregate §5.1.2 findings."""

    events: List[SyncEvent] = field(default_factory=list)
    #: (origin, destination) -> number of cookies observed shipped.
    pair_counts: Dict[Tuple[str, str], int] = field(default_factory=dict)
    sites: Set[str] = field(default_factory=set)

    @property
    def pair_count(self) -> int:
        return len(self.pair_counts)

    @property
    def origins(self) -> Set[str]:
        return {origin for origin, _ in self.pair_counts}

    @property
    def destinations(self) -> Set[str]:
        return {destination for _, destination in self.pair_counts}

    def heavy_pairs(self, minimum: int = 75) -> Dict[Tuple[str, str], int]:
        """Figure 4's edge set: pairs exchanging at least ``minimum`` cookies."""
        return {
            pair: count for pair, count in self.pair_counts.items()
            if count >= minimum
        }

    def coverage_of(self, sites: Iterable[str]) -> float:
        """Fraction of the given sites on which syncing was observed."""
        sites = list(sites)
        if not sites:
            return 0.0
        return sum(1 for site in sites if site in self.sites) / len(sites)


def _url_tokens(url: str) -> List[str]:
    """Candidate value tokens in a URL: query values and path segments."""
    try:
        parsed = parse_url(url)
    except URLError:
        return []
    tokens = [
        value for value in parsed.query_params().values()
        if len(value) >= MIN_VALUE_LENGTH
    ]
    tokens.extend(
        segment for segment in parsed.path.split("/")
        if len(segment) >= MIN_VALUE_LENGTH
    )
    return tokens


def detect_cookie_sync(log: CrawlLog) -> SyncReport:
    """Scan a crawl log for cookie values reappearing in request URLs.

    The merge of :func:`~repro.core.mapmerge.map_sync` over the whole
    log as one group: its events' offsets are their global ``seq``
    order, so values travel across sites as in one scan whatever order
    the log keeps its sites' rows in.  A crawl's per-site partials merge
    to the same report, since each site draws the ``seq`` range after
    the previous site's.
    """
    from .mapmerge import map_sync, merge_sync

    return merge_sync([map_sync(log.cookies, log.requests)])
