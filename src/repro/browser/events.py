"""Crawl log schema — our equivalent of OpenWPM's instrumentation tables.

Every analysis in :mod:`repro.core` consumes these records and nothing
else: the pipeline never touches generator ground truth, mirroring how the
paper's pipeline consumes OpenWPM's SQLite logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..js.api import JSCall

__all__ = ["RequestRecord", "CookieRecord", "PageVisit", "CrawlLog"]


@dataclass(slots=True)
class RequestRecord:
    """One HTTP(S) request observed during the crawl."""

    url: str
    fqdn: str
    scheme: str
    page_domain: str            # registrable domain of the visited site
    resource_type: str          # document|script|image|sub_frame|stylesheet|xhr
    initiator: Optional[str]    # URL of the script/frame that caused it
    referrer: Optional[str]
    seq: int = 0                # global event order within the crawl
    status: Optional[int] = None
    failed: bool = False
    error: str = ""
    redirect_location: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.failed and self.status is not None and \
            200 <= self.status < 400

    @property
    def is_redirect(self) -> bool:
        return self.redirect_location is not None


@dataclass(slots=True)
class CookieRecord:
    """One stored cookie observation (a parsed ``Set-Cookie``)."""

    page_domain: str     # site being visited when the cookie was stored
    set_by_host: str     # FQDN of the response that set it
    domain: str          # cookie scope domain
    name: str
    value: str
    session: bool
    secure: bool
    over_https: bool     # the setting response traveled over TLS
    seq: int = 0         # global event order within the crawl

    @property
    def value_length(self) -> int:
        return len(self.value)


@dataclass(slots=True)
class PageVisit:
    """One landing-page visit."""

    site_domain: str
    url: str
    success: bool
    status: Optional[int] = None
    failure_reason: str = ""
    html: str = ""
    https: bool = False


@dataclass
class CrawlLog:
    """Everything one crawl produced from one vantage point."""

    country_code: str = "ES"
    client_ip: str = ""
    visits: List[PageVisit] = field(default_factory=list)
    requests: List[RequestRecord] = field(default_factory=list)
    cookies: List[CookieRecord] = field(default_factory=list)
    js_calls: List[JSCall] = field(default_factory=list)
    _seq: int = 0
    #: Where each visited site's events begin, in visit order:
    #: ``(domain, visits, requests, cookies, js_calls)`` list offsets.
    #: A site's rows run to the next site's marks (or the list end), so
    #: analyses can slice the log into per-site row groups.
    site_marks: List[Tuple[str, int, int, int, int]] = field(
        default_factory=list, compare=False, repr=False)

    def mark_site(self, domain: str) -> Tuple[int, int, int, int]:
        """Record that ``domain``'s events start here; return the offsets."""
        marks = (len(self.visits), len(self.requests), len(self.cookies),
                 len(self.js_calls))
        self.site_marks.append((domain,) + marks)
        return marks

    def next_seq(self) -> int:
        """Allocate the next global event sequence number."""
        self._seq += 1
        return self._seq

    def clear_events(self) -> None:
        """Drop the event lists but keep the sequence counter running.

        The trim-mode crawl path calls this once a site's slice is on
        disk, so in-memory growth stays bounded by one site.  Clearing
        is in-place (``del lst[:]``) because the live ``Browser`` holds
        aliases to these lists.
        """
        del self.visits[:]
        del self.requests[:]
        del self.cookies[:]
        del self.js_calls[:]
        del self.site_marks[:]

    def successful_visits(self) -> List[PageVisit]:
        return [visit for visit in self.visits if visit.success]

    def visits_by_domain(self) -> Dict[str, PageVisit]:
        return {visit.site_domain: visit for visit in self.visits}

    def requests_for(self, page_domain: str) -> List[RequestRecord]:
        return [r for r in self.requests if r.page_domain == page_domain]

    def merge(self, other: "CrawlLog") -> "CrawlLog":
        """Concatenate two logs (e.g. porn + regular corpus crawls).

        The second log's sequence numbers are shifted past the first's so
        the merged event order stays consistent.
        """
        merged = CrawlLog(self.country_code, self.client_ip)
        offset = self._seq
        merged.visits = self.visits + other.visits
        merged.requests = list(self.requests)
        merged.cookies = list(self.cookies)
        merged.js_calls = self.js_calls + other.js_calls
        for record in other.requests:
            shifted = RequestRecord(**{
                f: getattr(record, f) for f in record.__dataclass_fields__
            })
            shifted.seq = record.seq + offset
            merged.requests.append(shifted)
        for cookie in other.cookies:
            shifted_cookie = CookieRecord(**{
                f: getattr(cookie, f) for f in cookie.__dataclass_fields__
            })
            shifted_cookie.seq = cookie.seq + offset
            merged.cookies.append(shifted_cookie)
        merged._seq = offset + other._seq
        return merged
