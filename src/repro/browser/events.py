"""Crawl log schema — our equivalent of OpenWPM's instrumentation tables.

Every analysis in :mod:`repro.core` consumes these records and nothing
else: the pipeline never touches generator ground truth, mirroring how the
paper's pipeline consumes OpenWPM's SQLite logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..js.api import JSCall

__all__ = ["RequestRecord", "CookieRecord", "PageVisit", "CrawlLog",
           "SiteRows"]


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


class SiteRows(NamedTuple):
    """One site's rows of a crawl log (see :meth:`CrawlLog.site_groups`)."""

    domain: str
    visits: List[PageVisit]
    requests: List[RequestRecord]
    cookies: List[CookieRecord]
    js_calls: List[JSCall]


#: The row lists of a log in mark order, with the field that names the
#: site a row belongs to when the log carries no marks.
_SITE_KEYS = (("visits", "site_domain"), ("requests", "page_domain"),
              ("cookies", "page_domain"), ("js_calls", "document_host"))


@dataclass
class CrawlLog:
    """Everything one crawl produced from one vantage point.

    A log is a sequence of per-site visits: each site's rows follow its
    landing-page visit, before the next site's.  :meth:`site_groups`
    cuts it into those per-site row groups, which is the only form the
    analyses in :mod:`repro.core` read.
    """

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

        A checkpointed crawl calls this once each site's slice is on
        disk, so in-memory growth stays bounded by one site.  Clearing
        is in-place (``del lst[:]``) because the live ``Browser`` holds
        aliases to these lists.
        """
        del self.visits[:]
        del self.requests[:]
        del self.cookies[:]
        del self.js_calls[:]
        del self.site_marks[:]

    def site_groups(self) -> List[SiteRows]:
        """The log's rows as per-site groups, in site order.

        With :attr:`site_marks` (every crawl and stored run sets them)
        the log is cut at the marks.  Without them — a log built by
        hand — rows are grouped by site in first-appearance order:
        visits by ``site_domain``, requests and cookies by
        ``page_domain``, JS calls by ``document_host``.  Both agree on any log that keeps
        each site's rows together, which every crawl does; rows of a
        site interleaved with another's are grouped, not kept in place.
        """
        tables = [getattr(self, table) for table, _key in _SITE_KEYS]
        if self.site_marks:
            ends = [marks[1:] for marks in self.site_marks[1:]]
            ends.append(tuple(len(rows) for rows in tables))
            return [
                SiteRows(domain, *(rows[lo:hi] for rows, lo, hi
                                   in zip(tables, starts, end)))
                for (domain, *starts), end in zip(self.site_marks, ends)
            ]
        groups: Dict[str, SiteRows] = {}
        for slot, (rows, (_table, key)) in enumerate(zip(tables, _SITE_KEYS),
                                                     start=1):
            for row in rows:
                domain = getattr(row, key)
                if domain not in groups:
                    groups[domain] = SiteRows(domain, [], [], [], [])
                groups[domain][slot].append(row)
        return list(groups.values())

    def successful_visits(self) -> List[PageVisit]:
        return [visit for visit in self.visits if visit.success]

