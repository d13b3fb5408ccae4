"""Section 4.2(2) — ATS classification via EasyList / EasyPrivacy.

The lists are rule-based over full URLs (``bbc.co.uk`` is clean while
``bbc.co.uk/analytics`` is blocked), so classification matches every
observed request URL; the paper also applies a relaxed base-domain match
to count ATS *organizations*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from ..blocklists.easylist import FilterList, MatchContext
from ..browser.events import CrawlLog
from ..net.url import URLError, parse_url

__all__ = ["ATSClassifier", "ATSResult"]


@dataclass
class ATSResult:
    """Which observed third parties the blocklists recognize as ATS."""

    #: FQDNs with at least one full-URL rule match.
    ats_fqdns: Set[str] = field(default_factory=set)
    #: Registrable domains matched by the relaxed base-domain method.
    ats_domains_relaxed: Set[str] = field(default_factory=set)
    #: page -> ATS FQDNs embedded there.
    per_page: Dict[str, Set[str]] = field(default_factory=dict)

    @property
    def fqdn_count(self) -> int:
        return len(self.ats_fqdns)


class ATSClassifier:
    """Joint EasyList + EasyPrivacy classifier."""

    def __init__(self, easylist: FilterList, easyprivacy: FilterList) -> None:
        self.easylist = easylist
        self.easyprivacy = easyprivacy
        #: Match memo keyed on everything rule evaluation can read:
        #: the URL, the first-party host, and the resource type.  A crawl
        #: asks about the same (ad pixel, page) pair once per vantage
        #: point and analysis stage, so hits dominate.
        self._memo: Dict[tuple, bool] = {}

    @classmethod
    def from_texts(cls, easylist_text: str, easyprivacy_text: str) -> "ATSClassifier":
        return cls(FilterList.from_text(easylist_text),
                   FilterList.from_text(easyprivacy_text))

    def without_memo(self) -> "ATSClassifier":
        """The same rules with an empty match memo."""
        return ATSClassifier(self.easylist, self.easyprivacy)

    def matches_url(self, url: str, *, first_party_host: str = "",
                    resource_type: str = "script") -> bool:
        """Full-URL match against both lists (the strict method)."""
        key = (url, first_party_host, resource_type)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        try:
            parsed = parse_url(url)
        except URLError:
            self._memo[key] = False
            return False
        context = MatchContext(first_party_host=first_party_host,
                               resource_type=resource_type)
        result = self.easylist.matches(parsed, context) or \
            self.easyprivacy.matches(parsed, context)
        self._memo[key] = result
        return result

    def matches_domain(self, host: str) -> bool:
        """Relaxed base-FQDN match (the organization-level method)."""
        return self.easylist.matches_domain(host) or \
            self.easyprivacy.matches_domain(host)

    def classify_log(
        self,
        log: CrawlLog,
        *,
        third_party_fqdns: Optional[Set[str]] = None,
    ) -> ATSResult:
        """Classify every (page, request) in a crawl log.

        ``third_party_fqdns`` restricts classification to labeled third
        parties (pass :attr:`PartyLabels.all_third_party_fqdns`).

        The merge of :func:`~repro.core.mapmerge.map_ats` over the log's
        per-site row groups.  A log is a sequence of per-site visits
        (:meth:`~repro.browser.events.CrawlLog.site_groups`): without
        site marks each site's requests are grouped together, so a
        hand-built log that interleaves two sites is classified as if
        each site's requests were contiguous.
        """
        from .mapmerge import map_ats, merge_ats

        return merge_ats([map_ats(site.requests, self)
                          for site in log.site_groups()],
                         third_party_fqdns=third_party_fqdns)
