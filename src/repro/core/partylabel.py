"""Section 4.2(1) — first/third-party labeling of observed requests.

For every (visited site, contacted FQDN) pair the labeler decides whether
the FQDN is a first party of the site using, in order:

1. registrable-domain equality;
2. X.509 relationships (shared Subject organization, or a certificate
   whose names bridge the two domains);
3. Levenshtein similarity above 0.7 between the domains
   (``doublepimp.com`` ~ ``doublepimpssl.com``).

Third parties are further split into *direct* (called by the publisher:
the request referrer is the visited page) and *dynamic* (loaded inside
third-party frames or reached through redirect chains) — the inclusion-
chain pruning described in §3.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Optional, Set

from ..browser.events import CrawlLog, RequestRecord
from ..net.tls import Certificate, certificate_matches_host, share_organization
from ..net.url import parse_url, registrable_domain
from ..text.levenshtein import domains_similar

__all__ = ["PartyLabels", "label_parties"]

CertLookup = Callable[[str], Optional[Certificate]]


@lru_cache(maxsize=16384)
def _domains_similar_cached(a: str, b: str, threshold: float) -> bool:
    """Memoized banded-Levenshtein similarity on a normalized pair.

    The same third-party registrable domain is re-compared against the
    same first party for every request it serves across a study's logs;
    the pair is order-normalized (similarity is symmetric) and lowered
    before keying, so the cache collapses all of that repeated DP work
    without changing a single verdict.
    """
    return domains_similar(a, b, threshold=threshold)


def _domains_similar(a: str, b: str, threshold: float) -> bool:
    a = a.lower()
    b = b.lower()
    if b < a:
        a, b = b, a
    return _domains_similar_cached(a, b, threshold)


@dataclass
class PartyLabels:
    """Labeling output for one crawl log."""

    #: page domain -> first-party FQDNs that are not the page's own domain.
    first_party: Dict[str, Set[str]] = field(default_factory=dict)
    #: page domain -> third-party FQDNs directly called by the publisher.
    third_party_direct: Dict[str, Set[str]] = field(default_factory=dict)
    #: page domain -> third-party FQDNs loaded dynamically (pruned in
    #: presence counts, per the paper's method).
    third_party_dynamic: Dict[str, Set[str]] = field(default_factory=dict)
    #: FQDNs whose relationship could not be established either way.
    unlabeled: Set[str] = field(default_factory=set)

    @property
    def all_first_party_fqdns(self) -> Set[str]:
        merged: Set[str] = set()
        for fqdns in self.first_party.values():
            merged |= fqdns
        return merged

    @property
    def all_third_party_fqdns(self) -> Set[str]:
        """Distinct direct third-party FQDNs (the Table 2 counting unit)."""
        merged: Set[str] = set()
        for fqdns in self.third_party_direct.values():
            merged |= fqdns
        return merged

    @property
    def all_dynamic_fqdns(self) -> Set[str]:
        merged: Set[str] = set()
        for fqdns in self.third_party_dynamic.values():
            merged |= fqdns
        return merged

    def third_parties_of(self, page_domain: str) -> Set[str]:
        return self.third_party_direct.get(page_domain, set())

    def sites_embedding(self, registrable: str) -> Set[str]:
        """All pages whose direct third parties include the given domain,
        from an index the first call builds: ask once the labels are
        complete (:func:`label_parties` returns them whole)."""
        index = self.__dict__.get("_embedding_index")
        if index is None:
            index = {}
            for page, fqdns in self.third_party_direct.items():
                for base in {registrable_domain(fqdn) for fqdn in fqdns}:
                    index.setdefault(base, []).append(page)
            self._embedding_index = index
        return set(index.get(registrable, ()))


def _is_first_party(
    page_domain: str,
    fqdn: str,
    cert_lookup: Optional[CertLookup],
    threshold: float,
) -> bool:
    page_base = registrable_domain(page_domain)
    fqdn_base = registrable_domain(fqdn)
    if page_base == fqdn_base:
        return True
    if cert_lookup is not None:
        page_cert = cert_lookup(page_domain)
        fqdn_cert = cert_lookup(fqdn)
        if share_organization(page_cert, fqdn_cert):
            return True
        if fqdn_cert is not None and certificate_matches_host(fqdn_cert, page_domain):
            return True
        if page_cert is not None and certificate_matches_host(page_cert, fqdn):
            return True
    return _domains_similar(fqdn_base, page_base, threshold)


def _is_direct(record: RequestRecord) -> bool:
    """Was this request issued by the publisher page itself?"""
    if record.resource_type == "document":
        return False
    referrer = record.referrer
    if not referrer:
        return False
    try:
        referrer_host = parse_url(referrer).host
    except Exception:
        return False
    return registrable_domain(referrer_host) == registrable_domain(record.page_domain)


def label_parties(
    log: CrawlLog,
    *,
    cert_lookup: Optional[CertLookup] = None,
    levenshtein_threshold: float = 0.7,
) -> PartyLabels:
    """Label every contacted FQDN for every visited page.

    The merge of :func:`~repro.core.mapmerge.map_labels` over the log's
    per-site row groups (:meth:`~repro.browser.events.CrawlLog.site_groups`).
    """
    from .mapmerge import map_labels, merge_labels

    return merge_labels([
        map_labels(site.requests, cert_lookup=cert_lookup,
                   levenshtein_threshold=levenshtein_threshold)
        for site in log.site_groups()
    ])
