"""The per-site analyses as map/merge pairs — their one implementation.

Each analysis of a crawl run is ``merge(map(one site's rows) for each
site, in run order)``.  The study feeds the pairs through
:class:`~repro.datastore.incremental.IncrementalRunAnalyzer` (partials
mapped from an in-memory log, or read from the store, where each crawled
site's partials are written with its rows); the whole-log entry points
(``label_parties``, ``ATSClassifier.classify_log``, ``analyze_cookies``,
``analyze_https``, ``analyze_banners``) are the same merges over
:meth:`~repro.browser.events.CrawlLog.site_groups`, and
``detect_cookie_sync`` merges the whole log as one group.  Fingerprinting and
malware merge into their shared whole-log analyzers
(``analyze_fingerprinting``, ``malware_report``) instead; malware needs
only the ``visits`` partial, which carries the site's miner calls.  The
study folds two partials straight into their consumers: ``map_owners``
feeds ``discover_owners`` (Table 1) and ``map_visits``'s ``blocked``
count feeds ``CountryObservation`` (Table 7).
``tests/golden/analyses.json`` pins every result.

The rendered report depends on more than values: several consumers
break ranking ties by *insertion order* (``build_figure3`` via the order
organizations first appear while walking ``third_party_direct``,
Table 4 via ``per_domain_sites`` first-touch order), and CPython
set/dict iteration order depends on insertion history.  So partials do
not store bare sets — they store the **operation sequence** one scan of
the site's records performs (first-touch ordered tuples, record
ordinals for interleavings), and every merge replays those operations
in run order, which gives the merged containers the insertion history
of one scan over the whole run.

Partials are plain tuples/dicts of primitives: marshal-encodable,
versioned via :data:`ANALYSIS_VERSIONS` (bump a version whenever a map
function's output or semantics change — a stored partial of another
version is mapped again from its rows), and small (no HTML, no raw
rows).  Every dict in a partial is built in one scan order, so equal
partials encode to equal bytes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..js.api import JSCall
from ..net.url import registrable_domain
from .ats import ATSClassifier, ATSResult
from .compliance.banners import BannerObservation, BannerReport, detect_banner
from .cookie_analysis import (
    HUGE_LENGTH,
    MIN_ID_LENGTH,
    _GEO_RE,
    _ISP_RE,
    CookieStats,
    TopCookieDomain,
    _dedupe,
    decode_cookie_value,
)
from .cookie_sync import (
    MIN_VALUE_LENGTH,
    SyncEvent,
    SyncReport,
    _url_tokens,
)
from .fingerprinting import FingerprintingReport, analyze_fingerprinting
from .https_analysis import HTTPSReport, HTTPSTierRow
from .malware import (
    DETECTION_THRESHOLD,
    MalwareReport,
    is_miner_call,
    malware_report,
)
from .owners import extract_head_organization
from .partylabel import PartyLabels, _is_direct, _is_first_party
from .popularity import PopularityReport

__all__ = [
    "ANALYSIS_VERSIONS",
    "map_labels",
    "merge_labels",
    "map_ats",
    "merge_ats",
    "map_cookies",
    "merge_cookies",
    "map_https",
    "merge_https",
    "map_banners",
    "merge_banners",
    "map_sync",
    "merge_sync",
    "map_jsapi",
    "merge_fingerprinting",
    "map_visits",
    "merge_malware",
    "map_owners",
]

#: Version of each map function's partial format *and* semantics,
#: stored beside every partial at rest (and part of the aggregate-cache
#: key for ``sanitize`` and ``inspect``): bumping one makes every stored
#: partial of that analysis stale, forcing a clean recompute.
ANALYSIS_VERSIONS: Dict[str, int] = {
    "labels": 1,
    "ats": 1,
    "cookies": 1,
    "https": 1,
    "banners": 1,
    "sync": 2,
    "jsapi": 1,
    "visits": 4,
    "owners": 1,
    # §3 per-candidate sanitize verdicts (cached by
    # repro.datastore.incremental.cached_sanitize).
    "sanitize": 1,
    # Per-site Selenium inspections (cached by
    # repro.datastore.incremental.cached_inspections).
    "inspect": 1,
}


# ----------------------------------------------------------------------
# Party labeling (whole log: partylabel.label_parties)
# ----------------------------------------------------------------------

def map_labels(requests, *, cert_lookup=None,
               levenshtein_threshold: float = 0.7,
               decided: Optional[Dict[Tuple[str, str], bool]] = None) -> dict:
    """Per-site half of :func:`~repro.core.partylabel.label_parties`.

    Labeling is fully per-(page, fqdn), so the partial is simply the
    ordered sequence of first set-insertions a scan of this site's
    records performs — ``(record ordinal, target set, page, fqdn)``.
    A first-party decision is a pure function of ``(page, fqdn)`` for a
    fixed ``cert_lookup`` and threshold: ``decided``, a memo of them, may
    be shared across sites and runs that keep both fixed (a study's
    runs label the same pages).  Without one, each call decides afresh.
    """
    if decided is None:
        decided = {}
    events: List[Tuple[int, str, str, str]] = []
    seen: Set[Tuple[str, str, str]] = set()
    for idx, record in enumerate(requests):
        if record.failed or record.resource_type == "document":
            continue
        page = record.page_domain
        fqdn = record.fqdn
        key = (page, fqdn)
        first = decided.get(key)
        if first is None:
            first = _is_first_party(page, fqdn, cert_lookup,
                                    levenshtein_threshold)
            decided[key] = first
        if first:
            if registrable_domain(fqdn) != registrable_domain(page):
                event = ("first", page, fqdn)
                if event not in seen:
                    seen.add(event)
                    events.append((idx,) + event)
            continue
        if _is_direct(record):
            event = ("direct", page, fqdn)
        else:
            event = ("dynamic", page, fqdn)
        if event not in seen:
            seen.add(event)
            events.append((idx,) + event)
    return {"events": tuple(events)}


def merge_labels(partials: Sequence[dict]) -> PartyLabels:
    """Replay every site's labeling insertions in log order."""
    labels = PartyLabels()
    target = {
        "first": labels.first_party,
        "direct": labels.third_party_direct,
        "dynamic": labels.third_party_dynamic,
    }
    for partial in partials:
        for _idx, kind, page, fqdn in partial["events"]:
            target[kind].setdefault(page, set()).add(fqdn)
    # A domain seen only dynamically on a page where it was also direct
    # stays direct; drop dynamic entries that duplicate direct ones.
    for page, direct in labels.third_party_direct.items():
        dynamic = labels.third_party_dynamic.get(page)
        if dynamic:
            dynamic -= direct
    return labels


# ----------------------------------------------------------------------
# ATS classification (whole log: ATSClassifier.classify_log)
# ----------------------------------------------------------------------

def map_ats(requests, classifier: ATSClassifier) -> dict:
    """Per-site half of :meth:`~repro.core.ats.ATSClassifier.classify_log`.

    Classification is one scan over the run's records with one piece of
    cross-site state: once an FQDN has a strict (full-URL) match
    anywhere, every later record of it — on any site — lands in
    ``per_page`` without rule evaluation.  Everything else is per-record and pure, so the partial
    keeps, per FQDN in first-encounter order, exactly what the replay
    needs under *any* entry state: the first record ordinal, the first
    strict-match ordinal (rules evaluated per record, memoized in the
    classifier), whether any non-strict record preceded the strict one
    (those are the records that can take the relaxed ``elif``), the
    registrable domain, and the pure per-FQDN relaxed verdict.

    The ``third_party_fqdns`` filter is *not* applied here — it derives
    from the merged labels of the whole log, so it belongs to the merge.
    """
    order: List[str] = []
    info: Dict[str, list] = {}
    for idx, record in enumerate(requests):
        if record.failed or record.resource_type == "document":
            continue
        fqdn = record.fqdn
        entry = info.get(fqdn)
        if entry is None:
            entry = [record.page_domain, idx, None, False]
            info[fqdn] = entry
            order.append(fqdn)
        if entry[2] is not None:
            continue  # first-branch no-op once strict-matched
        if classifier.matches_url(record.url,
                                  first_party_host=record.page_domain,
                                  resource_type=record.resource_type):
            entry[2] = idx
        else:
            entry[3] = True
    entries = tuple(
        (fqdn, info[fqdn][0], info[fqdn][1], info[fqdn][2], info[fqdn][3],
         registrable_domain(fqdn), classifier.matches_domain(fqdn))
        for fqdn in order
    )
    return {"entries": entries}


def merge_ats(partials: Sequence[dict], *,
              third_party_fqdns: Optional[Set[str]] = None) -> ATSResult:
    """Replay the classification with the global FQDN set threaded through."""
    result = ATSResult()
    for partial in partials:
        events: List[Tuple[int, str, str, str, str]] = []
        for (fqdn, page, first_idx, strict_idx, nonstrict_before,
             base, domain_match) in partial["entries"]:
            if third_party_fqdns is not None and \
                    fqdn not in third_party_fqdns:
                continue
            if fqdn in result.ats_fqdns:
                # Known ATS on site entry: first record lands in per_page.
                events.append((first_idx, "seen", page, fqdn, base))
                continue
            if strict_idx is not None:
                if domain_match and nonstrict_before:
                    events.append((first_idx, "relaxed", page, fqdn, base))
                events.append((strict_idx, "strict", page, fqdn, base))
            elif domain_match and nonstrict_before:
                events.append((first_idx, "relaxed", page, fqdn, base))
        events.sort(key=lambda event: event[0])
        for _idx, kind, page, fqdn, base in events:
            if kind == "relaxed":
                result.ats_domains_relaxed.add(base)
            else:
                if kind == "strict":
                    result.ats_fqdns.add(fqdn)
                result.per_page.setdefault(page, set()).add(fqdn)
    # Relaxed matches subsume strict ones at the domain level.
    for fqdn in result.ats_fqdns:
        result.ats_domains_relaxed.add(registrable_domain(fqdn))
    return result


# ----------------------------------------------------------------------
# Cookie analysis (whole log: cookie_analysis.analyze_cookies)
# ----------------------------------------------------------------------

def map_cookies(visits, cookies, *, client_ip: str) -> dict:
    """Per-site half of :func:`~repro.core.cookie_analysis.analyze_cookies`.

    The dedupe key starts with the page domain, so global dedupe equals
    per-site dedupe.  Scalars sum; every ordered collection records the
    site-local first-touch order so the merge can rebuild the global
    dicts/sets with one scan's insertion history (Table 4 ranks by
    ``-len(sites)`` with ties falling back to first-touch order).
    """
    partial = {
        "visited": 0,
        "total": 0, "id": 0, "huge": 0, "first": 0, "third": 0,
        "ip": 0, "geo": 0, "geo_isp": 0,
        "pages_with_cookies": [], "pages_with_tp": [], "geo_pages": [],
        "tp_bases": [],
        # base -> [id-cookie count, page]  (first-touch ordered)
        "per_domain": {},
        # base -> third-party IP-cookie count (order irrelevant: counts)
        "per_domain_ip": {},
        # base -> IP-cookie count, any party  (first-touch ordered)
        "ip_domains": {},
        # (name, value, page) in first-touch order
        "popular": [],
        "popular_seen": None,  # dropped before return
    }
    partial["visited"] = sum(1 for visit in visits if visit.success)
    pages_with_cookies: Set[str] = set()
    pages_with_tp: Set[str] = set()
    geo_pages: Set[str] = set()
    tp_bases: Set[str] = set()
    popular_seen: Set[Tuple[str, str, str]] = set()
    for cookie in _dedupe(cookies):
        partial["total"] += 1
        if cookie.page_domain not in pages_with_cookies:
            pages_with_cookies.add(cookie.page_domain)
            partial["pages_with_cookies"].append(cookie.page_domain)
        if cookie.session or len(cookie.value) < MIN_ID_LENGTH:
            continue
        partial["id"] += 1
        if len(cookie.value) > HUGE_LENGTH:
            partial["huge"] += 1
        base = registrable_domain(cookie.domain)
        third_party = base != registrable_domain(cookie.page_domain)
        if third_party:
            partial["third"] += 1
            if base not in tp_bases:
                tp_bases.add(base)
                partial["tp_bases"].append(base)
            if cookie.page_domain not in pages_with_tp:
                pages_with_tp.add(cookie.page_domain)
                partial["pages_with_tp"].append(cookie.page_domain)
            entry = partial["per_domain"].get(base)
            if entry is None:
                partial["per_domain"][base] = [1, cookie.page_domain]
            else:
                entry[0] += 1
        else:
            partial["first"] += 1

        popular_key = (cookie.name, cookie.value, cookie.page_domain)
        if popular_key not in popular_seen:
            popular_seen.add(popular_key)
            partial["popular"].append(popular_key)

        decodings = decode_cookie_value(cookie.value)
        has_ip = client_ip and any(client_ip in text for text in decodings)
        if has_ip:
            partial["ip"] += 1
            partial["ip_domains"][base] = \
                partial["ip_domains"].get(base, 0) + 1
            if third_party:
                partial["per_domain_ip"][base] = \
                    partial["per_domain_ip"].get(base, 0) + 1
        for text in decodings:
            if _GEO_RE.search(text):
                partial["geo"] += 1
                if cookie.page_domain not in geo_pages:
                    geo_pages.add(cookie.page_domain)
                    partial["geo_pages"].append(cookie.page_domain)
                if _ISP_RE.search(text):
                    partial["geo_isp"] += 1
                break
    del partial["popular_seen"]
    partial["pages_with_cookies"] = tuple(partial["pages_with_cookies"])
    partial["pages_with_tp"] = tuple(partial["pages_with_tp"])
    partial["geo_pages"] = tuple(partial["geo_pages"])
    partial["tp_bases"] = tuple(partial["tp_bases"])
    partial["popular"] = tuple(partial["popular"])
    return partial


def merge_cookies(partials: Sequence[dict], *,
                  ats_domains: Optional[Set[str]] = None,
                  regular_web_domains: Optional[Set[str]] = None,
                  top_n: int = 5) -> CookieStats:
    stats = CookieStats()
    per_domain_cookies: Dict[str, int] = {}
    per_domain_sites: Dict[str, Set[str]] = {}
    per_domain_ip: Dict[str, int] = {}
    popular: Dict[Tuple[str, str], Set[str]] = {}
    for partial in partials:
        stats.sites_visited += partial["visited"]
        stats.total_cookies += partial["total"]
        stats.id_cookies += partial["id"]
        stats.huge_id_cookies += partial["huge"]
        stats.first_party_id_cookies += partial["first"]
        stats.third_party_id_cookies += partial["third"]
        stats.ip_cookies += partial["ip"]
        stats.geo_cookies += partial["geo"]
        stats.geo_cookies_with_isp += partial["geo_isp"]
        stats.sites_with_cookies += len(partial["pages_with_cookies"])
        stats.sites_with_third_party_cookies += len(partial["pages_with_tp"])
        for base in partial["tp_bases"]:
            stats.third_party_cookie_domains.add(base)
        for base, (count, page) in partial["per_domain"].items():
            per_domain_cookies[base] = \
                per_domain_cookies.get(base, 0) + count
            per_domain_sites.setdefault(base, set()).add(page)
        for base, count in partial["ip_domains"].items():
            stats.ip_cookie_domains[base] = \
                stats.ip_cookie_domains.get(base, 0) + count
        for base, count in partial["per_domain_ip"].items():
            per_domain_ip[base] = per_domain_ip.get(base, 0) + count
        for name, value, page in partial["popular"]:
            popular.setdefault((name, value), set()).add(page)
        for page in partial["geo_pages"]:
            stats.geo_cookie_sites.add(page)
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


# ----------------------------------------------------------------------
# HTTPS adoption (whole log: https_analysis.analyze_https)
# ----------------------------------------------------------------------

def map_https(visits, requests, cookies, *, client_ip: str,
              third_party_direct: Dict[str, Set[str]]) -> dict:
    """Per-site half of :func:`~repro.core.https_analysis.analyze_https`.

    Labels enter only as ``third_party_direct`` (page -> the FQDNs the
    page itself called): a per-page set, so the site's own labels
    supply it exactly.  Tier assignment needs the crawled-popularity
    report of the *whole* run, so it stays in the merge: the partial
    keeps per-page facts (page scheme, per-service HTTPS OR in
    first-record order, the plain-HTTP flags, the cleartext ID-cookie
    verdict).
    """
    page_https: List[Tuple[str, bool]] = []
    for visit in visits:
        if visit.success:
            page_https.append((visit.site_domain, visit.https))

    services: Dict[str, Dict[str, bool]] = {}
    http_tp: List[str] = []
    http_tp_seen: Set[str] = set()
    for record in requests:
        if record.failed or record.resource_type == "document":
            continue
        page = record.page_domain
        if record.fqdn not in third_party_direct.get(page, ()):
            continue
        secure = record.scheme == "https"
        page_services = services.setdefault(page, {})
        page_services[record.fqdn] = \
            (page_services.get(record.fqdn) or False) or secure
        if record.scheme == "http" and page not in http_tp_seen:
            http_tp_seen.add(page)
            http_tp.append(page)

    # Sensitive cookies uploaded in the clear (§5.1.1's IP/geo payloads):
    # a cookie whose decoded value carries the client address or location,
    # scoped to a domain the page contacted over plain HTTP.
    http_domains_per_page: Dict[str, Set[str]] = {}
    for record in requests:
        if record.scheme == "http" and not record.failed:
            http_domains_per_page.setdefault(record.page_domain, set()).add(
                registrable_domain(record.fqdn)
            )
    cleartext: List[str] = []
    cleartext_seen: Set[str] = set()
    for cookie in cookies:
        if cookie.session or len(cookie.value) < MIN_ID_LENGTH:
            continue
        bases = http_domains_per_page.get(cookie.page_domain)
        if not bases or registrable_domain(cookie.domain) not in bases:
            continue
        decodings = decode_cookie_value(cookie.value)
        sensitive = (client_ip and
                     any(client_ip in text for text in decodings)) \
            or any("lat%3d" in text.lower() or "lat=" in text.lower()
                   for text in decodings)
        if sensitive and cookie.page_domain not in cleartext_seen:
            cleartext_seen.add(cookie.page_domain)
            cleartext.append(cookie.page_domain)

    return {
        "page_https": tuple(page_https),
        "services": {page: tuple(entries.items())
                     for page, entries in services.items()},
        "http_tp": tuple(http_tp),
        "cleartext": tuple(cleartext),
    }


def merge_https(partials: Sequence[dict], *,
                popularity: PopularityReport) -> HTTPSReport:
    from ..webgen.config import TIER_NAMES

    report = HTTPSReport()
    tier_of_page: Dict[str, int] = {s.domain: s.tier
                                    for s in popularity.sites}

    page_https: Dict[str, bool] = {}
    for partial in partials:
        for page, https in partial["page_https"]:
            page_https[page] = https
    report.sites_visited = len(page_https)

    service_scheme: Dict[int, Dict[str, bool]] = {0: {}, 1: {}, 2: {}, 3: {}}
    page_has_http_third_party: Dict[str, bool] = {}
    for partial in partials:
        for page, entries in partial["services"].items():
            tier = tier_of_page.get(page)
            if tier is not None:
                tier_services = service_scheme[tier]
                for fqdn, secure in entries:
                    tier_services[fqdn] = \
                        (tier_services.get(fqdn) or False) or secure
        for page in partial["http_tp"]:
            page_has_http_third_party[page] = True

    tier_sites: Dict[int, List[str]] = {0: [], 1: [], 2: [], 3: []}
    for page, https in page_https.items():
        tier = tier_of_page.get(page)
        if tier is not None:
            tier_sites[tier].append(page)

    for tier in range(4):
        sites = tier_sites[tier]
        https_sites = sum(1 for page in sites if page_https[page])
        services = service_scheme[tier]
        https_services = sum(1 for secure in services.values() if secure)
        report.rows.append(
            HTTPSTierRow(
                interval=TIER_NAMES[tier],
                site_count=len(sites),
                site_https_fraction=https_sites / len(sites)
                if sites else 0.0,
                service_count=len(services),
                service_https_fraction=https_services / len(services)
                if services else 0.0,
            )
        )

    for page, https in page_https.items():
        if not https or page_has_http_third_party.get(page):
            report.not_fully_https_sites.add(page)
    for partial in partials:
        for page in partial["cleartext"]:
            report.cleartext_cookie_sites.add(page)
    return report


# ----------------------------------------------------------------------
# Banner detection (whole log: compliance.banners.analyze_banners)
# ----------------------------------------------------------------------

def map_banners(visits) -> dict:
    """Per-site half of :func:`~repro.core.compliance.banners.analyze_banners`.

    Detection is a pure function of one page's markup; the partial keeps
    only the verdicts (never the HTML).
    """
    observations: List[Tuple[str, str, str]] = []
    visited = 0
    for visit in visits:
        if not visit.success:
            continue
        visited += 1
        if not visit.html:
            continue
        observation = detect_banner(visit.html, visit.site_domain)
        if observation is not None:
            observations.append((observation.site_domain,
                                 observation.banner_type, observation.text))
    return {"observations": tuple(observations), "visited": visited}


def merge_banners(partials: Sequence[dict], *,
                  corpus_size: Optional[int] = None) -> BannerReport:
    report = BannerReport()
    visited = 0
    for partial in partials:
        visited += partial["visited"]
        for site_domain, banner_type, text in partial["observations"]:
            report.observations.append(
                BannerObservation(site_domain=site_domain,
                                  banner_type=banner_type, text=text)
            )
    report.sites_checked = corpus_size if corpus_size else visited
    return report


# ----------------------------------------------------------------------
# Cookie synchronization (whole log: cookie_sync.detect_cookie_sync)
# ----------------------------------------------------------------------

def map_sync(cookies, requests) -> dict:
    """Per-site half of :func:`~repro.core.cookie_sync.detect_cookie_sync`.

    Syncing is inherently cross-site (one site's cookie value can show
    up in another site's request URL), so the partial is not a verdict —
    it is the site's *contribution to the global event stream*: every
    long-enough cookie value and every token-bearing request URL, each
    with its offset in the site's ``seq`` range, which a delta crawl's
    splice does not shift.  URL tokenization (the expensive part) runs
    here; token-less requests are no-ops in the detector and dropped.
    """
    base = min([cookie.seq for cookie in cookies]
               + [record.seq for record in requests], default=0)
    cookie_events = tuple(
        (cookie.seq - base, cookie.value, registrable_domain(cookie.domain),
         cookie.name)
        for cookie in cookies
        if len(cookie.value) >= MIN_VALUE_LENGTH
    )
    request_events = []
    for record in requests:
        tokens = _url_tokens(record.url)
        if tokens:
            request_events.append(
                (record.seq - base, registrable_domain(record.fqdn),
                 record.page_domain, tuple(tokens))
            )
    return {"cookies": cookie_events, "requests": tuple(request_events)}


def merge_sync(partials: Sequence[dict]) -> SyncReport:
    """Replay the global seq-ordered scan over every site's events.

    Each event of a site draws one ``seq`` from the crawl-wide counter,
    and a site's events draw a contiguous range after the previous
    site's, so ordering the events by (run position, offset within the
    site) reconstructs the crawl's event order: a cookie value is owned
    by the first domain that set it, and a request carrying it to
    another domain — on any later site — is a sync.
    """
    events: List[Tuple[Tuple[int, int], int, tuple]] = []
    for position, partial in enumerate(partials):
        for offset, value, origin, name in partial["cookies"]:
            events.append(((position, offset), 0, (value, origin, name)))
        for offset, destination, page, tokens in partial["requests"]:
            events.append(((position, offset), 1,
                           (destination, page, tokens)))
    events.sort(key=lambda item: item[0])

    report = SyncReport()
    value_owner: Dict[str, Tuple[str, str]] = {}
    for _order, kind, payload in events:
        if kind == 0:
            value, origin, name = payload
            if value not in value_owner:
                value_owner[value] = (origin, name)
            continue
        destination, page, tokens = payload
        for token in tokens:
            owner = value_owner.get(token)
            if owner is None:
                continue
            origin_domain, cookie_name = owner
            if origin_domain == destination:
                continue
            report.events.append(SyncEvent(
                page_domain=page,
                origin_domain=origin_domain,
                destination=destination,
                cookie_name=cookie_name,
                value=token,
            ))
            pair = (origin_domain, destination)
            report.pair_counts[pair] = report.pair_counts.get(pair, 0) + 1
            report.sites.add(page)
    return report


# ----------------------------------------------------------------------
# Fingerprinting (whole log: analyze_fingerprinting) — the partial is
# the site's instrumented call rows.
# ----------------------------------------------------------------------

def map_jsapi(js_calls) -> dict:
    """A site's instrumented JS calls as primitive tuples.

    Fingerprinting classification is per-(script, execution site) but a
    script's row groups calls from *all* its sites, so the per-site
    partial cannot pre-judge — it carries the raw call facts and the
    merge rebuilds the global stream.  Calls are small (api name + a
    scalar args dict); HTML and network rows never enter the partial.
    Args are copied in key order, as the store writes them, so a
    partial encodes alike mapped from a live log or stored rows.
    """
    return {
        "calls": tuple(
            (call.script_url, call.document_host, call.api,
             dict(sorted(call.args.items())))
            for call in js_calls
        ),
    }


def _replay_calls(partials: Sequence[dict]) -> List[JSCall]:
    """Concatenate per-site calls in log site order = global log order."""
    return [
        JSCall(script_url=script_url, document_host=document_host,
               api=api, args=args)
        for partial in partials
        for script_url, document_host, api, args in partial["calls"]
    ]


def merge_fingerprinting(partials: Sequence[dict], *,
                         url_blocklisted=None) -> FingerprintingReport:
    """Rebuild the call stream and run the whole-log analyzer on it.

    A run's rows are per-site spans in run position order, so
    concatenating the partials in that same order *is* the run's call
    stream, and delegating to
    :func:`~repro.core.fingerprinting.analyze_fingerprinting` keeps one
    implementation.
    """
    return analyze_fingerprinting(_replay_calls(partials),
                                  url_blocklisted=url_blocklisted)


# ----------------------------------------------------------------------
# Visits: malware (whole log: malware.analyze_malware) and Table 7's
# blocked-site counts
# ----------------------------------------------------------------------

def map_visits(visits, js_calls) -> dict:
    """The site's successful-visit domains, in visit order, how many of
    its visits were blocked (§6): a 451, or — country-level blocking
    surfacing as a network failure — a ``FetchError`` with no status,
    and the ``(script_url, document_host)`` of its cryptomining
    ``Worker`` creations (§5.3), so malware never needs the far larger
    ``jsapi`` partial.  A regular run is mapped with no JS calls (its
    ``miners`` are empty): malware reads only porn runs."""
    return {
        "visited": tuple(
            visit.site_domain for visit in visits if visit.success
        ),
        "blocked": sum(
            1 for visit in visits
            if not visit.success and (
                visit.status == 451
                or (visit.status is None
                    and visit.failure_reason == "FetchError"))
        ),
        "miners": tuple(
            (call.script_url, call.document_host) for call in js_calls
            if is_miner_call(call.api, call.args)
        ),
    }


def merge_malware(visit_partials: Sequence[dict], *,
                  labels: PartyLabels, scanner,
                  threshold: int = DETECTION_THRESHOLD) -> MalwareReport:
    """The §5.3 analysis straight over the visit partials."""
    return malware_report(
        (domain for partial in visit_partials
         for domain in partial["visited"]),
        (call for partial in visit_partials for call in partial["miners"]),
        labels, scanner, threshold=threshold,
    )


# ----------------------------------------------------------------------
# Owner evidence (Table 1's <head> stage of discover_owners)
# ----------------------------------------------------------------------

def map_owners(visits) -> dict:
    """The site's ``<head>`` owner evidence, per successful visit with
    markup: ``(site, organization or None)``.  Sites without evidence
    stay in, because ``discover_owners`` still looks up their
    certificates; the partial keeps the organization string, never the
    HTML."""
    return {
        "heads": tuple(
            (visit.site_domain, extract_head_organization(visit.html) or None)
            for visit in visits if visit.success and visit.html
        ),
    }
