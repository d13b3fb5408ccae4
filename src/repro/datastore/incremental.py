"""The incremental analysis engine: map churned sites, merge the rest.

Every per-site analysis of a crawl run goes through here — it is the one
path from crawl rows to labels, ATS, cookie, HTTPS, banner, sync,
fingerprinting, malware, blocked-visit and owner-evidence results.  A
run is an ordered list of per-site row groups (:class:`LogRows` over an
in-memory log's :meth:`~repro.browser.events.CrawlLog.site_groups` when
there is no store, :class:`StoredRows` reading a stored run back one
site at a time when there is one);
each site is mapped through the pairs of :mod:`repro.core.mapmerge`,
and the merge replays the partials in run position order.

Delta crawls make *crawling* an evolved epoch scale with churn by
splicing the sites the evolution lineage left unchanged; an optional
:class:`~repro.datastore.aggregates.AggregateStore` does the same for
*analysis*.  Each site's partial is persisted keyed on
``(analysis_key, analysis_version, site_domain, content_hash,
run_ref)``.  Analyzing epoch N+1 then looks every site up by its *new*
content hash: unchanged sites hit (their hash — and hence their stored
rows, by the purity contract — is unchanged), churned sites miss and
are mapped from their event rows.  The merged tables are
byte-identical whichever mix of cached and fresh partials fed them.

The hash is :class:`~repro.webgen.evolve.AnalysisHashIndex`, the one
per-site hash of the package.  It covers what a visit can observe and
also the attribution-only service fields (organization / cert_org /
in_disconnect) that party labeling reads but serving never does — a
consolidation epoch rewrites certificate organizations without changing
a byte on the wire, and cached label partials must not survive it.

The engine deliberately lives in :mod:`repro.datastore` next to
:mod:`~repro.datastore.delta`: both are consumers of the slice index
and the store's purity contract; the pure per-site math stays in
:mod:`repro.core.mapmerge`.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from ..browser.events import CrawlLog
from ..core.mapmerge import (
    ANALYSIS_VERSIONS,
    map_ats,
    map_banners,
    map_cookies,
    map_https,
    map_jsapi,
    map_labels,
    map_owners,
    map_sync,
    map_visits,
    merge_labels,
)
from ..webgen.evolve import analysis_hash_index
from .aggregates import AggregateStore
from .serialize import (
    cookie_from_row,
    domains_hash,
    jscall_from_row,
    request_from_row,
    run_key,
    vantage_to_json,
    visit_from_row,
)
from .store import CrawlStore, RunRef, SiteSlice, _slice_index

__all__ = ["IncrementalRunAnalyzer", "LogRows", "PORN_ANALYSES",
           "REGULAR_ANALYSES", "StoredRows", "cached_inspections",
           "cached_sanitize"]

#: Which per-site analyses each run kind can feed.  The order matters
#: operationally (labels are mapped first so the HTTPS mapper can reuse
#: the site's labels) but not semantically — each map is a pure
#: function of the site's rows.
PORN_ANALYSES: Tuple[str, ...] = ("labels", "ats", "cookies", "https",
                                  "banners", "sync", "jsapi", "visits",
                                  "owners")
REGULAR_ANALYSES: Tuple[str, ...] = ("labels", "ats", "visits")

#: The event tables each analysis's map function reads on a porn run.
_TABLES: Dict[str, Tuple[str, ...]] = {
    "labels": ("requests",),
    "ats": ("requests",),
    "cookies": ("visits", "cookies"),
    "https": ("visits", "requests", "cookies"),
    "banners": ("visits",),
    "sync": ("requests", "cookies"),
    "jsapi": ("js_calls",),
    "visits": ("visits", "js_calls"),
    "owners": ("visits",),
}
#: On a regular run: nothing reads its miners (malware is a porn-run
#: analysis), so its ``visits`` partials read no JS calls.
_REGULAR_TABLES: Dict[str, Tuple[str, ...]] = {
    **_TABLES, "visits": ("visits",),
}


def _run_tables(kind: str, names: Sequence[str]) -> set:
    """The event tables a run of ``kind`` reads to map ``names``."""
    tables = _TABLES if kind.endswith(":porn") else _REGULAR_TABLES
    return {table for name in names for table in tables[name]}

_DECODE = {
    "visits": visit_from_row,
    "requests": request_from_row,
    "cookies": cookie_from_row,
    "js_calls": jscall_from_row,
}


def _vantage_digest(vantage) -> str:
    """Short digest of a vantage point for cache keys: content hashes
    are vantage-independent, what a site shows a vantage is not."""
    return hashlib.sha256(
        vantage_to_json(vantage).encode("utf-8")
    ).hexdigest()[:16]


# --------------------------------------------------------------------------
# Run sources: one crawl run as per-site row groups.
# --------------------------------------------------------------------------

class LogRows:
    """An in-memory crawl log's per-site row groups
    (:meth:`~repro.browser.events.CrawlLog.site_groups`), by domain."""

    def __init__(self, log: CrawlLog) -> None:
        self.client_ip = log.client_ip
        self._groups = {group.domain: group for group in log.site_groups()}

    def site_rows(self, domain: str,
                  tables: Sequence[str]) -> Dict[str, list]:
        group = self._groups.get(domain)
        if group is None:
            raise ValueError(f"crawl log has no rows for {domain!r}")
        return {table: getattr(group, table) for table in tables}


class StoredRows:
    """A complete stored run read back a site at a time, so memory stays
    bounded by one site: :meth:`site_rows` is one range scan per table
    in the site's shard.

    It holds a live store handle, so it never crosses a fork: a forked
    worker of ``Study.prefetch_partials`` builds its own over its own
    :class:`~repro.datastore.CrawlStore`.  One pass of
    :meth:`IncrementalRunAnalyzer.partials` over every analysis a render
    needs reads each site once per table; calling it per analysis reads
    the site again each time.
    """

    def __init__(self, store: CrawlStore, run: RunRef) -> None:
        self.client_ip = store._run_header(run)[1]
        self._store = store
        self._run = run
        self._slices: Dict[str, SiteSlice] = _slice_index(store, run)

    def site_rows(self, domain: str,
                  tables: Sequence[str]) -> Dict[str, list]:
        slice_ = self._slices[domain]
        rows: Dict[str, list] = {}
        for table, (lo, hi, count) in slice_.bounds().items():
            if table not in tables:
                continue
            if not count:
                # The slice says the site has none: no scan.
                rows[table] = []
                continue
            decode = _DECODE[table]
            rows[table] = [decode(row) for row in
                           self._store.site_event_rows(
                               self._run, domain, table, lo, hi)]
        return rows


class IncrementalRunAnalyzer:
    """Per-site partials for one crawl run, optionally cached across epochs.

    :meth:`partials` returns, for each requested analysis, the list of
    per-site partials in run position order.  Without a cache every
    site is mapped from its rows for the requested analyses only, and
    nothing is kept: callers merge the partials and memoize the result.
    A caller that knows every analysis it will need asks for them in
    one call, which reads each site once for all of them; ``repro
    report`` and ``repro study --store`` do
    (``Study.prefetch_partials``), one call per run, in
    forked workers when it has the cores.  ``first_party`` is a
    ``(page, fqdn)`` first-party decision memo shared with the study's
    other runs (see :func:`~repro.core.mapmerge.map_labels`).
    With an :class:`~repro.datastore.aggregates.AggregateStore`, a
    partial is served from the cache when the site's analysis content
    hash hits and mapped from the rows when it misses; whenever a
    site's rows have to be read at all, *every* analysis of the run kind
    is mapped and cached in the same pass (the row read dominates, and
    it warms the cache for the sibling analyses), so a full study
    performs at most one row read per churned site.
    """

    def __init__(
        self,
        universe,
        cache: Optional[AggregateStore],
        *,
        vantage,
        kind: str,
        domains: Sequence[str],
        keep_html: bool = True,
        classifier=None,
        cert_lookup=None,
        first_party: Optional[Dict[Tuple[str, str], bool]] = None,
    ) -> None:
        self.cache = cache
        self.kind = kind
        self.domains = list(domains)
        self._classifier = classifier
        self._cert_lookup = cert_lookup
        self._first_party = first_party
        self.analyses = PORN_ANALYSES if kind.endswith(":porn") \
            else REGULAR_ANALYSES
        self._key_suffix = \
            f"{kind}:{_vantage_digest(vantage)}:{int(keep_html)}"
        self.run_ref = (
            run_key(universe.config, vantage, kind, keep_html=keep_html)
            + ":" + domains_hash(domains)
        )
        self._universe = universe
        self._lock = threading.Lock()
        self._done: Dict[str, List[object]] = {}

    def analysis_key(self, name: str) -> str:
        """Cache key prefix: analysis name + everything that selects
        which rows a site contributes (kind, vantage, HTML retention).
        Content hashes are vantage-independent; partials are not."""
        return f"{name}:{self._key_suffix}"

    # -- the engine ------------------------------------------------------

    def partials(self, names: Sequence[str],
                 rows) -> Dict[str, List[object]]:
        """Per-site partials for ``names``, each in run position order.

        ``rows`` (a :class:`LogRows` or :class:`StoredRows` over the
        complete run) supplies the rows of every site that has to be
        mapped.
        """
        for name in names:
            if name not in self.analyses:
                raise ValueError(
                    f"analysis {name!r} not available for kind {self.kind!r}"
                )
        names = [name for name in self.analyses if name in names]
        if self.cache is None:
            # Map just what was asked and keep nothing (callers memoize
            # the merged result): a run read back from the store stays
            # bounded by one site's rows.
            return self._map_all(names, rows)
        with self._lock:
            todo = [name for name in names if name not in self._done]
            if todo:
                self._compute_cached(todo, rows)
                self.cache.persist_stats()
            return {name: self._done[name] for name in names}

    def _map_all(self, names: List[str], rows) -> Dict[str, List[object]]:
        """No cache: map just ``names`` for every site."""
        tables = _run_tables(self.kind, names)
        results: Dict[str, List[object]] = {name: [] for name in names}
        for domain in self.domains:
            mapped = self._map_site(rows.site_rows(domain, tables), names,
                                    rows.client_ip)
            for name in names:
                results[name].append(mapped[name])
        return results

    def _compute_cached(self, names: List[str], rows) -> None:
        hashes = analysis_hash_index(self._universe)
        site_hashes = {domain: hashes.hash_of(domain)
                       for domain in self.domains}
        wanted = {domain: content_hash
                  for domain, content_hash in site_hashes.items()
                  if content_hash is not None}
        cached = {
            name: self.cache.get_many(self.analysis_key(name),
                                      ANALYSIS_VERSIONS[name], wanted)
            for name in names
        }
        tables = _run_tables(self.kind, self.analyses)
        results: Dict[str, List[object]] = {name: [] for name in names}
        to_put: List[Tuple[str, int, str, str, str, object]] = []
        for domain in self.domains:
            content_hash = site_hashes[domain]
            found = {name: cached[name][domain] for name in names
                     if domain in cached[name]}
            if len(found) < len(names):
                # Rows must be read anyway — map every analysis of the
                # run kind in this one pass and cache them all.
                mapped = self._map_site(rows.site_rows(domain, tables),
                                        self.analyses, rows.client_ip)
                if content_hash is not None:
                    to_put.extend(
                        (self.analysis_key(name), ANALYSIS_VERSIONS[name],
                         domain, content_hash, self.run_ref, partial)
                        for name, partial in mapped.items()
                        if name not in found
                    )
                found.update(
                    (name, mapped[name]) for name in names
                    if name not in found
                )
            for name in names:
                results[name].append(found[name])
        if to_put:
            self.cache.put_many(to_put)
        self._done.update(results)

    # -- mapping ---------------------------------------------------------

    def _map_site(self, rows: Dict[str, list], names: Sequence[str],
                  client_ip: str) -> Dict[str, object]:
        """Map one site's rows for ``names`` (in :attr:`analyses` order)."""
        visits = rows.get("visits")
        requests = rows.get("requests")
        cookies = rows.get("cookies")
        mapped: Dict[str, object] = {}
        for name in names:
            if name == "labels":
                mapped[name] = map_labels(requests,
                                          cert_lookup=self._cert_lookup,
                                          decided=self._first_party)
            elif name == "ats":
                if self._classifier is None:
                    raise ValueError(
                        "IncrementalRunAnalyzer needs a classifier to map "
                        "the 'ats' analysis"
                    )
                mapped[name] = map_ats(requests, self._classifier)
            elif name == "cookies":
                mapped[name] = map_cookies(visits, cookies,
                                           client_ip=client_ip)
            elif name == "https":
                labels_partial = mapped.get("labels") or map_labels(
                    requests, cert_lookup=self._cert_lookup,
                    decided=self._first_party)
                mapped[name] = map_https(
                    visits, requests, cookies,
                    client_ip=client_ip,
                    third_party_direct=merge_labels(
                        [labels_partial]).third_party_direct,
                )
            elif name == "banners":
                mapped[name] = map_banners(visits)
            elif name == "sync":
                mapped[name] = map_sync(cookies, requests)
            elif name == "jsapi":
                mapped[name] = map_jsapi(rows["js_calls"])
            elif name == "visits":
                mapped[name] = map_visits(visits, rows.get("js_calls", ()))
            elif name == "owners":
                mapped[name] = map_owners(visits)
            else:  # pragma: no cover - guarded by partials()
                raise ValueError(f"unknown analysis {name!r}")
        return mapped


# --------------------------------------------------------------------------
# Corpus sanitization through the same cache.
# --------------------------------------------------------------------------

def cached_sanitize(universe, candidates: Sequence[str], vantage,
                    cache: Optional[AggregateStore] = None):
    """§3 sanitization with per-candidate verdicts in the aggregate cache.

    The sanitize verdict for one candidate
    (:func:`~repro.core.corpus.sanitize_verdict`) is a pure function of
    the candidate's served content (the landing page and its closure)
    and the vantage, so it caches under exactly the keying the
    map/merge partials use: the candidate's analysis content hash plus
    a vantage-digest key.  Candidates with no spec at all (keyword false
    positives pointing at nothing) hash to the ``absent`` sentinel —
    they stay unresponsive until an epoch mints a spec for them, which
    changes the hash.  Across epochs only churned candidates are
    re-visited; with no ``cache`` every candidate is.  The partition
    order is the candidate order either way, so the assembled
    :class:`~repro.core.corpus.SanitizedCorpus` is byte-identical to
    :func:`~repro.core.corpus.sanitize_candidates`.
    """
    from ..core.corpus import SanitizedCorpus, sanitize_verdict
    from ..crawler.vpn import client_for

    verdicts: Dict[str, object] = {}
    if cache is not None:
        key = f"sanitize:{_vantage_digest(vantage)}"
        version = ANALYSIS_VERSIONS["sanitize"]
        hashes = analysis_hash_index(universe)
        run_ref = "sanitize:" + domains_hash(candidates)
        site_hashes = {domain: hashes.hash_of(domain) or "absent"
                       for domain in candidates}
        verdicts = cache.get_many(key, version, site_hashes)
    buckets: Dict[str, List[str]] = {
        "corpus": [], "unresponsive": [], "non_adult": [],
    }
    to_put: List[Tuple[str, int, str, str, str, object]] = []
    client = client_for(vantage, epoch="sanitization")
    for domain in candidates:
        verdict = verdicts.get(domain)
        if verdict not in buckets:
            verdict = sanitize_verdict(universe, client, domain)
            if cache is not None:
                to_put.append((key, version, domain, site_hashes[domain],
                               run_ref, verdict))
        buckets[verdict].append(domain)
    if to_put:
        cache.put_many(to_put)
    return SanitizedCorpus(**buckets)


# --------------------------------------------------------------------------
# The Selenium inspection pass through the same cache.
# --------------------------------------------------------------------------

def _inspection_hash(universe, hashes, domain: str) -> str:
    """A site's analysis hash folded with its policy plan's digest.

    The interaction crawler also reads the site's policy page, whose
    text lives outside the spec row the analysis hash covers; the
    packed plan pins it without rendering it (see
    :meth:`~repro.webgen.universe.Universe.policy_source`).
    """
    source = universe.policy_source(domain)
    digest = hashlib.sha256((hashes.hash_of(domain) or "absent").encode())
    digest.update(b"\x1fpolicy\x1f")
    if source is not None:
        digest.update(hashlib.sha256(source).digest())
    return digest.hexdigest()


def cached_inspections(universe, domains: Sequence[str], vantage,
                       cache: Optional[AggregateStore]):
    """The Selenium inspection pass, one cached result per site.

    Each :class:`~repro.crawler.selenium.SiteInspection` is a pure
    function of one site's served pages (landing page, age-gate
    click-through, policy page) and the vantage, so it caches under the
    sanitize keying plus the site's policy plan (:func:`_inspection_hash`).
    Only sites that miss — churned, new, or corrupt rows — are
    inspected; results come back in ``domains`` order either way, so
    the list equals a fresh :class:`~repro.crawler.selenium.
    SeleniumCrawler` pass.  With no ``cache`` every site is inspected.
    """
    from ..crawler.selenium import SeleniumCrawler, SiteInspection

    found: Dict[str, object] = {}
    if cache is not None:
        key = f"inspect:{_vantage_digest(vantage)}"
        version = ANALYSIS_VERSIONS["inspect"]
        run_ref = "inspect:" + domains_hash(domains)
        hashes = analysis_hash_index(universe)
        site_hashes = {domain: _inspection_hash(universe, hashes, domain)
                       for domain in domains}
        found = cache.get_many(key, version, site_hashes,
                               convert=SiteInspection.from_row)
    results = []
    to_put: List[Tuple[str, int, str, str, str, object]] = []
    crawler = None
    for domain in domains:
        inspection = found.get(domain)
        if inspection is None:
            if crawler is None:
                crawler = SeleniumCrawler(universe, vantage)
            inspection = crawler.inspect(domain)
            if cache is not None:
                to_put.append((key, version, domain, site_hashes[domain],
                               run_ref, inspection.to_row()))
        results.append(inspection)
    if to_put:
        cache.put_many(to_put)
    return results
