"""The incremental analysis engine: map churned sites, merge the rest.

PR 7 made *crawling* an evolved epoch scale with churn by splicing the
sites whose content hash did not change.  This module does the same for
*analysis*: every stored run is analyzed site by site through the
map/merge pairs of :mod:`repro.core.mapmerge`, and each site's partial
is persisted in the :class:`~repro.datastore.aggregates.AggregateStore`
keyed on ``(analysis_key, analysis_version, site_domain, content_hash,
run_ref)``.  Analyzing epoch N+1 then looks every site up by its *new*
content hash: spliced sites hit (their hash — and hence their stored
rows, by the purity contract — is unchanged), churned sites miss and
are mapped from their event rows.  The merge replays all partials in
run position order, so the resulting tables are byte-identical to the
monolithic pass whichever mix of cached and fresh partials fed it.

Invalidation is exactly the machinery delta crawls already trust, with
one strengthening: :class:`~repro.webgen.evolve.AnalysisHashIndex`
extends the splice-grade :class:`~repro.webgen.evolve.ContentHashIndex`
to also cover the attribution-only service fields (organization /
cert_org / in_disconnect) that party labeling reads but serving never
does — a consolidation epoch rewrites certificate organizations without
changing a byte on the wire, and cached label partials must not survive
it.

The engine deliberately lives in :mod:`repro.datastore` next to
:mod:`~repro.datastore.delta`: both are consumers of the slice index
and the store's purity contract; the pure per-site math stays in
:mod:`repro.core.mapmerge`.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.mapmerge import (
    ANALYSIS_VERSIONS,
    map_ats,
    map_banners,
    map_cookies,
    map_https,
    map_jsapi,
    map_labels,
    map_sync,
    map_visits,
)
from ..webgen.evolve import analysis_hash_index
from .aggregates import AggregateStore
from .delta import _slice_index, SiteSlice
from .serialize import (
    cookie_from_row,
    domains_hash,
    jscall_from_row,
    request_from_row,
    run_key,
    vantage_to_json,
    visit_from_row,
)
from .store import CrawlStore, MissingRunError

__all__ = ["IncrementalRunAnalyzer", "PORN_ANALYSES", "REGULAR_ANALYSES",
           "cached_inspections", "cached_sanitize"]

#: Which per-site analyses each run kind can feed.  The order matters
#: operationally (labels are mapped first so the HTTPS mapper can consume
#: the site's label events) but not semantically — each map is a pure
#: function of the site's rows.
PORN_ANALYSES: Tuple[str, ...] = ("labels", "ats", "cookies", "https",
                                  "banners", "sync", "jsapi", "visits")
REGULAR_ANALYSES: Tuple[str, ...] = ("labels", "ats")


def _vantage_digest(vantage) -> str:
    """Short digest of a vantage point for cache keys: content hashes
    are vantage-independent, what a site shows a vantage is not."""
    return hashlib.sha256(
        vantage_to_json(vantage).encode("utf-8")
    ).hexdigest()[:16]


class IncrementalRunAnalyzer:
    """Per-site partials for one stored run, cached across epochs.

    One instance wraps one ``(store, run)`` pair.  :meth:`partials`
    returns, for each requested analysis, the list of per-site partials
    in run position order — serving each from the aggregate cache when
    the site's analysis content hash hits, mapping it from the stored
    event rows when it misses.  Whenever a site's rows have to be read
    at all, *every* analysis of the run kind is mapped and cached in the
    same pass (the row read dominates, and it warms the cache for the
    sibling analyses), so a full study performs at most one row read per
    churned site.
    """

    def __init__(
        self,
        store: CrawlStore,
        universe,
        cache: Optional[AggregateStore],
        *,
        vantage,
        kind: str,
        domains: Sequence[str],
        keep_html: bool = True,
        analyses: Optional[Sequence[str]] = None,
        classifier=None,
        cert_lookup=None,
    ) -> None:
        self.store = store
        self.cache = cache
        self.kind = kind
        self._classifier = classifier
        self._cert_lookup = cert_lookup
        if analyses is None:
            analyses = PORN_ANALYSES if kind.endswith(":porn") \
                else REGULAR_ANALYSES
        self.analyses = tuple(analyses)

        state = store.find_run(universe.config, vantage, kind, domains,
                               keep_html=keep_html)
        if state is None or not state.complete:
            held = len(state.completed) if state is not None else 0
            raise MissingRunError(
                f"store {store.path} holds {held}/{len(domains)} sites for "
                f"{kind}; incremental analysis needs the complete run"
            )
        self.run = state.run_id
        self._slices: Dict[str, SiteSlice] = _slice_index(store, self.run)
        self.client_ip = store._run_header(self.run)[1]

        self._key_suffix = \
            f"{kind}:{_vantage_digest(vantage)}:{int(keep_html)}"
        self.run_ref = (
            run_key(universe.config, vantage, kind, keep_html=keep_html)
            + ":" + domains_hash(domains)
        )
        self._hashes = analysis_hash_index(universe)
        self._lock = threading.Lock()
        self._done: Dict[str, List[object]] = {}

    def analysis_key(self, name: str) -> str:
        """Cache key prefix: analysis name + everything that selects
        which rows a site contributes (kind, vantage, HTML retention).
        Content hashes are vantage-independent; partials are not."""
        return f"{name}:{self._key_suffix}"

    # -- the engine ------------------------------------------------------

    def partials(self, names: Sequence[str]) -> Dict[str, List[object]]:
        """Per-site partials for ``names``, each in run position order."""
        for name in names:
            if name not in self.analyses:
                raise ValueError(
                    f"analysis {name!r} not available for kind {self.kind!r}"
                )
        with self._lock:
            todo = [name for name in names if name not in self._done]
            if todo:
                self._compute(todo)
                if self.cache is not None:
                    self.cache.persist_stats()
            return {name: self._done[name] for name in names}

    def _compute(self, names: List[str]) -> None:
        hashes = {domain: self._hashes.hash_of(domain)
                  for domain in self._slices}
        cached: Dict[str, Dict[str, object]] = {}
        if self.cache is not None:
            wanted = {domain: content_hash
                      for domain, content_hash in hashes.items()
                      if content_hash is not None}
            for name in names:
                cached[name] = self.cache.get_many(
                    self.analysis_key(name), ANALYSIS_VERSIONS[name],
                    wanted,
                )
        results: Dict[str, List[object]] = {name: [] for name in names}
        to_put: List[Tuple[str, int, str, str, str, object]] = []
        for domain, slice_ in self._slices.items():
            content_hash = hashes[domain]
            found = {name: cached[name][domain] for name in names
                     if name in cached and domain in cached[name]}
            if len(found) < len(names):
                # Rows must be read anyway — map every analysis of the
                # run kind in this one pass and cache them all.
                mapped = self._map_site(slice_)
                if self.cache is not None and content_hash is not None:
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

    # -- site loading + mapping -----------------------------------------

    def _load_site(self, slice_: SiteSlice):
        visits = [
            visit_from_row(row) for row in self.store.site_event_rows(
                self.run, slice_.domain, "visits",
                slice_.visits_start, slice_.visits_start + 1,
            )
        ]
        requests = [
            request_from_row(row) for row in self.store.site_event_rows(
                self.run, slice_.domain, "requests",
                slice_.requests_start,
                slice_.requests_start + slice_.requests,
            )
        ]
        cookies = [
            cookie_from_row(row) for row in self.store.site_event_rows(
                self.run, slice_.domain, "cookies",
                slice_.cookies_start, slice_.cookies_start + slice_.cookies,
            )
        ]
        js_calls = [
            jscall_from_row(row) for row in self.store.site_event_rows(
                self.run, slice_.domain, "js_calls",
                slice_.js_calls_start,
                slice_.js_calls_start + slice_.js_calls,
            )
        ]
        return visits, requests, cookies, js_calls

    def _map_site(self, slice_: SiteSlice) -> Dict[str, object]:
        visits, requests, cookies, js_calls = self._load_site(slice_)
        mapped: Dict[str, object] = {}
        for name in self.analyses:
            if name == "labels":
                mapped[name] = map_labels(requests,
                                          cert_lookup=self._cert_lookup)
            elif name == "ats":
                if self._classifier is None:
                    raise ValueError(
                        "IncrementalRunAnalyzer needs a classifier to map "
                        "the 'ats' analysis"
                    )
                mapped[name] = map_ats(requests, self._classifier)
            elif name == "cookies":
                mapped[name] = map_cookies(visits, cookies,
                                           client_ip=self.client_ip)
            elif name == "https":
                labels_partial = mapped.get("labels")
                if labels_partial is None:
                    labels_partial = map_labels(
                        requests, cert_lookup=self._cert_lookup)
                mapped[name] = map_https(
                    visits, requests, cookies,
                    client_ip=self.client_ip,
                    labels_partial=labels_partial,
                )
            elif name == "banners":
                mapped[name] = map_banners(visits)
            elif name == "sync":
                mapped[name] = map_sync(cookies, requests)
            elif name == "jsapi":
                mapped[name] = map_jsapi(js_calls)
            elif name == "visits":
                mapped[name] = map_visits(visits)
            else:  # pragma: no cover - guarded by __init__/partials
                raise ValueError(f"unknown analysis {name!r}")
        return mapped


# --------------------------------------------------------------------------
# Corpus sanitization through the same cache.
# --------------------------------------------------------------------------

def cached_sanitize(universe, candidates: Sequence[str], vantage,
                    cache: AggregateStore):
    """§3 sanitization with per-candidate verdicts in the aggregate cache.

    The sanitize verdict for one candidate — ``corpus`` /
    ``unresponsive`` / ``non_adult`` — is a pure function of the
    candidate's served content (the landing page and its closure) and
    the vantage, so it caches under exactly the keying the map/merge
    partials use: the candidate's analysis content hash plus a
    vantage-digest key.  Candidates with no spec at all (keyword false
    positives pointing at nothing) hash to the ``absent`` sentinel —
    they stay unresponsive until an epoch mints a spec for them, which
    changes the hash.  Across epochs only churned candidates are
    re-visited; the partition order is the candidate order either way,
    so the assembled :class:`~repro.core.corpus.SanitizedCorpus` is
    byte-identical to :func:`~repro.core.corpus.sanitize_candidates`.
    """
    from ..browser.browser import Browser
    from ..core.corpus import SanitizedCorpus, classify_adult_content
    from ..crawler.vpn import client_for

    key = f"sanitize:{_vantage_digest(vantage)}"
    version = ANALYSIS_VERSIONS["sanitize"]
    hashes = analysis_hash_index(universe)
    run_ref = "sanitize:" + domains_hash(candidates)

    site_hashes = {domain: hashes.hash_of(domain) or "absent"
                   for domain in candidates}
    verdicts = cache.get_many(key, version, site_hashes)
    buckets = {"corpus": [], "unresponsive": [], "non_adult": []}
    to_put: List[Tuple[str, int, str, str, str, object]] = []
    client = None
    for domain in candidates:
        verdict = verdicts.get(domain)
        if verdict not in buckets:
            if client is None:
                client = client_for(vantage, epoch="sanitization")
            visit = Browser(universe, client).visit(domain)
            if not visit.success:
                verdict = "unresponsive"
            elif classify_adult_content(visit.html):
                verdict = "corpus"
            else:
                verdict = "non_adult"
            to_put.append((key, version, domain, site_hashes[domain],
                           run_ref, verdict))
        buckets[verdict].append(domain)
    if to_put:
        cache.put_many(to_put)
    return SanitizedCorpus(corpus=buckets["corpus"],
                           unresponsive=buckets["unresponsive"],
                           non_adult=buckets["non_adult"])


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
