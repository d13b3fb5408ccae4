"""The incremental analysis engine: per-site partials, mapped once.

Every per-site analysis of a crawl run goes through here: each site's
rows are mapped through the pairs of :mod:`repro.core.mapmerge`, and
the merge replays the partials in run position order.

**Partials at rest.**  A stored crawl maps each site when it is crawled:
:meth:`~repro.datastore.store.RunWriter.checkpoint` maps the site's
events for the analyses its run feeds (:func:`run_analyses`) and writes
the encoded partials in the same transaction as the site's rows; a
delta crawl splices them with the rows.  Store studies read a run's
partials with one range scan per shard (:class:`StoredRows`); one that
is missing, stale (another ``ANALYSIS_VERSIONS`` entry) or unreadable
is mapped from the site's stored rows and not written back, so ``repro
report`` stays read-only.  In-memory studies map their logs
(:class:`LogRows`).  A partial is a pure function of the site's rows,
and :func:`~repro.datastore.serialize.pack_value` encodes equal values
as equal bytes, whichever way a partial was produced.

The §3 sanitize verdicts and the Selenium inspection pass run before
any crawl, so :func:`cached_sanitize` and :func:`cached_inspections`
key them on the site's analysis hash in the aggregate cache instead.
"""

from __future__ import annotations

import functools
import gc
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
    pack_value,
    request_from_row,
    unpack_value,
    vantage_to_json,
    visit_from_row,
)
from .store import CrawlStore, RunRef, SiteSlice, _slice_index

__all__ = ["BANNER_COUNTRIES", "HOME_COUNTRY", "IncrementalRunAnalyzer",
           "LogRows", "PORN_ANALYSES",
           "REGULAR_ANALYSES", "SiteMapper", "SitePartials", "StoredRows",
           "cached_inspections", "cached_sanitize", "run_analyses",
           "run_roles"]

#: Which per-site analyses each run kind can feed.  The order matters
#: operationally (labels are mapped first so the HTTPS mapper can reuse
#: the site's labels) but not semantically — each map is a pure
#: function of the site's rows.
PORN_ANALYSES: Tuple[str, ...] = ("labels", "ats", "cookies", "https",
                                  "banners", "sync", "jsapi", "visits",
                                  "owners")
REGULAR_ANALYSES: Tuple[str, ...] = ("labels", "ats", "visits")

#: The study's physical vantage point (its porn run is ``home``).
HOME_COUNTRY = "ES"
#: Table 8 sets the home jurisdiction's banners against the US ones.
BANNER_COUNTRIES: Tuple[str, ...] = (HOME_COUNTRY, "US")


def run_roles(country: str, kind: str) -> Tuple[str, ...]:
    """The roles a run plays for the report's sections
    (:data:`~repro.reporting.sections.SECTIONS`): ``regular``, or a porn
    run's ``geo`` (any country may be one of Table 7's), ``home`` and
    ``banner``."""
    if kind.endswith(":regular"):
        return ("regular",)
    if not kind.endswith(":porn"):
        return ()
    return (("geo",) + (("home",) if country == HOME_COUNTRY else ())
            + (("banner",) if country in BANNER_COUNTRIES else ()))


def run_analyses(country: str, kind: str) -> Tuple[str, ...]:
    """The analyses a run feeds, in map order: what any section reads
    from it.  A pure function of the run, so a crawl knows what to map
    before any study asks."""
    from ..reporting.sections import SECTIONS, run_reads

    return run_reads(SECTIONS, country, kind)


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

#: ``CrawlLog`` event lists, in the order of a checkpoint's marks.
_MARKED = ("visits", "requests", "cookies", "js_calls")


# --------------------------------------------------------------------------
# Mapping one site
# --------------------------------------------------------------------------

class SiteMapper:
    """Maps one site's rows to its partials, with what the map functions
    read besides rows: the ATS classifier, the certificate lookup and a
    ``(page, fqdn)`` first-party decision memo (see
    :func:`~repro.core.mapmerge.map_labels`).

    A universe has one (:meth:`for_universe`), whose memos every run a
    study maps shares; a crawl maps each checkpointed site with
    :meth:`for_site`'s fresh memos, so none of them outlives the site.
    """

    def __init__(self, classifier, certificate_for) -> None:
        self.classifier = classifier
        self.certificate_for = certificate_for
        self.cert_lookup = functools.lru_cache(maxsize=1 << 16)(
            certificate_for)
        self.first_party: Dict[Tuple[str, str], bool] = {}

    @classmethod
    def for_universe(cls, universe) -> "SiteMapper":
        """The universe's mapper, built once (the filter-list index is
        the costly part) and kept on the universe, which it dies with."""
        from ..core.ats import ATSClassifier

        with _MAPPER_LOCK:
            mapper = getattr(universe, "_site_mapper", None)
            if mapper is None:
                mapper = cls(
                    ATSClassifier.from_texts(universe.easylist_text,
                                             universe.easyprivacy_text),
                    universe.certificate_for,
                )
                universe._site_mapper = mapper
        return mapper

    def for_site(self) -> "SiteMapper":
        """This mapper's rules with empty memos, for one site."""
        return SiteMapper(self.classifier.without_memo(),
                          self.certificate_for)

    def map_site(self, rows: Dict[str, list], names: Sequence[str],
                 client_ip: str) -> Dict[str, object]:
        """Map one site's rows for ``names`` (in run-kind order)."""
        visits = rows.get("visits")
        requests = rows.get("requests")
        cookies = rows.get("cookies")
        mapped: Dict[str, object] = {}
        for name in names:
            if name == "labels":
                mapped[name] = map_labels(requests,
                                          cert_lookup=self.cert_lookup,
                                          decided=self.first_party)
            elif name == "ats":
                mapped[name] = map_ats(requests, self.classifier)
            elif name == "cookies":
                mapped[name] = map_cookies(visits, cookies,
                                           client_ip=client_ip)
            elif name == "https":
                labels_partial = mapped.get("labels") or map_labels(
                    requests, cert_lookup=self.cert_lookup,
                    decided=self.first_party)
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
            else:  # pragma: no cover - guarded by the callers
                raise ValueError(f"unknown analysis {name!r}")
        return mapped


_MAPPER_LOCK = threading.Lock()


class SitePartials:
    """The encoded partials of each site of a stored run, for
    :class:`~repro.datastore.store.RunWriter` to write beside its rows:
    the analyses the run feeds (:func:`run_analyses`), each site mapped
    with fresh memos (:meth:`SiteMapper.for_site`)."""

    def __init__(self, universe, country: str, kind: str,
                 client_ip: str) -> None:
        self.names = run_analyses(country, kind)
        #: Analysis -> the version its partial is written at.
        self.versions = {name: ANALYSIS_VERSIONS[name]
                         for name in self.names}
        self.tables = _run_tables(kind, self.names)
        self.client_ip = client_ip
        self._mapper = SiteMapper.for_universe(universe)

    def encode(self, rows: Dict[str, list], names: Sequence[str]
               ) -> List[Tuple[str, int, bytes]]:
        """``(analysis, version, payload)`` for ``names`` (in run order)
        of the site whose rows, by event table, are ``rows``."""
        mapped = self._mapper.for_site().map_site(rows, names,
                                                  self.client_ip)
        return [(name, self.versions[name], pack_value(mapped[name]))
                for name in names]

    def from_log(self, log: CrawlLog, marks: Tuple[int, int, int, int]
                 ) -> List[Tuple[str, int, bytes]]:
        """Every partial of the site at ``marks`` of ``log``."""
        return self.encode({table: getattr(log, table)[start:]
                            for table, start in zip(_MARKED, marks)
                            if table in self.tables}, self.names)

    def from_stored(self, rows: Dict[str, List[tuple]],
                    names: Sequence[str]) -> List[Tuple[str, int, bytes]]:
        """:meth:`encode` from one site's rows as the store holds them."""
        return self.encode({table: [_DECODE[table](row) for row in found]
                            for table, found in rows.items()}, names)


# --------------------------------------------------------------------------
# Run sources: one crawl run as per-site row groups.
# --------------------------------------------------------------------------

class LogRows:
    """An in-memory crawl log's per-site row groups
    (:meth:`~repro.browser.events.CrawlLog.site_groups`), by domain."""

    def __init__(self, log: CrawlLog) -> None:
        self.client_ip = log.client_ip
        self._groups = {group.domain: group for group in log.site_groups()}

    def at_rest(self, names: Sequence[str]) -> Dict[str, Dict]:
        """A log has no stored partials."""
        return {name: {} for name in names}

    def site_rows(self, domain: str,
                  tables: Sequence[str]) -> Dict[str, list]:
        group = self._groups.get(domain)
        if group is None:
            raise ValueError(f"crawl log has no rows for {domain!r}")
        return {table: getattr(group, table) for table in tables}


class StoredRows:
    """A complete stored run: its partials at rest, and its rows read
    back a site at a time (one range scan per table in the site's
    shard) for the partials that are not."""

    def __init__(self, store: CrawlStore, run: RunRef) -> None:
        self.client_ip = store._run_header(run)[1]
        self._store = store
        self._run = run
        self._slices: Optional[Dict[str, SiteSlice]] = None

    def at_rest(self, names: Sequence[str]) -> Dict[str, Dict]:
        """Analysis -> position -> ``(version, payload)``."""
        found: Dict[str, Dict] = {name: {} for name in names}
        for position, name, version, payload in \
                self._store.partial_rows(self._run, names):
            found[name][position] = (version, payload)
        return found

    def site_rows(self, domain: str,
                  tables: Sequence[str]) -> Dict[str, list]:
        if self._slices is None:
            self._slices = _slice_index(self._store, self._run)
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
    """Per-site partials for one crawl run.

    :meth:`partials` returns, for each requested analysis, the list of
    per-site partials in run position order: read at rest where the
    run's source holds them, mapped from the site's rows where it does
    not.  Callers merge the partials and memoize the result; the engine
    keeps only what :meth:`hold` read.  :attr:`stats` counts partials
    ``read`` at rest and ``mapped`` here.
    """

    def __init__(self, mapper: SiteMapper, *, kind: str,
                 domains: Sequence[str]) -> None:
        self.mapper = mapper
        self.kind = kind
        self.domains = list(domains)
        self.analyses = PORN_ANALYSES if kind.endswith(":porn") \
            else REGULAR_ANALYSES
        self.stats = {"read": 0, "mapped": 0}
        #: :meth:`hold`'s partials: analysis -> position -> ``(version,
        #: payload)``.
        self._held: Dict[str, Dict[int, Tuple[int, bytes]]] = {}

    def _ordered(self, names: Sequence[str]) -> List[str]:
        for name in set(names) - set(self.analyses):
            raise ValueError(
                f"analysis {name!r} not available for kind {self.kind!r}")
        return [name for name in self.analyses if name in names]

    def _map(self, position: int, names: List[str], rows) -> Dict[str, object]:
        self.stats["mapped"] += len(names)
        return self.mapper.map_site(
            rows.site_rows(self.domains[position],
                           _run_tables(self.kind, names)),
            names, rows.client_ip)

    def hold(self, names: Sequence[str], rows) -> None:
        """Read the run's partials of ``names`` once, for :meth:`partials`
        to decode on each call (decoded, they are several times larger
        and share no strings); map the missing or stale ones now."""
        names = self._ordered(names)
        stored = rows.at_rest(names)
        for position in range(len(self.domains)):
            missing = [name for name in names
                       if stored[name].get(position, (None,))[0]
                       != ANALYSIS_VERSIONS[name]]
            if missing:
                for name, partial in self._map(position, missing,
                                               rows).items():
                    stored[name][position] = (ANALYSIS_VERSIONS[name],
                                              pack_value(partial))
        self._held.update(stored)

    def partials(self, names: Sequence[str],
                 rows) -> Dict[str, List[object]]:
        """Per-site partials for ``names``, each in run position order;
        ``rows`` (a :class:`LogRows` or :class:`StoredRows`) supplies
        the stored partials :meth:`hold` did not read, and the rows of
        every site that has to be mapped."""
        names = self._ordered(names)
        stored = self._held if all(name in self._held for name in names) \
            else rows.at_rest(names)
        results: Dict[str, List[object]] = {name: [] for name in names}
        # Decoding a run's partials allocates many small containers in
        # one burst, none of them garbage; with a large live heap (a
        # built universe) the allocation-count trigger would run full
        # collections inside the burst, so pause it.
        gc_enabled = gc.isenabled()
        gc.disable()
        try:
            for position in range(len(self.domains)):
                found: Dict[str, object] = {}
                for name in names:
                    entry = stored[name].get(position)
                    if entry is not None \
                            and entry[0] == ANALYSIS_VERSIONS[name]:
                        try:
                            found[name] = unpack_value(entry[1])
                            self.stats["read"] += 1
                        except Exception:
                            pass  # unreadable: mapped below
                missing = [name for name in names if name not in found]
                if missing:
                    found.update(self._map(position, missing, rows))
                for name in names:
                    results[name].append(found[name])
        finally:
            if gc_enabled:
                gc.enable()
        return results


# --------------------------------------------------------------------------
# Sanitize verdicts and inspections through the aggregate cache.
# --------------------------------------------------------------------------

def _through_cache(cache: Optional[AggregateStore], name: str, universe,
                   vantage, domains: Sequence[str], site_hash, compute, *,
                   encode=None, decode=None) -> list:
    """``compute(domain)`` for each of ``domains``, in order, read from
    ``cache`` where it holds the row of the domain's
    ``site_hash(hashes, domain)`` (``hashes`` the universe's
    :class:`~repro.webgen.evolve.AnalysisHashIndex`) and written back
    where it does not.  ``encode``/``decode`` convert a value to and
    from its cached row; a row ``decode`` rejects is recomputed."""
    if cache is None:
        return [compute(domain) for domain in domains]
    # Content hashes are vantage-independent; what a site shows is not.
    digest = hashlib.sha256(vantage_to_json(vantage).encode()).hexdigest()
    key = f"{name}:{digest[:16]}"
    version = ANALYSIS_VERSIONS[name]
    run_ref = f"{name}:{domains_hash(domains)}"
    hashes = analysis_hash_index(universe)
    site_hashes = {domain: site_hash(hashes, domain) for domain in domains}
    found = cache.get_many(key, version, site_hashes, convert=decode)
    values = []
    to_put: List[Tuple[str, int, str, str, str, object]] = []
    for domain in domains:
        if domain in found:
            values.append(found[domain])
            continue
        value = compute(domain)
        to_put.append((key, version, domain, site_hashes[domain], run_ref,
                       value if encode is None else encode(value)))
        values.append(value)
    cache.put_many(to_put)
    cache.persist_stats()
    return values


def cached_sanitize(universe, candidates: Sequence[str], vantage,
                    cache: Optional[AggregateStore] = None):
    """§3 sanitization with per-candidate verdicts in the aggregate cache.

    The sanitize verdict for one candidate
    (:func:`~repro.core.corpus.sanitize_verdict`) is a pure function of
    the candidate's served content (the landing page and its closure)
    and the vantage, so it caches under the candidate's analysis
    content hash.  Candidates with no spec at all (keyword false
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

    buckets: Dict[str, List[str]] = {
        "corpus": [], "unresponsive": [], "non_adult": [],
    }
    client = client_for(vantage, epoch="sanitization")

    def bucket(verdict):
        if verdict not in buckets:
            raise ValueError(f"not a sanitize verdict: {verdict!r}")
        return verdict

    verdicts = _through_cache(
        cache, "sanitize", universe, vantage, candidates,
        lambda hashes, domain: hashes.hash_of(domain) or "absent",
        lambda domain: sanitize_verdict(universe, client, domain),
        decode=bucket)
    for domain, verdict in zip(candidates, verdicts):
        buckets[verdict].append(domain)
    return SanitizedCorpus(**buckets)


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
    site's analysis hash folded with its policy plan
    (:func:`_inspection_hash`).  Only sites that miss — churned, new,
    or corrupt rows — are inspected; results come back in ``domains``
    order either way, so the list equals a fresh :class:`~repro.crawler.
    selenium.SeleniumCrawler` pass.  With no ``cache`` every site is
    inspected.
    """
    from ..crawler.selenium import SeleniumCrawler, SiteInspection

    crawler: List[SeleniumCrawler] = []

    def inspect(domain: str):
        if not crawler:
            crawler.append(SeleniumCrawler(universe, vantage))
        return crawler[0].inspect(domain)

    return _through_cache(
        cache, "inspect", universe, vantage, domains,
        lambda hashes, domain: _inspection_hash(universe, hashes, domain),
        inspect, encode=SiteInspection.to_row,
        decode=SiteInspection.from_row)
