"""End-to-end orchestration of the whole study (Figure 2's workflow).

:class:`Study` wires the pipeline together — corpus compilation, the
OpenWPM-style crawl (single session, landing pages only), the Selenium
interaction pass, and every Section 4-7 analysis — with caching so that
examples and benchmarks can pull any intermediate without recomputation.

Typical use::

    from repro import Study, UniverseConfig
    study = Study.build(UniverseConfig(scale=0.1))
    table2 = study.table2()
    stats = study.cookie_stats()
"""

from __future__ import annotations

import functools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .browser.events import CrawlLog
from .core.ats import ATSClassifier, ATSResult
from .core.attribution import AttributionResult, attribute_organizations
from .core.business import BusinessReport, classify_business_models
from .core.compliance.age_verification import (
    AgeVerificationReport,
    study_age_verification,
)
from .core.compliance.banners import BannerReport
from .core.compliance.policies import (
    CollectedPolicy,
    PolicyReport,
    analyze_policies,
    collect_policies,
)
from .core.cookie_analysis import CookieStats
from .core.cookie_sync import SyncReport
from .core.corpus import CandidateSet, SanitizedCorpus, compile_candidates
from .core.ecosystem import (
    OrganizationPrevalence,
    Table2,
    Table3,
    build_figure3,
    build_table2,
    build_table3,
)
from .core.fingerprinting import FingerprintingReport
from .core.geodiff import CountryObservation, GeoReport, analyze_geography
from .core.https_analysis import HTTPSReport
from .core.malware import MalwareReport
from .core.mapmerge import (
    merge_ats,
    merge_banners,
    merge_cookies,
    merge_fingerprinting,
    merge_https,
    merge_labels,
    merge_malware,
    merge_sync,
)
from .core.owners import OwnerReport, discover_owners
from .core.partylabel import PartyLabels
from .core.popularity import PopularityReport, analyze_popularity
from .crawler.executor import (
    CrawlExecutor,
    CrawlOutcome,
    CrawlSpec,
    default_parallelism,
)
from .crawler.openwpm import OpenWPMCrawler
from .crawler.selenium import SiteInspection
from .crawler.vpn import VantagePointManager
from .net.url import registrable_domain
from .webgen.builder import build_universe
from .webgen.config import UniverseConfig
from .webgen.universe import Universe

__all__ = ["Study"]


class Study:
    """The full measurement study over one synthetic universe."""

    def __init__(
        self,
        universe: Universe,
        *,
        vantage_points: Optional[VantagePointManager] = None,
        home_country: str = "ES",
        parallelism: Optional[int] = None,
        store: Optional[object] = None,
        store_only: bool = False,
        store_shards: Optional[int] = None,
        baseline_store: Optional[object] = None,
        aggregate_cache: Optional[object] = None,
        progress: Optional[Callable[..., None]] = None,
    ) -> None:
        """``parallelism`` bounds how many independent crawls run at once
        (default ``os.cpu_count()``).  ``parallelism=1`` reproduces the
        historical strictly-sequential evaluation order exactly; any
        value produces bit-identical results, because only whole crawls
        (each owning its cookie jar) and pure per-log analyses fan out.

        ``store`` (a :class:`~repro.datastore.CrawlStore` or a path)
        persists every crawl and hydrates already-stored ones, making an
        interrupted study resumable at per-site granularity.
        ``store_shards`` (with a path) creates/opens an N-shard store.
        ``store_only=True`` is the ``repro report`` contract: analyses
        read exclusively from stored runs — one site's rows at a time
        unless the study already holds the hydrated log (see
        :meth:`_run_rows`) — and a missing crawl raises
        :class:`~repro.datastore.MissingRunError` instead of touching a
        browser.

        ``baseline_store`` (a :class:`~repro.datastore.CrawlStore` or a
        path) enables delta crawls against a prior epoch's store: sites
        whose served content is provably unchanged splice their stored
        event slices instead of re-rendering (see
        :func:`~repro.datastore.delta_crawl`).  Results are
        byte-identical to a full crawl by construction; the baseline is
        only ever read.

        ``progress(event, **fields)`` observes every crawl the study
        runs (``run_started``/``site_started``/``site_finished``/
        ``run_finished`` — the hook the CLI ``--stats`` line and the
        measurement service's event streams are built on).  Per-site
        events fire inline for sequential crawls and on the thread
        backend; the fork backend tallies them in each worker and
        replays the merged counts after the run as
        ``progress(event, count=N, key=..., country=...)`` (see
        :class:`~repro.crawler.executor.CrawlExecutor`), so counting
        consumers like ``--stats`` work at any parallelism while
        streaming consumers should run with ``parallelism=1``.

        ``aggregate_cache`` (an
        :class:`~repro.datastore.AggregateStore`, a path, or ``True``
        for the store's default ``aggregates.sqlite`` sibling) turns on
        incremental map/merge analysis: per-site partials are served
        from the cache when the site's analysis content hash is
        unchanged and recomputed from the stored rows when it churned,
        producing byte-identical tables either way (see
        :mod:`repro.datastore.incremental`).  Without a ``store`` it is
        rejected.
        """
        if store_only and store is None:
            raise ValueError("store_only=True requires a store")
        if aggregate_cache and store is None:
            raise ValueError("aggregate_cache requires a store")
        self.universe = universe
        self.vantage_points = vantage_points or VantagePointManager()
        self.home_country = home_country
        self.parallelism = max(1, int(parallelism or default_parallelism()))
        #: Handles this study opened from paths; :meth:`close` closes
        #: them (handles passed in belong to the caller).
        self._opened: List[object] = []
        if isinstance(store, (str, Path)):
            from .datastore import CrawlStore
            store = CrawlStore(str(store), shards=store_shards)
            self._opened.append(store)
        self.store = store
        self.store_only = store_only
        if isinstance(baseline_store, (str, Path)):
            from .datastore import CrawlStore
            baseline_store = CrawlStore(str(baseline_store))
            self._opened.append(baseline_store)
        self.baseline_store = baseline_store
        if aggregate_cache:
            from .datastore import AggregateStore, aggregates_path
            if aggregate_cache is True:
                aggregate_cache = AggregateStore(
                    aggregates_path(self.store.path))
                self._opened.append(aggregate_cache)
            elif isinstance(aggregate_cache, (str, Path)):
                aggregate_cache = AggregateStore(str(aggregate_cache))
                self._opened.append(aggregate_cache)
        self.aggregate_cache = aggregate_cache or None
        #: Real per-analysis wall time, recorded by :meth:`run_all` /
        #: :meth:`prefetch_analyses` around each task thunk (the memoized
        #: accessors alone can't be timed from outside — under prefetch
        #: the work happens in the pool and later reads are cache hits).
        self.analysis_timings: Dict[str, float] = {}
        self.progress = progress
        self._cache: Dict[str, object] = {}
        self._cache_lock = threading.Lock()
        self._key_locks: Dict[str, threading.Lock] = {}

    def close(self) -> None:
        """Close the stores and the aggregate cache this study opened.

        A long-lived process (``repro serve``) runs one study per job;
        without this their connections stay open until the study's
        reference cycles are collected.
        """
        while self._opened:
            self._opened.pop().close()

    @classmethod
    def build(
        cls,
        config: Optional[UniverseConfig] = None,
        *,
        parallelism: Optional[int] = None,
        store: Optional[object] = None,
    ) -> "Study":
        """Construct the universe and wrap it in a study."""
        return cls(build_universe(config or UniverseConfig()),
                   parallelism=parallelism, store=store)

    def _memo(self, key: str, factory):
        """Thread-safe memoization: one factory run per key, ever.

        Concurrent table calls may race on the cache now that crawls fan
        out; a per-key lock serializes the factory while leaving
        unrelated keys free to compute in parallel.
        """
        with self._cache_lock:
            if key in self._cache:
                return self._cache[key]
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        with key_lock:
            with self._cache_lock:
                if key in self._cache:
                    return self._cache[key]
            value = factory()
            with self._cache_lock:
                self._cache[key] = value
                self._key_locks.pop(key, None)
            return value

    def _memo_seed(self, key: str, value) -> None:
        """Store a precomputed value unless the key is already cached."""
        with self._cache_lock:
            self._cache.setdefault(key, value)

    def _memoized(self, key: str) -> bool:
        with self._cache_lock:
            return key in self._cache

    # ------------------------------------------------------------------
    # Section 3: corpus
    # ------------------------------------------------------------------

    def corpus(self) -> Tuple[CandidateSet, SanitizedCorpus]:
        def build() -> Tuple[CandidateSet, SanitizedCorpus]:
            # Sanitize verdicts are per-candidate pure functions of
            # served content: with an aggregate cache only candidates
            # whose hash churned are re-visited.
            from .datastore import cached_sanitize

            candidates = compile_candidates(self.universe)
            sanitized = cached_sanitize(
                self.universe, candidates.domains,
                self.vantage_points.point(self.home_country),
                self.aggregate_cache,
            )
            return candidates, sanitized

        return self._memo("corpus", build)

    def corpus_domains(self) -> List[str]:
        return self.corpus()[1].corpus

    def popularity(self) -> PopularityReport:
        return self._memo(
            "popularity",
            lambda: analyze_popularity(self.universe, self.corpus_domains()),
        )

    def top_sites(self, count: int = 50) -> List[str]:
        """The most popular *crawlable* sites by best 2018 rank (§7.2)."""
        report = self.crawled_popularity()
        ordered = [site.domain for site in report.sorted_by_best()]
        return ordered[:count]

    # ------------------------------------------------------------------
    # Crawls
    # ------------------------------------------------------------------

    #: Datastore run kinds shared by the sequential accessors and the
    #: executor specs, so both paths land on the same manifest rows.
    _PORN_KIND = "openwpm:porn"
    _REGULAR_KIND = "openwpm:regular"

    def _stored_crawl(self, country: str, kind: str,
                      domains: Sequence[str], *, keep_html: bool) -> CrawlLog:
        from .datastore import stored_crawl

        return stored_crawl(
            self.store, self.universe, self.vantage_points.point(country),
            kind, domains, keep_html=keep_html,
            allow_crawl=not self.store_only,
            baseline=self.baseline_store,
            progress=self.progress,
        )

    def porn_log(self, country: Optional[str] = None) -> CrawlLog:
        country = country or self.home_country

        def crawl() -> CrawlLog:
            # HTML is kept for every country so one crawl serves both the
            # geography analyses and the banner detector (§6 + §7.1 share
            # the crawl instead of re-crawling with a throwaway session).
            if self.store is not None:
                return self._stored_crawl(country, self._PORN_KIND,
                                          self.corpus_domains(),
                                          keep_html=True)
            crawler = OpenWPMCrawler(
                self.universe, self.vantage_points.point(country),
                keep_html=True,
            )
            return crawler.crawl(self.corpus_domains(),
                                 progress=self.progress)

        return self._memo(f"porn_log:{country}", crawl)

    def regular_log(self) -> CrawlLog:
        def crawl() -> CrawlLog:
            if self.store is not None:
                return self._stored_crawl(
                    self.home_country, self._REGULAR_KIND,
                    self.universe.reference_regular_corpus(), keep_html=False,
                )
            crawler = OpenWPMCrawler(
                self.universe, self.vantage_points.point(self.home_country),
                keep_html=False,
            )
            return crawler.crawl(self.universe.reference_regular_corpus(),
                                 progress=self.progress)

        return self._memo("regular_log", crawl)

    # -- parallel crawl fan-out -----------------------------------------

    _REGULAR_KEY = "regular"

    def _executor(self) -> CrawlExecutor:
        return CrawlExecutor(
            self.universe,
            self.vantage_points,
            parallelism=self.parallelism,
            store=self.store,
            baseline=self.baseline_store,
            progress=self.progress,
        )

    def _porn_spec(self, country: str) -> CrawlSpec:
        return CrawlSpec(
            key=f"porn:{country}",
            country=country,
            domains=tuple(self.corpus_domains()),
            keep_html=True,
            store_kind=self._PORN_KIND,
        )

    def _regular_spec(self) -> CrawlSpec:
        return CrawlSpec(
            key=self._REGULAR_KEY,
            country=self.home_country,
            domains=tuple(self.universe.reference_regular_corpus()),
            keep_html=False,
            store_kind=self._REGULAR_KIND,
        )

    def _seed_outcome(self, outcome: CrawlOutcome) -> None:
        """Adopt a worker's crawl log into the memo (first write wins)."""
        if outcome.key == self._REGULAR_KEY:
            self._memo_seed("regular_log", outcome.log)
        else:
            self._memo_seed(f"porn_log:{outcome.country}", outcome.log)

    def prefetch_crawls(
        self,
        countries: Optional[Sequence[str]] = None,
        *,
        include_regular: bool = True,
    ) -> None:
        """Run every not-yet-cached crawl ``parallelism``-wide.

        Results land in the memo exactly as if the corresponding
        sequential accessors had produced them (they are bit-identical:
        each crawl is internally sequential and owns its cookie jar).
        With ``parallelism=1`` this is a no-op and the lazy sequential
        path runs untouched.
        """
        if self.parallelism <= 1:
            return
        if self.store_only:
            # Hydration from the store is pure I/O; the sequential
            # accessors handle it (and raise MissingRunError with a
            # useful message when a crawl is absent).
            return
        specs: List[CrawlSpec] = []
        for country in countries or self.vantage_points.country_codes:
            if not self._memoized(f"porn_log:{country}"):
                specs.append(self._porn_spec(country))
        if include_regular and not self._memoized("regular_log"):
            specs.append(self._regular_spec())
        if len(specs) < 2:
            return
        for outcome in self._executor().run(specs):
            self._seed_outcome(outcome)

    # -- parallel analysis fan-out --------------------------------------

    #: Table 8 renders the home-jurisdiction banner report against the
    #: US one, so both crawls/analyses are part of the full-study set.
    _BANNER_COUNTRIES = ("ES", "US")

    def _analysis_tasks(
        self, *, geo: bool = False,
        countries: Optional[Sequence[str]] = None,
    ) -> List[Tuple[str, Callable[[], object]]]:
        """``(name, thunk)`` for every analysis the full study renders.

        The list is ordered exactly as the lazy renderer
        (``repro study``) pulls results, so evaluating it front-to-back
        with ``parallelism=1`` reproduces today's serial evaluation
        order; each thunk is also independently safe to run from a
        worker thread because every shared intermediate sits behind a
        :meth:`_memo` key lock.
        """
        tasks: List[Tuple[str, Callable[[], object]]] = [
            ("popularity", self.popularity),
            ("owners", self.owners),
            ("table2", self.table2),
            ("table3", self.table3),
            ("crawled_popularity", self.crawled_popularity),
            ("porn_attribution", self.porn_attribution),
            ("regular_attribution", self.regular_attribution),
            ("cookie_stats", self.cookie_stats),
            ("cookie_sync", self.cookie_sync),
            ("fingerprinting", self.fingerprinting),
            ("https", self.https_report),
            ("malware", self.malware),
        ]
        if geo:
            geo_countries = tuple(countries
                                  or self.vantage_points.country_codes)
            tasks.append(
                ("geography", lambda: self.geography(geo_countries))
            )
        for country in self._BANNER_COUNTRIES:
            tasks.append(
                (f"banners:{country}",
                 lambda c=country: self.banners(c))
            )
        return tasks

    def prefetch_analyses(
        self,
        countries: Optional[Sequence[str]] = None,
        *,
        geo: bool = False,
    ) -> None:
        """Fan the independent analyses across a thread pool.

        Crawls fan out first through :meth:`prefetch_crawls` (process
        pool); the remaining analyses — per-country banner reports,
        per-log labels/ATS, and the table builders — are pure functions
        of memoized inputs and fan out ``parallelism`` threads wide.
        Shared intermediates (a log, the ATS classifier, the Selenium
        inspection pass) are computed exactly once regardless of
        scheduling: every dependency is resolved through
        :meth:`_memo`, whose per-key locks serialize the first
        computation and hand every other thread the same object.
        Results are bit-identical to the sequential path because each
        memo value is a pure function of the universe and the crawl
        logs — scheduling changes who computes a value first, never the
        value.  With ``parallelism=1`` this is a no-op.
        """
        if self.parallelism <= 1:
            return
        crawl_countries = [self.home_country]
        for country in self._BANNER_COUNTRIES:
            if country not in crawl_countries:
                crawl_countries.append(country)
        if geo:
            for country in (countries or self.vantage_points.country_codes):
                if country not in crawl_countries:
                    crawl_countries.append(country)
        self.prefetch_crawls(crawl_countries)
        tasks = self._analysis_tasks(geo=geo, countries=countries)
        with ThreadPoolExecutor(max_workers=self.parallelism) as pool:
            futures = [pool.submit(self._timed_task(name, thunk))
                       for name, thunk in tasks]
            for future in futures:
                future.result()  # re-raise the first failure in task order

    def run_all(
        self,
        countries: Optional[Sequence[str]] = None,
        *,
        geo: bool = False,
    ) -> None:
        """Evaluate everything the full study output needs.

        ``parallelism=1`` runs each analysis serially in exactly the
        order the lazy renderer would pull it; ``parallelism>1`` fans
        crawls across the process pool and analyses across a thread
        pool.  Either way the results land in the memo, so rendering
        afterwards is pure cache reads — byte-identical across
        parallelism settings.
        """
        if self.parallelism > 1:
            self.prefetch_analyses(countries, geo=geo)
            return
        for name, thunk in self._analysis_tasks(geo=geo, countries=countries):
            self._timed_task(name, thunk)()

    def _timed_task(self, name: str, thunk: Callable[[], object]):
        """Wrap a task thunk to record its real wall time.

        The timing happens where the work happens — inside the prefetch
        pool worker or the serial loop — so benchmark ``analysis:*``
        stages can report true per-analysis cost instead of the
        near-zero memo-hit reads they used to see at ``parallelism>1``.
        The recorded time includes waits on shared-intermediate memo
        locks (that wait *is* part of the task's wall time).
        """

        def run():
            start = time.perf_counter()
            try:
                return thunk()
            finally:
                self.analysis_timings[name] = time.perf_counter() - start

        return run

    def inspections(self) -> List[SiteInspection]:
        """Interaction-crawler pass over the whole corpus (home country).

        Sites are inspected through the aggregate cache when one is
        configured, so an evolved epoch re-inspects only churned sites
        (see :func:`~repro.datastore.cached_inspections`).  With a store
        attached the pass is also persisted as an artifact keyed like a
        run (config + vantage + crawler kind), so ``repro report`` can
        render the policy/business tables without re-running the
        interaction crawler.
        """

        def inspect() -> List[SiteInspection]:
            from .datastore import MissingRunError, cached_inspections, run_key
            from .datastore.serialize import (
                inspections_from_payload,
                inspections_to_payload,
            )

            vantage = self.vantage_points.point(self.home_country)
            artifact_key = None
            if self.store is not None:
                artifact_key = run_key(self.universe.config, vantage,
                                       "selenium:inspections")
                stored = inspections_from_payload(
                    self.store.get_artifact(artifact_key))
                if stored is not None:
                    return stored
                if self.store_only:
                    raise MissingRunError(
                        f"store {self.store.path} holds no inspection pass; "
                        "re-run `repro study --store` to record it"
                    )
            results = cached_inspections(self.universe,
                                         self.corpus_domains(), vantage,
                                         self.aggregate_cache)
            if artifact_key is not None:
                self.store.put_artifact(artifact_key,
                                        inspections_to_payload(results))
            return results

        return self._memo("inspections", inspect)

    # -- per-site analysis ------------------------------------------------

    def _engine(self, country: str, kind: str):
        """The run's map/merge engine (memoized per run)."""
        from .datastore import IncrementalRunAnalyzer

        def build():
            return IncrementalRunAnalyzer(
                self.universe, self.aggregate_cache,
                vantage=self.vantage_points.point(country),
                kind=kind, domains=self._run_domains(kind),
                keep_html=kind == self._PORN_KIND,
                classifier=self.ats_classifier(),
                cert_lookup=self._cert_lookup(),
            )

        return self._memo(f"engine:{kind}:{country}", build)

    def _cert_lookup(self):
        """``universe.certificate_for`` behind one memo for the whole
        study: every run labels the same pages and third parties, and a
        lazy universe derives a certificate anew on each call."""
        return self._memo(
            "cert_lookup",
            lambda: functools.lru_cache(maxsize=1 << 16)(
                self.universe.certificate_for),
        )

    def _run_domains(self, kind: str) -> Sequence[str]:
        if kind == self._PORN_KIND:
            return self.corpus_domains()
        return self.universe.reference_regular_corpus()

    def _run_rows(self, country: str, kind: str):
        """The run as per-site row groups.

        Outside ``store_only`` this is the crawl memo's log (crawled, or
        loaded and completed through the store, on first use).  In
        ``store_only`` mode a log some other analysis already hydrated
        is sliced; otherwise sites are read back from the store one at a
        time, so a run nothing hydrates (the regular-web control of
        ``repro report``) never sits in memory whole.
        """
        from .datastore import LogRows

        porn = kind == self._PORN_KIND
        if not self.store_only:
            return LogRows(self.porn_log(country) if porn
                           else self.regular_log())
        with self._cache_lock:
            held = self._cache.get(f"porn_log:{country}" if porn
                                   else "regular_log")
        if held is not None:
            return LogRows(held)
        return self._memo(f"stored_rows:{kind}:{country}",
                          lambda: self._stored_rows(country, kind))

    def _stored_rows(self, country: str, kind: str):
        from .datastore import MissingRunError, StoredRows

        domains = self._run_domains(kind)
        state = self.store.find_run(
            self.universe.config, self.vantage_points.point(country), kind,
            domains, keep_html=kind == self._PORN_KIND,
        )
        if state is None or not state.complete:
            held = len(state.completed) if state is not None else 0
            raise MissingRunError(
                f"store {self.store.path} holds {held}/{len(domains)} sites "
                f"for {kind} from {country}; re-run with --store to "
                "complete it"
            )
        return StoredRows(self.store, state.run_id)

    def _partials(self, country: str, kind: str,
                  names: Sequence[str]) -> Dict[str, List[object]]:
        """Per-site partials of one run, in run position order."""
        rows = self._run_rows(country, kind)
        return self._engine(country, kind).partials(names, rows)

    def visited_sites(self, country: Optional[str] = None) -> List[str]:
        """Successfully visited sites of a porn crawl, in visit order."""
        return self._visited(country or self.home_country, self._PORN_KIND)

    def _visited(self, country: str, kind: str) -> List[str]:
        def build() -> List[str]:
            partials = self._partials(country, kind, ("visits",))["visits"]
            return [domain for partial in partials
                    for domain in partial["visited"]]

        return self._memo(f"visited:{kind}:{country}", build)

    # ------------------------------------------------------------------
    # Section 4.2: labeling, classification, attribution
    # ------------------------------------------------------------------

    def porn_labels(self, country: Optional[str] = None) -> PartyLabels:
        country = country or self.home_country
        return self._memo(
            f"porn_labels:{country}",
            lambda: merge_labels(self._partials(
                country, self._PORN_KIND, ("labels",))["labels"]),
        )

    def regular_labels(self) -> PartyLabels:
        return self._memo(
            "regular_labels",
            lambda: merge_labels(self._partials(
                self.home_country, self._REGULAR_KIND, ("labels",))["labels"]),
        )

    def ats_classifier(self) -> ATSClassifier:
        return self._memo(
            "ats_classifier",
            lambda: ATSClassifier.from_texts(self.universe.easylist_text,
                                             self.universe.easyprivacy_text),
        )

    def porn_ats(self, country: Optional[str] = None) -> ATSResult:
        country = country or self.home_country

        def build() -> ATSResult:
            partials = self._partials(country, self._PORN_KIND, ("ats",))
            return merge_ats(
                partials["ats"],
                third_party_fqdns=self.porn_labels(country)
                .all_third_party_fqdns)

        return self._memo(f"porn_ats:{country}", build)

    def regular_ats(self) -> ATSResult:
        def build() -> ATSResult:
            partials = self._partials(self.home_country, self._REGULAR_KIND,
                                      ("ats",))
            return merge_ats(
                partials["ats"],
                third_party_fqdns=self.regular_labels().all_third_party_fqdns)

        return self._memo("regular_ats", build)

    def porn_attribution(self) -> AttributionResult:
        return self._memo(
            "porn_attribution",
            lambda: attribute_organizations(
                self.porn_labels().all_third_party_fqdns,
                disconnect=self.universe.disconnect,
                cert_lookup=self._cert_lookup(),
                whois_lookup=self.universe.whois_organization,
            ),
        )

    def regular_attribution(self) -> AttributionResult:
        return self._memo(
            "regular_attribution",
            lambda: attribute_organizations(
                self.regular_labels().all_third_party_fqdns,
                disconnect=self.universe.disconnect,
                cert_lookup=self._cert_lookup(),
                whois_lookup=self.universe.whois_organization,
            ),
        )

    # ------------------------------------------------------------------
    # Tables and figures
    # ------------------------------------------------------------------

    def table2(self) -> Table2:
        self.prefetch_crawls(countries=[self.home_country])
        return self._memo(
            "table2",
            lambda: build_table2(
                porn_labels=self.porn_labels(),
                regular_labels=self.regular_labels(),
                porn_ats=self.porn_ats(),
                regular_ats=self.regular_ats(),
                porn_visited=len(self.visited_sites()),
                regular_visited=len(self._visited(self.home_country,
                                                  self._REGULAR_KIND)),
            ),
        )

    def table3(self) -> Table3:
        return self._memo(
            "table3",
            lambda: build_table3(self.porn_labels(), self.crawled_popularity()),
        )

    def crawled_popularity(self) -> PopularityReport:
        """Popularity restricted to successfully crawled sites."""
        def build() -> PopularityReport:
            crawled = set(self.visited_sites())
            full = self.popularity()
            return PopularityReport(
                [site for site in full.sites if site.domain in crawled]
            )

        return self._memo("crawled_popularity", build)

    def figure3(self, top_n: int = 19) -> List[OrganizationPrevalence]:
        return self._memo(
            f"figure3:{top_n}",
            lambda: build_figure3(
                porn_labels=self.porn_labels(),
                regular_labels=self.regular_labels(),
                porn_attribution=self.porn_attribution(),
                regular_attribution=self.regular_attribution(),
                porn_visited=len(self.visited_sites()),
                regular_visited=len(self._visited(self.home_country,
                                                  self._REGULAR_KIND)),
                top_n=top_n,
            ),
        )

    # ------------------------------------------------------------------
    # Section 5: privacy risks
    # ------------------------------------------------------------------

    def cookie_stats(self) -> CookieStats:
        def build() -> CookieStats:
            regular_bases = {
                registrable_domain(f)
                for f in self.regular_labels().all_third_party_fqdns
            }
            ats_bases = {
                registrable_domain(f) for f in self.porn_ats().ats_fqdns
            } | self.porn_ats().ats_domains_relaxed
            partials = self._partials(self.home_country, self._PORN_KIND,
                                      ("cookies",))
            return merge_cookies(partials["cookies"], ats_domains=ats_bases,
                                 regular_web_domains=regular_bases)

        return self._memo("cookie_stats", build)

    def cookie_sync(self) -> SyncReport:
        return self._memo(
            "cookie_sync",
            lambda: merge_sync(self._partials(
                self.home_country, self._PORN_KIND, ("sync",))["sync"]),
        )

    def fingerprinting(self) -> FingerprintingReport:
        def build() -> FingerprintingReport:
            partials = self._partials(self.home_country, self._PORN_KIND,
                                      ("jsapi",))
            return merge_fingerprinting(
                partials["jsapi"],
                url_blocklisted=self.ats_classifier().matches_url)

        return self._memo("fingerprinting", build)

    def https_report(self) -> HTTPSReport:
        def build() -> HTTPSReport:
            partials = self._partials(self.home_country, self._PORN_KIND,
                                      ("https",))
            return merge_https(partials["https"],
                               popularity=self.crawled_popularity())

        return self._memo("https", build)

    def malware(self, country: Optional[str] = None) -> MalwareReport:
        country = country or self.home_country

        def build() -> MalwareReport:
            labels = self.porn_labels(country)

            def scanner(domain: str) -> int:
                return self.universe.scanner_hits(domain, country)

            partials = self._partials(country, self._PORN_KIND,
                                      ("visits", "jsapi"))
            return merge_malware(partials["visits"], partials["jsapi"],
                                 labels=labels, scanner=scanner)

        return self._memo(f"malware:{country}", build)

    # ------------------------------------------------------------------
    # Section 6: geography
    # ------------------------------------------------------------------

    def geography(
        self, countries: Optional[Sequence[str]] = None
    ) -> GeoReport:
        countries = tuple(countries or self.vantage_points.country_codes)

        def build() -> GeoReport:
            # All per-country crawls (plus the regular control) are
            # independent; fan them out before the sequential assembly.
            self.prefetch_crawls(countries)
            observations = {}
            for country in countries:
                observations[country] = CountryObservation(
                    log=self.porn_log(country),
                    labels=self.porn_labels(country),
                    ats=self.porn_ats(country),
                    malware=self.malware(country),
                )
            return analyze_geography(
                observations,
                regular_web_fqdns=self.regular_labels().all_third_party_fqdns,
            )

        return self._memo(f"geo:{countries}", build)

    # ------------------------------------------------------------------
    # Section 7: compliance
    # ------------------------------------------------------------------

    def banners(self, country: Optional[str] = None) -> BannerReport:
        country = country or self.home_country

        def build() -> BannerReport:
            # Outside store_only the rows come from the shared crawl
            # memo: geography and banner analysis for the same country
            # crawl exactly once (the per-country logs keep HTML for the
            # banner detector).
            partials = self._partials(country, self._PORN_KIND, ("banners",))
            return merge_banners(partials["banners"],
                                 corpus_size=len(self.corpus_domains()))

        return self._memo(f"banners:{country}", build)

    def banner_reports(
        self, countries: Sequence[str]
    ) -> Dict[str, BannerReport]:
        """Banner reports for several countries, crawling N-wide."""
        self.prefetch_crawls(countries, include_regular=False)
        return {country: self.banners(country) for country in countries}

    def age_verification(
        self,
        *,
        top_n: int = 50,
        countries: Sequence[str] = ("US", "UK", "ES", "RU"),
    ) -> AgeVerificationReport:
        return self._memo(
            f"agegate:{top_n}:{tuple(countries)}",
            lambda: study_age_verification(
                self.universe,
                self.top_sites(top_n),
                countries=countries,
                vantage_points=self.vantage_points,
            ),
        )

    def policies(self) -> PolicyReport:
        def build() -> PolicyReport:
            collected = [
                CollectedPolicy(i.domain, i.policy.text, i.policy.status)
                for i in self.inspections()
                if i.reachable and i.policy.link_found
            ]
            observed = {
                page: {registrable_domain(f) for f in fqdns}
                for page, fqdns in self.porn_labels().third_party_direct.items()
            }
            return analyze_policies(
                collected,
                corpus_size=len(self.corpus_domains()),
                observed_third_parties=observed,
            )

        return self._memo("policies", build)

    def business_models(self) -> BusinessReport:
        return self._memo(
            "business", lambda: classify_business_models(self.inspections())
        )

    def owners(self) -> OwnerReport:
        def build() -> OwnerReport:
            policy_texts = {
                i.domain: i.policy.text
                for i in self.inspections()
                if i.reachable and i.policy.link_found and i.policy.fetched_ok
            }
            landing_html = {
                v.site_domain: v.html
                for v in self.porn_log().successful_visits()
                if v.html
            }
            return discover_owners(
                policy_texts=policy_texts,
                landing_html=landing_html,
                cert_lookup=self._cert_lookup(),
            )

        return self._memo("owners", build)

    # ------------------------------------------------------------------
    # Section 10: future-work extensions
    # ------------------------------------------------------------------

    def adblock_comparison(self):
        """§10 extension: crawl with an EasyList blocker, compare tracking."""
        from .core.extensions.adblock_sim import compare_protection

        def build():
            return compare_protection(
                self.universe,
                self.vantage_points.point(self.home_country),
                self.corpus_domains(),
                baseline_log=self.porn_log(),
                classifier=self.ats_classifier(),
            )

        return self._memo("adblock", build)

    def subscription_tracking(self):
        """§10 extension: tracking by monetization model."""
        from .core.extensions.subscriptions import compare_tracking_by_model

        return self._memo(
            "subscription_tracking",
            lambda: compare_tracking_by_model(
                self.business_models(), self.porn_labels(), self.porn_log()
            ),
        )

    def cross_border(self):
        """§10 extension: identifier flows leaving the EU."""
        from .core.extensions.crossborder import analyze_cross_border

        return self._memo(
            "cross_border",
            lambda: analyze_cross_border(self.universe, self.porn_log(),
                                         self.porn_labels()),
        )

    def best_rank(self, domain: str) -> int:
        trajectory = self.universe.rank_history(domain)
        return trajectory.observed_best if trajectory else 0
