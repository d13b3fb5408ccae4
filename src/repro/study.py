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

import threading
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
from .crawler.selenium import SiteInspection
from .crawler.vpn import VantagePointManager
from .datastore.incremental import BANNER_COUNTRIES, HOME_COUNTRY
from .net.url import registrable_domain
from .reporting.sections import rendered, run_reads, study_results
from .webgen.builder import build_universe
from .webgen.config import UniverseConfig
from .webgen.universe import Universe

__all__ = ["Study"]

#: ``(country, run kind, analyses)``: one planned read of a stored run.
RunPass = Tuple[str, str, Tuple[str, ...]]


class Study:
    """The full measurement study over one synthetic universe."""

    #: The physical vantage point; which analyses each run feeds is
    #: the report's section table's to say.
    home_country = HOME_COUNTRY

    def __init__(
        self,
        universe: Universe,
        *,
        vantage_points: Optional[VantagePointManager] = None,
        parallelism: Optional[int] = None,
        store: Optional[object] = None,
        store_only: bool = False,
        store_shards: Optional[int] = None,
        baseline_store: Optional[object] = None,
        aggregate_cache: Optional[object] = None,
        progress: Optional[Callable[..., None]] = None,
    ) -> None:
        """``parallelism`` bounds how many independent crawls run at once
        in forked workers (default: the CPUs this process may use).  Any
        value produces bit-identical results, because only whole crawls
        (each owning its cookie jar) fan out; the analyses run in one
        order in this process (:meth:`run_all`).

        ``store`` (a :class:`~repro.datastore.CrawlStore` or a path)
        persists every crawl and skips already-stored ones, making an
        interrupted study resumable at per-site granularity.  With a
        store each crawl writes every site's partials beside its rows,
        the analyses read them back (see :meth:`_run_rows`), and no log
        is held in memory unless :meth:`porn_log` or :meth:`regular_log`
        (the §10 extensions) asks for one.  ``store_shards`` (with a
        path) is the shard count of a store created here (default 1); an
        existing store keeps its own.  ``store_only=True`` is the ``repro
        report`` contract: every table is a merge of stored partials and
        stored artifacts, the §3 corpus and the inspection pass come
        from their store artifacts, and a missing crawl or artifact
        raises :class:`~repro.datastore.MissingRunError` instead of
        touching a browser.  :meth:`prefetch_partials` reads every run
        a render reads in one pass each.

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
        events fire live for crawls run inline; forked crawls tally
        them in each worker and replay the merged counts after the run
        as ``progress(event, count=N, key=..., country=...)`` (see
        :class:`~repro.crawler.executor.CrawlExecutor`), so counting
        consumers like ``--stats`` work at any parallelism while
        streaming consumers should run with ``parallelism=1``.

        ``aggregate_cache`` (an
        :class:`~repro.datastore.AggregateStore`, a path, or ``True``
        for ``aggregates.sqlite`` inside the store directory) caches the
        §3 sanitize verdicts and the Selenium inspections, so an evolved
        epoch re-visits only the sites that churned (see
        :func:`~repro.datastore.cached_sanitize`).  It needs a store.
        """
        if store_only and store is None:
            raise ValueError("store_only=True requires a store")
        if aggregate_cache and store is None:
            raise ValueError("aggregate_cache requires a store")
        self.universe = universe
        self.vantage_points = vantage_points or VantagePointManager()
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
        self.progress = progress
        self._cache: Dict[str, object] = {}
        self._cache_lock = threading.RLock()

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

        The service's result study renders sections from several HTTP
        handler threads; one lock, held while a factory runs, makes
        every other thread wait for the value.  It is re-entrant because
        factories call other memos.
        """
        with self._cache_lock:
            if key not in self._cache:
                self._cache[key] = factory()
            return self._cache[key]

    def _memoized(self, key: str) -> bool:
        with self._cache_lock:
            return key in self._cache

    # ------------------------------------------------------------------
    # Section 3: corpus
    # ------------------------------------------------------------------

    def corpus(self) -> Tuple[CandidateSet, SanitizedCorpus]:
        """The §3 candidates and their sanitized partition.

        With a store the verdicts persist as the ``sanitize:verdicts``
        artifact, accepted only for the same candidate list, so
        ``repro report`` never re-browses the candidates.
        """

        def build() -> Tuple[CandidateSet, SanitizedCorpus]:
            # Sanitize verdicts are per-candidate pure functions of
            # served content: with an aggregate cache only candidates
            # whose hash churned are re-visited.
            from .datastore import cached_sanitize
            from .datastore.serialize import (
                SANITIZE_KIND,
                sanitize_from_payload,
                sanitize_to_payload,
            )

            candidates = compile_candidates(self.universe)
            domains = candidates.domains
            sanitized = self._artifact(
                SANITIZE_KIND, "sanitize verdicts",
                decode=lambda payload: sanitize_from_payload(payload,
                                                             domains),
                encode=lambda value: sanitize_to_payload(domains, value),
                compute=lambda: cached_sanitize(
                    self.universe, domains,
                    self.vantage_points.point(self.home_country),
                    self.aggregate_cache,
                ),
            )
            return candidates, sanitized

        return self._memo("corpus", build)

    def _artifact(self, kind: str, what: str, *, decode, encode, compute):
        """A crawl product stored as an artifact keyed like a run
        (config + home vantage + ``kind``).

        A payload ``decode`` accepts is the product.  Otherwise a
        ``store_only`` study raises
        :class:`~repro.datastore.MissingRunError`, and any other study
        runs ``compute`` and, with a store, writes the result back.
        """
        from .datastore import MissingRunError, run_key

        if self.store is None:
            return compute()
        key = run_key(self.universe.config,
                      self.vantage_points.point(self.home_country), kind)
        stored = decode(self.store.get_artifact(key))
        if stored is not None:
            return stored
        if self.store_only:
            raise MissingRunError(
                f"store {self.store.path} holds no {what}; re-run "
                "`repro study --store` to record them"
            )
        value = compute()
        self.store.put_artifact(key, encode(value))
        return value

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

    #: Datastore run kinds: the porn crawl from each vantage point and
    #: the regular-web control crawl from home.
    _PORN_KIND = "openwpm:porn"
    _REGULAR_KIND = "openwpm:regular"

    def _executor(self) -> CrawlExecutor:
        return CrawlExecutor(
            self.universe,
            self.vantage_points,
            parallelism=self.parallelism,
            store=self.store,
            baseline=self.baseline_store,
            progress=self.progress,
        )

    def _spec(self, country: str, kind: str) -> CrawlSpec:
        """What the run of ``kind`` from ``country`` crawls.  Its key,
        ``<kind>:<country>``, names the crawl memo (``crawl:<key>``)."""
        return CrawlSpec(
            key=f"{kind}:{country}",
            country=country,
            domains=tuple(self._run_domains(kind)),
            # HTML is kept for every country so one crawl serves both
            # the geography analyses and the banner detector (§6 + §7.1
            # share the crawl instead of re-crawling).
            keep_html=kind == self._PORN_KIND,
            store_kind=kind,
        )

    def _crawl(self, country: str, kind: str) -> CrawlOutcome:
        """The run's crawl (memoized): its log without a store, its
        stored run with one, crawled (resumed, or delta-crawled) into
        the store first unless ``store_only``."""

        def crawl() -> CrawlOutcome:
            spec = self._spec(country, kind)
            if not self.store_only:
                return self._executor().run([spec])[0]
            from .datastore import MissingRunError

            state = self.store.find_run(
                self.universe.config, self.vantage_points.point(country),
                kind, spec.domains, keep_html=spec.keep_html)
            if state is None or not state.complete:
                held = len(state.completed) if state is not None else 0
                raise MissingRunError(
                    f"store {self.store.path} holds {held}/"
                    f"{len(spec.domains)} sites for {kind} from {country}; "
                    "re-run with --store to complete it"
                )
            return CrawlOutcome(spec.key, country, run=state.run_id)

        return self._memo(f"crawl:{kind}:{country}", crawl)

    def _log(self, country: str, kind: str) -> CrawlLog:
        outcome = self._crawl(country, kind)
        if self.store is None:
            return outcome.log
        return self._memo(f"log:{kind}:{country}",
                          lambda: self.store.load_log(outcome.run))

    def porn_log(self, country: Optional[str] = None) -> CrawlLog:
        """The porn crawl from ``country`` as one log; with a store it is
        loaded whole from the stored run."""
        return self._log(country or self.home_country, self._PORN_KIND)

    def regular_log(self) -> CrawlLog:
        """The regular-web control crawl as one log (see
        :meth:`porn_log`)."""
        return self._log(self.home_country, self._REGULAR_KIND)

    def prefetch_crawls(self, countries: Sequence[str]) -> None:
        """Run the porn crawls from ``countries`` and the regular crawl,
        those not yet memoized, ``parallelism``-wide.

        Each outcome lands in the crawl memo :meth:`_crawl` fills (they
        are bit-identical: each crawl is internally sequential and owns
        its cookie jar).  With ``parallelism=1``, a ``store_only`` study
        (nothing to crawl) or fewer than two crawls left this is a no-op
        and the lazy accessors crawl in the order they are asked.
        """
        if self.parallelism <= 1 or self.store_only:
            return
        runs = [(country, self._PORN_KIND) for country in countries]
        runs.append((self.home_country, self._REGULAR_KIND))
        specs = [self._spec(country, kind) for country, kind in runs
                 if not self._memoized(f"crawl:{kind}:{country}")]
        if len(specs) < 2:
            return
        for outcome in self._executor().run(specs):
            with self._cache_lock:
                self._cache.setdefault(f"crawl:{outcome.key}", outcome)

    # -- the report's schedule -------------------------------------------

    def _run_plan(self, geo: bool = False) -> List[RunPass]:
        """Each run a render reads: the home runs, Table 8's porn runs
        and with ``geo`` Table 7's, each with the analyses its sections
        read from it."""
        countries = self.vantage_points.country_codes if geo else ()
        runs = [(self.home_country, self._PORN_KIND),
                (self.home_country, self._REGULAR_KIND)]
        runs.extend((country, self._PORN_KIND)
                    for country in dict.fromkeys((*countries,
                                                  *BANNER_COUNTRIES))
                    if country != self.home_country)
        return [(country, kind, run_reads(rendered(geo), country, kind))
                for country, kind in runs]

    def prefetch_partials(self, *, geo: bool = False) -> None:
        """Crawl each run a render reads (:meth:`prefetch_crawls`) and,
        with a store, read it in one pass.

        Each planned run (:meth:`_run_plan`) is one
        :meth:`~repro.datastore.IncrementalRunAnalyzer.hold` call: one
        range scan of its partials per shard, which the sections decode
        as they merge them.
        """
        plan = self._run_plan(geo)
        self.prefetch_crawls([country for country, kind, _ in plan
                              if kind == self._PORN_KIND])
        if self.store is None:
            return
        for country, kind, names in plan:
            self._engine(country, kind).hold(names,
                                             self._run_rows(country, kind))

    def run_all(self, *, geo: bool = False) -> None:
        """Evaluate everything the report needs: the runs it reads
        (:meth:`prefetch_partials`, whose crawls fork
        ``parallelism``-wide), then the results of its sections, in
        their table's order.  Rendering afterwards is pure cache reads,
        byte-identical at any parallelism.
        """
        self.prefetch_partials(geo=geo)
        for _, result in study_results(geo):
            result(self, None)

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
            from .datastore import cached_inspections
            from .datastore.serialize import (
                INSPECTIONS_KIND,
                inspections_from_payload,
                inspections_to_payload,
            )

            return self._artifact(
                INSPECTIONS_KIND, "inspection results",
                decode=inspections_from_payload,
                encode=inspections_to_payload,
                compute=lambda: cached_inspections(
                    self.universe, self.corpus_domains(),
                    self.vantage_points.point(self.home_country),
                    self.aggregate_cache),
            )

        return self._memo("inspections", inspect)

    # -- per-site analysis ------------------------------------------------

    def _engine(self, country: str, kind: str):
        """The run's map/merge engine (memoized per run)."""
        from .datastore import IncrementalRunAnalyzer

        return self._memo(
            f"engine:{kind}:{country}",
            lambda: IncrementalRunAnalyzer(self._mapper(), kind=kind,
                                           domains=self._run_domains(kind)),
        )

    def partial_counts(self) -> Dict[str, int]:
        """How many per-site partials this study's analyses ``read`` at
        rest and how many they ``mapped`` from rows, over every run."""
        with self._cache_lock:
            engines = [value for key, value in self._cache.items()
                       if key.startswith("engine:")]
        return {name: sum(engine.stats[name] for engine in engines)
                for name in ("read", "mapped")}

    def _mapper(self):
        """The universe's :class:`~repro.datastore.SiteMapper`, whose
        classifier and memos every run of the study shares."""
        from .datastore import SiteMapper

        return SiteMapper.for_universe(self.universe)

    def _run_domains(self, kind: str) -> Sequence[str]:
        if kind == self._PORN_KIND:
            return self.corpus_domains()
        return self.universe.reference_regular_corpus()

    def _run_rows(self, country: str, kind: str):
        """The run as per-site row groups.

        With a store it is read back from it
        (:class:`~repro.datastore.StoredRows`), after the study crawled
        it there (unless ``store_only``); no run is held in memory whole.
        Without a store it is the crawl memo's log.
        """
        from .datastore import LogRows, StoredRows

        if self.store is None:
            return LogRows(self._crawl(country, kind).log)
        return self._memo(
            f"stored_rows:{kind}:{country}",
            lambda: StoredRows(self.store, self._crawl(country, kind).run))

    def _partials(self, country: str, kind: str,
                  names: Sequence[str]) -> Dict[str, List[object]]:
        """Per-site partials of one run, in run position order."""
        return self._engine(country, kind).partials(
            names, self._run_rows(country, kind))

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
        return self._mapper().classifier

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
                cert_lookup=self._mapper().cert_lookup,
                whois_lookup=self.universe.whois_organization,
            ),
        )

    def regular_attribution(self) -> AttributionResult:
        return self._memo(
            "regular_attribution",
            lambda: attribute_organizations(
                self.regular_labels().all_third_party_fqdns,
                disconnect=self.universe.disconnect,
                cert_lookup=self._mapper().cert_lookup,
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
                                      ("visits",))
            return merge_malware(partials["visits"], labels=labels,
                                 scanner=scanner)

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
                visits = self._partials(country, self._PORN_KIND,
                                        ("visits",))["visits"]
                observations[country] = CountryObservation(
                    blocked=sum(partial["blocked"] for partial in visits),
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
            # Geography and banner analysis read the same run, so each
            # country is crawled exactly once (the per-country crawls
            # keep HTML for the banner detector).
            partials = self._partials(country, self._PORN_KIND, ("banners",))
            return merge_banners(partials["banners"],
                                 corpus_size=len(self.corpus_domains()))

        return self._memo(f"banners:{country}", build)

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
            partials = self._partials(self.home_country, self._PORN_KIND,
                                      ("owners",))
            return discover_owners(
                policy_texts=policy_texts,
                head_organizations={
                    site: organization
                    for partial in partials["owners"]
                    for site, organization in partial["heads"]
                },
                cert_lookup=self._mapper().cert_lookup,
            )

        return self._memo("owners", build)

    # ------------------------------------------------------------------
    # Section 10: future-work extensions
    # ------------------------------------------------------------------

    def adblock_comparison(self):
        """§10 extension: crawl with an EasyList blocker, compare tracking.

        With :meth:`subscription_tracking` and :meth:`cross_border` one
        of the only readers of the whole :meth:`porn_log` (loaded from
        the store when there is one); no report section renders them.
        """
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
        """§10 extension: tracking by monetization model.

        Reads the whole :meth:`porn_log` (see :meth:`adblock_comparison`).
        """
        from .core.extensions.subscriptions import compare_tracking_by_model

        return self._memo(
            "subscription_tracking",
            lambda: compare_tracking_by_model(
                self.business_models(), self.porn_labels(), self.porn_log()
            ),
        )

    def cross_border(self):
        """§10 extension: identifier flows leaving the EU.

        Reads the whole :meth:`porn_log` (see :meth:`adblock_comparison`).
        """
        from .core.extensions.crossborder import analyze_cross_border

        return self._memo(
            "cross_border",
            lambda: analyze_cross_border(self.universe, self.porn_log(),
                                         self.porn_labels()),
        )

    def best_rank(self, domain: str) -> int:
        trajectory = self.universe.rank_history(domain)
        return trajectory.observed_best if trajectory else 0
