"""Layer spans around the public entry points of the ``repro`` package.

:func:`install` replaces a fixed list of functions and methods — one or
a few per layer — with wrappers that record a span per call.  The
boundaries are coarse on purpose: one span per site visit, per
checkpoint, per analysis call, per job; never per request or per URL
match.  Row cursors and similarity pair streams are generators, so they
are timed per chunk of :data:`CHUNK` items (the consumer's own work
between chunks stays outside the span).

Two span names are *roots* that also probe counters the program keeps
itself: ``process.main`` (a whole CLI invocation, opened by
``traced.py``) and ``service.job`` (one measurement-service job).  At a
root's end its ``args`` gain the fetch/parse cache, aggregate cache,
store I/O and similarity-engine counters accumulated under it.

The package is never edited: wrappers are installed by rebinding names
at run time, in every loaded ``repro`` module that imported them.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from typing import Callable, Dict, Optional

from tracing import Tracer

__all__ = ["CHUNK", "ROOTS", "install"]

#: Items per timed chunk of a wrapped generator.
CHUNK = 1024

#: Span names that carry counter probes.
ROOTS = ("process.main", "service.job")


class _Probe:
    """Counters accumulated under the root span open on this thread."""

    def __init__(self) -> None:
        self._local = threading.local()

    def owned(self) -> Optional[Dict]:
        return getattr(self._local, "owned", None)

    def adopt(self, kind: str, instance) -> None:
        owned = self.owned()
        if owned is not None:
            owned[kind].append(instance)

    def begin(self) -> None:
        self._local.owned = {"universe": [], "store": [], "aggregates": []}
        self._local.before = _global_counters()

    def end(self) -> Dict:
        owned, before = self._local.owned, self._local.before
        self._local.owned = None
        after = _global_counters()
        counts = {key: after[key] - before[key] for key in after}
        for universe in owned["universe"]:
            stats = universe.fetch_cache.stats
            counts["fetch_hits"] = counts.get("fetch_hits", 0) + stats.hits
            counts["fetch_misses"] = (counts.get("fetch_misses", 0)
                                      + stats.misses)
        for store in owned["store"]:
            for key in ("opens", "scans"):
                counts[key] = counts.get(key, 0) + store.io_stats[key]
        for cache in owned["aggregates"]:
            counts["agg_hits"] = counts.get("agg_hits", 0) + cache.stats.hits
            counts["agg_misses"] = (counts.get("agg_misses", 0)
                                    + cache.stats.misses)
        return counts


def _global_counters() -> Dict[str, int]:
    from repro.html.parser import parse_cache_stats
    from repro.text.sparse import engine_stats

    parse = parse_cache_stats()
    engine = engine_stats()
    return {"parse_hits": parse.hits, "parse_misses": parse.misses,
            "documents": engine.documents,
            "candidate_pairs": engine.candidate_pairs}


def _span_call(tracer: Tracer, probe: _Probe, fn: Callable, name: str,
               start: Optional[Callable] = None,
               finish: Optional[Callable] = None) -> Callable:
    """``fn`` wrapped in one span per call."""
    root = name in ROOTS

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        opening = start(*args, **kwargs) if start is not None else None
        if root:
            probe.begin()
        span = tracer.begin(name, opening)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.end(span, probe.end() if root else None)
            raise
        closing = dict(probe.end()) if root else {}
        if finish is not None:
            closing.update(finish(result, opening, *args, **kwargs) or {})
        tracer.end(span, closing)
        return result

    return traced


def _span_chunks(tracer: Tracer, fn: Callable, name: str) -> Callable:
    """A generator function whose items are pulled in timed chunks."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        items = fn(*args, **kwargs)

        def chunks():
            while True:
                span = tracer.begin(name)
                chunk = list(itertools.islice(items, CHUNK))
                tracer.end(span, {"rows": len(chunk)})
                yield from chunk
                if len(chunk) < CHUNK:
                    return

        return chunks()

    return traced


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every loaded ``repro`` module's reference at the wrapper."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def _row_count(result, *_args, **_kwargs) -> Dict:
    return {"rows": len(result)}


def install(tracer: Tracer) -> Callable[[Callable], Callable]:
    """Wrap the layer entry points of the already-importable package.

    Returns a decorator that wraps a CLI entry point as the
    ``process.main`` root span, sharing this installation's probes.
    """
    import repro.__main__  # noqa: F401 — binds names the CLI imports
    import repro.reporting as reporting
    import repro.service.jobs as jobs
    from repro.browser.browser import Browser
    from repro.core import (
        analyze_cookies, analyze_fingerprinting, analyze_geography,
        analyze_https, analyze_malware, build_corpus, detect_cookie_sync,
        discover_owners, label_parties,
    )
    from repro.core import mapmerge
    from repro.core.ats import ATSClassifier
    from repro.core.compliance.banners import analyze_banners
    from repro.core.compliance.policies import analyze_policies
    from repro.crawler.openwpm import OpenWPMCrawler
    from repro.crawler.selenium import SeleniumCrawler
    from repro.datastore import (
        AggregateStore, CrawlStore, IncrementalRunAnalyzer, cached_sanitize,
        delta_crawl, stored_crawl,
    )
    from repro.datastore.store import RunWriter
    from repro.service.api import ServiceAPI
    from repro.text.sparse import SimilarityEngine
    from repro.webgen.builder import build_universe
    import repro.study  # noqa: F401

    probe = _Probe()

    def span(fn, name, start=None, finish=None):
        return _span_call(tracer, probe, fn, name, start, finish)

    def method(cls, attribute, name, start=None, finish=None):
        setattr(cls, attribute,
                span(getattr(cls, attribute), name, start, finish))

    def function(fn, name, start=None, finish=None):
        _rebind(fn, span(fn, name, start, finish))

    def adopt_after_init(cls, kind):
        original = cls.__init__

        @functools.wraps(original)
        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            probe.adopt(kind, self)

        cls.__init__ = init

    # webgen: universe build (and the evolve chain for epochs > 0).
    def adopt_universe(universe, *_args, **_kwargs):
        probe.adopt("universe", universe)
    function(build_universe, "webgen.build", finish=adopt_universe)

    # crawler + browser
    method(OpenWPMCrawler, "crawl", "crawler.crawl")
    method(OpenWPMCrawler, "visit_site", "crawler.site")
    method(SeleniumCrawler, "inspect", "crawler.inspect")
    method(Browser, "visit", "browser.visit",
           start=lambda self, *a, **k: {"before": len(self.log.requests)},
           finish=lambda result, opening, self, *a, **k: {
               "requests": len(self.log.requests) - opening.pop("before")})

    # ATS classifier: rule compilation and whole-log classification.
    from_texts = ATSClassifier.__dict__["from_texts"].__func__
    ATSClassifier.from_texts = classmethod(span(from_texts, "ats.build"))
    method(ATSClassifier, "classify_log", "ats.classify")
    function(mapmerge.merge_ats, "ats.classify")

    # datastore: runs, writes, splices, reads.
    def run_opening(store, universe, vantage, kind, *_args, **_kwargs):
        stats = universe.fetch_cache.stats
        return {"kind": kind, "country": vantage.country_code,
                "fetch_before": (stats.hits, stats.misses)}

    def run_closing(result, opening, store, universe, *_args, **_kwargs):
        stats = universe.fetch_cache.stats
        hits, misses = opening.pop("fetch_before")
        return {"fetch_hits": stats.hits - hits,
                "fetch_misses": stats.misses - misses}
    function(stored_crawl, "datastore.run", start=run_opening,
             finish=run_closing)

    def delta_counts(result, *_args, **_kwargs):
        if result is None:
            return {}
        return {key: result[1][key] for key in ("spliced", "crawled")}
    function(delta_crawl, "datastore.delta", finish=delta_counts)
    method(RunWriter, "checkpoint", "datastore.write")
    method(RunWriter, "splice_many", "datastore.splice",
           start=lambda self, items: {"sites": len(items)})
    method(RunWriter, "splice", "datastore.splice")
    for attribute in ("iter_visits", "iter_requests", "iter_cookies",
                      "iter_js_calls"):
        setattr(CrawlStore, attribute, _span_chunks(
            tracer, getattr(CrawlStore, attribute), "datastore.read"))
    method(CrawlStore, "load_log", "datastore.read")
    method(CrawlStore, "site_event_rows", "datastore.read",
           finish=_row_count)
    method(CrawlStore, "event_rows_in_range", "datastore.read",
           finish=_row_count)
    adopt_after_init(CrawlStore, "store")

    # aggregate cache + the map side of incremental analysis.
    method(AggregateStore, "get_many", "aggregates.lookup")
    method(AggregateStore, "put_many", "aggregates.write")
    adopt_after_init(AggregateStore, "aggregates")
    method(IncrementalRunAnalyzer, "partials", "core.map")

    # analyses, monolithic and merge forms under one name each.
    analyses = {
        "core.corpus": (build_corpus, cached_sanitize),
        "core.labels": (label_parties, mapmerge.merge_labels),
        "core.cookies": (analyze_cookies, mapmerge.merge_cookies),
        "core.sync": (detect_cookie_sync, mapmerge.merge_sync),
        "core.fingerprinting": (analyze_fingerprinting,
                                mapmerge.merge_fingerprinting),
        "core.https": (analyze_https, mapmerge.merge_https),
        "core.malware": (analyze_malware, mapmerge.merge_malware),
        "core.geography": (analyze_geography,),
        "core.banners": (analyze_banners, mapmerge.merge_banners),
        "core.owners": (discover_owners,),
        "core.policies": (analyze_policies,),
    }
    for name, fns in analyses.items():
        for fn in fns:
            function(fn, name)

    # text similarity: fits and pair scans.
    method(SimilarityEngine, "fit", "text.similarity")
    method(SimilarityEngine, "count_pairs_above", "text.similarity")
    SimilarityEngine.similar_pairs = _span_chunks(
        tracer, SimilarityEngine.similar_pairs, "text.similarity")

    # reporting
    for fn in (reporting.full_report, reporting.render_section,
               reporting.render_figure):
        function(fn, "reporting.render")

    # service: jobs (roots) and API requests.
    function(jobs.execute_job, "service.job",
             start=lambda job, *a, **k: {"job": job.id,
                                         "epoch": job.spec.epoch})
    method(ServiceAPI, "handle", "service.request",
           start=lambda self, verb, path, *a, **k: {"path": path},
           finish=lambda result, *a, **k: {"status": result[0]})

    return lambda fn: span(fn, "process.main")

