"""End-to-end pipeline timing: universe build, crawls, analysis stages.

Writes machine-readable ``BENCH_pipeline.json`` at the repo root with one
entry per parallelism setting (schema ``bench-pipeline/v3``: stage ->
seconds, plus scale, parallelism, and per-run crawl **throughput** —
pages/sec and requests/sec over the crawl:all wall time).  Single-crawl
throughput is the headline metric: wall-clock speedup across parallelism
settings is meaningless on a box with fewer cores than workers (runs
where ``parallelism > cpu_count`` are annotated), while pages/sec is
comparable everywhere.  Each configuration runs in a **fresh
subprocess**: forking a worker pool from a process that already ran a
large sequential study inflates copy-on-write page faults and would make
the parallel run look slower than it is, so configs never share a
process.

Schema v3 added the analysis layer: an ``analysis:*`` stage breakdown
(tables, geography, banners, owners, policies, and ``analysis:all``),
an **analysis-docs/sec** headline (documents consumed by the analyses —
crawled pages plus collected policies — over the ``analysis:all`` wall
time), per-run ``peak_rss_mb`` (``ru_maxrss``, so the sparse similarity
engine's memory win is recorded), a ``similarity`` block timing the
sparse engine against the retained dense/linear references on the same
policy corpus, and a ``banner_detection`` block timing the prefiltered
detector against the historical parse-every-page walk on the same
landing pages.  The top-level ``analysis_speedup`` compares
``analysis:all`` against the measured pre-optimization counterfactual
(dense similarity + unfiltered banner detection on identical inputs).

Schema v5 adds the ``service`` block: a fresh-subprocess probe that
boots the measurement service (``repro serve``) on an ephemeral port,
submits one study job over HTTP, and records the submit→first-SSE-event
latency, the aggregate events/sec delivered to **8 concurrent SSE
subscribers** streaming the job to completion, and the p50 latency of a
served table (``GET /jobs/<id>/tables/table2``) against the warm store.
Probe scale via ``REPRO_PERF_SERVICE_SCALE`` (default 0.02).

Schema v6 adds the ``delta`` block: a fresh-subprocess probe that crawls
the seed epoch into a baseline store, evolves the universe one epoch
(``REPRO_PERF_DELTA_CHURN`` content churn, default 0.05), and crawls
epoch 1 twice — once as a delta crawl splicing provably-unchanged
sites' stored slices out of the baseline, once as a full crawl — then
verifies the two stores hold byte-identical event rows and records the
spliced fraction, the delta-vs-full speedup, and where the cookie-jar
digest first diverged.  Probe scale via ``REPRO_PERF_DELTA_SCALE``
(default 0.1).

Schema v7 adds the ``incremental_analysis`` block and real pool-mode
analysis timings.  The block is a fresh-subprocess probe: crawl the seed
epoch, render every section through the map/merge aggregate cache (the
cold pass persists one partial per site per analysis), delta-crawl one
evolved epoch (``REPRO_PERF_DELTA_CHURN``), then render the epoch-1
sections twice — **incremental first** (so the full pass inherits any
warm OS caches and the reported speedup is conservative), then the
monolithic reference — and record the cache hit/miss split, both wall
times, the speedup, and whether every rendered section is
byte-identical.  Pool-mode runs (``parallelism > 1``) additionally
replace the ``analysis:*`` stage readings — which after
``prefetch_analyses`` were sub-millisecond memo reads — with the real
per-analysis wall time each task spent inside the thread pool
(``Study.analysis_timings``), and carry the full per-task breakdown
under ``analysis_timings``.

Schema v4 adds the memory axis.  Every run carries ``stage_rss_mb`` —
the process RSS high-water mark sampled after each pipeline stage, so a
stage that balloons memory is attributable — and the document gains a
``memory_scaling`` block: the *streaming* configuration (sharded store,
trim-mode crawl, cursor-fed analyses) run at increasing
scales in fresh subprocesses, recording peak RSS per scale and the
RSS ratio across them.  The streaming run's Tables 2/4/6 are hashed and
compared against an in-memory, hydrated-log reference at the smallest
scale, so the block also certifies that the bounded-memory path is
byte-identical, not merely cheap.  Probe scales come from
``REPRO_PERF_MEM_SCALES`` (comma-separated, default ``0.05,0.1``).

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/test_perf_pipeline.py \
        --scale 0.2 --parallelism-set 1,4

or through pytest (scale via ``REPRO_PERF_SCALE``, default 0.05 so the
test stays quick)::

    REPRO_PERF_SCALE=0.2 PYTHONPATH=src pytest benchmarks/test_perf_pipeline.py -q
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_pipeline.json"
SCHEMA = "bench-pipeline/v7"
DEFAULT_COUNTRIES = ("ES", "US", "UK", "RU", "IN", "SG")
DEFAULT_MEM_SCALES = (0.05, 0.1)
DEFAULT_SERVICE_SCALE = 0.02
DEFAULT_DELTA_SCALE = 0.1

#: Per-epoch content churn for the delta probe: ~5% of sites change, so
#: ~95% of slices are spliceable — the regime delta crawls are for.
DELTA_PROBE_CHURN = 0.05

#: Concurrent SSE subscribers the service probe streams a job to.
SERVICE_SUBSCRIBERS = 8

#: Warm-store samples behind the served-table p50.
SERVICE_TABLE_SAMPLES = 21

#: Fetch-cache entry cap for the memory probes.  The default cache
#: (200k entries) is effectively unbounded at probe scales; pinning a
#: uniform small cap across scales keeps resident response bytes a
#: constant so the probe measures the pipeline, not the cache.
MEM_PROBE_FETCH_CACHE = 5000

#: Shard count for the memory probe's store.
MEM_PROBE_SHARDS = 4

#: Document cap for the dict-cosine reference in the similarity
#: comparison: the linear path is O(n² · terms) pure Python and exists
#: only as a parity/speedup reference, so it runs on a subset.
STREAM_REFERENCE_DOCS = 120


def _peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    divisor = 2 ** 20 if sys.platform == "darwin" else 2 ** 10
    return round(peak / divisor, 1)


def _time_similarity_references(study) -> dict:
    """Sparse engine vs. the retained dense/linear references.

    All three routed consumers are measured on the corpora the study
    actually feeds them: §7.3 fraction counting and the pair stream on
    the collected valid policies, §4.1 candidate discovery on the
    owner-stage policy texts.  The dense/linear numbers are what the
    pre-sparse implementations cost on the same inputs.
    """
    clock = time.perf_counter
    from repro.core.compliance.policies import (
        pairwise_similarity_fractions,
        pairwise_similarity_fractions_dense,
    )
    from repro.core.owners import (
        _policy_similarity_pairs,
        _policy_similarity_pairs_dense,
    )
    from repro.text.sparse import engine_stats
    from repro.text.tfidf import (
        pairwise_similarities,
        pairwise_similarities_linear,
    )

    texts = [policy.text for policy in study.policies().valid_policies]
    owner_texts = [
        inspection.policy.text for inspection in study.inspections()
        if inspection.reachable and inspection.policy.link_found
        and inspection.policy.fetched_ok
    ]

    start = clock()
    fraction_sparse = pairwise_similarity_fractions(texts)
    fractions_sparse_s = clock() - start
    start = clock()
    fraction_dense = pairwise_similarity_fractions_dense(texts)
    fractions_dense_s = clock() - start
    assert fraction_sparse[1] == fraction_dense[1]
    assert abs(fraction_sparse[0] - fraction_dense[0]) < 1e-9

    start = clock()
    pairs_sparse = _policy_similarity_pairs(None, owner_texts, threshold=0.9)
    pairs_sparse_s = clock() - start
    start = clock()
    pairs_dense = _policy_similarity_pairs_dense(None, owner_texts,
                                                 threshold=0.9)
    pairs_dense_s = clock() - start
    assert pairs_sparse == pairs_dense

    stream_docs = texts[:STREAM_REFERENCE_DOCS]
    start = clock()
    for _ in pairwise_similarities(stream_docs):
        pass
    stream_sparse_s = clock() - start
    start = clock()
    for _ in pairwise_similarities_linear(stream_docs):
        pass
    stream_linear_s = clock() - start

    sparse_total = fractions_sparse_s + pairs_sparse_s + stream_sparse_s
    reference_total = fractions_dense_s + pairs_dense_s + stream_linear_s
    return {
        "policy_docs": len(texts),
        "owner_docs": len(owner_texts),
        "stream_docs": len(stream_docs),
        "pair_count": fraction_sparse[1],
        "engine": engine_stats().snapshot(),
        "fractions": {
            "sparse_seconds": round(fractions_sparse_s, 4),
            "dense_seconds": round(fractions_dense_s, 4),
        },
        "owner_pairs": {
            "sparse_seconds": round(pairs_sparse_s, 4),
            "dense_seconds": round(pairs_dense_s, 4),
        },
        "stream": {
            "sparse_seconds": round(stream_sparse_s, 4),
            "linear_seconds": round(stream_linear_s, 4),
        },
        "sparse_seconds": round(sparse_total, 4),
        "reference_seconds": round(reference_total, 4),
        "speedup": round(reference_total / sparse_total, 2)
        if sparse_total else None,
    }


def _time_partylabel_reference(study, countries) -> dict:
    """Shipped party-labeling similarity path vs. the pre-memo reference.

    ``label_parties`` re-runs over every log the analyses consume — once
    through the shipped path (cross-call pair memo + character-multiset
    prefilter; caches cleared first so the timing matches the cold
    in-run cost) and once through the historical per-call banded DP
    (no memo, no prefilter) — asserting identical labels.
    """
    clock = time.perf_counter
    import math

    from repro.core import partylabel
    from repro.text import levenshtein

    logs = [study.porn_log(country) for country in countries]
    logs.append(study.regular_log())
    cert_lookup = study.universe.certificate_for

    partylabel._domains_similar_cached.cache_clear()
    levenshtein._char_counts.cache_clear()
    start = clock()
    fast = [partylabel.label_parties(log, cert_lookup=cert_lookup)
            for log in logs]
    fast_s = clock() - start

    def reference_domains_similar(a, b, threshold):
        # The pre-memo implementation: lower + strip www, then the
        # banded DP on every call, with no cross-call reuse and no
        # multiset lower-bound rejection.
        a = a.lower()
        b = b.lower()
        if a.startswith("www."):
            a = a[4:]
        if b.startswith("www."):
            b = b[4:]
        if a == b:
            return True
        longest = max(len(a), len(b))
        cutoff = max(0, math.ceil((1.0 - threshold) * longest))
        distance = levenshtein.levenshtein_distance(a, b,
                                                    max_distance=cutoff)
        if distance > cutoff:
            return False
        return 1.0 - distance / longest > threshold

    original = partylabel._domains_similar
    partylabel._domains_similar = reference_domains_similar
    try:
        start = clock()
        reference = [partylabel.label_parties(log, cert_lookup=cert_lookup)
                     for log in logs]
        reference_s = clock() - start
    finally:
        partylabel._domains_similar = original
    assert fast == reference

    return {
        "logs": len(logs),
        "fast_seconds": round(fast_s, 4),
        "reference_seconds": round(reference_s, 4),
        "speedup": round(reference_s / fast_s, 2) if fast_s else None,
    }


def _time_banner_reference(study, countries) -> dict:
    """Prefiltered banner detector vs. the historical full walk.

    Both run over every successfully crawled landing page the Table 8
    stage actually consumes (all per-country logs), asserting identical
    observations page by page.  The reference parses every page fresh,
    exactly as the pre-optimization detector did.
    """
    clock = time.perf_counter
    from repro.core.compliance.banners import (
        detect_banner,
        detect_banner_unfiltered,
    )

    pages = []
    for country in countries:
        log = study.porn_log(country)
        pages.extend(
            (visit.site_domain, visit.html)
            for visit in log.successful_visits() if visit.html
        )

    start = clock()
    reference = [detect_banner_unfiltered(html, domain)
                 for domain, html in pages]
    reference_s = clock() - start
    start = clock()
    fast = [detect_banner(html, domain) for domain, html in pages]
    fast_s = clock() - start
    assert fast == reference

    return {
        "pages": len(pages),
        "banners": sum(1 for observation in fast if observation is not None),
        "fast_seconds": round(fast_s, 4),
        "reference_seconds": round(reference_s, 4),
        "speedup": round(reference_s / fast_s, 2) if fast_s else None,
    }


# --------------------------------------------------------------------------
# Child mode: time one (scale, parallelism) configuration in-process.
# --------------------------------------------------------------------------

def run_pipeline(scale: float, parallelism: int, countries=DEFAULT_COUNTRIES):
    """Build a universe and run the crawl + analysis pipeline, timing stages.

    Returns ``{"scale", "parallelism", "stages": {name: seconds}, ...}``.
    Stage names: ``universe_build``, ``crawl:all`` (every per-country porn
    crawl plus the regular-web control), per-country ``crawl:<CC>`` detail
    in sequential mode, and ``analysis:*`` for the downstream reports.
    """
    from repro import Study, UniverseConfig
    from repro.reporting.tables import (
        render_table1,
        render_table2,
        render_table7,
    )
    from repro.webgen.builder import build_universe

    stages: dict = {}
    stage_rss: dict = {}
    clock = time.perf_counter

    start = clock()
    universe = build_universe(UniverseConfig(scale=scale))
    stages["universe_build"] = clock() - start
    stage_rss["universe_build"] = _peak_rss_mb()

    study = Study(universe, parallelism=parallelism)
    countries = list(countries)

    start = clock()
    if parallelism > 1:
        # One batch: N porn crawls + the regular control, analyses included.
        study.prefetch_crawls(countries)
    else:
        for country in countries:
            country_start = clock()
            study.porn_log(country)
            stages[f"crawl:{country}"] = clock() - country_start
        study.regular_log()
    stages["crawl:all"] = clock() - start
    stage_rss["crawl:all"] = _peak_rss_mb()

    logs = [study.porn_log(country) for country in countries]
    logs.append(study.regular_log())
    pages = sum(len(log.visits) for log in logs)
    requests = sum(len(log.requests) for log in logs)
    crawl_seconds = stages["crawl:all"]

    # The Selenium interaction pass is a crawl, not an analysis; time it
    # separately so the analysis:* stages measure pure computation.
    start = clock()
    study.inspections()
    stages["crawl:inspections"] = clock() - start
    stage_rss["crawl:inspections"] = _peak_rss_mb()

    # The analyses allocate small objects against a heap that now holds
    # every crawl log; left alone, a generational GC pass lands in
    # whichever stage happens to cross the threshold and dominates its
    # timing.  Freeze the crawl-phase heap so the stage numbers measure
    # the analyses themselves (the reference counterfactuals below run
    # in the same frozen-heap regime, so comparisons stay fair).
    gc.collect()
    gc.freeze()

    analysis_start = clock()
    if parallelism > 1:
        # Fan the independent analyses across the thread pool; the
        # per-stage timings below then measure memo reads.
        start = clock()
        study.prefetch_analyses(countries, geo=True)
        stages["analysis:prefetch"] = clock() - start

    start = clock()
    table2 = study.table2()
    render_table2(table2)
    stages["analysis:table2"] = clock() - start

    start = clock()
    geo = study.geography(countries)
    render_table7(geo)
    stages["analysis:geography"] = clock() - start

    start = clock()
    reports = study.banner_reports(countries)
    assert set(reports) == set(countries)
    stages["analysis:banners"] = clock() - start

    start = clock()
    owners = study.owners()
    render_table1(owners, study.best_rank)
    stages["analysis:owners"] = clock() - start

    start = clock()
    policy_report = study.policies()
    assert policy_report.pair_count >= 0
    stages["analysis:policies"] = clock() - start

    stages["analysis:all"] = clock() - analysis_start
    stage_rss["analysis:all"] = _peak_rss_mb()
    analysis_docs = pages + len(policy_report.valid_policies)

    analysis_timings = None
    if parallelism > 1:
        # After prefetch_analyses the stage readings above are memo
        # hits (~1e-4 s).  Swap in the wall time each task actually
        # spent inside the thread pool, recorded by the study itself.
        analysis_timings = dict(study.analysis_timings)
        pool_stages = {
            "analysis:table2": ("table2",),
            "analysis:geography": ("geography",),
            "analysis:banners": ("banners:ES", "banners:US"),
            "analysis:owners": ("owners",),
        }
        for stage, names in pool_stages.items():
            measured = [analysis_timings[name] for name in names
                        if name in analysis_timings]
            if measured:
                stages[stage] = sum(measured)

    similarity = _time_similarity_references(study)
    banner_detection = _time_banner_reference(study, countries)
    party_labeling = _time_partylabel_reference(study, countries)

    cpu_count = os.cpu_count() or 1
    run = {
        "scale": scale,
        "parallelism": parallelism,
        "countries": countries,
        "corpus_size": len(study.corpus_domains()),
        "stages": {name: round(seconds, 4) for name, seconds in stages.items()},
        "throughput": {
            "pages": pages,
            "requests": requests,
            "pages_per_sec": round(pages / crawl_seconds, 2) if crawl_seconds else None,
            "requests_per_sec": round(requests / crawl_seconds, 2)
            if crawl_seconds else None,
        },
        "analysis_throughput": {
            "docs": analysis_docs,
            "docs_per_sec": round(analysis_docs / stages["analysis:all"], 2)
            if stages["analysis:all"] else None,
        },
        "similarity": similarity,
        "banner_detection": banner_detection,
        "party_labeling": party_labeling,
        "peak_rss_mb": _peak_rss_mb(),
        # RSS high-water mark sampled right after each stage finished
        # (ru_maxrss is monotone, so a jump attributes growth to the
        # stage it appears under).
        "stage_rss_mb": stage_rss,
        # Per-country crawl detail and the analysis:all rollup are
        # excluded: their components are already in the sum.
        "total_seconds": round(sum(
            seconds for name, seconds in stages.items()
            if (not name.startswith("crawl:")
                or name in ("crawl:all", "crawl:inspections"))
            and name != "analysis:all"
        ), 4),
    }
    if analysis_timings is not None:
        run["analysis_timings"] = {
            name: round(seconds, 4)
            for name, seconds in sorted(analysis_timings.items())
        }
    if parallelism > cpu_count:
        run["parallelism_exceeds_cpus"] = True
        run["note"] = (
            f"{parallelism} workers time-slice {cpu_count} core(s); "
            "wall-clock speedup is not meaningful on this host"
        )
    return run


# --------------------------------------------------------------------------
# Memory probes: the streaming configuration at one scale, in-process.
# --------------------------------------------------------------------------

def _tables_digest(reader) -> str:
    """SHA-256 over the rendered Tables 2/4/6 of a study."""
    import hashlib

    from repro.reporting.tables import (
        render_table2,
        render_table4,
        render_table6,
    )

    rendered = "\n".join((
        render_table2(reader.table2()),
        render_table4(reader.cookie_stats()),
        render_table6(reader.https_report()),
    ))
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def _record_corpus(store, universe) -> list:
    """Sanitize the corpus into ``store``'s ``sanitize:verdicts``
    artifact, as ``repro study --store`` does: store-only studies read
    the verdicts from there.  Returns the corpus domains."""
    from repro import Study

    return Study(universe, parallelism=1, store=store).corpus_domains()


def run_memory_probe(scale: float, *, shards: int = MEM_PROBE_SHARDS,
                     store_dir=None) -> dict:
    """The bounded-memory pipeline at one scale: sharded + cursors.

    Universe specs are minted from packed rows on access, the crawl runs in
    trim mode (each site's events dropped once checkpointed to its
    shard), and the Table 2/4/6 analyses consume datastore cursors in a
    store-only study — the configuration whose RSS must stay flat as
    scale grows.  Returns peak RSS, per-stage RSS, and the table digest
    for parity checks against the in-memory reference.
    """
    import tempfile

    from repro import Study, UniverseConfig
    from repro.datastore import CrawlStore, stored_crawl
    from repro.webgen.builder import build_universe

    clock = time.perf_counter
    stages: dict = {}
    stage_rss: dict = {}

    start = clock()
    universe = build_universe(UniverseConfig(scale=scale),
                              fetch_cache_size=MEM_PROBE_FETCH_CACHE)
    stages["universe_build"] = clock() - start
    stage_rss["universe_build"] = _peak_rss_mb()

    store_dir = store_dir or tempfile.mkdtemp(prefix="repro-mem-probe-")
    store = CrawlStore(os.path.join(store_dir, "probe-store"), shards=shards)
    domains = _record_corpus(store, universe)
    reader = Study(universe, parallelism=1, store=store, store_only=True)
    vantage = reader.vantage_points.point(reader.home_country)
    stage_rss["corpus"] = _peak_rss_mb()

    start = clock()
    stored_crawl(store, universe, vantage, Study._PORN_KIND, domains,
                 hydrate=False)
    stored_crawl(store, universe, vantage, Study._REGULAR_KIND,
                 universe.reference_regular_corpus(), keep_html=False,
                 hydrate=False)
    stages["crawl:all"] = clock() - start
    stage_rss["crawl:all"] = _peak_rss_mb()

    start = clock()
    digest = _tables_digest(reader)
    stages["analysis:tables"] = clock() - start
    stage_rss["analysis:tables"] = _peak_rss_mb()

    pages = sum(manifest.visits for manifest in store.run_manifests())
    return {
        "scale": scale,
        "corpus_size": len(domains),
        "pages": pages,
        "shards": shards,
        "fetch_cache_size": MEM_PROBE_FETCH_CACHE,
        "stages": {name: round(s, 4) for name, s in stages.items()},
        "stage_rss_mb": stage_rss,
        "peak_rss_mb": _peak_rss_mb(),
        "tables_sha256": digest,
    }


def run_reference_probe(scale: float) -> dict:
    """The parity reference: an in-memory study over hydrated logs."""
    from repro import Study, UniverseConfig
    from repro.webgen.builder import build_universe

    universe = build_universe(UniverseConfig(scale=scale))
    study = Study(universe, parallelism=1)
    return {
        "scale": scale,
        "tables_sha256": _tables_digest(study),
        "peak_rss_mb": _peak_rss_mb(),
    }


# --------------------------------------------------------------------------
# Delta probe: stored-slice splicing vs. a full re-crawl, in-process.
# --------------------------------------------------------------------------

def _store_digest(store) -> str:
    """SHA-256 over every stored event row of every run, in manifest order.

    Positions are included (they are part of the row tuples), so two
    stores digest equal only if they hold byte-identical event tables —
    the delta probe's parity check against the full re-crawl.
    """
    import hashlib

    digest = hashlib.sha256()
    manifests = sorted(store.run_manifests(),
                       key=lambda m: (m.kind, m.country_code))
    for manifest in manifests:
        digest.update(
            f"{manifest.kind}|{manifest.country_code}"
            f"|{manifest.total_sites}".encode()
        )
        for table in ("visits", "requests", "cookies", "js_calls"):
            for row in store.event_rows_in_range(manifest.run_id, table,
                                                 0, 1 << 60):
                digest.update(repr(row).encode())
    return digest.hexdigest()


def run_delta_probe(scale: float, *, churn: float = DELTA_PROBE_CHURN,
                    store_dir=None) -> dict:
    """The ``delta`` block: incremental crawl of an evolved epoch.

    Crawls the seed epoch into a baseline store, evolves one epoch, and
    crawls epoch 1 twice in streaming mode — the delta crawl *first* so
    the full crawl inherits any warm global caches and the reported
    speedup is conservative.  Verifies byte-identical stores and
    reports the spliced fraction, the speedup, and the per-kind
    jar-digest divergence points (the position where a ``jar_sensitive``
    universe would have stopped splicing; the stock universe serves
    cookie-blind, so splicing continues past it).
    """
    import tempfile

    from repro import Study, UniverseConfig
    from repro.datastore import CrawlStore, stored_crawl
    from repro.webgen.builder import build_universe

    clock = time.perf_counter
    store_dir = store_dir or tempfile.mkdtemp(prefix="repro-delta-probe-")

    def crawl_both(store, universe, domains, regular, vantage,
                   baseline=None):
        stored_crawl(store, universe, vantage, Study._PORN_KIND, domains,
                     hydrate=False, baseline=baseline)
        stored_crawl(store, universe, vantage, Study._REGULAR_KIND, regular,
                     keep_html=False, hydrate=False, baseline=baseline)

    base_config = UniverseConfig(scale=scale, churn=churn)
    base_universe = build_universe(base_config)
    base_study = Study(base_universe, parallelism=1)
    domains = base_study.corpus_domains()
    regular = base_universe.reference_regular_corpus()
    vantage = base_study.vantage_points.point(base_study.home_country)

    base_store = CrawlStore(os.path.join(store_dir, "epoch0"))
    start = clock()
    crawl_both(base_store, base_universe, domains, regular, vantage)
    baseline_seconds = clock() - start

    evolved_config = UniverseConfig(scale=scale, churn=churn, epoch=1)

    delta_universe = build_universe(evolved_config)
    delta_store = CrawlStore(os.path.join(store_dir, "epoch1-delta"))
    start = clock()
    crawl_both(delta_store, delta_universe, domains, regular, vantage,
               baseline=base_store)
    delta_seconds = clock() - start

    full_universe = build_universe(evolved_config)
    full_store = CrawlStore(os.path.join(store_dir, "epoch1-full"))
    start = clock()
    crawl_both(full_store, full_universe, domains, regular, vantage)
    full_seconds = clock() - start
    # delta_check renders both epoch-1 stores store-only.
    _record_corpus(delta_store, delta_universe)
    _record_corpus(full_store, full_universe)

    spliced = crawled = 0
    runs = {}
    for manifest in delta_store.run_manifests():
        stats = (manifest.stats or {}).get("delta") or {}
        spliced += stats.get("spliced", 0)
        crawled += stats.get("crawled", 0)
        runs[manifest.kind] = stats
    total = spliced + crawled
    return {
        "scale": scale,
        "churn": churn,
        "corpus_size": len(domains),
        "sites": total,
        "spliced": spliced,
        "crawled": crawled,
        "spliced_fraction": round(spliced / total, 4) if total else None,
        "runs": runs,
        "baseline_seconds": round(baseline_seconds, 4),
        "full_seconds": round(full_seconds, 4),
        "delta_seconds": round(delta_seconds, 4),
        "speedup": round(full_seconds / delta_seconds, 2)
        if delta_seconds else None,
        "stores_identical": _store_digest(full_store)
        == _store_digest(delta_store),
        "peak_rss_mb": _peak_rss_mb(),
    }


# --------------------------------------------------------------------------
# Incremental-analysis probe: map/merge aggregate cache vs. monolithic.
# --------------------------------------------------------------------------

#: Sections renderable from a single-vantage porn(ES) + regular crawl —
#: every table/figure the incremental engine feeds (Tables 1/7/8 need
#: the inspection pass or extra vantage points the probe doesn't run).
INCREMENTAL_SECTIONS = ("corpus", "table2", "table3", "figure3", "table4",
                        "figure4", "table5", "table6", "malware")


def run_incremental_probe(scale: float, *, churn: float = DELTA_PROBE_CHURN,
                          store_dir=None) -> dict:
    """The ``incremental_analysis`` block: cached map/merge vs. monolithic.

    Crawls the seed epoch, renders every supported section through the
    aggregate cache (the cold pass maps each site once and persists the
    partials), delta-crawls one evolved epoch, then renders the epoch-1
    sections both ways — **incremental first**, so the monolithic
    reference that follows inherits any warm OS page caches and the
    reported speedup is conservative — and byte-compares every section.
    Each side is timed as min-of-2 (the epoch pass is repeatable because
    the pre-pass cache file is snapshotted and restored between runs),
    with the standing heap frozen before every timed render; both keep
    scheduler and collector noise from deciding the ratio.  Only churned
    sites should miss on the epoch-1 pass; everything else is merged
    from epoch-0 partials.
    """
    import tempfile

    from repro import Study, UniverseConfig
    from repro.datastore import CrawlStore, aggregates_path, stored_crawl
    from repro.reporting import render_section
    from repro.webgen.builder import build_universe

    clock = time.perf_counter
    store_dir = store_dir or tempfile.mkdtemp(prefix="repro-incr-probe-")

    def crawl_both(store, universe, domains, regular, vantage,
                   baseline=None):
        stored_crawl(store, universe, vantage, Study._PORN_KIND, domains,
                     hydrate=False, baseline=baseline)
        stored_crawl(store, universe, vantage, Study._REGULAR_KIND, regular,
                     keep_html=False, hydrate=False, baseline=baseline)

    def render_all(study, config):
        return {name: render_section(study, config.scale, name)
                for name in INCREMENTAL_SECTIONS}

    base_config = UniverseConfig(scale=scale, churn=churn)
    base_universe = build_universe(base_config)
    base_study = Study(base_universe, parallelism=1)
    domains = base_study.corpus_domains()
    regular = base_universe.reference_regular_corpus()
    vantage = base_study.vantage_points.point(base_study.home_country)

    # Epoch 0: crawl, then warm the aggregate cache (the cold pass).
    base_path = os.path.join(store_dir, "epoch0")
    base_store = CrawlStore(base_path)
    crawl_both(base_store, base_universe, domains, regular, vantage)
    _record_corpus(base_store, base_universe)

    def settle_heap():
        # Each timed pass allocates against whatever standing heap the
        # earlier phases left behind, and a full collection scans all of
        # it — so the *later* a pass runs, the more collector time it
        # pays for the same work.  Freezing the standing heap first
        # makes every pass's GC share proportional to its own
        # allocations, which is the thing being compared.
        import gc

        gc.collect()
        gc.freeze()

    warm_study = Study(build_universe(base_config),
                      store=base_store, store_only=True,
                      aggregate_cache=True)
    settle_heap()
    start = clock()
    render_all(warm_study, base_config)
    warm_seconds = clock() - start
    cold_stats = warm_study.aggregate_cache.stats.as_dict()

    # Epoch 1: delta crawl.  The ``-e1`` suffix routes the epoch store
    # to the *base* store's cache file, exactly as epoch jobs do.
    evolved_config = UniverseConfig(scale=scale, churn=churn, epoch=1)
    epoch_path = base_path + "-e1"
    epoch_store = CrawlStore(epoch_path)
    evolved_universe = build_universe(evolved_config)
    crawl_both(epoch_store, evolved_universe, domains, regular, vantage,
               baseline=base_store)
    _record_corpus(epoch_store, evolved_universe)
    assert aggregates_path(epoch_path) == aggregates_path(base_path)

    # The epoch pass mutates the cache (it persists the churned sites'
    # fresh partials under brand-new content hashes — pure inserts), so
    # it can be repeated exactly by deleting the rows it added: record
    # the pre-pass rowid high-water mark, render, roll back past it,
    # render again.  min-of-2 defends both sides of the ratio against
    # scheduler noise equally.
    import sqlite3 as _sqlite3

    cache_path = aggregates_path(epoch_path)

    def _cache_high_water() -> int:
        with _sqlite3.connect(cache_path) as conn:
            row = conn.execute(
                "SELECT COALESCE(MAX(rowid), 0) FROM analysis_aggregates"
            ).fetchone()
        return row[0]

    def _cache_rollback(high_water: int) -> None:
        with _sqlite3.connect(cache_path) as conn:
            conn.execute(
                "DELETE FROM analysis_aggregates WHERE rowid > ?",
                (high_water,),
            )

    high_water = _cache_high_water()
    incremental_study = Study(build_universe(evolved_config),
                              store=epoch_store, store_only=True,
                              aggregate_cache=True)
    settle_heap()
    start = clock()
    incremental_sections = render_all(incremental_study, evolved_config)
    incremental_seconds = clock() - start
    epoch_stats = incremental_study.aggregate_cache.stats.as_dict()

    incremental_study.aggregate_cache.close()
    _cache_rollback(high_water)
    repeat_study = Study(build_universe(evolved_config),
                         store=epoch_store, store_only=True,
                         aggregate_cache=True)
    settle_heap()
    start = clock()
    repeat_sections = render_all(repeat_study, evolved_config)
    incremental_seconds = min(incremental_seconds, clock() - start)
    assert repeat_sections == incremental_sections
    assert repeat_study.aggregate_cache.stats.as_dict() == epoch_stats

    full_seconds = None
    for _ in range(2):
        full_study = Study(build_universe(evolved_config),
                           store=epoch_store, store_only=True)
        settle_heap()
        start = clock()
        full_sections = render_all(full_study, evolved_config)
        elapsed = clock() - start
        full_seconds = elapsed if full_seconds is None \
            else min(full_seconds, elapsed)

    cache = repeat_study.aggregate_cache
    return {
        "scale": scale,
        "churn": churn,
        "corpus_size": len(domains),
        "sections": list(INCREMENTAL_SECTIONS),
        "cold": cold_stats,
        "epoch": epoch_stats,
        "hits": epoch_stats["hits"],
        "misses": epoch_stats["misses"],
        "cached_rows": cache.row_count(),
        "cached_bytes": cache.total_bytes(),
        "warm_seconds": round(warm_seconds, 4),
        "incremental_seconds": round(incremental_seconds, 4),
        "full_seconds": round(full_seconds, 4),
        "speedup": round(full_seconds / incremental_seconds, 2)
        if incremental_seconds else None,
        "tables_identical": incremental_sections == full_sections,
        "peak_rss_mb": _peak_rss_mb(),
    }


# --------------------------------------------------------------------------
# Service probe: the measurement service under streaming load, in-process.
# --------------------------------------------------------------------------

def run_service_probe(scale: float) -> dict:
    """The ``service`` block: SSE delivery and result-serving latency.

    Boots a :class:`repro.service.ReproServer` over a fresh sharded
    store, submits one study job over HTTP, and measures: the wall time
    from submitting until the first SSE frame reaches a subscriber; the
    aggregate event frames/sec delivered to ``SERVICE_SUBSCRIBERS``
    concurrent subscribers each streaming the whole job; and the p50
    round-trip of a served table once the store is warm.
    """
    import statistics
    import tempfile
    import threading
    import urllib.request

    from repro.service import ReproServer
    from repro.service.sse import parse_stream

    clock = time.perf_counter
    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        server = ReproServer(os.path.join(tmp, "store"), port=0,
                             workers=1, store_shards=2)
        server.start()
        try:
            request = urllib.request.Request(
                server.url + "/jobs", method="POST",
                data=json.dumps({"scale": scale}).encode(),
                headers={"Content-Type": "application/json"})
            submit_start = clock()
            job = json.loads(urllib.request.urlopen(request).read())
            events_url = server.url + f"/jobs/{job['id']}/events"
            with urllib.request.urlopen(events_url) as resp:
                resp.readline()  # the first frame's "id: 0" line
                first_event_s = clock() - submit_start

            counts = [0] * SERVICE_SUBSCRIBERS

            def subscribe(index: int) -> None:
                chunks = []
                with urllib.request.urlopen(events_url) as stream:
                    for chunk in stream:
                        chunks.append(chunk)
                counts[index] = sum(1 for _ in parse_stream(chunks))

            threads = [threading.Thread(target=subscribe, args=(index,))
                       for index in range(SERVICE_SUBSCRIBERS)]
            stream_start = clock()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stream_seconds = clock() - stream_start
            assert len(set(counts)) == 1, counts  # identical streams

            table_url = server.url + f"/jobs/{job['id']}/tables/table2"
            urllib.request.urlopen(table_url).read()  # warm the study
            samples = []
            for _ in range(SERVICE_TABLE_SAMPLES):
                start = clock()
                urllib.request.urlopen(table_url).read()
                samples.append(clock() - start)
        finally:
            server.stop()

    delivered = sum(counts)
    return {
        "scale": scale,
        "subscribers": SERVICE_SUBSCRIBERS,
        "events_per_subscriber": counts[0],
        "submit_to_first_event_ms": round(first_event_s * 1000, 2),
        "stream_seconds": round(stream_seconds, 4),
        "events_per_sec": round(delivered / stream_seconds, 1)
        if stream_seconds else None,
        "served_table": "table2",
        "served_table_samples": SERVICE_TABLE_SAMPLES,
        "served_table_p50_ms": round(
            statistics.median(samples) * 1000, 2),
        "peak_rss_mb": _peak_rss_mb(),
    }


# --------------------------------------------------------------------------
# Orchestrator: one subprocess per configuration, merged JSON at repo root.
# --------------------------------------------------------------------------

def _run_child(extra_args, label: str) -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    command = [sys.executable, str(pathlib.Path(__file__).resolve())]
    command.extend(extra_args)
    command.append("--json")
    result = subprocess.run(command, env=env, capture_output=True, text=True)
    if result.returncode != 0:
        raise RuntimeError(
            f"benchmark child ({label}) failed:\n{result.stderr}"
        )
    return json.loads(result.stdout)


def _run_config_isolated(scale: float, parallelism: int) -> dict:
    return _run_child(
        ["--scale", str(scale), "--parallelism", str(parallelism)],
        f"parallelism={parallelism}",
    )


def _memory_scales() -> tuple:
    raw = os.environ.get("REPRO_PERF_MEM_SCALES")
    if not raw:
        return DEFAULT_MEM_SCALES
    return tuple(float(s) for s in raw.split(","))


def run_memory_scaling(scales=None) -> dict:
    """The ``memory_scaling`` block: streaming probes across scales.

    Each probe runs in a fresh subprocess so its ``ru_maxrss`` reflects
    only that scale.  The block records the peak-RSS ratio between the
    largest and smallest scale (the flatness headline — the streaming
    path should grow far slower than the ~linear in-memory pipeline)
    and, at the smallest scale, whether the streaming tables are
    byte-identical to the in-memory reference.
    """
    scales = tuple(sorted(scales or _memory_scales()))
    probes = [
        _run_child(["--scale", str(scale), "--memory-probe"],
                   f"memory-probe scale={scale}")
        for scale in scales
    ]
    reference = _run_child(
        ["--scale", str(scales[0]), "--reference-probe"],
        f"reference-probe scale={scales[0]}",
    )
    first, last = probes[0], probes[-1]
    block = {
        "scales": list(scales),
        "shards": MEM_PROBE_SHARDS,
        "fetch_cache_size": MEM_PROBE_FETCH_CACHE,
        "probes": probes,
        "reference": reference,
        "reference_tables_match":
            probes[0]["tables_sha256"] == reference["tables_sha256"],
    }
    if first["peak_rss_mb"]:
        block["rss_ratio"] = round(
            last["peak_rss_mb"] / first["peak_rss_mb"], 3
        )
        # The bounded-memory claim proper: RSS high-water through the
        # streaming crawl datapath (lazy universe + trim-mode crawl into
        # shards).  The full-run ratio above additionally carries the
        # analyses' O(unique-domain) aggregates and the universe model,
        # which grow with corpus *diversity*, not with page count.
        block["crawl_rss_ratio"] = round(
            last["stage_rss_mb"]["crawl:all"]
            / first["stage_rss_mb"]["crawl:all"], 3
        )
        block["scale_ratio"] = round(scales[-1] / scales[0], 2)
    return block


def _service_scale() -> float:
    return float(os.environ.get("REPRO_PERF_SERVICE_SCALE",
                                str(DEFAULT_SERVICE_SCALE)))


def _delta_scale() -> float:
    return float(os.environ.get("REPRO_PERF_DELTA_SCALE",
                                str(DEFAULT_DELTA_SCALE)))


def _delta_churn() -> float:
    return float(os.environ.get("REPRO_PERF_DELTA_CHURN",
                                str(DELTA_PROBE_CHURN)))


def run_benchmark(scale: float, parallelism_set=(1, 4),
                  output_path: pathlib.Path = OUTPUT_PATH,
                  memory_scales=None) -> dict:
    runs = [_run_config_isolated(scale, p) for p in parallelism_set]
    service_scale = _service_scale()
    delta_scale = _delta_scale()
    document = {
        "schema": SCHEMA,
        "scale": scale,
        "cpu_count": os.cpu_count(),
        "countries": list(DEFAULT_COUNTRIES),
        "runs": runs,
        "memory_scaling": run_memory_scaling(memory_scales),
        "service": _run_child(
            ["--scale", str(service_scale), "--service-probe"],
            f"service-probe scale={service_scale}",
        ),
        "delta": _run_child(
            ["--scale", str(delta_scale), "--delta-probe"],
            f"delta-probe scale={delta_scale}",
        ),
        "incremental_analysis": _run_child(
            ["--scale", str(delta_scale), "--incremental-probe"],
            f"incremental-probe scale={delta_scale}",
        ),
    }
    baseline = next((r for r in runs if r["parallelism"] == 1), None)
    if baseline is not None:
        # Headlines: single-crawl throughput and analysis docs/sec from
        # the sequential run, plus the sparse-vs-reference comparison.
        document["single_crawl_throughput"] = baseline["throughput"]
        document["analysis_throughput"] = baseline["analysis_throughput"]
        similarity = baseline["similarity"]
        banners = baseline["banner_detection"]
        labeling = baseline["party_labeling"]
        document["similarity_speedup"] = similarity["speedup"]
        document["banner_detection_speedup"] = banners["speedup"]
        document["party_labeling_speedup"] = labeling["speedup"]
        # Measured counterfactual: analysis:all with the sparse
        # similarity calls swapped back to the dense/linear references,
        # the banner stage swapped back to the unfiltered
        # parse-every-page walk, and party labeling swapped back to the
        # per-call DP — each pair timed in-run on identical inputs, so
        # the ratio is insensitive to how fast the host happens to be.
        analysis_all = baseline["stages"]["analysis:all"]
        reference_all = analysis_all \
            - similarity["sparse_seconds"] \
            + similarity["reference_seconds"] \
            - baseline["stages"]["analysis:banners"] \
            + banners["reference_seconds"] \
            - labeling["fast_seconds"] \
            + labeling["reference_seconds"]
        document["analysis_all_seconds"] = round(analysis_all, 4)
        document["analysis_all_reference_seconds"] = round(reference_all, 4)
        if analysis_all > 0:
            document["analysis_speedup"] = \
                round(reference_all / analysis_all, 2)
        for run in runs:
            if run["parallelism"] != 1 and run["total_seconds"] > 0:
                document[f"speedup_x{run['parallelism']}"] = round(
                    baseline["total_seconds"] / run["total_seconds"], 2
                )
                if run.get("parallelism_exceeds_cpus"):
                    document[f"speedup_x{run['parallelism']}_note"] = run["note"]
    output_path.write_text(json.dumps(document, indent=2) + "\n")
    return document


# --------------------------------------------------------------------------
# pytest entry point (plain test; no pytest-benchmark dependency).
# --------------------------------------------------------------------------

def test_perf_pipeline():
    scale = float(os.environ.get("REPRO_PERF_SCALE", "0.05"))
    document = run_benchmark(scale)
    assert OUTPUT_PATH.exists()
    assert document["schema"] == SCHEMA
    assert {run["parallelism"] for run in document["runs"]} == {1, 4}
    assert document["single_crawl_throughput"]["pages_per_sec"] > 0
    assert document["single_crawl_throughput"]["requests_per_sec"] > 0
    assert document["analysis_throughput"]["docs_per_sec"] > 0
    assert document["similarity_speedup"] is not None
    assert document["banner_detection_speedup"] is not None
    assert document["party_labeling_speedup"] is not None
    assert document["analysis_speedup"] is not None
    cpu_count = os.cpu_count() or 1
    for run in document["runs"]:
        assert run["stages"]["universe_build"] > 0
        assert run["stages"]["crawl:all"] > 0
        for stage in ("analysis:table2", "analysis:geography",
                      "analysis:banners", "analysis:owners",
                      "analysis:policies", "analysis:all"):
            assert stage in run["stages"], stage
        assert run["total_seconds"] > 0
        assert run["throughput"]["pages"] > 0
        assert run["throughput"]["requests"] > run["throughput"]["pages"]
        assert run["peak_rss_mb"] > 0
        for stage in ("universe_build", "crawl:all", "analysis:all"):
            assert run["stage_rss_mb"][stage] > 0, stage
        assert run["analysis_throughput"]["docs"] > 0
        if run["parallelism"] > cpu_count:
            assert run["parallelism_exceeds_cpus"] is True
    memory = document["memory_scaling"]
    assert len(memory["probes"]) == len(memory["scales"]) >= 2
    assert memory["reference_tables_match"] is True
    assert memory["rss_ratio"] > 0
    assert memory["crawl_rss_ratio"] > 0
    for probe in memory["probes"]:
        assert probe["pages"] > 0
        assert probe["peak_rss_mb"] > 0
        assert probe["shards"] == MEM_PROBE_SHARDS
    service = document["service"]
    assert service["subscribers"] == SERVICE_SUBSCRIBERS
    assert service["events_per_subscriber"] > 0
    assert service["submit_to_first_event_ms"] > 0
    assert service["events_per_sec"] > 0
    assert service["served_table_p50_ms"] > 0
    delta = document["delta"]
    assert delta["stores_identical"] is True
    assert delta["spliced"] > 0 and delta["crawled"] > 0
    assert 0.5 < delta["spliced_fraction"] < 1.0
    assert delta["speedup"] is not None and delta["speedup"] > 1.0
    incremental = document["incremental_analysis"]
    assert incremental["tables_identical"] is True
    assert incremental["hits"] > 0          # unchanged sites merged cached
    assert incremental["misses"] > 0        # churned sites re-mapped
    assert incremental["misses"] < incremental["hits"]
    assert incremental["cached_rows"] > 0
    assert incremental["speedup"] is not None and incremental["speedup"] > 1.0
    parallel_run = next((r for r in document["runs"]
                         if r["parallelism"] > 1), None)
    if parallel_run is not None:
        timings = parallel_run["analysis_timings"]
        assert "table2" in timings and "cookie_stats" in timings
        # Real pool wall time, not a memo read.
        assert max(timings.values()) > 0.001
    print(json.dumps(document, indent=2))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float,
                        default=float(os.environ.get("REPRO_PERF_SCALE",
                                                     "0.2")))
    parser.add_argument("--parallelism", type=int, default=None,
                        help="child mode: time this one configuration")
    parser.add_argument("--parallelism-set", default="1,4",
                        help="orchestrator mode: comma-separated settings")
    parser.add_argument("--memory-probe", action="store_true",
                        help="child mode: run the streaming memory probe "
                             "(sharded store, trim-mode crawl, cursor "
                             "analyses) at --scale")
    parser.add_argument("--reference-probe", action="store_true",
                        help="child mode: in-memory reference for "
                             "table parity at --scale")
    parser.add_argument("--service-probe", action="store_true",
                        help="child mode: boot the measurement service, "
                             "stream one job to 8 SSE subscribers, and "
                             "time result serving at --scale")
    parser.add_argument("--delta-probe", action="store_true",
                        help="child mode: crawl the seed epoch, evolve "
                             "one epoch, then time a delta crawl against "
                             "a full re-crawl at --scale and verify "
                             "byte-identical stores")
    parser.add_argument("--incremental-probe", action="store_true",
                        help="child mode: warm the map/merge aggregate "
                             "cache on the seed epoch, delta-crawl one "
                             "evolved epoch, then time incremental vs. "
                             "monolithic analysis at --scale and verify "
                             "byte-identical sections")
    parser.add_argument("--memory-scales", default=None,
                        help="orchestrator mode: comma-separated probe "
                             "scales (default REPRO_PERF_MEM_SCALES or "
                             "0.05,0.1)")
    parser.add_argument("--json", action="store_true",
                        help="child mode: print the run as JSON to stdout")
    parser.add_argument("--output", type=pathlib.Path, default=OUTPUT_PATH,
                        help="orchestrator mode: where to write the merged "
                             "JSON (default BENCH_pipeline.json)")
    args = parser.parse_args()

    child = None
    if args.memory_probe:
        child = run_memory_probe(args.scale)
    elif args.reference_probe:
        child = run_reference_probe(args.scale)
    elif args.service_probe:
        child = run_service_probe(args.scale)
    elif args.delta_probe:
        # ``make delta-check`` pins the store dir so it can re-render
        # tables from the probe's epoch-1 stores after the probe exits.
        child = run_delta_probe(
            args.scale, churn=_delta_churn(),
            store_dir=os.environ.get("REPRO_PERF_DELTA_STORE_DIR"),
        )
    elif args.incremental_probe:
        # ``make incremental-check`` pins the store dir so it can
        # re-render sections from the probe's stores after it exits.
        child = run_incremental_probe(
            args.scale, churn=_delta_churn(),
            store_dir=os.environ.get("REPRO_PERF_DELTA_STORE_DIR"),
        )
    elif args.parallelism is not None:
        child = run_pipeline(args.scale, args.parallelism)
    if child is not None:
        print(json.dumps(child) if args.json else json.dumps(child, indent=2))
        return

    settings = tuple(int(p) for p in args.parallelism_set.split(","))
    memory_scales = None
    if args.memory_scales:
        memory_scales = tuple(float(s) for s in args.memory_scales.split(","))
    document = run_benchmark(args.scale, settings, output_path=args.output,
                             memory_scales=memory_scales)
    print(json.dumps(document, indent=2))
    print(f"\nwrote {args.output}", file=sys.stderr)


if __name__ == "__main__":
    main()
