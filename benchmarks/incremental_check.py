"""``make incremental-check``: correctness + speedup gate for the
incremental map/merge analysis engine.

Runs the incremental probe (:func:`run_incremental_probe`) in a fresh
process: crawl the seed epoch, render every supported section through
the aggregate cache (the cold pass persists one partial per site per
analysis), delta-crawl one evolved epoch (5% content churn), then
render the epoch-1 sections twice — incremental **first**, so the
monolithic pass that follows inherits any warm OS caches and the
reported speedup is conservative.  FAILS if any of:

* any rendered section differs between the incremental and monolithic
  studies — the cache must be byte-invisible, in-probe *and* re-rendered
  here from the stores the probe left behind (an independent process,
  so a stale in-memory structure can't mask a divergence);
* the epoch-1 pass has **zero cache hits** (unchanged sites must merge
  from epoch-0 partials) or zero misses (churned sites must re-map);
* the incremental-vs-monolithic **speedup** is below the 3.0x floor (at
  5% churn, ~95% of per-site maps are skipped);
* the epoch-1 Selenium inspection pass, run through the cache after an
  epoch-0 pass warmed it, differs from an uncached pass over the same
  corpus in any site, or re-inspects no site or every site.  The number
  of re-inspected sites is printed.

The section set covers everything a single-vantage porn + regular crawl
feeds (Tables 2-6, Figures 3-4, the malware rollup); Tables 1/7/8 need
the inspection pass or extra vantage points the probe doesn't run.

``REPRO_INCREMENTAL_CHECK_SCALE`` sets the probe scale, default ``0.2``.

The script re-invokes itself for the probe (``incremental_check.py
--probe STORE_DIR``), which leaves its stores in ``STORE_DIR`` and
prints its result as JSON.  Exit status 0 on pass, 1 on any violation.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

DEFAULT_SCALE = 0.2

#: Per-epoch content churn: ~5% of sites change between the epochs.
CHURN = 0.05

SPEEDUP_FLOOR = 3.0

#: Sections renderable from the probe's porn(ES) + regular runs alone.
SECTIONS = ("corpus", "table2", "table3", "figure3", "table4", "figure4",
            "table5", "table6", "malware")


def _scale() -> float:
    return float(os.environ.get("REPRO_INCREMENTAL_CHECK_SCALE",
                                str(DEFAULT_SCALE)))


def run_incremental_probe(scale: float, store_dir: str) -> dict:
    """Cached map/merge analysis of an evolved epoch vs. monolithic.

    Crawls the seed epoch, renders every supported section through the
    aggregate cache (the cold pass maps each site once and persists the
    partials), delta-crawls one evolved epoch, then renders the epoch-1
    sections both ways — **incremental first**, so the monolithic
    reference that follows inherits any warm OS page caches and the
    reported speedup is conservative — and byte-compares every section.
    Each side is timed as min-of-2 (the epoch pass is repeatable because
    the cache rows it adds are rolled back between runs),
    with the standing heap frozen before every timed render; both keep
    scheduler and collector noise from deciding the ratio.  Only churned
    sites should miss on the epoch-1 pass; everything else is merged
    from epoch-0 partials.
    """
    from repro import Study, UniverseConfig
    from repro.datastore import CrawlStore, aggregates_path, stored_crawl
    from repro.reporting import render_section
    from repro.webgen.builder import build_universe

    clock = time.perf_counter

    def crawl_both(store, universe, domains, regular, vantage,
                   baseline=None):
        stored_crawl(store, universe, vantage, Study._PORN_KIND, domains,
                     baseline=baseline)
        stored_crawl(store, universe, vantage, Study._REGULAR_KIND, regular,
                     keep_html=False, baseline=baseline)

    def record_corpus(store, universe):
        # Store-only studies read the sanitize verdicts from the store,
        # as after ``repro study --store``.
        Study(universe, parallelism=1, store=store).corpus_domains()

    def render_all(study, config):
        return {name: render_section(study, config.scale, name)
                for name in SECTIONS}

    base_config = UniverseConfig(scale=scale, churn=CHURN)
    base_universe = build_universe(base_config)
    base_study = Study(base_universe, parallelism=1)
    domains = base_study.corpus_domains()
    regular = base_universe.reference_regular_corpus()
    vantage = base_study.vantage_points.point(base_study.home_country)

    # Epoch 0: crawl, then warm the aggregate cache (the cold pass).
    base_path = os.path.join(store_dir, "epoch0")
    base_store = CrawlStore(base_path)
    crawl_both(base_store, base_universe, domains, regular, vantage)
    record_corpus(base_store, base_universe)

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
    evolved_config = UniverseConfig(scale=scale, churn=CHURN, epoch=1)
    epoch_path = base_path + "-e1"
    epoch_store = CrawlStore(epoch_path)
    evolved_universe = build_universe(evolved_config)
    crawl_both(epoch_store, evolved_universe, domains, regular, vantage,
               baseline=base_store)
    record_corpus(epoch_store, evolved_universe)
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
        "cold": cold_stats,
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
    }


def _run_probe(store_dir: str) -> dict:
    command = [sys.executable, str(pathlib.Path(__file__).resolve()),
               "--probe", store_dir]
    result = subprocess.run(command, capture_output=True, text=True)
    if result.returncode != 0:
        raise RuntimeError(f"incremental probe failed:\n{result.stderr}")
    return json.loads(result.stdout)


def _render_sections(store_path: str, *, incremental: bool) -> dict:
    """Every supported section from a store-only study, either path."""
    from repro import Study
    from repro.datastore import CrawlStore
    from repro.reporting import render_section
    from repro.webgen.builder import build_universe

    store = CrawlStore(store_path)
    config = store.stored_config()
    study = Study(build_universe(config), store=store,
                  store_only=True, aggregate_cache=incremental or None)
    sections = {name: render_section(study, config.scale, name)
                for name in SECTIONS}
    stats = study.aggregate_cache.stats.as_dict() if incremental else None
    return sections, stats


def _check_inspections(store_dir: str):
    """``(identical, reinspected, sites)`` for the epoch-1 inspection pass.

    An epoch-0 study warms the cache with its full pass; the epoch-1
    study then inspects through the cache, and its whole list is
    compared with a fresh uncached :class:`SeleniumCrawler` pass.
    """
    from repro import Study
    from repro.crawler.selenium import SeleniumCrawler
    from repro.datastore import CrawlStore
    from repro.webgen.builder import build_universe

    base_path = os.path.join(store_dir, "epoch0")
    for path in (base_path, base_path + "-e1"):
        config = CrawlStore(path).stored_config()
        study = Study(build_universe(config), store=path,
                      aggregate_cache=True)
        domains = study.corpus_domains()  # sanitize's lookups go first
        misses = study.aggregate_cache.stats.misses
        cached = study.inspections()
        reinspected = study.aggregate_cache.stats.misses - misses
        study.close()
    crawler = SeleniumCrawler(study.universe,
                              study.vantage_points.point(study.home_country))
    fresh = [crawler.inspect(domain) for domain in domains]
    return cached == fresh, reinspected, len(domains)


def main() -> int:
    store_dir = tempfile.mkdtemp(prefix="repro-incremental-check-")
    try:
        print(f"incremental-check: scale {_scale()}, churn {CHURN}, "
              f"speedup floor {SPEEDUP_FLOOR}x")
        probe = _run_probe(store_dir)
        print(f"  cold pass: {probe['cold']['misses']} partials mapped, "
              f"{probe['cached_rows']} rows "
              f"({probe['cached_bytes'] / 1024:.0f} KiB) cached "
              f"in {probe['warm_seconds']:.2f}s")
        print(f"  epoch pass: {probe['hits']} hits / {probe['misses']} "
              f"misses; monolithic {probe['full_seconds']:.2f}s vs "
              f"incremental {probe['incremental_seconds']:.2f}s "
              f"-> {probe['speedup']}x")

        failed = False
        if not probe["tables_identical"]:
            print("FAIL: incremental sections diverge from the "
                  "monolithic reference in-probe", file=sys.stderr)
            failed = True
        if probe["hits"] == 0:
            print("FAIL: epoch pass hit nothing — unchanged sites must "
                  "merge from cached partials", file=sys.stderr)
            failed = True
        if probe["misses"] == 0:
            print("FAIL: epoch pass missed nothing — churned sites must "
                  "be re-mapped", file=sys.stderr)
            failed = True
        if probe["speedup"] is None or probe["speedup"] < SPEEDUP_FLOOR:
            print(f"FAIL: incremental speedup {probe['speedup']}x is "
                  f"below the {SPEEDUP_FLOOR}x floor", file=sys.stderr)
            failed = True

        # Independent re-render: a fresh process over the stores the
        # probe left behind, through the now-warm cache vs. monolithic.
        epoch_store = os.path.join(store_dir, "epoch0-e1")
        incremental_sections, stats = _render_sections(epoch_store,
                                                       incremental=True)
        monolithic_sections, _ = _render_sections(epoch_store,
                                                  incremental=False)
        if stats["misses"] != 0:
            print(f"FAIL: warm re-render missed {stats['misses']} "
                  "partials — every epoch-1 partial should be cached by "
                  "now", file=sys.stderr)
            failed = True
        for name in SECTIONS:
            if incremental_sections[name] == monolithic_sections[name]:
                print(f"  {name}: identical")
            else:
                print(f"FAIL: section {name} diverges between the "
                      "incremental and monolithic renders",
                      file=sys.stderr)
                failed = True

        identical, reinspected, sites = _check_inspections(store_dir)
        print(f"  inspections: {reinspected} of {sites} sites "
              "re-inspected, the rest served from the cache")
        if not identical:
            print("FAIL: the cached epoch-1 inspection pass differs from "
                  "an uncached pass", file=sys.stderr)
            failed = True
        if not 0 < reinspected < sites:
            print("FAIL: the epoch-1 inspection pass should re-inspect "
                  "the churned sites and only those", file=sys.stderr)
            failed = True

        if failed:
            return 1
        print("incremental-check: OK")
        return 0
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--probe"]:
        print(json.dumps(run_incremental_probe(_scale(), sys.argv[2])))
        sys.exit(0)
    sys.exit(main())
