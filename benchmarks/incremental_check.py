"""``make incremental-check``: correctness + speedup gate for partials at
rest, the incremental map/merge analysis.

Runs the incremental probe (:func:`run_incremental_probe`) in a fresh
process: crawl the seed epoch (each checkpoint writes the site's
partials beside its rows), delta-crawl one evolved epoch (5% content
churn: unchanged sites splice their rows and partials, churned sites
are crawled and mapped), then render the epoch-1 sections twice — from
the partials at rest **first**, then from a copy of the store without
them, which maps every site's partials from its stored rows, so the
reported speedup is conservative.  FAILS if any of:

* any rendered section differs between the at-rest and mapped renders
  — partials at rest must be byte-invisible, in-probe *and* re-rendered
  here from the stores the probe left behind (an independent process,
  so a stale in-memory structure can't mask a divergence);
* the at-rest render reads **no** partial, or maps **any** (every
  site's partials, spliced and freshly crawled alike, must be at rest),
  or the delta crawl spliced no site or crawled none (churned sites
  must be mapped at crawl time);
* the at-rest-vs-mapped **speedup** is below the 3.0x floor (at 5%
  churn, ~95% of per-site maps were spliced rather than run);
* the epoch-1 Selenium inspection pass, run through the aggregate cache
  after an epoch-0 pass warmed it, differs from an uncached pass over
  the same corpus in any site, or re-inspects no site or every site.
  The number of re-inspected sites is printed.

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
import sqlite3
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.reporting.sections import sections_reading  # noqa: E402

DEFAULT_SCALE = 0.2

#: Per-epoch content churn: ~5% of sites change between the epochs.
CHURN = 0.05

SPEEDUP_FLOOR = 3.0

#: Sections renderable from the probe's porn(ES) + regular runs alone.
SECTIONS = sections_reading(("home", "regular"))


def _scale() -> float:
    return float(os.environ.get("REPRO_INCREMENTAL_CHECK_SCALE",
                                str(DEFAULT_SCALE)))


def _without_partials(path: str, target: str) -> str:
    """A copy of the store at ``path`` whose partials are deleted: a
    render over it maps every site's partials from the stored rows."""
    from repro.datastore import CrawlStore

    shutil.copytree(path, target)
    with CrawlStore(target) as store:
        shards = store.shard_count
    for index in range(shards):
        connection = sqlite3.connect(
            os.path.join(target, f"shard-{index:04d}.sqlite"))
        with connection:
            connection.execute("DELETE FROM partials")
        connection.close()
    return target


def _render(store_path: str):
    """Every supported section from a store-only study, and how many
    partials it read at rest and mapped."""
    from repro import Study
    from repro.datastore import CrawlStore
    from repro.reporting import render_section
    from repro.webgen.builder import build_universe

    store = CrawlStore(store_path)
    config = store.stored_config()
    study = Study(build_universe(config), store=store, store_only=True)
    try:
        sections = {name: render_section(study, config.scale, name)
                    for name in SECTIONS}
        return sections, study.partial_counts()
    finally:
        store.close()


def run_incremental_probe(scale: float, store_dir: str) -> dict:
    """The at-rest render of an evolved epoch vs. mapping every site.

    Crawls the seed epoch, delta-crawls one evolved epoch, then renders
    the epoch-1 sections from its partials at rest **first** and from a
    copy without them second, and byte-compares every section.  Each
    side is timed as min-of-2, with the standing heap frozen before
    every timed render; both keep scheduler and collector noise from
    deciding the ratio.
    """
    from repro import Study, UniverseConfig
    from repro.datastore import CrawlStore, stored_crawl
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

    def timed_render(path, config):
        best = None
        for _ in range(2):
            study = Study(build_universe(config), store=path,
                          store_only=True)
            settle_heap()
            start = clock()
            sections = {name: render_section(study, config.scale, name)
                        for name in SECTIONS}
            elapsed = clock() - start
            counts = study.partial_counts()
            study.close()
            best = elapsed if best is None else min(best, elapsed)
        return sections, counts, best

    base_config = UniverseConfig(scale=scale, churn=CHURN)
    base_universe = build_universe(base_config)
    base_study = Study(base_universe, parallelism=1)
    domains = base_study.corpus_domains()
    regular = base_universe.reference_regular_corpus()
    vantage = base_study.vantage_points.point(base_study.home_country)

    base_path = os.path.join(store_dir, "epoch0")
    base_store = CrawlStore(base_path)
    crawl_both(base_store, base_universe, domains, regular, vantage)
    record_corpus(base_store, base_universe)

    evolved_config = UniverseConfig(scale=scale, churn=CHURN, epoch=1)
    epoch_path = base_path + "-e1"
    epoch_store = CrawlStore(epoch_path)
    evolved_universe = build_universe(evolved_config)
    crawl_both(epoch_store, evolved_universe, domains, regular, vantage,
               baseline=base_store)
    record_corpus(epoch_store, evolved_universe)
    spliced = crawled = 0
    for manifest in epoch_store.run_manifests():
        stats = (manifest.stats or {}).get("delta") or {}
        spliced += stats.get("spliced", 0)
        crawled += stats.get("crawled", 0)
    epoch_store.close()

    at_rest_sections, at_rest, at_rest_seconds = timed_render(
        epoch_path, evolved_config)
    mapped_path = _without_partials(epoch_path, epoch_path + "-mapped")
    mapped_sections, _counts, mapped_seconds = timed_render(
        mapped_path, evolved_config)

    with CrawlStore(epoch_path) as store:
        stats = store.partial_stats()
    return {
        "spliced": spliced,
        "crawled": crawled,
        "read": at_rest["read"],
        "mapped": at_rest["mapped"],
        "partial_rows": sum(rows for rows, _ in stats.values()),
        "partial_bytes": sum(size for _, size in stats.values()),
        "at_rest_seconds": round(at_rest_seconds, 4),
        "mapped_seconds": round(mapped_seconds, 4),
        "speedup": round(mapped_seconds / at_rest_seconds, 2)
        if at_rest_seconds else None,
        "tables_identical": at_rest_sections == mapped_sections,
    }


def _run_probe(store_dir: str) -> dict:
    command = [sys.executable, str(pathlib.Path(__file__).resolve()),
               "--probe", store_dir]
    result = subprocess.run(command, capture_output=True, text=True)
    if result.returncode != 0:
        raise RuntimeError(f"incremental probe failed:\n{result.stderr}")
    return json.loads(result.stdout)


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
        print(f"  delta crawl: {probe['spliced']} sites spliced, "
              f"{probe['crawled']} crawled; {probe['partial_rows']} "
              f"partials at rest ({probe['partial_bytes'] / 1024:.0f} KiB)")
        print(f"  epoch pass: {probe['read']} partials read at rest, "
              f"{probe['mapped']} mapped; mapping every site "
              f"{probe['mapped_seconds']:.2f}s vs at rest "
              f"{probe['at_rest_seconds']:.2f}s -> {probe['speedup']}x")

        failed = False
        if not probe["tables_identical"]:
            print("FAIL: at-rest sections diverge from the mapped "
                  "reference in-probe", file=sys.stderr)
            failed = True
        if probe["read"] == 0 or probe["mapped"] != 0:
            print(f"FAIL: the at-rest render read {probe['read']} and "
                  f"mapped {probe['mapped']} partials — every partial "
                  "must be at rest", file=sys.stderr)
            failed = True
        if probe["spliced"] == 0 or probe["crawled"] == 0:
            print("FAIL: the delta crawl must splice unchanged sites and "
                  "crawl (and map) the churned ones", file=sys.stderr)
            failed = True
        if probe["speedup"] is None or probe["speedup"] < SPEEDUP_FLOOR:
            print(f"FAIL: at-rest speedup {probe['speedup']}x is "
                  f"below the {SPEEDUP_FLOOR}x floor", file=sys.stderr)
            failed = True

        # Independent re-render: a fresh process over the stores the
        # probe left behind, at rest vs. mapping every site.
        epoch_store = os.path.join(store_dir, "epoch0-e1")
        at_rest_sections, counts = _render(epoch_store)
        mapped_sections, _ = _render(epoch_store + "-mapped")
        if counts["mapped"] != 0:
            print(f"FAIL: the re-render mapped {counts['mapped']} "
                  "partials — every epoch-1 partial is at rest",
                  file=sys.stderr)
            failed = True
        for name in SECTIONS:
            if at_rest_sections[name] == mapped_sections[name]:
                print(f"  {name}: identical")
            else:
                print(f"FAIL: section {name} diverges between the at-rest "
                      "and mapped renders", file=sys.stderr)
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
