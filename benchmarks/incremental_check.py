"""``make incremental-check``: correctness + speedup gate for the
incremental map/merge analysis engine.

Runs the incremental probe (see
``test_perf_pipeline.run_incremental_probe``) in a fresh subprocess:
crawl the seed epoch, render every supported section through the
aggregate cache (the cold pass persists one partial per site per
analysis), delta-crawl one evolved epoch (default 5% content churn),
then render the epoch-1 sections twice — incremental **first**, so the
monolithic pass that follows inherits any warm OS caches and the
reported speedup is conservative.  FAILS if any of:

* any rendered section differs between the incremental and monolithic
  studies — the cache must be byte-invisible, in-probe *and* re-rendered
  here from the stores the probe left behind (an independent process,
  so a stale in-memory structure can't mask a divergence);
* the epoch-1 pass has **zero cache hits** (unchanged sites must merge
  from epoch-0 partials) or zero misses (churned sites must re-map);
* the incremental-vs-monolithic **speedup** is below the floor (default
  3.0x — at 5% churn, ~95% of per-site maps are skipped);
* the epoch-1 Selenium inspection pass, run through the cache after an
  epoch-0 pass warmed it, differs from an uncached pass over the same
  corpus in any site, or re-inspects no site or every site.  The number
  of re-inspected sites is printed.

The section set covers everything a single-vantage porn + regular crawl
feeds (Tables 2-6, Figures 3-4, the malware rollup); Tables 1/7/8 need
the inspection pass or extra vantage points the probe doesn't run.

Configuration (environment):

* ``REPRO_INCREMENTAL_CHECK_SCALE`` — probe scale, default ``0.2``.
* ``REPRO_INCREMENTAL_CHECK_CHURN`` — per-epoch churn, default ``0.05``.
* ``REPRO_INCREMENTAL_CHECK_SPEEDUP`` — speedup floor, default ``3.0``.

Exit status 0 on pass, 1 on any violation.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
PROBE_SCRIPT = pathlib.Path(__file__).resolve().parent / "test_perf_pipeline.py"

DEFAULT_SCALE = 0.2
DEFAULT_CHURN = 0.05
DEFAULT_SPEEDUP = 3.0

#: Sections renderable from the probe's porn(ES) + regular runs alone.
SECTIONS = ("corpus", "table2", "table3", "figure3", "table4", "figure4",
            "table5", "table6", "malware")


def _run_probe(scale: float, churn: float, store_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    env["REPRO_PERF_DELTA_CHURN"] = str(churn)
    env["REPRO_PERF_DELTA_STORE_DIR"] = store_dir
    command = [sys.executable, str(PROBE_SCRIPT), "--scale", str(scale),
               "--incremental-probe", "--json"]
    result = subprocess.run(command, env=env, capture_output=True, text=True)
    if result.returncode != 0:
        raise RuntimeError(
            f"incremental-probe child at scale {scale} failed:\n"
            f"{result.stderr}"
        )
    return json.loads(result.stdout)


def _render_sections(store_path: str, *, incremental: bool) -> dict:
    """Every supported section from a store-only study, either path."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
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
    sys.path.insert(0, str(REPO_ROOT / "src"))
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
    scale = float(os.environ.get("REPRO_INCREMENTAL_CHECK_SCALE",
                                 str(DEFAULT_SCALE)))
    churn = float(os.environ.get("REPRO_INCREMENTAL_CHECK_CHURN",
                                 str(DEFAULT_CHURN)))
    floor = float(os.environ.get("REPRO_INCREMENTAL_CHECK_SPEEDUP",
                                 str(DEFAULT_SPEEDUP)))

    store_dir = tempfile.mkdtemp(prefix="repro-incremental-check-")
    try:
        print(f"incremental-check: scale {scale}, churn {churn}, "
              f"speedup floor {floor}x")
        probe = _run_probe(scale, churn, store_dir)
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
        if probe["speedup"] is None or probe["speedup"] < floor:
            print(f"FAIL: incremental speedup {probe['speedup']}x is "
                  f"below the {floor}x floor", file=sys.stderr)
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
    sys.exit(main())
