"""``make delta-check``: correctness + speedup gate for delta crawls.

Runs the delta probe (:func:`run_delta_probe`) in a fresh process: crawl
the seed epoch into a baseline store (every probe store has
:data:`SHARDS` shards), evolve the universe one epoch (5%
content churn, so well under 10% of sites change), then crawl epoch 1
twice in streaming mode — once as a delta crawl splicing
provably-unchanged sites out of the baseline, once as a full re-crawl.
FAILS if any of:

* the two epoch-1 stores are not **byte-identical** (every event row
  and every stored partial of every run, positions included);
* any rendered section diverges between a store-only study over the
  delta store and one over the full store — every table/figure the
  stores can support is rendered from each, in this process, and diffed
  byte-for-byte;
* the delta-vs-full **speedup** is below the 3.0x floor (the regime the
  splice fast path exists for).

The section set covers everything a single-vantage porn + regular crawl
feeds (Tables 2-6, Figures 3-4, the malware rollup); Tables 1/7/8 need
the inspection pass or extra vantage points the probe doesn't run.

``REPRO_DELTA_CHECK_SCALE`` sets the probe scale, default ``0.2``.

The script re-invokes itself for the probe (``delta_check.py --probe
STORE_DIR``), which leaves its stores in ``STORE_DIR`` and prints its
result as JSON.  Exit status 0 on pass, 1 on any violation.
"""

from __future__ import annotations

import hashlib
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

from repro.reporting.sections import sections_reading  # noqa: E402

DEFAULT_SCALE = 0.2

#: Per-epoch content churn: ~5% of sites change, so ~95% of slices are
#: spliceable — the regime delta crawls are for.
CHURN = 0.05

SPEEDUP_FLOOR = 3.0

#: Shards of each probe store: the layout ``repro serve`` jobs and the
#: benchmark's ``epoch-serve`` write, where a splice group is one
#: transaction per shard.
SHARDS = 2

#: Sections renderable from the probe's porn(ES) + regular runs alone.
SECTIONS = sections_reading(("home", "regular"))


def _scale() -> float:
    return float(os.environ.get("REPRO_DELTA_CHECK_SCALE",
                                str(DEFAULT_SCALE)))


def _store_digest(store) -> str:
    """SHA-256 over every stored event row and partial of every run, in
    manifest order.

    Positions are included (they are part of the row tuples), so two
    stores digest equal only if they hold byte-identical event and
    partials tables — the probe's parity check against the full
    re-crawl.
    """
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
        for row in store.partial_rows(manifest.run_id):
            digest.update(repr(row).encode())
    return digest.hexdigest()


def run_delta_probe(scale: float, store_dir: str) -> dict:
    """Incremental crawl of an evolved epoch vs. a full re-crawl.

    Crawls the seed epoch into a baseline store, evolves one epoch, and
    crawls epoch 1 twice in streaming mode — the delta crawl *first* so
    the full crawl inherits any warm global caches and the reported
    speedup is conservative.  Verifies byte-identical stores and
    reports the spliced and crawled counts, the speedup, and the per-kind
    divergence index (the first site that needed a real visit; splicing
    continues past it).
    """
    from repro import Study, UniverseConfig
    from repro.datastore import CrawlStore, stored_crawl
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

    base_config = UniverseConfig(scale=scale, churn=CHURN)
    base_universe = build_universe(base_config)
    base_study = Study(base_universe, parallelism=1)
    domains = base_study.corpus_domains()
    regular = base_universe.reference_regular_corpus()
    vantage = base_study.vantage_points.point(base_study.home_country)

    base_store = CrawlStore(os.path.join(store_dir, "epoch0"),
                            shards=SHARDS)
    crawl_both(base_store, base_universe, domains, regular, vantage)

    evolved_config = UniverseConfig(scale=scale, churn=CHURN, epoch=1)

    delta_universe = build_universe(evolved_config)
    delta_store = CrawlStore(os.path.join(store_dir, "epoch1-delta"),
                             shards=SHARDS)
    start = clock()
    crawl_both(delta_store, delta_universe, domains, regular, vantage,
               baseline=base_store)
    delta_seconds = clock() - start

    full_universe = build_universe(evolved_config)
    full_store = CrawlStore(os.path.join(store_dir, "epoch1-full"),
                            shards=SHARDS)
    start = clock()
    crawl_both(full_store, full_universe, domains, regular, vantage)
    full_seconds = clock() - start
    # main() renders both epoch-1 stores store-only.
    record_corpus(delta_store, delta_universe)
    record_corpus(full_store, full_universe)

    spliced = crawled = 0
    runs = {}
    for manifest in delta_store.run_manifests():
        stats = (manifest.stats or {}).get("delta") or {}
        spliced += stats.get("spliced", 0)
        crawled += stats.get("crawled", 0)
        runs[manifest.kind] = stats
    return {
        "sites": spliced + crawled,
        "spliced": spliced,
        "crawled": crawled,
        "runs": runs,
        "full_seconds": round(full_seconds, 4),
        "delta_seconds": round(delta_seconds, 4),
        "speedup": round(full_seconds / delta_seconds, 2)
        if delta_seconds else None,
        "stores_identical": _store_digest(full_store)
        == _store_digest(delta_store),
    }


def _run_probe(store_dir: str) -> dict:
    command = [sys.executable, str(pathlib.Path(__file__).resolve()),
               "--probe", store_dir]
    result = subprocess.run(command, capture_output=True, text=True)
    if result.returncode != 0:
        raise RuntimeError(f"delta probe failed:\n{result.stderr}")
    return json.loads(result.stdout)


def _render_sections(store_path: str) -> dict:
    """Every supported section rendered from a store-only study."""
    from repro import Study
    from repro.datastore import CrawlStore
    from repro.reporting import render_section
    from repro.webgen.builder import build_universe

    store = CrawlStore(store_path)
    config = store.stored_config()
    study = Study(build_universe(config), store=store,
                  store_only=True)
    return {name: render_section(study, config.scale, name)
            for name in SECTIONS}


def main() -> int:
    store_dir = tempfile.mkdtemp(prefix="repro-delta-check-")
    try:
        print(f"delta-check: scale {_scale()}, churn {CHURN}, "
              f"speedup floor {SPEEDUP_FLOOR}x")
        probe = _run_probe(store_dir)
        changed = probe["crawled"] / probe["sites"] if probe["sites"] else 0.0
        print(f"  {probe['spliced']}/{probe['sites']} sites spliced "
              f"({changed:.1%} re-crawled), divergence points "
              f"{ {kind: stats.get('divergence_index') for kind, stats in probe['runs'].items()} }")
        print(f"  full {probe['full_seconds']:.2f}s vs delta "
              f"{probe['delta_seconds']:.2f}s -> {probe['speedup']}x")

        failed = False
        if not probe["stores_identical"]:
            print("FAIL: delta store is not byte-identical to the full "
                  "re-crawl store", file=sys.stderr)
            failed = True
        if probe["spliced"] == 0:
            print("FAIL: delta crawl spliced nothing", file=sys.stderr)
            failed = True
        if probe["speedup"] is None or probe["speedup"] < SPEEDUP_FLOOR:
            print(f"FAIL: delta speedup {probe['speedup']}x is below the "
                  f"{SPEEDUP_FLOOR}x floor", file=sys.stderr)
            failed = True

        delta_sections = _render_sections(
            os.path.join(store_dir, "epoch1-delta"))
        full_sections = _render_sections(
            os.path.join(store_dir, "epoch1-full"))
        for name in SECTIONS:
            if delta_sections[name] == full_sections[name]:
                print(f"  {name}: identical")
            else:
                print(f"FAIL: section {name} diverges between the delta "
                      "and full stores", file=sys.stderr)
                failed = True

        if failed:
            return 1
        print("delta-check: OK")
        return 0
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--probe"]:
        print(json.dumps(run_delta_probe(_scale(), sys.argv[2])))
        sys.exit(0)
    sys.exit(main())
