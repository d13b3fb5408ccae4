"""``make scale-check``: memory flatness + parity gate for the streaming path.

Runs the streaming memory probe (sharded store, streaming crawl,
cursor-fed analyses — see :func:`run_memory_probe`) at two scales, each
in a fresh process so its ``ru_maxrss`` reflects only that scale, and
FAILS if either:

* the **crawl-path peak RSS ratio** between the scales exceeds 1.3x
  (doubling the corpus must not come close to doubling resident memory
  through the crawl datapath), or
* the streaming run's Tables 2/4/6 at the smaller scale are not
  byte-identical to an unsharded, in-memory reference
  (:func:`run_reference_probe`, also in its own process).

The enforced RSS sample is the ``ru_maxrss`` high-water taken right
after the crawl stage: it covers the universe, the corpus build, and the
entire crawl-into-shards datapath — the part of the pipeline this
repo's streaming work bounds.  The full-run peak (which additionally
carries the analyses' O(unique-domain) aggregates and the universe
model, both functions of corpus *diversity* rather than page count) is
printed for context but not gated.

Beside each crawl-path RSS reading the gate prints, ungated, the
tracemalloc peak of the same crawl path (:func:`run_traced_probe`, one
more process per scale, so tracing never touches the gated RSS).  RSS
also counts freed memory the allocator cannot return, so details that
keep no memory can move it; the traced peak counts live Python
allocations only.

``REPRO_SCALE_CHECK_SCALES`` sets the comma-separated scale pair,
default ``0.2,0.4`` ("scale-2 vs scale-4" smoke sizes; full scales 2/4
take tens of minutes and belong in a nightly run, not ``make``).

The script re-invokes itself for each probe
(``scale_check.py --probe memory|traced|reference SCALE``), which prints the
probe's result as JSON.  Exit status 0 on pass, 1 on any violation.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

DEFAULT_SCALES = (0.2, 0.4)
RATIO_THRESHOLD = 1.3

#: Fetch-cache entry cap for the memory probes.  The default cache
#: (200k entries) is effectively unbounded at probe scales; pinning a
#: uniform small cap across scales keeps resident response bytes a
#: constant so the probe measures the pipeline, not the cache.
MEM_PROBE_FETCH_CACHE = 5000

#: Shard count for the memory probe's store.
MEM_PROBE_SHARDS = 4


def _peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    divisor = 2 ** 20 if sys.platform == "darwin" else 2 ** 10
    return round(peak / divisor, 1)


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


def _crawl_path(scale: float, store_dir: str):
    """The crawl path both memory probes measure: the universe, the
    corpus, and both crawls streamed into a sharded store.  Returns the
    store and a store-only study over it."""
    from repro import Study, UniverseConfig
    from repro.datastore import CrawlStore, stored_crawl
    from repro.webgen.builder import build_universe

    universe = build_universe(UniverseConfig(scale=scale),
                              fetch_cache_size=MEM_PROBE_FETCH_CACHE)

    store = CrawlStore(os.path.join(store_dir, "probe-store"),
                       shards=MEM_PROBE_SHARDS)
    domains = _record_corpus(store, universe)
    reader = Study(universe, parallelism=1, store=store, store_only=True)
    vantage = reader.vantage_points.point(reader.home_country)

    stored_crawl(store, universe, vantage, Study._PORN_KIND, domains)
    stored_crawl(store, universe, vantage, Study._REGULAR_KIND,
                 universe.reference_regular_corpus(), keep_html=False)
    return store, reader


def run_memory_probe(scale: float, store_dir: str) -> dict:
    """The bounded-memory pipeline at one scale: sharded + cursors.

    Universe specs are minted from packed rows on access, the crawl
    streams (each site's events dropped once checkpointed to its
    shard), and the Table 2/4/6 analyses consume datastore cursors in a
    store-only study — the configuration whose RSS must stay flat as
    scale grows.  Returns the peak RSS after the crawl and after the
    whole run, and the table digest for parity checks against the
    in-memory reference.
    """
    store, reader = _crawl_path(scale, store_dir)
    # ru_maxrss is monotone: sampled here, it is the crawl path's peak.
    crawl_rss = _peak_rss_mb()

    digest = _tables_digest(reader)
    return {
        "pages": sum(manifest.visits for manifest in store.run_manifests()),
        "crawl_rss_mb": crawl_rss,
        "peak_rss_mb": _peak_rss_mb(),
        "tables_sha256": digest,
    }


def run_traced_probe(scale: float, store_dir: str) -> dict:
    """The crawl path's tracemalloc peak at one scale, in MiB."""
    import tracemalloc

    tracemalloc.start()
    _crawl_path(scale, store_dir)
    _, peak = tracemalloc.get_traced_memory()
    return {"crawl_traced_mb": round(peak / 2 ** 20, 1)}


def run_reference_probe(scale: float) -> dict:
    """The parity reference: an in-memory study over hydrated logs."""
    from repro import Study, UniverseConfig
    from repro.webgen.builder import build_universe

    universe = build_universe(UniverseConfig(scale=scale))
    study = Study(universe, parallelism=1)
    return {"tables_sha256": _tables_digest(study)}


def _probe_child(mode: str, scale: float) -> None:
    """Run one probe in this (fresh) process; print its result as JSON."""
    if mode in ("memory", "traced"):
        probe = run_memory_probe if mode == "memory" else run_traced_probe
        with tempfile.TemporaryDirectory(prefix="repro-mem-probe-") as tmp:
            result = probe(scale, tmp)
    else:
        result = run_reference_probe(scale)
    print(json.dumps(result))


def _run_probe(mode: str, scale: float) -> dict:
    command = [sys.executable, str(pathlib.Path(__file__).resolve()),
               "--probe", mode, str(scale)]
    result = subprocess.run(command, capture_output=True, text=True)
    if result.returncode != 0:
        raise RuntimeError(
            f"{mode} probe at scale {scale} failed:\n{result.stderr}"
        )
    return json.loads(result.stdout)


def main() -> int:
    raw_scales = os.environ.get("REPRO_SCALE_CHECK_SCALES", "")
    scales = tuple(float(s) for s in raw_scales.split(",")) if raw_scales \
        else DEFAULT_SCALES
    if len(scales) != 2 or scales[0] >= scales[1]:
        print(f"scale-check: need two increasing scales, got {scales}",
              file=sys.stderr)
        return 1

    small, large = scales
    print(f"scale-check: streaming probes at scales {small} and {large} "
          f"(threshold {RATIO_THRESHOLD}x)")
    probe_small = _run_probe("memory", small)
    probe_large = _run_probe("memory", large)
    traced_small = _run_probe("traced", small)["crawl_traced_mb"]
    traced_large = _run_probe("traced", large)["crawl_traced_mb"]
    reference = _run_probe("reference", small)

    crawl_ratio = probe_large["crawl_rss_mb"] / probe_small["crawl_rss_mb"]
    full_ratio = probe_large["peak_rss_mb"] / probe_small["peak_rss_mb"]

    for scale, probe, traced in ((small, probe_small, traced_small),
                                 (large, probe_large, traced_large)):
        print(f"  scale {scale}: crawl-path RSS {probe['crawl_rss_mb']:.1f} "
              f"MiB (traced peak, ungated: {traced:.1f} MiB), full-run "
              f"peak {probe['peak_rss_mb']:.1f} MiB, {probe['pages']} pages")
    print(f"  crawl-path RSS ratio: {crawl_ratio:.3f}x "
          f"(full-run, ungated: {full_ratio:.3f}x; traced peak, ungated: "
          f"{traced_large / traced_small:.3f}x) for "
          f"{large / small:.1f}x scale")

    failed = False
    if crawl_ratio > RATIO_THRESHOLD:
        print(f"FAIL: crawl-path RSS ratio {crawl_ratio:.3f}x exceeds "
              f"{RATIO_THRESHOLD}x", file=sys.stderr)
        failed = True

    if probe_small["tables_sha256"] == reference["tables_sha256"]:
        print(f"  tables at scale {small}: streaming sharded run is "
              "byte-identical to the unsharded in-memory reference")
    else:
        print(f"FAIL: streaming tables at scale {small} diverge from the "
              f"unsharded reference ({probe_small['tables_sha256'][:12]} != "
              f"{reference['tables_sha256'][:12]})", file=sys.stderr)
        failed = True

    if failed:
        return 1
    print("scale-check: OK")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--probe"]:
        _probe_child(sys.argv[2], float(sys.argv[3]))
        sys.exit(0)
    sys.exit(main())
