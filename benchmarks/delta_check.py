"""``make delta-check``: correctness + speedup gate for delta crawls.

Runs the delta probe (see ``test_perf_pipeline.run_delta_probe``) in a
fresh subprocess: crawl the seed epoch into a baseline store, evolve the
universe one epoch (default 5% content churn, so well under 10% of
sites change), then crawl epoch 1 twice in streaming mode — once as a
delta crawl splicing provably-unchanged sites out of the baseline, once
as a full re-crawl.  FAILS if any of:

* the two epoch-1 stores are not **byte-identical** (every event row of
  every run, positions included);
* any rendered section diverges between a store-only study over the
  delta store and one over the full store — every table/figure the
  stores can support is rendered from each and diffed byte-for-byte;
* the delta-vs-full **speedup** is below the floor (default 3.0x — the
  regime the splice fast path exists for).

The section set covers everything a single-vantage porn + regular crawl
feeds (Tables 2-6, Figures 3-4, the malware rollup); Tables 1/7/8 need
the inspection pass or extra vantage points the probe doesn't run.

Configuration (environment):

* ``REPRO_DELTA_CHECK_SCALE`` — probe scale, default ``0.2``.
* ``REPRO_DELTA_CHECK_CHURN`` — per-epoch content churn, default ``0.05``.
* ``REPRO_DELTA_CHECK_SPEEDUP`` — speedup floor, default ``3.0``.

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
               "--delta-probe", "--json"]
    result = subprocess.run(command, env=env, capture_output=True, text=True)
    if result.returncode != 0:
        raise RuntimeError(
            f"delta-probe child at scale {scale} failed:\n{result.stderr}"
        )
    return json.loads(result.stdout)


def _render_sections(store_path: str) -> dict:
    """Every supported section rendered from a store-only study."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
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
    scale = float(os.environ.get("REPRO_DELTA_CHECK_SCALE",
                                 str(DEFAULT_SCALE)))
    churn = float(os.environ.get("REPRO_DELTA_CHECK_CHURN",
                                 str(DEFAULT_CHURN)))
    floor = float(os.environ.get("REPRO_DELTA_CHECK_SPEEDUP",
                                 str(DEFAULT_SPEEDUP)))

    store_dir = tempfile.mkdtemp(prefix="repro-delta-check-")
    try:
        print(f"delta-check: scale {scale}, churn {churn}, "
              f"speedup floor {floor}x")
        probe = _run_probe(scale, churn, store_dir)
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
        if probe["speedup"] is None or probe["speedup"] < floor:
            print(f"FAIL: delta speedup {probe['speedup']}x is below the "
                  f"{floor}x floor", file=sys.stderr)
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
    sys.exit(main())
