"""Regenerate the golden section digests in ``sections.json``.

Usage (from the repository root)::

    PYTHONPATH=src python tests/golden/regen.py

Renders every section of ``full_report(..., geo=True)`` at seed
20191021, scale 0.05 and writes the sha256 of each section's text:

* ``epoch0`` — a serial in-memory study of the seed universe;
* ``epoch1_delta`` — the evolved epoch-1 universe, delta-crawled
  against a 2-shard epoch-0 store with the aggregate cache shared by
  both stores.

``tests/test_golden.py`` asserts these digests on several routes and
never writes the file; regenerate it only when a change is *meant* to
alter the rendered report, and say so in the change description.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict

SEED = 20191021
SCALE = 0.05
GOLDEN = Path(__file__).with_name("sections.json")


def config(epoch: int = 0):
    from repro import UniverseConfig

    return UniverseConfig(seed=SEED, scale=SCALE, epoch=epoch)


def digests(study) -> Dict[str, str]:
    """sha256 of every section of the geo report, keyed by name."""
    from repro.reporting.sections import report_sections

    return {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in report_sections(study, study.universe.config.scale,
                                          geo=True)
    }


def populate(path: str, epoch: int = 0, *, baseline=None,
             aggregate_cache=None, shards=None) -> Dict[str, str]:
    """Crawl and analyze one epoch into a store; return its digests."""
    from repro import Study
    from repro.webgen.builder import build_universe

    study = Study(build_universe(config(epoch), lazy=True), parallelism=1,
                  store=path, store_shards=shards, baseline_store=baseline,
                  aggregate_cache=aggregate_cache)
    try:
        study.run_all(geo=True)
        return digests(study)
    finally:
        study.close()


def main() -> int:
    from repro import Study
    from repro.datastore import aggregates_path
    from repro.webgen.builder import build_universe

    serial = Study(build_universe(config()), parallelism=1)
    serial.run_all(geo=True)
    epoch0 = digests(serial)
    with tempfile.TemporaryDirectory() as tmp:
        e0 = str(Path(tmp) / "e0")
        e1 = str(Path(tmp) / "e1")
        if populate(e0, shards=2) != epoch0:
            print("error: the stored epoch-0 study disagrees with the "
                  "in-memory one", file=sys.stderr)
            return 1
        epoch1 = populate(e1, 1, baseline=e0,
                          aggregate_cache=aggregates_path(e1))
    payload = {
        "seed": SEED,
        "scale": SCALE,
        "epoch0": epoch0,
        "epoch1_delta": epoch1,
    }
    GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    print(f"wrote {GOLDEN} ({len(epoch0)} + {len(epoch1)} digests)")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    sys.exit(main())
