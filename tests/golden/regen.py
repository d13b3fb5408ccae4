"""Regenerate the golden digests in ``sections.json``, ``analyses.json``
and ``universe.json``.

Usage (from the repository root)::

    PYTHONPATH=src python tests/golden/regen.py

Renders every section of ``full_report(..., geo=True)`` at seed
20191021, scale 0.05 and writes the sha256 of each section's text to
``sections.json``:

* ``epoch0`` — a serial in-memory study of the seed universe;
* ``epoch1_delta`` — the evolved epoch-1 universe, delta-crawled
  against a 2-shard epoch-0 store with the aggregate cache shared by
  both stores.

``analyses.json`` holds, for the serial in-memory epoch-0 study, the
sha256 of each per-site analysis result (party labels, ATS, cookies,
cookie sync, fingerprinting, HTTPS, malware, banners) in the
:func:`canonical` form below.

``universe.json`` holds the sha256 of the seed universe itself: the
porn and regular site specs in order, the policy texts, the
certificates, and the WHOIS and DNS record tables (see
:func:`universe_digests`).

``tests/test_golden.py`` asserts these digests on several routes and
never writes the files; regenerate them only when a change is *meant*
to alter a result, and say so in the change description.
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
ANALYSES = Path(__file__).with_name("analyses.json")
UNIVERSE = Path(__file__).with_name("universe.json")


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


def canonical(value):
    """A JSON-ready form of an analysis result that keeps its order.

    A dataclass becomes its fields in declaration order, dicts (as
    key/value pairs) and sequences keep their order, and sets are
    sorted by ``repr`` — their iteration order depends on the hash seed.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: canonical(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    if isinstance(value, dict):
        return [[canonical(key), canonical(item)]
                for key, item in value.items()]
    if isinstance(value, (set, frozenset)):
        return [canonical(item) for item in sorted(value, key=repr)]
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return value


def _sha(value) -> str:
    return hashlib.sha256(
        json.dumps(canonical(value)).encode("utf-8")).hexdigest()


def analysis_digests(results: Dict[str, object]) -> Dict[str, str]:
    """sha256 of each result's :func:`canonical` JSON, keyed by name."""
    return {name: _sha(result) for name, result in results.items()}


def universe_digests(universe) -> Dict[str, str]:
    """sha256 of what a universe serves, in :func:`canonical` form.

    Specs keep their build order; policy texts and certificates are
    keyed and sorted by domain; ``DNSResolver`` and ``WhoisRegistry``
    define no ``__eq__``, so their record tables are hashed directly.
    """
    policies = sorted(universe._policy_texts)
    certificates = sorted(universe.certificates)
    return {
        "porn_sites": _sha(list(universe.porn_sites.items())),
        "regular_sites": _sha(list(universe.regular_sites.items())),
        "policy_texts": _sha([[domain, universe.policy_text(domain)]
                              for domain in policies]),
        "certificates": _sha([[host, universe.certificates[host]]
                              for host in certificates]),
        "whois": _sha(vars(universe.whois)),
        "dns": _sha([universe.dns._records, universe.dns._wildcards]),
    }


def study_analyses(study) -> Dict[str, object]:
    """The per-site analysis results of a study, by golden name."""
    return {
        "porn_labels": study.porn_labels(),
        "regular_labels": study.regular_labels(),
        "porn_ats": study.porn_ats(),
        "regular_ats": study.regular_ats(),
        "cookie_stats": study.cookie_stats(),
        "cookie_sync": study.cookie_sync(),
        "fingerprinting": study.fingerprinting(),
        "https_report": study.https_report(),
        "malware": study.malware(),
        "banners": study.banners(),
    }


def populate(path: str, epoch: int = 0, *, baseline=None,
             aggregate_cache=None, shards=None) -> Dict[str, str]:
    """Crawl and analyze one epoch into a store; return its digests."""
    from repro import Study
    from repro.webgen.builder import build_universe

    study = Study(build_universe(config(epoch)), parallelism=1,
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

    universe = build_universe(config())
    pinned = universe_digests(universe)
    serial = Study(universe, parallelism=1)
    serial.run_all(geo=True)
    epoch0 = digests(serial)
    analyses = analysis_digests(study_analyses(serial))
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
    ANALYSES.write_text(json.dumps(
        {"seed": SEED, "scale": SCALE, "epoch0": analyses}, indent=2) + "\n")
    UNIVERSE.write_text(json.dumps(
        {"seed": SEED, "scale": SCALE, "epoch0": pinned}, indent=2) + "\n")
    print(f"wrote {GOLDEN} ({len(epoch0)} + {len(epoch1)} digests), "
          f"{ANALYSES} ({len(analyses)} digests) and "
          f"{UNIVERSE} ({len(pinned)} digests)")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    sys.exit(main())
