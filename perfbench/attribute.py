"""Attribute a traced run's time to layers, per crawl and per job.

Usage::

    python3 perfbench/attribute.py TRACE.json

Reads a Chrome trace written by ``perfbench/traced.py`` (``run.py
--trace 1`` keeps one per workload in ``.perfbench/traces/``) and prints
two tables:

* one row per crawl, in the order they ran — the corpus sanitization
  pass (``core.corpus``) and every stored crawl (``datastore.run``):
  wall time, visits, requests, fetch-cache hits and misses (stored
  crawls only), and the self time of the layers beneath it;
* one row per service job (``service.job`` root): its epoch, wall time,
  the *inclusive* time of its main stages (:data:`INCLUSIVE`: the
  inspection pass with the visits it makes, the delta crawls with their
  reads, splices and visits, the universe build, the map pass with its
  reads and cache traffic, the corpus pass) and the self time of every
  layer beneath it.
"""

from __future__ import annotations

import sys
from typing import Dict, List

from layers import SELF_TIME, layer_metrics
from tracing import Span, load_spans, self_times, subtree

_NS = 1e9

#: Stages of a job reported with everything beneath them (none of these
#: span names nests inside itself).
INCLUSIVE = (("inspection pass", "crawler.inspect"),
             ("delta crawl", "datastore.delta"),
             ("universe build", "webgen.build"),
             ("map", "core.map"),
             ("corpus", "core.corpus"))


def _layer_split(spans: List[Span], root: int) -> Dict[str, float]:
    metrics = layer_metrics(spans, [root])
    return {name: metrics[name] for name in list(SELF_TIME) + ["trace.other_s"]
            if metrics[name] >= 0.0005}


def crawl_rows(spans: List[Span]) -> List[str]:
    rows = []
    for span in spans:
        if span.name not in ("core.corpus", "datastore.run"):
            continue
        below = subtree(spans, [span.id])
        visits = [s for s in below if s.name == "browser.visit"]
        split = _layer_split(spans, span.id)
        rows.append(
            f"{span.args.get('kind', 'corpus sanitize'):16s}"
            f" {span.args.get('country', '--')}"
            f"  {span.duration / _NS:7.3f}s  visits {len(visits):5d}"
            f"  requests {sum(s.args.get('requests', 0) for s in visits):6d}"
            f"  fetch hits/misses {span.args.get('fetch_hits', 0)}"
            f"/{span.args.get('fetch_misses', 0)}\n      "
            + ", ".join(f"{name} {value:.3f}"
                        for name, value in sorted(split.items(),
                                                  key=lambda kv: -kv[1])))
    return rows


def job_rows(spans: List[Span]) -> List[str]:
    own = self_times(spans)
    rows = []
    for span in spans:
        if span.name != "service.job" or span.parent is not None:
            continue
        below = subtree(spans, [span.id])
        inclusive = ", ".join(
            f"{label} {total / _NS:.3f}s ({total / span.duration:.0%})"
            for label, total in (
                (label, sum(s.duration for s in below if s.name == name))
                for label, name in INCLUSIVE))
        split = _layer_split(spans, span.id)
        rows.append(
            f"job {span.args.get('job')} epoch {span.args.get('epoch')}"
            f"  {span.duration / _NS:7.3f}s  job self"
            f" {own[span.id] / _NS:.3f}s\n      inclusive: {inclusive}"
            "\n      self: "
            + ", ".join(f"{name} {value:.3f}"
                        for name, value in sorted(split.items(),
                                                  key=lambda kv: -kv[1])))
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    spans = load_spans(argv[0])
    for title, rows in (("crawls", crawl_rows(spans)),
                        ("service jobs", job_rows(spans))):
        if rows:
            print(f"{title}:")
            for row in rows:
                print("  " + row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
