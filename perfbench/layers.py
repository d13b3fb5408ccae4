"""Per-layer metrics derived from a traced run's spans.

Self-time metrics sum the self time of the spans :mod:`instrument`
records under the listed names; counts come from span ``args`` and from
the counter probes attached to root spans.  Every span's self time lands
in exactly one metric — the roots' own self time and any unlisted span
go to ``trace.other_s`` — so the self-time metrics add up to
``trace.self_sum_s``, the summed duration of the selected roots.  Root
spans that were not selected but ran at the same time are counted in
``trace.other_roots`` and ``trace.other_roots_s``, outside every other
metric.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from tracing import Span, self_times, subtree

__all__ = ["SELF_TIME", "layer_metrics", "select_roots"]

#: metric -> span names whose self time it sums.
SELF_TIME: Dict[str, Sequence[str]] = {
    "webgen.build_s": ("webgen.build",),
    "crawler.crawl_s": ("crawler.crawl", "crawler.site"),
    "browser.visit_s": ("browser.visit",),
    "ats.build_s": ("ats.build",),
    "ats.classify_s": ("ats.classify",),
    "crawler.inspect_s": ("crawler.inspect",),
    "datastore.run_s": ("datastore.run",),
    "datastore.delta_s": ("datastore.delta",),
    "datastore.write_s": ("datastore.write",),
    "datastore.splice_s": ("datastore.splice",),
    "datastore.read_s": ("datastore.read",),
    "aggregates.lookup_s": ("aggregates.lookup",),
    "aggregates.write_s": ("aggregates.write",),
    "core.map_s": ("core.map",),
    "core.corpus_s": ("core.corpus",),
    "core.labels_s": ("core.labels",),
    "core.cookies_s": ("core.cookies",),
    "core.sync_s": ("core.sync",),
    "core.fingerprinting_s": ("core.fingerprinting",),
    "core.https_s": ("core.https",),
    "core.malware_s": ("core.malware",),
    "core.geography_s": ("core.geography",),
    "core.banners_s": ("core.banners",),
    "core.owners_s": ("core.owners",),
    "core.policies_s": ("core.policies",),
    "text.similarity_s": ("text.similarity",),
    "reporting.render_s": ("reporting.render",),
}

_NS = 1e9


def select_roots(spans: Sequence[Span], name: str,
                 min_epoch: int = 0) -> List[int]:
    """Ids of root spans called ``name`` (for jobs: at ``min_epoch`` or
    later)."""
    return [span.id for span in spans
            if span.name == name and span.parent is None
            and span.args.get("epoch", 0) >= min_epoch]


def _rate(hits: int, misses: int) -> float:
    lookups = hits + misses
    return hits / lookups if lookups else 0.0


def layer_metrics(spans: Sequence[Span], roots: Iterable[int]
                  ) -> Dict[str, float]:
    """Per-layer metrics over the subtrees of ``roots``."""
    roots = list(roots)
    picked = subtree(spans, roots)
    own = self_times(picked)
    by_name: Dict[str, float] = {}
    count: Dict[str, int] = {}
    for span in picked:
        by_name[span.name] = by_name.get(span.name, 0) + own[span.id]
        count[span.name] = count.get(span.name, 0) + 1

    def arg_sum(name: str, key: str) -> int:
        return sum(span.args.get(key, 0) for span in picked
                   if span.name == name)

    metrics: Dict[str, float] = {}
    listed = set()
    for metric, names in SELF_TIME.items():
        metrics[metric] = sum(by_name.get(name, 0) for name in names) / _NS
        listed.update(names)
    metrics["trace.other_s"] = sum(
        total for name, total in by_name.items() if name not in listed) / _NS
    root_set = set(roots)
    root_spans = [span for span in picked if span.id in root_set]
    metrics["trace.self_sum_s"] = sum(own.values()) / _NS
    metrics["trace.root_s"] = sum(span.duration for span in root_spans) / _NS
    metrics["trace.spans"] = len(picked)
    # Roots left out that ran while the selected ones did: spans opened on
    # other threads (request handlers, pool workers).  None of their time
    # is in any metric above, so their count and duration are reported.
    first = min((span.start for span in root_spans), default=0)
    last = max((span.end for span in root_spans), default=0)
    others = [span for span in spans
              if span.parent is None and span.id not in root_set
              and span.start < last and span.end > first]
    metrics["trace.other_roots"] = len(others)
    metrics["trace.other_roots_s"] = sum(
        span.duration for span in others) / _NS

    probes: Dict[str, int] = {}
    for span in root_spans:
        for key, value in span.args.items():
            if isinstance(value, int) and key not in ("job", "epoch"):
                probes[key] = probes.get(key, 0) + value
    metrics.update({
        "webgen.fetch_cache.hit_rate": _rate(probes.get("fetch_hits", 0),
                                             probes.get("fetch_misses", 0)),
        "html.parse_cache.hit_rate": _rate(probes.get("parse_hits", 0),
                                           probes.get("parse_misses", 0)),
        "crawler.sites": count.get("crawler.site", 0),
        "crawler.inspections": count.get("crawler.inspect", 0),
        "browser.visits": count.get("browser.visit", 0),
        "browser.requests": arg_sum("browser.visit", "requests"),
        "datastore.sites_written": count.get("datastore.write", 0),
        "datastore.spliced": arg_sum("datastore.delta", "spliced"),
        "datastore.crawled": arg_sum("datastore.delta", "crawled"),
        "datastore.rows_read": arg_sum("datastore.read", "rows"),
        "datastore.opens": probes.get("opens", 0),
        "datastore.scans": probes.get("scans", 0),
        "aggregates.hits": probes.get("agg_hits", 0),
        "aggregates.misses": probes.get("agg_misses", 0),
        "aggregates.hit_rate": _rate(probes.get("agg_hits", 0),
                                     probes.get("agg_misses", 0)),
        "text.documents": probes.get("documents", 0),
        "text.candidate_pairs": probes.get("candidate_pairs", 0),
    })
    return metrics
