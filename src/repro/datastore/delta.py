"""Incremental delta crawls: splice unchanged sites from a prior epoch.

When a universe evolves from epoch N to N+1 (:mod:`repro.webgen.evolve`)
most sites do not change — only a ``churn`` fraction rotates content,
plus the sites touched by tracker churn, HTTPS migration, and banner
spread.  Re-rendering the unchanged majority is pure waste: a site's
per-visit event slice is a pure function of (site content closure,
client context), because the synthetic servers never read request
cookies and every identifier derives from (seed, host, client) alone
(the same purity contract that makes resume bit-identical — see the
:mod:`repro.datastore.store` module docstring).

A delta crawl therefore keys each site by its **content hash**
(:class:`repro.webgen.evolve.ContentHashIndex` digests the canonical
site spec plus the fingerprints of every third-party service its visit
can transitively touch).  For each site of the new run:

* hash unchanged → **splice**: the previous epoch's stored rows are
  copied verbatim into the new run, with only the global ``seq`` values
  rebased to the new run's counter and row positions assigned from the
  shared :class:`~repro.datastore.store.RunWriter` counters;
* hash changed (or missing from the baseline) → **real visit** through
  the normal browser path.

Because serving is jar-oblivious, the cookie-relevant projection of the
jar state at every visit start is the empty digest, and the splice key
collapses to (content hash, vantage).  A universe subclass that *does*
serve from jar state can set ``jar_sensitive = True``: splicing then
stops at the first divergence point (the first really-visited site may
have mutated the jar, so later stored slices are no longer provably
equal) and the crawl degrades gracefully to real visits — correctness
never depends on the hash being right, only speed does.  The result is
byte-identical to a full crawl *by construction*, which
``make delta-check`` re-proves on every CI run by diffing every
rendered report table.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..browser.events import CrawlLog
from ..net.geo import VantagePoint
from ..webgen.config import UniverseConfig
from .serialize import (
    COOKIE_COLUMNS,
    REQUEST_COLUMNS,
    config_to_json,
    cookie_from_row,
    jscall_from_row,
    request_from_row,
    visit_from_row,
)
from .store import CrawlStore, RunId, RunState

__all__ = ["DeltaSource", "SiteSlice", "delta_crawl"]

_REQ_SEQ = REQUEST_COLUMNS.index("seq")
_COO_SEQ = COOKIE_COLUMNS.index("seq")


@dataclass(frozen=True)
class SiteSlice:
    """Where one completed site's rows live inside its baseline run.

    All starts are *global* row positions (the store's fan-in order),
    computed by prefix-summing the per-site counts of the run manifest;
    ``seq_start`` is the value of the log's sequence counter when the
    site's visit began (every request and cookie of a visit draws
    exactly one ``seq``, so the spans telescope).
    """

    domain: str
    position: int
    visits_start: int
    requests_start: int
    requests: int
    cookies_start: int
    cookies: int
    js_calls_start: int
    js_calls: int
    seq_start: int

    @property
    def seq_span(self) -> int:
        return self.requests + self.cookies


def _slice_index(store: CrawlStore, run: RunId) -> Dict[str, SiteSlice]:
    """Prefix-sum the baseline run's per-site counts into slices.

    Completion is always a position prefix (crawls visit in order and
    resume from where they stopped), so the walk stops at the first
    uncompleted site — a partial baseline simply offers fewer splice
    candidates.
    """
    slices: Dict[str, SiteSlice] = {}
    visits = requests = cookies = js_calls = seq = 0
    for (position, domain, completed, n_requests, n_cookies,
         n_js_calls) in store.run_site_counts(run):
        if not completed:
            break
        slices[domain] = SiteSlice(
            domain=domain, position=position,
            visits_start=visits,
            requests_start=requests, requests=n_requests,
            cookies_start=cookies, cookies=n_cookies,
            js_calls_start=js_calls, js_calls=n_js_calls,
            seq_start=seq,
        )
        visits += 1
        requests += n_requests
        cookies += n_cookies
        js_calls += n_js_calls
        seq += n_requests + n_cookies
    return slices


class DeltaSource:
    """The baseline side of a delta crawl, shared process-wide.

    Rebuilding the previous epoch's universe (needed to hash its sites)
    costs a lazy :func:`~repro.webgen.builder.build_universe`, so
    instances are memoized per (store path, stored config) — every
    vantage/kind pair of a study reuses the same baseline hashes.
    """

    _instances: Dict[Tuple[str, str], "DeltaSource"] = {}
    _guard = threading.Lock()

    def __init__(self, store_path: str, config: UniverseConfig) -> None:
        self.store_path = store_path
        self.config = config
        self._lock = threading.Lock()
        self._index = None

    @classmethod
    def for_store(cls, store: CrawlStore,
                  config: UniverseConfig) -> "DeltaSource":
        key = (os.path.abspath(store.path), config_to_json(config))
        with cls._guard:
            source = cls._instances.get(key)
            if source is None:
                source = cls(store.path, config)
                cls._instances[key] = source
            return source

    def content_hashes(self):
        """The baseline epoch's :class:`ContentHashIndex`, built lazily."""
        with self._lock:
            if self._index is None:
                from ..webgen.builder import build_universe
                from ..webgen.evolve import ContentHashIndex
                self._index = ContentHashIndex(
                    build_universe(self.config, lazy=True)
                )
            return self._index


def _target_hashes(universe):
    """The target universe's hash index, cached on the instance.

    The attribute write is benignly racy: two threads may each build an
    index, and either result is correct — both are pure functions of
    the universe.
    """
    index = getattr(universe, "_content_hash_index", None)
    if index is None:
        from ..webgen.evolve import ContentHashIndex
        index = ContentHashIndex(universe)
        universe._content_hash_index = index
    return index


def _slice_bounds(slice_: SiteSlice) -> Dict[str, Tuple[int, int, int]]:
    """Table -> (lo, hi, expected row count) for one site's slice."""
    return {
        "visits": (slice_.visits_start, slice_.visits_start + 1, 1),
        "requests": (slice_.requests_start,
                     slice_.requests_start + slice_.requests,
                     slice_.requests),
        "cookies": (slice_.cookies_start,
                    slice_.cookies_start + slice_.cookies,
                    slice_.cookies),
        "js_calls": (slice_.js_calls_start,
                     slice_.js_calls_start + slice_.js_calls,
                     slice_.js_calls),
    }


def _load_slice(baseline: CrawlStore, run: RunId, slice_: SiteSlice,
                ) -> Optional[Dict[str, List[tuple]]]:
    """One site's raw rows from the baseline, or ``None`` on mismatch.

    A count mismatch means the baseline store disagrees with its own
    manifest (torn file, concurrent writer); the caller falls back to a
    real visit rather than trusting the rows.
    """
    rows: Dict[str, List[tuple]] = {}
    for table, (lo, hi, expected) in _slice_bounds(slice_).items():
        got = baseline.site_event_rows(run, slice_.domain, table, lo, hi)
        if len(got) != expected:
            return None
        rows[table] = got
    return rows


def _load_group(baseline: CrawlStore, run: RunId, group: List[SiteSlice],
                ) -> Optional[List[Dict[str, List[tuple]]]]:
    """Raw rows for a *contiguous* group of slices, one scan per table.

    Consecutive corpus sites occupy consecutive position ranges in every
    event table (the prefix sums telescope), so the whole group is one
    ``[first.start, last.end)`` range read, partitioned back to sites by
    the per-site counts.  ``None`` on any count/position mismatch — the
    caller then degrades to the per-site path.
    """
    first_bounds = _slice_bounds(group[0])
    last_bounds = _slice_bounds(group[-1])
    per_site: List[Dict[str, List[tuple]]] = [{} for _ in group]
    for table in ("visits", "requests", "cookies", "js_calls"):
        lo = first_bounds[table][0]
        hi = last_bounds[table][1]
        rows = baseline.event_rows_in_range(run, table, lo, hi)
        if len(rows) != hi - lo or (
                rows and (rows[0][0] != lo or rows[-1][0] != hi - 1)):
            return None
        cursor = 0
        for index, slice_ in enumerate(group):
            _, _, expected = _slice_bounds(slice_)[table]
            per_site[index][table] = [
                row[1:] for row in rows[cursor:cursor + expected]
            ]
            cursor += expected
    return per_site


def _rebase_seq(rows: Dict[str, List[tuple]],
                seq_delta: int) -> Dict[str, List[tuple]]:
    """Rows with request/cookie ``seq`` columns shifted by ``seq_delta``."""
    if seq_delta == 0:
        return rows
    rows["requests"] = [
        row[:_REQ_SEQ] + (row[_REQ_SEQ] + seq_delta,) + row[_REQ_SEQ + 1:]
        for row in rows["requests"]
    ]
    rows["cookies"] = [
        row[:_COO_SEQ] + (row[_COO_SEQ] + seq_delta,) + row[_COO_SEQ + 1:]
        for row in rows["cookies"]
    ]
    return rows


def delta_crawl(
    store: CrawlStore,
    universe,
    vantage: VantagePoint,
    kind: str,
    domains: Sequence[str],
    state: RunState,
    baseline: CrawlStore,
    partial: CrawlLog,
    *,
    epoch: str = "crawl",
    keep_html: bool = True,
    hydrate: bool = True,
    progress=None,
) -> Optional[Tuple[Optional[CrawlLog], Dict]]:
    """Run the remaining sites of ``state`` as a delta against a baseline.

    Returns ``(log, stats)`` — ``log`` is ``None`` in streaming mode —
    or ``None`` when the delta preconditions fail (no stored baseline
    config, same universe as the target, no matching baseline run, or
    an empty completed prefix), in which case the caller runs a normal
    crawl.  The bail-out happens before anything is written, so falling
    back is always safe.

    ``stats`` reports ``spliced``/``crawled`` site counts and
    ``divergence_index`` — the remaining-list index of the first site
    that needed a real visit (``None`` when everything spliced), which
    is also where a ``jar_sensitive`` universe stops splicing.

    Unchanged-site detection prefers the evolution lineage
    (:meth:`Universe.changed_domains_since` — exact, free) and falls
    back to content-hash comparison when the target universe was not
    derived from the baseline's epoch in this process (which costs one
    lazy rebuild of the baseline universe, memoized per store+config).
    Contiguous spliceable sites are read with one ranged scan per event
    table and committed in one transaction per group, so splice cost is
    dominated by bulk row I/O rather than per-site round trips.
    """
    from ..crawler.openwpm import OpenWPMCrawler

    base_config = baseline.stored_config()
    if base_config is None:
        return None
    if config_to_json(base_config) == config_to_json(universe.config):
        return None
    base_state = baseline.find_run(base_config, vantage, kind, domains,
                                   epoch=epoch, keep_html=keep_html)
    if base_state is None:
        return None
    slices = _slice_index(baseline, base_state.run_id)
    if not slices:
        return None

    changed = universe.changed_domains_since(base_config.epoch)
    if changed is None:
        base_index = DeltaSource.for_store(
            baseline, base_config).content_hashes()
        target_index = _target_hashes(universe)

    def spliceable(domain: str) -> Optional[SiteSlice]:
        slice_ = slices.get(domain)
        if slice_ is None:
            return None
        if changed is not None:
            return None if domain in changed else slice_
        base_hash = base_index.hash_of(domain)
        if base_hash is not None \
                and base_hash == target_index.hash_of(domain):
            return slice_
        return None

    crawler = OpenWPMCrawler(universe, vantage, epoch=epoch,
                             keep_html=keep_html)
    browser = crawler.browser_for(partial)
    log = browser.log
    writer = store.run_writer(state.run_id, trim=not hydrate)
    remaining = state.remaining
    country = vantage.country_code
    total = len(remaining)
    spliced = crawled = 0
    divergence_index: Optional[int] = None

    def splice_one(slice_: SiteSlice, rows: Dict[str, List[tuple]],
                   ) -> Tuple[str, Dict[str, List[tuple]], int]:
        rows = _rebase_seq(rows, log._seq - slice_.seq_start)
        seq_end = log._seq + slice_.seq_span
        if hydrate:
            log.mark_site(slice_.domain)
            log.visits.extend(visit_from_row(r) for r in rows["visits"])
            log.requests.extend(
                request_from_row(r) for r in rows["requests"])
            log.cookies.extend(cookie_from_row(r) for r in rows["cookies"])
            log.js_calls.extend(
                jscall_from_row(r) for r in rows["js_calls"])
        log._seq = seq_end
        return (slice_.domain, rows, seq_end)

    index = 0
    while index < len(remaining):
        domain = remaining[index]
        slice_ = None
        if divergence_index is None or not universe.jar_sensitive:
            slice_ = spliceable(domain)
        if slice_ is None:
            if progress is not None:
                progress("site_started", country=country, domain=domain,
                         index=index, total=total)
            if divergence_index is None:
                divergence_index = index
            crawler.visit_site(browser, domain, writer.checkpoint)
            crawled += 1
            if progress is not None:
                progress("site_finished", country=country, domain=domain,
                         index=index, total=total)
            index += 1
            continue
        # Maximal run of consecutive spliceable sites -> one batch.
        group = [slice_]
        end = index + 1
        while end < len(remaining):
            next_slice = spliceable(remaining[end])
            if next_slice is None:
                break
            group.append(next_slice)
            end += 1
        if progress is not None:
            for offset, member in enumerate(group):
                progress("site_started", country=country,
                         domain=member.domain, index=index + offset,
                         total=total)
        loaded = _load_group(baseline, base_state.run_id, group)
        if loaded is None:
            # The baseline disagrees with its own manifest somewhere in
            # this range; retry site-by-site and really visit the ones
            # that stay unreadable.
            for offset, member in enumerate(group):
                rows = _load_slice(baseline, base_state.run_id, member)
                if rows is not None and universe.jar_sensitive \
                        and divergence_index is not None:
                    rows = None
                if rows is None:
                    if divergence_index is None:
                        divergence_index = index + offset
                    crawler.visit_site(browser, member.domain,
                                       writer.checkpoint)
                    crawled += 1
                else:
                    item_domain, item_rows, seq_end = splice_one(
                        member, rows)
                    writer.splice(item_domain, item_rows, seq_end=seq_end)
                    spliced += 1
                    if progress is not None:
                        progress("site_spliced", country=country,
                                 domain=member.domain,
                                 index=index + offset, total=total)
                if progress is not None:
                    progress("site_finished", country=country,
                             domain=member.domain, index=index + offset,
                             total=total)
        else:
            items = [splice_one(member, rows)
                     for member, rows in zip(group, loaded)]
            writer.splice_many(items)
            spliced += len(group)
            if progress is not None:
                for offset, member in enumerate(group):
                    progress("site_spliced", country=country,
                             domain=member.domain, index=index + offset,
                             total=total)
                    progress("site_finished", country=country,
                             domain=member.domain, index=index + offset,
                             total=total)
        index = end
    stats = {
        "spliced": spliced,
        "crawled": crawled,
        "divergence_index": divergence_index,
    }
    return (log if hydrate else None), stats
