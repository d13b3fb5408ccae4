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

A delta crawl therefore sorts each remaining site of the new run:

* unchanged and completed in the baseline run → **splice**: the
  previous epoch's stored rows are copied into the new run;
* changed (or missing from the baseline) → **real visit** through the
  normal browser path.

"Unchanged" comes from the evolution lineage alone
(:meth:`Universe.changed_domains_since`): the target universe records
which sites each evolution step changed, so every site outside the set
since the baseline's epoch serves the same bytes.  The lineage answers
only for a baseline whose stored config is the target's with just the
epoch changed (an ancestor on the same chain); any other baseline — a
different ``churn`` or seed, or a later epoch — has no lineage and the
run is crawled normally.

The copy never leaves SQLite.  The baseline's shard files are attached
read-only to the target shards' connections (:meth:`RunWriter.attach`;
a read-only attachment takes only a read transaction under ``BEGIN
IMMEDIATE``, so the baseline is never write-locked), and each site is
one ``INSERT INTO main.<table> SELECT ... FROM <baseline>.<table>`` per
event table, with ``run_id`` replaced, ``position`` shifted onto the
shared :class:`~repro.datastore.store.RunWriter` counters and the
request/cookie ``seq`` values shifted onto the new log's counter, plus
one for the site's partials, which carry no ``seq``.
Every copy's row count is checked against the baseline's prefix-summed
slice index: a site whose rows disagree is rolled back and visited for
real.  Before anything is attached, the index is checked against the
baseline's row layout (each event table's highest position must close
the prefix sums), because a wrong per-site count shifts every later
slice by the same amount and a shifted slice would still count right;
such a baseline is not spliced from at all.  Transactions: one per
contiguous group of spliced sites on a one-shard store, one per site on
more shards (:meth:`RunWriter.splice_many`).  The baseline is detached
in a ``finally``, since a cancelled service job raises out of the
``progress`` hook.

No spliced row passes through Python, and a visited site's events are
dropped once checkpointed, as in every stored crawl.

Serving never reads request cookies, so the jar a visit starts with
cannot change what it records, and a stored slice is reusable whenever
the site's content and the vantage match.  The result is byte-identical
to a full crawl *by construction*, which ``make delta-check`` re-proves
by digesting both stores' event rows and diffing every rendered report
table.
"""

from __future__ import annotations

import sqlite3
from typing import Dict, Optional, Sequence, Tuple

from ..browser.events import CrawlLog
from ..net.geo import VantagePoint
from .store import (
    MAX_ATTACHED,
    CrawlStore,
    RunRef,
    RunState,
    SiteSlice,
    _slice_index,
)

__all__ = ["SiteSlice", "delta_crawl"]


def _layout_matches(baseline: CrawlStore, run: RunRef,
                    slices: Dict[str, SiteSlice]) -> bool:
    """Whether each event table of the baseline run ends where the slice
    index's prefix sums say it does.

    Row positions are dense from 0 and only completed sites have rows,
    so a wrong per-site count breaks this for its table; a missing row
    (other than a table's last) does not, and fails only its own site's
    count check.
    """
    last = next(reversed(slices.values()))
    ends = baseline.position_ends(run)
    return all(ends[table] == hi
               for table, (_lo, hi, _count) in last.bounds().items())


def delta_crawl(
    store: CrawlStore,
    universe,
    vantage: VantagePoint,
    kind: str,
    domains: Sequence[str],
    state: RunState,
    baseline: CrawlStore,
    *,
    keep_html: bool = True,
    progress=None,
) -> Optional[Tuple[None, Dict]]:
    """Run the remaining sites of ``state`` as a delta against a baseline.

    Returns ``(None, stats)`` — the rows are all in the store, so the
    first member is always ``None`` — or ``None`` when the delta
    preconditions fail (no stored baseline config, a baseline that is
    not an earlier epoch of the target's chain, no matching baseline
    run, an empty completed prefix, a slice index that disagrees with
    the baseline's rows, or more baseline shards than SQLite can
    attach), in which case the caller runs a normal crawl.
    The bail-out happens before anything is written, so falling back is
    always safe.

    ``stats`` reports ``spliced``/``crawled`` site counts and
    ``divergence_index`` — the remaining-list index of the first site
    that needed a real visit (``None`` when everything spliced).

    Progress events for spliced sites (``site_started``,
    ``site_spliced``, ``site_finished``) fire after the transaction that
    holds them has committed.
    """
    from ..crawler.openwpm import OpenWPMCrawler

    base_config = baseline.stored_config()
    if base_config is None:
        return None
    if baseline.shard_count > MAX_ATTACHED:
        return None
    changed = universe.changed_domains_since(base_config)
    if changed is None:
        return None
    base_state = baseline.find_run(base_config, vantage, kind, domains,
                                   keep_html=keep_html)
    if base_state is None:
        return None
    slices = _slice_index(baseline, base_state.run_id)
    if not slices or not _layout_matches(baseline, base_state.run_id,
                                         slices):
        return None

    crawler = OpenWPMCrawler(universe, vantage, keep_html=keep_html)
    log = CrawlLog(country_code=vantage.country_code,
                   client_ip=vantage.client_ip)
    log._seq = state.seq
    browser = crawler.browser_for(log)
    writer = store.run_writer(state.run_id, universe)
    remaining = state.remaining
    total = len(remaining)
    spliced = crawled = 0
    divergence_index: Optional[int] = None

    def report(event: str, index: int) -> None:
        if progress is not None:
            progress(event, country=vantage.country_code,
                     domain=remaining[index], index=index, total=total)

    try:
        writer.attach(baseline, base_state.run_id)
    except sqlite3.OperationalError:
        return None
    try:
        index = 0
        while index < total:
            # Maximal run of consecutive spliceable sites -> one call.
            group = []
            while index + len(group) < total:
                domain = remaining[index + len(group)]
                slice_ = slices.get(domain)
                if slice_ is None or domain in changed:
                    break
                group.append(slice_)
            if group:
                items = []
                seq = log._seq
                for slice_ in group:
                    items.append((slice_, seq - slice_.seq_start))
                    seq += slice_.seq_span
                done = writer.splice_many(items)
                log._seq += sum(slice_.seq_span for slice_ in group[:done])
                spliced += done
                for _ in range(done):
                    for event in ("site_started", "site_spliced",
                                  "site_finished"):
                        report(event, index)
                    index += 1
                if done == len(group):
                    continue
            # Changed, absent from the baseline, or its rows disagree
            # with the baseline's slice index: a real visit.
            report("site_started", index)
            if divergence_index is None:
                divergence_index = index
            crawler.visit_site(browser, remaining[index], writer.checkpoint)
            crawled += 1
            report("site_finished", index)
            index += 1
    finally:
        writer.detach()
    return None, {
        "spliced": spliced,
        "crawled": crawled,
        "divergence_index": divergence_index,
    }
