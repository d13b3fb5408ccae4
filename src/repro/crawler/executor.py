"""Parallel execution of independent crawls (§3.1 and §6 at scale).

The study's crawls are embarrassingly parallel: every crawl owns its
cookie jar and its vantage point, so the six per-country porn crawls,
the regular-web control crawl, and any auxiliary (banner) crawls never
share state.  :class:`CrawlExecutor` fans those whole crawls out across
a worker pool while keeping each crawl strictly sequential inside — the
paper's single-session design (cookie syncing needs one live jar) is
preserved, which is what makes a parallel run bit-identical to the
sequential one.

Backends
--------

The platform and the parallelism choose the backend.

``process`` (wherever ``fork`` is available)
    Forked worker processes inherit the immutable :class:`Universe` by
    copy-on-write; only the compact :class:`CrawlOutcome` results cross
    the process boundary (with a store, a run reference and no log).
    This sidesteps the GIL for the CPU-bound page-render/parse loop.
``thread``
    Fallback where ``fork`` is unavailable.  Correct (crawls share no
    mutable state; the universe caches are thread-safe) but bounded by
    the GIL.
``serial``
    Used automatically for ``parallelism=1`` or single-spec batches;
    runs inline and reproduces the historical sequential behavior
    exactly, including evaluation order.

Failures inside a worker are returned as values, not raised, so one bad
crawl can never wedge the pool: every submitted spec completes, and the
executor then raises :class:`CrawlExecutionError` for the first failed
spec in input order, carrying the worker's traceback text.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import traceback
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

from ..browser.events import CrawlLog
from ..datastore.store import RunRef
from ..webgen.universe import Universe
from .openwpm import OpenWPMCrawler
from .vpn import VantagePointManager

__all__ = [
    "CrawlExecutionError",
    "CrawlExecutor",
    "CrawlOutcome",
    "CrawlSpec",
    "default_parallelism",
]

def default_parallelism() -> int:
    """The default worker count: the CPUs this process may run on
    (its affinity mask, which a container or ``taskset`` may narrow),
    or ``os.cpu_count()`` where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:
        return os.cpu_count() or 1


@dataclass(frozen=True)
class CrawlSpec:
    """One independent crawl: what to visit and from where.

    ``key`` identifies the crawl in results and errors; result ordering
    follows the order specs were submitted in, regardless of which
    worker finishes first.
    """

    key: str
    country: str
    domains: Tuple[str, ...]
    keep_html: bool = True
    epoch: str = "crawl"
    #: Datastore run kind; defaults to ``openwpm:<key>`` when a store is
    #: attached.  Callers with their own naming (``Study``) set it so the
    #: sequential accessors land on the same manifest rows.
    store_kind: str = ""


@dataclass
class CrawlOutcome:
    """Everything one worker produced for one :class:`CrawlSpec`.

    Without a store the crawl's ``log``; with one, the stored ``run``
    (read it back through the store) and no log.
    """

    key: str
    country: str
    log: Optional[CrawlLog] = None
    run: Optional[RunRef] = None
    #: Per-event tallies counted inside a forked worker (whose local
    #: progress events cannot reach the parent's callback); the parent
    #: replays them as ``progress(event, count=n, ...)`` after the pool
    #: drains.  ``None`` on backends where progress fired live.
    event_counts: Optional[Dict[str, int]] = None


@dataclass(frozen=True)
class _WorkerFailure:
    """A crawl failure shipped back as a value (never raised in-pool)."""

    key: str
    country: str
    message: str
    worker_traceback: str


class CrawlExecutionError(RuntimeError):
    """A crawl failed inside the executor.

    Carries which crawl broke (``key``, ``country``) and the worker-side
    traceback so a multi-process failure is as debuggable as an inline
    one.
    """

    def __init__(self, key: str, country: str, message: str,
                 worker_traceback: str = "") -> None:
        detail = f"crawl {key!r} (country {country}) failed: {message}"
        if worker_traceback:
            detail += f"\n--- worker traceback ---\n{worker_traceback}"
        super().__init__(detail)
        self.key = key
        self.country = country
        self.message = message
        self.worker_traceback = worker_traceback


@dataclass
class _WorkerContext:
    """Everything a worker needs; inherited via fork, shared via threads.

    ``store_path`` travels as a path, never as an open handle: SQLite
    connections must not cross ``fork``, so each worker opens its own
    connection against the shared WAL store.

    ``progress`` is the per-site observation hook (see
    :meth:`OpenWPMCrawler.crawl`).  It only fires *live* on the serial
    and thread backends: a forked child calling the parent's callback
    would publish events into its own copy of the process.  The fork
    path therefore strips the callable and sets ``count_events``
    instead — workers tally event counts locally, ship them back on the
    :class:`CrawlOutcome`, and the parent replays the totals, so
    ``repro crawl --stats`` reports the same counts at any parallelism.
    """

    universe: Universe
    vantage_points: VantagePointManager
    store_path: Optional[str] = None
    baseline_path: Optional[str] = None
    progress: Optional[Callable[..., None]] = None
    count_events: bool = False


#: Set by the parent immediately before spawning a fork-based pool so
#: children inherit it by copy-on-write (nothing large is ever pickled).
_FORK_CONTEXT: Optional[_WorkerContext] = None


def _crawl_spec(context: _WorkerContext, spec: CrawlSpec,
                progress: Optional[Callable[..., None]]) -> CrawlOutcome:
    """Run the spec's crawl, through the store when one is set.

    With a store attached, fully stored crawls are left as they are,
    partially stored ones resume at the first missing site, and fresh
    ones checkpoint after every site — the stored rows bit-identical to
    a plain uninterrupted crawl's log.  When a baseline store is
    attached too, each crawl runs as a delta against the previous
    epoch's rows (:mod:`repro.datastore.delta`).
    """
    vantage = context.vantage_points.point(spec.country)
    if context.store_path is None:
        crawler = OpenWPMCrawler(context.universe, vantage, epoch=spec.epoch,
                                 keep_html=spec.keep_html)
        return CrawlOutcome(spec.key, spec.country, log=crawler.crawl(
            list(spec.domains), progress=progress))
    from ..datastore import CrawlStore, stored_crawl

    with contextlib.ExitStack() as stack:
        store = stack.enter_context(CrawlStore(context.store_path))
        baseline = None
        if context.baseline_path is not None:
            baseline = stack.enter_context(CrawlStore(context.baseline_path))
        run = stored_crawl(
            store, context.universe, vantage,
            spec.store_kind or f"openwpm:{spec.key}",
            list(spec.domains), epoch=spec.epoch,
            keep_html=spec.keep_html, baseline=baseline, progress=progress,
        )
    return CrawlOutcome(spec.key, spec.country, run=run)


def _execute_spec(context: _WorkerContext,
                  spec: CrawlSpec) -> Union[CrawlOutcome, _WorkerFailure]:
    """Run one crawl; never raises."""
    try:
        progress = context.progress
        counts: Optional[Counter] = None
        if progress is None and context.count_events:
            counts = Counter()

            def progress(event: str, **fields) -> None:
                counts[event] += 1

        outcome = _crawl_spec(context, spec, progress)
        if counts is not None:
            outcome.event_counts = dict(counts)
        return outcome
    except Exception as exc:
        return _WorkerFailure(
            key=spec.key,
            country=spec.country,
            message=f"{type(exc).__name__}: {exc}",
            worker_traceback=traceback.format_exc(),
        )


def _execute_forked(spec: CrawlSpec) -> Union[CrawlOutcome, _WorkerFailure]:
    """Entry point inside a forked worker: read the inherited context."""
    context = _FORK_CONTEXT
    if context is None:  # pragma: no cover - defensive
        return _WorkerFailure(spec.key, spec.country,
                              "worker context missing (fork misconfigured)", "")
    return _execute_spec(context, spec)


class CrawlExecutor:
    """Fans independent crawls out across a worker pool.

    Deterministic by construction: results come back in submission
    order and each crawl is internally sequential.  Workers only crawl;
    analysis happens in the caller over the returned logs, or over the
    stored runs when there is a store.
    """

    def __init__(
        self,
        universe: Universe,
        vantage_points: VantagePointManager,
        *,
        parallelism: Optional[int] = None,
        store=None,
        baseline=None,
        progress: Optional[Callable[..., None]] = None,
    ) -> None:
        """``store`` (a :class:`~repro.datastore.CrawlStore` or a path)
        makes every crawl persistent and resumable: workers record
        per-site completion and skip sites the store already holds.
        ``baseline`` (same type) is a previous epoch's store; with both
        set, workers splice unchanged sites from the baseline instead of
        rendering them (:mod:`repro.datastore.delta`).

        ``progress(event, **fields)`` observes site/run milestones live
        on the serial and thread backends; the process backend tallies
        events in the workers and replays the per-crawl totals (with a
        ``count=`` field) once the pool drains — see
        :class:`_WorkerContext`.
        """
        self.universe = universe
        self.vantage_points = vantage_points
        self.parallelism = max(1, int(parallelism or default_parallelism()))
        self.store_path = getattr(store, "path", store)
        self.baseline_path = getattr(baseline, "path", baseline)
        self.progress = progress

    # ------------------------------------------------------------------

    def _resolve_backend(self, spec_count: int) -> str:
        """Serial for one worker, forked processes where the platform
        can fork, threads where it cannot."""
        if self.parallelism == 1 or spec_count <= 1:
            return "serial"
        if "fork" in multiprocessing.get_all_start_methods():
            return "process"
        # No fork (e.g. Windows): pickling the whole universe per worker
        # would dwarf the crawl itself, so degrade to threads.
        return "thread"

    def _context(self) -> _WorkerContext:
        return _WorkerContext(self.universe, self.vantage_points,
                              store_path=self.store_path,
                              baseline_path=self.baseline_path,
                              progress=self.progress)

    # ------------------------------------------------------------------

    def run(self, specs: Iterable[CrawlSpec]) -> List[CrawlOutcome]:
        """Execute every spec; return outcomes in submission order.

        Raises :class:`CrawlExecutionError` for the first (in submission
        order) spec whose crawl failed, after the whole batch has
        drained — the pool never deadlocks on a poisoned spec.
        """
        spec_list = list(specs)
        keys = [spec.key for spec in spec_list]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate crawl spec keys")
        if not spec_list:
            return []

        backend = self._resolve_backend(len(spec_list))
        context = self._context()
        workers = min(self.parallelism, len(spec_list))

        if backend == "serial":
            results = [_execute_spec(context, spec) for spec in spec_list]
        elif backend == "thread":
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(
                    pool.map(lambda spec: _execute_spec(context, spec), spec_list)
                )
        else:
            results = self._run_forked(context, spec_list, workers)

        for result in results:
            if isinstance(result, _WorkerFailure):
                raise CrawlExecutionError(result.key, result.country,
                                          result.message,
                                          result.worker_traceback)
        if self.progress is not None:
            # Forked workers counted events locally; replay the totals so
            # observers see the same tallies as a serial run would emit.
            for result in results:
                if result.event_counts:
                    for event, count in sorted(result.event_counts.items()):
                        self.progress(event, count=count, key=result.key,
                                      country=result.country)
        return results

    def _run_forked(
        self, context: _WorkerContext, specs: Sequence[CrawlSpec], workers: int
    ) -> List[Union[CrawlOutcome, _WorkerFailure]]:
        global _FORK_CONTEXT
        mp_context = multiprocessing.get_context("fork")
        if context.store_path is not None:
            # Every stored site is mapped in its worker: build the
            # universe's mapper (its filter-list index) once, here, for
            # the workers to inherit.
            from ..datastore import SiteMapper
            SiteMapper.for_universe(context.universe)
        # Per-site progress callbacks would fire inside the children;
        # strip the callable but keep counting, so the parent can replay
        # per-crawl event totals (documented on _WorkerContext).
        _FORK_CONTEXT = replace(context, progress=None,
                                count_events=context.progress is not None)
        try:
            with ProcessPoolExecutor(max_workers=workers,
                                     mp_context=mp_context) as pool:
                return list(pool.map(_execute_forked, specs))
        finally:
            _FORK_CONTEXT = None
