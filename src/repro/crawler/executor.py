"""The one way the package crawls (§3.1 and §6 at scale).

Every crawl is a :class:`CrawlSpec` run by :meth:`CrawlExecutor.run`:
the study's lazy accessors and its prefetch, and ``repro crawl``.  The
crawls are embarrassingly parallel: every crawl owns its cookie jar and
its vantage point, so the six per-country porn crawls, the regular-web
control crawl, and any auxiliary (banner) crawls never share state.
Each crawl stays strictly sequential inside — the paper's
single-session design (cookie syncing needs one live jar) — which is
what makes a parallel run bit-identical to the sequential one.

Backends
--------

The platform and the parallelism choose the backend.

``inline`` (``parallelism=1``, a single spec, or no ``fork``)
    Runs the specs in turn, in submission order, in the caller's
    process, on the caller's store and baseline handles (it opens a
    store only when given a path).  Progress fires live and a crawl's
    exception propagates as raised.
``fork``
    Forked worker processes inherit the immutable :class:`Universe` by
    copy-on-write; only the compact :class:`CrawlOutcome` results cross
    the process boundary (with a store, a run reference and no log).
    This sidesteps the GIL for the CPU-bound page-render/parse loop.
    Failures inside a worker are returned as values, not raised, so one
    bad crawl can never wedge the pool: every submitted spec completes,
    and the executor then raises :class:`CrawlExecutionError` for the
    first failed spec in input order, carrying the worker's traceback.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import traceback
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
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
    #: The datastore run kind (``openwpm:porn``, ``openwpm:regular``);
    #: required when the executor has a store.
    store_kind: str = ""


@dataclass
class CrawlOutcome:
    """Everything one crawl produced for one :class:`CrawlSpec`.

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
    #: drains.  ``None`` inline, where progress fired live.
    event_counts: Optional[Dict[str, int]] = None


@dataclass(frozen=True)
class _WorkerFailure:
    """A crawl failure shipped back as a value (never raised in-pool)."""

    key: str
    country: str
    message: str
    worker_traceback: str
    #: A damaged store shard's error, which the parent raises as is:
    #: the store is at fault, not the crawl.
    damaged_shard: Optional[Exception] = None


class CrawlExecutionError(RuntimeError):
    """A crawl failed inside a forked worker.

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


def _opened(stack: contextlib.ExitStack, store):
    """``store`` as a handle: a path is opened for the life of ``stack``."""
    if isinstance(store, (str, Path)):
        from ..datastore import CrawlStore
        return stack.enter_context(CrawlStore(str(store)))
    return store


#: Set by the parent immediately before spawning a fork-based pool so
#: children inherit it by copy-on-write (nothing large is ever pickled).
_FORK_EXECUTOR: Optional["CrawlExecutor"] = None


def _execute_forked(spec: CrawlSpec) -> Union[CrawlOutcome, _WorkerFailure]:
    """Entry point inside a forked worker; never raises.

    The store and baseline travel as paths (SQLite connections must not
    cross ``fork``), so each worker opens its own connections against
    the shared WAL store.  Per-site progress events would fire into the
    child's copy of the callback, so the worker tallies them instead
    and ships the counts back on the :class:`CrawlOutcome`.
    """
    executor = _FORK_EXECUTOR
    counts: Optional[Counter] = None
    progress = None
    if executor.progress is not None:
        counts = Counter()

        def progress(event: str, **fields) -> None:
            counts[event] += 1
    try:
        with contextlib.ExitStack() as stack:
            outcome = executor._crawl(
                spec, _opened(stack, executor.store_path),
                _opened(stack, executor.baseline_path), progress)
    except Exception as exc:
        from ..datastore import DamagedShardError
        return _WorkerFailure(
            key=spec.key,
            country=spec.country,
            message=f"{type(exc).__name__}: {exc}",
            worker_traceback=traceback.format_exc(),
            damaged_shard=(exc if isinstance(exc, DamagedShardError)
                           else None),
        )
    if counts is not None:
        outcome.event_counts = dict(counts)
    return outcome


class CrawlExecutor:
    """Runs independent crawls, inline or fanned out to forked workers.

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
        makes every crawl persistent and resumable: crawls record
        per-site completion and skip sites the store already holds.
        ``baseline`` (same type) is a previous epoch's store; with both
        set, crawls splice unchanged sites from the baseline instead of
        rendering them (:mod:`repro.datastore.delta`).

        ``progress(event, **fields)`` observes site/run milestones live
        on the inline backend; forked workers tally events and the
        parent replays the per-crawl totals (with a ``count=`` field)
        once the pool drains.
        """
        self.universe = universe
        self.vantage_points = vantage_points
        self.parallelism = max(1, int(parallelism or default_parallelism()))
        self.store = store
        self.baseline = baseline
        self.store_path = getattr(store, "path", store)
        self.baseline_path = getattr(baseline, "path", baseline)
        self.progress = progress

    def _resolve_backend(self, spec_count: int) -> str:
        """Forked processes for several specs where the platform can
        fork; inline otherwise (pickling the whole universe per worker
        would dwarf the crawl itself)."""
        if (self.parallelism > 1 and spec_count > 1
                and "fork" in multiprocessing.get_all_start_methods()):
            return "fork"
        return "inline"

    def run(self, specs: Iterable[CrawlSpec]) -> List[CrawlOutcome]:
        """Execute every spec; return outcomes in submission order.

        Inline, a crawl's exception propagates as raised.  Forked, the
        whole batch drains first and :class:`CrawlExecutionError` is
        raised for the first (in submission order) spec whose crawl
        failed — the pool never deadlocks on a poisoned spec — unless
        that failure is a damaged store shard, whose
        :class:`~repro.datastore.DamagedShardError` is raised as inline.
        """
        spec_list = list(specs)
        keys = [spec.key for spec in spec_list]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate crawl spec keys")
        if not spec_list:
            return []
        if self.store is not None and not all(spec.store_kind
                                              for spec in spec_list):
            raise ValueError("a stored crawl needs its store_kind")
        if self._resolve_backend(len(spec_list)) == "inline":
            with contextlib.ExitStack() as stack:
                store = _opened(stack, self.store)
                baseline = _opened(stack, self.baseline)
                return [self._crawl(spec, store, baseline, self.progress)
                        for spec in spec_list]

        results = self._run_forked(spec_list)
        for result in results:
            if isinstance(result, _WorkerFailure):
                if result.damaged_shard is not None:
                    raise result.damaged_shard
                raise CrawlExecutionError(result.key, result.country,
                                          result.message,
                                          result.worker_traceback)
        if self.progress is not None:
            # Workers counted events locally; replay the totals so
            # observers see the same tallies an inline run emits.
            for result in results:
                for event, count in sorted(result.event_counts.items()):
                    self.progress(event, count=count, key=result.key,
                                  country=result.country)
        return results

    def _crawl(self, spec: CrawlSpec, store, baseline,
               progress: Optional[Callable[..., None]]) -> CrawlOutcome:
        """Run the spec's crawl, through ``store`` when there is one.

        With a store, fully stored crawls are left as they are, partially
        stored ones resume at the first missing site, and fresh ones
        checkpoint after every site — the stored rows bit-identical to a
        plain uninterrupted crawl's log.  With a ``baseline`` store too,
        each crawl runs as a delta against the previous epoch's rows
        (:mod:`repro.datastore.delta`).
        """
        vantage = self.vantage_points.point(spec.country)
        if store is None:
            crawler = OpenWPMCrawler(self.universe, vantage,
                                     keep_html=spec.keep_html)
            return CrawlOutcome(spec.key, spec.country, log=crawler.crawl(
                list(spec.domains), progress=progress))
        from ..datastore import stored_crawl

        run = stored_crawl(store, self.universe, vantage, spec.store_kind,
                           spec.domains, keep_html=spec.keep_html,
                           baseline=baseline, progress=progress)
        return CrawlOutcome(spec.key, spec.country, run=run)

    def _run_forked(
        self, specs: Sequence[CrawlSpec]
    ) -> List[Union[CrawlOutcome, _WorkerFailure]]:
        global _FORK_EXECUTOR
        if self.store is not None:
            # Every stored site is mapped in its worker: build the
            # universe's mapper (its filter-list index) once, here, for
            # the workers to inherit.
            from ..datastore import SiteMapper
            SiteMapper.for_universe(self.universe)
        _FORK_EXECUTOR = self
        try:
            with ProcessPoolExecutor(
                    max_workers=min(self.parallelism, len(specs)),
                    mp_context=multiprocessing.get_context("fork")) as pool:
                return list(pool.map(_execute_forked, specs))
        finally:
            _FORK_EXECUTOR = None
