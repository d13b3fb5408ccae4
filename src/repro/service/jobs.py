"""Job model, persistent queue, and the worker pool (service layer 1+2).

A *job* is one study request: a universe configuration (seed + scale),
the vantage points it needs, and which analyses to evaluate.  Jobs are
journaled to a small SQLite table (``jobs.sqlite`` next to the shard
files) the moment they are submitted, so a restarted server recovers
queued — and *interrupted* — jobs: a job found ``running`` in the
journal is re-queued as ``submitted``, and because all crawl data lives
in the shared :class:`~repro.datastore.CrawlStore` with per-site
checkpoints, the re-run resumes where the previous process died instead
of starting over.

States move ``submitted → running → done|failed|cancelled``; terminal
states never change.  Cancellation is cooperative: ``DELETE /jobs/<id>``
sets a flag the runner checks at per-site checkpoint boundaries (after
the site's rows are durably on disk) and between analyses, so a
cancelled job never tears a transaction and a resubmitted identical job
resumes from the checkpointed sites.

Execution rides entirely on existing machinery: each job takes a lazy
universe from the manager's :class:`UniverseLineage` (evolved from the
one the service holds when that is an earlier epoch of the same chain),
wraps it in a ``Study`` bound to the shared store with
``parallelism=1`` (the configuration under which crawl progress hooks
fire inline), and evaluates the results of the report's sections in
their table's order.  Concurrency across jobs is safe because
``stored_crawl`` serializes same-run crawls in-process and WAL
serializes cross-connection writes.
"""

from __future__ import annotations

import gc
import json
import os
import queue
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..reporting.sections import study_results
from .events import EventLog

__all__ = [
    "ANALYSIS_NAMES",
    "Job",
    "JobCancelled",
    "JobManager",
    "JobSpec",
    "JobState",
    "UniverseLineage",
    "epoch_store_path",
]


class JobState:
    """The five job states (plain strings; stored verbatim in the journal)."""

    SUBMITTED = "submitted"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    ALL = (SUBMITTED, RUNNING, DONE, FAILED, CANCELLED)
    TERMINAL = (DONE, FAILED, CANCELLED)


#: Analysis names a job may select: every report section's results, in
#: evaluation order (:func:`~repro.reporting.sections.study_results`).
ANALYSIS_NAMES = tuple(name for name, _ in study_results(geo=True))


class JobCancelled(Exception):
    """Raised inside a runner when its job's cancel flag is set."""


@dataclass(frozen=True)
class JobSpec:
    """What to measure: universe + vantage points + analysis selection.

    ``countries`` are the vantage points for the geography analysis
    (ignored unless ``geo``); an empty ``analyses`` tuple means the full
    study task list — exactly what ``repro study --store`` evaluates, so
    a default job leaves the store able to serve every table.

    ``epoch`` > 0 measures the universe evolved that many epochs past
    the seed one; the run lands in a sibling store (see
    :func:`epoch_store_path`) so the main store stays pinned to one
    universe.  ``delta`` (requires ``epoch`` > 0) splices
    provably-unchanged sites out of the previous epoch's store instead
    of re-rendering them; if that store is absent the job falls back to
    a full crawl.  ``churn`` is the per-epoch fraction of sites whose
    content changes.
    """

    seed: int = 20191021
    scale: float = 0.1
    countries: Tuple[str, ...] = ()
    geo: bool = False
    analyses: Tuple[str, ...] = ()
    epoch: int = 0
    churn: float = 0.1
    delta: bool = False

    def __post_init__(self) -> None:
        unknown = set(self.analyses) - set(ANALYSIS_NAMES)
        if unknown:
            raise ValueError(f"unknown analyses: {sorted(unknown)}")
        if self.epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {self.epoch}")
        if self.delta and self.epoch < 1:
            raise ValueError("delta requires epoch >= 1 (there is no "
                             "prior epoch to splice from)")
        # 1.0 is the paper's full corpus; a service job never builds more.
        # Written as range checks so NaN (which compares false) fails too.
        if not 0.0 < self.scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {self.scale}")
        if not 0.0 <= self.churn <= 1.0:
            raise ValueError(f"churn must be in [0, 1], got {self.churn}")

    def to_json(self) -> str:
        return json.dumps({
            "seed": self.seed, "scale": self.scale,
            "countries": list(self.countries), "geo": self.geo,
            "analyses": list(self.analyses),
            "epoch": self.epoch, "churn": self.churn, "delta": self.delta,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "JobSpec":
        raw = json.loads(text)
        return cls(
            seed=int(raw["seed"]), scale=float(raw["scale"]),
            countries=tuple(raw.get("countries") or ()),
            geo=bool(raw.get("geo", False)),
            analyses=tuple(raw.get("analyses") or ()),
            epoch=int(raw.get("epoch", 0)),
            churn=float(raw.get("churn", 0.1)),
            delta=bool(raw.get("delta", False)),
        )


@dataclass
class Job:
    """One submitted job: journal row + live event log + cancel flag."""

    id: str
    spec: JobSpec
    state: str = JobState.SUBMITTED
    error: str = ""
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    events: EventLog = field(default_factory=EventLog)
    cancel_requested: threading.Event = field(default_factory=threading.Event)

    def to_dict(self) -> Dict:
        return {
            "id": self.id,
            "state": self.state,
            "spec": json.loads(self.spec.to_json()),
            "error": self.error,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "events": len(self.events),
        }


def epoch_store_path(store_path: str, epoch: int) -> str:
    """Sibling store for an evolved epoch: ``<store>-e<N>``.

    One store holds one universe, and every epoch is a distinct
    universe, so epoch jobs write next to the main store instead of
    into it.  Epoch 0 is the main store itself.
    """
    if epoch <= 0:
        return store_path
    return f"{store_path}-e{epoch}"


def journal_path(store_path: str) -> str:
    """Where the job journal lives: inside the store, next to the shard
    files."""
    return os.path.join(store_path, "jobs.sqlite")


_JOURNAL_DDL = """
CREATE TABLE IF NOT EXISTS service_jobs (
    id           INTEGER PRIMARY KEY AUTOINCREMENT,
    spec_json    TEXT NOT NULL,
    state        TEXT NOT NULL,
    error        TEXT NOT NULL DEFAULT '',
    submitted_at REAL NOT NULL,
    started_at   REAL,
    finished_at  REAL
)
"""


class JobJournal:
    """The durable face of the queue: one SQLite table of job rows.

    Holds no business logic — :class:`JobManager` owns transitions; the
    journal just makes them crash-safe.  Single connection, serialized
    by a lock (journal traffic is a few rows per job).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        with self._conn:
            self._conn.execute(_JOURNAL_DDL)

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def create(self, spec: JobSpec, submitted_at: float) -> str:
        with self._lock, self._conn:
            cursor = self._conn.execute(
                "INSERT INTO service_jobs (spec_json, state, submitted_at)"
                " VALUES (?, ?, ?)",
                (spec.to_json(), JobState.SUBMITTED, submitted_at),
            )
            return str(cursor.lastrowid)

    def update(self, job: Job) -> None:
        with self._lock, self._conn:
            self._conn.execute(
                "UPDATE service_jobs SET state=?, error=?, started_at=?,"
                " finished_at=? WHERE id=?",
                (job.state, job.error, job.started_at, job.finished_at,
                 int(job.id)),
            )

    def rows(self) -> List[Job]:
        """Every journaled job, in submission order."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT id, spec_json, state, error, submitted_at,"
                " started_at, finished_at FROM service_jobs ORDER BY id"
            ).fetchall()
        return [
            Job(id=str(row[0]), spec=JobSpec.from_json(row[1]),
                state=row[2], error=row[3], submitted_at=row[4],
                started_at=row[5], finished_at=row[6])
            for row in rows
        ]


class UniverseLineage:
    """The one universe a service holds, and the parent of the next.

    Every universe a job crawls or the result study reads is built here
    through ``build_universe(config, ancestor=held)``, so an epoch job
    evolves only the steps between the held universe and its own epoch
    instead of building epoch 0 again.  Two rules keep that sound:

    * no two crawls share a universe object: a crawl takes the held
      universe only as an evolve parent of a *later* epoch, and always
      gets a fresh object;
    * the held universe is never one a job is crawling on: a job's
      universe is held only once :meth:`release` hands it back, after
      the job's crawls and analyses, with its response memo emptied.

    So the held universe is only ever read (as an evolve parent, or as
    the result study's universe), and readers of the lazy spec maps are
    thread-safe.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._held = None

    def _build(self, config, *, reuse: bool):
        from ..webgen.builder import build_universe

        with self._lock:
            held = self._held
        if held is not None and not reuse \
                and held.config.epoch >= config.epoch:
            held = None
        return build_universe(config, ancestor=held)

    def for_crawl(self, config):
        """A universe of ``config`` that no one else holds, for one
        job; hand it back with :meth:`release`."""
        return self._build(config, reuse=False)

    def for_reading(self, config):
        """A universe of ``config`` that nothing crawls on (the held one
        itself when it matches), which becomes the held one."""
        universe = self._build(config, reuse=True)
        with self._lock:
            self._held = universe
        return universe

    def release(self, universe) -> None:
        """A job is done with ``universe``: hold it as the next parent."""
        universe.fetch_cache.clear()
        with self._lock:
            self._held = universe


def execute_job(job: Job, store_path: str, *,
                store_shards: Optional[int] = None,
                lineage: Optional[UniverseLineage] = None) -> None:
    """Run one job's study against the shared store, publishing events.

    The job's universe comes from ``lineage`` (a fresh one when absent)
    and goes back to it once the job ends.  Raises
    :class:`JobCancelled` when the job's cancel flag is seen at a
    checkpoint boundary (the just-finished site is already durable) or
    between analyses; any other exception marks the job failed.
    """
    from ..study import Study
    from ..webgen.config import UniverseConfig

    spec = job.spec
    publish = job.events.publish

    def progress(event: str, **fields) -> None:
        publish(event, fields)
        if event in ("site_finished", "run_finished") \
                and job.cancel_requested.is_set():
            raise JobCancelled(job.id)

    config = UniverseConfig(seed=spec.seed, scale=spec.scale,
                            epoch=spec.epoch, churn=spec.churn)
    target_path = epoch_store_path(store_path, spec.epoch)
    baseline = None
    if spec.delta:
        candidate = epoch_store_path(store_path, spec.epoch - 1)
        if os.path.exists(candidate):
            baseline = candidate
        else:
            # Graceful degradation, surfaced on the event stream: the
            # job still runs, it just pays for a full crawl.
            publish("delta_baseline_missing", {"path": candidate})
    # Every epoch job shares the base store's aggregate cache
    # (aggregate_cache=True resolves next to the store, and the -eN
    # epoch suffix is stripped): full-epoch jobs warm its sanitize
    # verdicts and inspections, delta-epoch jobs re-visit only the
    # churn.  Their crawls write each site's partials beside its rows
    # (a delta splices them), so the analyses map nothing again.  Output
    # stays byte-identical either way, so the service's served-vs-CLI
    # identity checks keep holding.
    lineage = lineage or UniverseLineage()
    universe = lineage.for_crawl(config)
    study = Study(universe, store=target_path,
                  store_shards=store_shards, parallelism=1,
                  baseline_store=baseline, aggregate_cache=True,
                  progress=progress)
    try:
        for name, result in study_results(geo=spec.geo):
            if spec.analyses and name not in spec.analyses:
                continue
            if job.cancel_requested.is_set():
                raise JobCancelled(job.id)
            publish("analysis_started", {"name": name})
            result(study, spec.countries or None)
            publish("analysis_finished", {"name": name})
    finally:
        study.close()
        lineage.release(universe)


class JobManager:
    """The queue: journaled submissions drained by a thread worker pool.

    Construction recovers the journal (queued and interrupted jobs are
    re-enqueued in submission order; completed ones get their terminal
    event republished so late subscribers still see a closed stream);
    :meth:`start` spins up the workers.
    """

    def __init__(self, store_path: str, *, workers: int = 1,
                 store_shards: Optional[int] = None,
                 runner: Optional[Callable[[Job], None]] = None) -> None:
        from ..datastore import CrawlStore

        self.store_path = str(store_path)
        self.store_shards = store_shards
        self.workers = max(1, int(workers))
        #: The universe every job and the result study build from.
        self.lineage = UniverseLineage()
        self._runner = runner or (lambda job: execute_job(
            job, self.store_path, store_shards=self.store_shards,
            lineage=self.lineage))
        # The journal lives inside the store directory: create the store
        # first when it is new.
        CrawlStore(self.store_path, shards=store_shards).close()
        self.journal = JobJournal(journal_path(self.store_path))
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._threads: List[threading.Thread] = []
        self._recover()

    # -- lifecycle ------------------------------------------------------

    def _recover(self) -> None:
        for job in self.journal.rows():
            if job.state in (JobState.SUBMITTED, JobState.RUNNING):
                recovered = job.state == JobState.RUNNING
                job.state = JobState.SUBMITTED
                job.started_at = None
                self.journal.update(job)
                job.events.publish("job_submitted", {
                    "id": job.id, "recovered": recovered,
                })
                self._jobs[job.id] = job
                self._queue.put(job.id)
            else:
                # The event history died with the old process; republish
                # the terminal event so a subscriber's stream still ends.
                job.events.publish(f"job_{job.state}", {
                    "id": job.id, "recovered": True,
                    **({"error": job.error} if job.error else {}),
                })
                self._jobs[job.id] = job

    def start(self) -> None:
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._work, name=f"repro-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, *, wait: bool = True) -> None:
        for _ in self._threads:
            self._queue.put(None)
        if wait:
            for thread in self._threads:
                thread.join()
        self._threads = []
        self.journal.close()

    # -- client surface -------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        submitted_at = time.time()
        job_id = self.journal.create(spec, submitted_at)
        job = Job(id=job_id, spec=spec, submitted_at=submitted_at)
        with self._lock:
            self._jobs[job_id] = job
        job.events.publish("job_submitted", {"id": job_id})
        self._queue.put(job_id)
        return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            return self._jobs[job_id]

    def list(self) -> List[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: int(j.id))

    def cancel(self, job_id: str) -> Job:
        """Request cancellation; queued jobs cancel immediately.

        Running jobs cancel cooperatively at the next checkpoint
        boundary.  Cancelling a terminal job raises ``ValueError``.
        """
        job = self.get(job_id)
        with self._lock:
            if job.state in JobState.TERMINAL:
                raise ValueError(f"job {job_id} is already {job.state}")
            job.cancel_requested.set()
            if job.state == JobState.SUBMITTED:
                self._finish(job, JobState.CANCELLED)
                return job
        return job

    # -- worker side ----------------------------------------------------

    def _finish(self, job: Job, state: str, error: str = "") -> None:
        """Terminal transition: journal row, then the terminal event."""
        job.state = state
        job.error = error
        job.finished_at = time.time()
        self.journal.update(job)
        payload = {"id": job.id}
        if error:
            payload["error"] = error
        job.events.publish(f"job_{state}", payload)

    def _work(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            job = self.get(job_id)
            with self._lock:
                if job.state != JobState.SUBMITTED:
                    continue  # cancelled while queued
                job.state = JobState.RUNNING
                job.started_at = time.time()
            self.journal.update(job)
            job.events.publish("job_started", {"id": job.id})
            try:
                self._runner(job)
            except JobCancelled:
                self._finish(job, JobState.CANCELLED)
            except Exception as exc:  # noqa: BLE001 — job isolation
                self._finish(job, JobState.FAILED,
                             error=f"{type(exc).__name__}: {exc}")
            else:
                # A cancel flag that landed after the last checkpoint is
                # moot: the work completed and is durable, so "done" wins.
                self._finish(job, JobState.DONE)
            # A finished job's study and logs sit in reference cycles
            # (its universe is the lineage's now); collect them now —
            # after the terminal event, off the client's path — so the
            # next job never runs beside them.
            gc.collect()
