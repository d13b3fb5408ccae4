"""The persistent crawl datastore (our OpenWPM SQLite equivalent).

:class:`CrawlStore` persists whole :class:`~repro.browser.events.CrawlLog`
sessions as they happen: the crawler calls the store's *checkpointer*
after every landing-page visit, which appends that site's event rows and
flips its completion flag in a single transaction.  A killed crawl
therefore loses at most the site it was on, and :func:`stored_crawl`
resumes it at per-site granularity.

Store layouts
-------------

*v1* is one SQLite file in WAL mode — the original layout, still the
default.  *v2* is a directory of ``shard-NNNN.sqlite`` files, each with
the identical v1 schema, where a site-visit's rows live in the shard
``sha256(site_domain) % N`` of the *visited* site (all of a visit's
requests/cookies/JS calls route with the visit, so one checkpoint is
still one transaction in one file, and shard-local WAL writers never
contend).  Every shard carries a copy of the run manifest row for each
run (with ``run_sites`` restricted to its own domains, at their *global*
positions); ``find_run``/``run_manifests`` fan results back in, and
readers merge shards by global position, so both layouts present the
same facade.  ``repro store reshard`` converts v1 files to v2
directories (see :mod:`repro.datastore.shards`).

Why resume is bit-identical
---------------------------

A resumed session rebuilds the browser with the stored partial log (so
global ``seq`` numbering continues where it stopped) but a *fresh*
cookie jar.  That is safe because nothing the log records depends on
jar state carried across sites: the synthetic servers never read request
cookies (``Universe.fetch`` is a pure function of URL, referrer and
client context), ``CookieJar.store_from_response`` reports every parsed
cookie regardless of what the jar already holds, and minted
``document.cookie`` identifiers derive from (script host, cookie name,
client IP) only.  The per-site event stream is thus a pure function of
(universe, client, site), which ``tests/test_datastore.py`` asserts by
diffing an aborted-and-resumed crawl against an uninterrupted one.

The same property is why *trim mode* works: a checkpointer built with
``trim=True`` asks the crawler to drop the in-memory event lists after
each site is on disk (positions continue from persistent counters), so
crawl RSS is bounded by one site's events regardless of corpus size.

It is also the purity contract behind **delta crawls**
(:mod:`repro.datastore.delta`): since a site's event slice is a pure
function of (universe content, client context), a slice stored for a
*previous epoch* can be spliced verbatim into a new run whenever the
site's content hash is unchanged — only the global ``seq`` values and
row positions are rewritten to the new run's counters.  The splice path
(:meth:`RunWriter.splice`) shares its position counters and timer with
the live-checkpoint path, so a run that mixes spliced and freshly
crawled sites lays out rows exactly as an uninterrupted full crawl
would.

Concurrency: worker processes and threads each open their own
:class:`CrawlStore` on the same path; WAL plus a busy timeout serializes
writers, and every checkpoint is one short transaction.  Cursor reads
(:meth:`CrawlStore.iter_visits` et al.) open their own read connections,
so long scans never block a writer.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

from ..browser.events import CrawlLog
from ..net.geo import VantagePoint
from ..webgen.config import UniverseConfig
from .schema import SCHEMA_VERSION, ensure_schema, shard_stamp, stamp_shard
from .serialize import (
    COOKIE_COLUMNS,
    JSCALL_COLUMNS,
    REQUEST_COLUMNS,
    VISIT_COLUMNS,
    config_from_json,
    config_to_json,
    cookie_from_row,
    cookie_to_row,
    domains_hash,
    jscall_from_row,
    jscall_to_row,
    request_from_row,
    request_to_row,
    run_key,
    vantage_to_json,
    visit_from_row,
    visit_to_row,
)

__all__ = [
    "CrawlStore",
    "MissingRunError",
    "RunManifest",
    "RunRef",
    "RunState",
    "RunWriter",
    "ShardInfo",
    "shard_of_domain",
    "stored_crawl",
]

SHARD_FILE_FORMAT = "shard-{index:04d}.sqlite"

#: Event-table name -> serialized column list, for the raw-row readers.
_EVENT_COLUMNS = {
    "visits": VISIT_COLUMNS,
    "requests": REQUEST_COLUMNS,
    "cookies": COOKIE_COLUMNS,
    "js_calls": JSCALL_COLUMNS,
}


def shard_of_domain(domain: str, shard_count: int) -> int:
    """The shard that owns ``domain``'s visits: ``sha256(domain) % N``."""
    if shard_count <= 1:
        return 0
    digest = hashlib.sha256(domain.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shard_count


class MissingRunError(RuntimeError):
    """A store-only consumer asked for a crawl the store does not hold."""


@dataclass(frozen=True)
class RunRef:
    """Layout-independent run identity (v2 stores have no global rowid)."""

    run_key: str
    domains_hash: str


#: What the read/write APIs accept as "which run": the v1 integer rowid
#: or a :class:`RunRef`.  ``RunState.run_id`` is always the right value
#: to pass back in.
RunId = Union[int, RunRef]


@dataclass(frozen=True)
class RunState:
    """Where one run stands: which sites are already on disk."""

    run_id: RunId
    domains: Tuple[str, ...]
    completed: Tuple[str, ...]
    seq: int
    finished: bool

    @property
    def complete(self) -> bool:
        return len(self.completed) == len(self.domains)

    @property
    def remaining(self) -> Tuple[str, ...]:
        done = set(self.completed)
        return tuple(d for d in self.domains if d not in done)


@dataclass(frozen=True)
class RunManifest:
    """One manifest row for ``repro store info``.

    ``run_id`` is the layout-appropriate :data:`RunId` — the SQLite
    rowid on a v1 file, a :class:`RunRef` on a shard directory — so a
    manifest can always be passed back into ``load_log`` / ``iter_*``.
    """

    run_id: "RunId"
    run_key: str
    kind: str
    country_code: str
    client_ip: str
    total_sites: int
    completed_sites: int
    visits: int
    requests: int
    cookies: int
    js_calls: int
    elapsed: float
    started_at: float
    finished_at: Optional[float]
    stats: Optional[Dict]

    @property
    def complete(self) -> bool:
        return self.completed_sites == self.total_sites

    @property
    def sites_per_second(self) -> float:
        return self.completed_sites / self.elapsed if self.elapsed else 0.0


@dataclass(frozen=True)
class ShardInfo:
    """Size and row counts of one shard file (``store info --shards``)."""

    index: int
    path: str
    size_bytes: int
    runs: int
    visits: int


class CrawlStore:
    """One crawl datastore: a v1 SQLite file or a v2 shard directory."""

    def __init__(self, path: str, *, timeout: float = 30.0,
                 shards: Optional[int] = None) -> None:
        self.path = str(path)
        self._timeout = timeout
        self._lock = threading.RLock()
        #: Lifetime I/O counters for this handle: ``opens`` counts SQLite
        #: connections established (shared facade + per-cursor read
        #: connections), ``scans`` counts event range scans (one per
        #: cursor, one per :meth:`site_event_rows` call).  The trend CLI
        #: prints these per epoch under ``--stats`` to prove each store
        #: is opened once and read per analysis, not per rendered
        #: section.
        self.io_stats: Dict[str, int] = {"opens": 0, "scans": 0}
        #: :meth:`_resolve` results for runs present in every shard.
        #: Runs are never deleted and a run row, once inserted, keeps its
        #: id, so a complete resolution cannot go stale.
        self._resolved: Dict[RunRef, List[Tuple[int, int]]] = {}
        creating = False

        if os.path.isdir(self.path):
            existing = sorted(
                name for name in os.listdir(self.path)
                if name.startswith("shard-") and name.endswith(".sqlite")
            )
            if not existing:
                raise ValueError(f"{self.path} is a directory with no shards")
            count = len(existing)
            if shards is not None and shards != count:
                raise ValueError(
                    f"store {self.path} has {count} shards, not {shards}"
                )
            self.shard_count = count
            self._shard_paths = [os.path.join(self.path, n) for n in existing]
        elif shards is not None and shards > 1 and not os.path.exists(self.path):
            os.makedirs(self.path, exist_ok=True)
            self.shard_count = shards
            self._shard_paths = [
                os.path.join(self.path, SHARD_FILE_FORMAT.format(index=i))
                for i in range(shards)
            ]
            creating = True
        else:
            if shards is not None and shards > 1:
                raise ValueError(
                    f"{self.path} is a v1 single-file store; use"
                    " 'repro store reshard' to convert it"
                )
            self.shard_count = 1
            self._shard_paths = [self.path]

        self._connections: List[Optional[sqlite3.Connection]] = (
            [None] * self.shard_count
        )
        # Opening shard 0 eagerly validates the store (schema version,
        # shard stamp); the remaining shards open on first touch — except
        # at creation, where every shard file is written up front so the
        # directory is self-describing (reopen detects the shard count by
        # listing files) even before any row reaches the higher shards.
        for index in range(self.shard_count if creating else 1):
            self._conn(index)

    @property
    def sharded(self) -> bool:
        return self.shard_count > 1

    # -- lifecycle ------------------------------------------------------

    def _conn(self, index: int) -> sqlite3.Connection:
        with self._lock:
            connection = self._connections[index]
            if connection is not None:
                return connection
            connection = self._open(self._shard_paths[index])
            fresh = not connection.execute(
                "SELECT 1 FROM sqlite_master WHERE type='table' AND name='meta'"
            ).fetchone()
            ensure_schema(connection)
            if self.sharded:
                if fresh:
                    stamp_shard(connection, index, self.shard_count)
                else:
                    stamp = shard_stamp(connection)
                    if stamp != (index, self.shard_count):
                        raise ValueError(
                            f"{self._shard_paths[index]} is stamped "
                            f"{stamp}, expected ({index}, {self.shard_count})"
                        )
            self._connections[index] = connection
            return connection

    def _open(self, path: str) -> sqlite3.Connection:
        self.io_stats["opens"] += 1
        connection = sqlite3.connect(
            path, timeout=self._timeout, check_same_thread=False,
            isolation_level=None,  # autocommit; transactions are explicit
        )
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute("PRAGMA synchronous=NORMAL")
        connection.execute(f"PRAGMA busy_timeout={int(self._timeout * 1000)}")
        return connection

    def _read_conn(self, index: int) -> sqlite3.Connection:
        """A private connection for one cursor scan.

        Cursors outlive any facade lock scope, so they never share the
        writer connection; WAL lets them read while checkpoints commit.
        """
        self._conn(index)  # ensure the shard file exists with a schema
        self.io_stats["opens"] += 1
        connection = sqlite3.connect(
            self._shard_paths[index], timeout=self._timeout,
            check_same_thread=False,
        )
        connection.execute(f"PRAGMA busy_timeout={int(self._timeout * 1000)}")
        return connection

    def close(self) -> None:
        with self._lock:
            for connection in self._connections:
                if connection is not None:
                    connection.close()
            self._connections = [None] * self.shard_count

    def __enter__(self) -> "CrawlStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @contextmanager
    def _txn(self, index: int = 0):
        """One serialized write transaction on one shard."""
        with self._lock:
            connection = self._conn(index)
            connection.execute("BEGIN IMMEDIATE")
            try:
                yield connection
            except BaseException:
                connection.execute("ROLLBACK")
                raise
            connection.execute("COMMIT")

    # -- store-level metadata -------------------------------------------

    def schema_version(self) -> int:
        return SCHEMA_VERSION

    def stored_config(self) -> Optional[UniverseConfig]:
        """The universe configuration every run in this store used."""
        with self._lock:
            row = self._conn(0).execute(
                "SELECT value FROM meta WHERE key='config_json'"
            ).fetchone()
        return config_from_json(row[0]) if row else None

    def _check_config(self, config: UniverseConfig) -> str:
        """Pin the store to one universe; reject mixing configurations."""
        text = config_to_json(config)
        for index in range(self.shard_count):
            with self._txn(index) as conn:
                row = conn.execute(
                    "SELECT value FROM meta WHERE key='config_json'"
                ).fetchone()
                if row is None:
                    conn.execute(
                        "INSERT INTO meta (key, value) VALUES (?, ?)",
                        ("config_json", text),
                    )
                elif row[0] != text:
                    raise ValueError(
                        "store was created for a different UniverseConfig; "
                        "use one store file per universe"
                    )
        return text

    # -- run identity ---------------------------------------------------

    def _resolve(self, run: RunId) -> List[Tuple[int, int]]:
        """``(shard_index, local_run_id)`` for every shard holding the run."""
        if isinstance(run, int):
            if self.sharded:
                raise ValueError(
                    "sharded stores address runs by RunRef, not rowid"
                )
            return [(0, run)]
        found: List[Tuple[int, int]] = []
        with self._lock:
            cached = self._resolved.get(run)
            if cached is not None:
                return cached
            for index in range(self.shard_count):
                row = self._conn(index).execute(
                    "SELECT id FROM runs WHERE run_key=? AND domains_hash=?",
                    (run.run_key, run.domains_hash),
                ).fetchone()
                if row is not None:
                    found.append((index, row[0]))
            if len(found) == self.shard_count:
                self._resolved[run] = found
        if not found:
            raise MissingRunError(f"no run {run} in {self.path}")
        return found

    def _local_id(self, run: RunId, index: int) -> Optional[int]:
        for shard_index, local_id in self._resolve(run):
            if shard_index == index:
                return local_id
        return None

    # -- run lifecycle --------------------------------------------------

    def open_run(
        self,
        config: UniverseConfig,
        vantage: VantagePoint,
        kind: str,
        domains: Sequence[str],
        *,
        epoch: str = "crawl",
        keep_html: bool = True,
    ) -> RunState:
        """Find or create the manifest row(s) for one logical crawl.

        In a sharded store every shard gets a manifest row (so fan-in
        readers need no side channel), with ``run_sites`` restricted to
        the shard's own domains at their global positions.
        """
        config_json = self._check_config(config)
        key = run_key(config, vantage, kind, epoch=epoch, keep_html=keep_html)
        dh = domains_hash(domains)
        by_shard: Dict[int, List[Tuple[int, str]]] = {
            index: [] for index in range(self.shard_count)
        }
        for position, domain in enumerate(domains):
            by_shard[shard_of_domain(domain, self.shard_count)].append(
                (position, domain)
            )
        started = time.time()
        for index in range(self.shard_count):
            with self._txn(index) as conn:
                row = conn.execute(
                    "SELECT id FROM runs WHERE run_key=? AND domains_hash=?",
                    (key, dh),
                ).fetchone()
                if row is not None:
                    continue
                cursor = conn.execute(
                    "INSERT INTO runs (run_key, kind, country_code, client_ip,"
                    " config_json, vantage_json, domains_hash, total_sites,"
                    " started_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (key, kind, vantage.country_code, vantage.client_ip,
                     config_json, vantage_to_json(vantage), dh,
                     len(by_shard[index]), started),
                )
                local_id = cursor.lastrowid
                conn.executemany(
                    "INSERT INTO run_sites (run_id, position, domain)"
                    " VALUES (?, ?, ?)",
                    [(local_id, position, domain)
                     for position, domain in by_shard[index]],
                )
        return self._run_state(key, dh, domains)

    def _run_state(self, key: str, dh: str,
                   domains: Sequence[str]) -> RunState:
        ref = RunRef(key, dh)
        seq = 0
        finished = True
        completed_positions: List[Tuple[int, str]] = []
        with self._lock:
            for index, local_id in self._resolve(ref):
                conn = self._conn(index)
                row = conn.execute(
                    "SELECT seq, finished_at FROM runs WHERE id=?",
                    (local_id,),
                ).fetchone()
                seq = max(seq, row[0])
                finished = finished and row[1] is not None
                completed_positions.extend(conn.execute(
                    "SELECT position, domain FROM run_sites"
                    " WHERE run_id=? AND completed=1", (local_id,),
                ))
        completed_positions.sort()
        run_id: RunId = ref
        if not self.sharded:
            run_id = self._resolve(ref)[0][1]
        return RunState(
            run_id=run_id, domains=tuple(domains),
            completed=tuple(d for _, d in completed_positions),
            seq=seq, finished=finished,
        )

    def find_run(
        self,
        config: UniverseConfig,
        vantage: VantagePoint,
        kind: str,
        domains: Sequence[str],
        *,
        epoch: str = "crawl",
        keep_html: bool = True,
    ) -> Optional[RunState]:
        """The run's state if it exists, without creating anything."""
        key = run_key(config, vantage, kind, epoch=epoch, keep_html=keep_html)
        dh = domains_hash(domains)
        with self._lock:
            row = self._conn(0).execute(
                "SELECT id FROM runs WHERE run_key=? AND domains_hash=?",
                (key, dh),
            ).fetchone()
        if row is None:
            return None
        return self._run_state(key, dh, domains)

    def run_writer(self, run: RunId, *, trim: bool = False) -> "RunWriter":
        """The per-site writer for one run (checkpoints and splices)."""
        return RunWriter(self, run, trim=trim)

    def checkpointer(self, run: RunId, *, trim: bool = False) -> Callable:
        """A per-site checkpoint callback for ``OpenWPMCrawler.crawl``.

        Each invocation appends one visited site's event rows and marks
        the site complete in a single transaction *on that site's shard*
        — the atomic unit a kill can never tear.  Event positions come
        from persistent counters seeded with the rows already stored, so
        they are identical whether the in-memory log is kept (hydrated
        resume) or dropped after every site (``trim=True``; the returned
        callback's value tells the crawler to clear its event lists).
        """
        return self.run_writer(run, trim=trim).checkpoint

    def run_site_counts(
        self, run: RunId
    ) -> List[Tuple[int, str, int, int, int, int]]:
        """``(position, domain, completed, requests, cookies, js_calls)``
        for every site of a run, fanned in across shards and sorted by
        global position.  The delta-crawl layer prefix-sums these counts
        to locate each completed site's event-row slice.
        """
        rows: List[Tuple[int, str, int, int, int, int]] = []
        with self._lock:
            for index, local_id in self._resolve(run):
                rows.extend(self._conn(index).execute(
                    "SELECT position, domain, completed, requests, cookies,"
                    " js_calls FROM run_sites WHERE run_id=?",
                    (local_id,),
                ))
        rows.sort()
        return rows

    def site_event_rows(self, run: RunId, domain: str, table: str,
                        lo: int, hi: int) -> List[tuple]:
        """Raw serialized rows ``[lo, hi)`` of one event table.

        Rows come back exactly as stored (without the run_id/position
        prefix) so a splice can re-insert them into another run verbatim
        — decoding and re-encoding would only risk drift.  All of a
        site's rows live in its own shard, so this is one range scan.
        """
        columns = _EVENT_COLUMNS.get(table)
        if columns is None:
            raise ValueError(f"unknown event table {table!r}")
        index = shard_of_domain(domain, self.shard_count)
        local_id = self._local_id(run, index)
        if local_id is None:
            raise MissingRunError(f"no run {run} in shard {index}")
        with self._lock:
            self.io_stats["scans"] += 1
            return self._conn(index).execute(
                f"SELECT {', '.join(columns)} FROM {table}"
                " WHERE run_id=? AND position>=? AND position<?"
                " ORDER BY position",
                (local_id, lo, hi),
            ).fetchall()

    def event_rows_in_range(self, run: RunId, table: str,
                            lo: int, hi: int) -> List[tuple]:
        """``(position, *columns)`` rows in ``[lo, hi)``, across shards.

        The delta layer reads a contiguous splice group in one ranged
        scan per table instead of four queries per site; the leading
        position lets the caller partition rows back to their sites.
        """
        columns = _EVENT_COLUMNS.get(table)
        if columns is None:
            raise ValueError(f"unknown event table {table!r}")
        rows: List[tuple] = []
        with self._lock:
            for index, local_id in self._resolve(run):
                rows.extend(self._conn(index).execute(
                    f"SELECT position, {', '.join(columns)} FROM {table}"
                    " WHERE run_id=? AND position>=? AND position<?",
                    (local_id, lo, hi),
                ))
        rows.sort(key=lambda row: row[0])
        return rows

    def finish_run(self, run: RunId,
                   stats: Optional[Dict] = None) -> None:
        """Stamp a run finished; refuses while sites are still pending."""
        handles = self._resolve(run)
        pending = 0
        with self._lock:
            for index, local_id in handles:
                pending += self._conn(index).execute(
                    "SELECT COUNT(*) FROM run_sites"
                    " WHERE run_id=? AND completed=0", (local_id,),
                ).fetchone()[0]
            if pending:
                raise RuntimeError(
                    f"run {run} still has {pending} pending sites"
                )
            stamp = time.time()
            stats_json = json.dumps(stats, sort_keys=True) if stats else None
            for index, local_id in handles:
                with self._txn(index) as conn:
                    conn.execute(
                        "UPDATE runs SET finished_at=COALESCE(finished_at, ?),"
                        " stats_json=COALESCE(?, stats_json) WHERE id=?",
                        (stamp, stats_json if index == 0 else None, local_id),
                    )

    # -- reading --------------------------------------------------------

    def _run_header(self, run: RunId) -> Tuple[str, str, int]:
        """``(country_code, client_ip, seq)`` with seq fanned in as max."""
        handles = self._resolve(run)
        country = client_ip = ""
        seq = 0
        with self._lock:
            for index, local_id in handles:
                row = self._conn(index).execute(
                    "SELECT country_code, client_ip, seq FROM runs WHERE id=?",
                    (local_id,),
                ).fetchone()
                country, client_ip = row[0], row[1]
                seq = max(seq, row[2])
        return country, client_ip, seq

    def _count_rows(self, handles: List[Tuple[int, int]],
                    table: str) -> int:
        total = 0
        with self._lock:
            for index, local_id in handles:
                total += self._conn(index).execute(
                    f"SELECT COUNT(*) FROM {table} WHERE run_id=?",
                    (local_id,),
                ).fetchone()[0]
        return total

    def count_events(self, run: RunId, table: str) -> int:
        """Total stored rows of one event table for a run."""
        if table not in ("visits", "requests", "cookies", "js_calls"):
            raise ValueError(f"unknown event table {table!r}")
        return self._count_rows(self._resolve(run), table)

    def _iter_rows(self, run: RunId, table: str,
                   columns: Sequence[str], batch: int) -> Iterator[tuple]:
        """Rows of one event table in global position order.

        Bounded memory: each shard scan advances via ``fetchmany`` on a
        private read connection, and the fan-in is a ``heapq.merge`` on
        the leading position column — at most one batch per shard is
        resident.
        """
        if batch <= 0:
            raise ValueError("batch must be positive")
        self.io_stats["scans"] += 1
        handles = self._resolve(run)
        select = (
            f"SELECT position, {', '.join(columns)} FROM {table}"
            " WHERE run_id=? ORDER BY position"
        )

        def shard_rows(index: int, local_id: int) -> Iterator[tuple]:
            connection = self._read_conn(index)
            try:
                cursor = connection.execute(select, (local_id,))
                while True:
                    rows = cursor.fetchmany(batch)
                    if not rows:
                        return
                    yield from rows
            finally:
                connection.close()

        streams = [shard_rows(index, local_id) for index, local_id in handles]
        if len(streams) == 1:
            yield from (row[1:] for row in streams[0])
        else:
            yield from (
                row[1:] for row in heapq.merge(*streams, key=lambda r: r[0])
            )

    def iter_visits(self, run: RunId, *, batch: int = 1024):
        """Stored :class:`PageVisit` records in visit order."""
        for row in self._iter_rows(run, "visits", VISIT_COLUMNS, batch):
            yield visit_from_row(row)

    def iter_requests(self, run: RunId, *, batch: int = 1024):
        """Stored :class:`RequestRecord` records in observation order."""
        for row in self._iter_rows(run, "requests", REQUEST_COLUMNS, batch):
            yield request_from_row(row)

    def iter_cookies(self, run: RunId, *, batch: int = 1024):
        """Stored :class:`CookieRecord` records in observation order."""
        for row in self._iter_rows(run, "cookies", COOKIE_COLUMNS, batch):
            yield cookie_from_row(row)

    def iter_js_calls(self, run: RunId, *, batch: int = 1024):
        """Stored :class:`JSCall` records in observation order."""
        for row in self._iter_rows(run, "js_calls", JSCALL_COLUMNS, batch):
            yield jscall_from_row(row)

    def load_log(self, run: RunId) -> CrawlLog:
        """Reconstruct the (possibly partial) crawl log of a run.

        Rows stream through the batched cursors — nothing is ever
        ``fetchall``-ed — but the returned log is fully hydrated; its
        ``site_marks`` are the run's per-site slice starts.  Analyses
        that must stay bounded read the run one site at a time instead
        (:class:`~repro.datastore.incremental.StoredRows`).
        """
        country, client_ip, seq = self._run_header(run)
        log = CrawlLog(country_code=country, client_ip=client_ip)
        log.visits = list(self.iter_visits(run))
        log.requests = list(self.iter_requests(run))
        log.cookies = list(self.iter_cookies(run))
        log.js_calls = list(self.iter_js_calls(run))
        log._seq = seq
        from .delta import _slice_index
        log.site_marks = [
            (s.domain, s.visits_start, s.requests_start, s.cookies_start,
             s.js_calls_start)
            for s in _slice_index(self, run).values()
        ]
        return log

    def run_manifests(self) -> List[RunManifest]:
        """Every run with completion, per-table counts, and timings.

        Sharded stores fan per-shard manifest rows back into one row per
        logical run (counts summed, ``finished`` only when every shard
        is stamped).  Per-table tallies are ``COUNT(*)`` index-range
        counts — never Python-side cursor iteration — so ``repro store
        info -v`` stays milliseconds on stores holding millions of
        event rows.
        """
        query = """
            SELECT r.id, r.run_key, r.kind, r.country_code, r.client_ip,
                   r.total_sites,
                   (SELECT COUNT(*) FROM run_sites s
                     WHERE s.run_id = r.id AND s.completed = 1),
                   (SELECT COUNT(*) FROM visits v WHERE v.run_id = r.id),
                   (SELECT COUNT(*) FROM requests q WHERE q.run_id = r.id),
                   (SELECT COUNT(*) FROM cookies c WHERE c.run_id = r.id),
                   (SELECT COUNT(*) FROM js_calls j WHERE j.run_id = r.id),
                   r.elapsed, r.started_at, r.finished_at, r.stats_json,
                   r.domains_hash
              FROM runs r ORDER BY r.id
        """
        merged: Dict[Tuple[str, str], List] = {}
        order: List[Tuple[str, str]] = []
        with self._lock:
            for index in range(self.shard_count):
                for row in self._conn(index).execute(query):
                    group = (row[1], row[15])
                    if group not in merged:
                        merged[group] = [
                            row[0], row[1], row[2], row[3], row[4],
                            row[5], row[6], row[7], row[8], row[9],
                            row[10], row[11], row[12], row[13],
                            json.loads(row[14]) if row[14] else None,
                        ]
                        order.append(group)
                        continue
                    entry = merged[group]
                    for slot, value in zip(range(5, 11), row[5:11]):
                        entry[slot] += value
                    entry[11] += row[11]
                    entry[12] = min(entry[12], row[12])
                    entry[13] = (
                        None if entry[13] is None or row[13] is None
                        else max(entry[13], row[13])
                    )
                    if entry[14] is None and row[14]:
                        entry[14] = json.loads(row[14])
        manifests: List[RunManifest] = []
        for group in order:
            entry = merged[group]
            manifests.append(RunManifest(
                run_id=(RunRef(group[0], group[1]) if self.sharded
                        else entry[0]),
                run_key=entry[1], kind=entry[2],
                country_code=entry[3], client_ip=entry[4],
                total_sites=entry[5], completed_sites=entry[6],
                visits=entry[7], requests=entry[8], cookies=entry[9],
                js_calls=entry[10], elapsed=entry[11],
                started_at=entry[12], finished_at=entry[13],
                stats=entry[14],
            ))
        return manifests

    def shard_infos(self) -> List[ShardInfo]:
        """Per-shard file size and row counts (one entry for v1 files)."""
        infos: List[ShardInfo] = []
        with self._lock:
            for index in range(self.shard_count):
                conn = self._conn(index)
                runs = conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]
                visits = conn.execute(
                    "SELECT COUNT(*) FROM visits"
                ).fetchone()[0]
                path = self._shard_paths[index]
                infos.append(ShardInfo(
                    index=index, path=path,
                    size_bytes=os.path.getsize(path),
                    runs=runs, visits=visits,
                ))
        return infos

    # -- artifacts ------------------------------------------------------

    def put_artifact(self, key: str, payload: bytes) -> None:
        """Store an opaque crawl product (e.g. the inspection pass)."""
        with self._txn(0) as conn:
            conn.execute(
                "INSERT OR REPLACE INTO artifacts VALUES (?, ?, ?)",
                (key, payload, time.time()),
            )

    def get_artifact(self, key: str) -> Optional[bytes]:
        with self._lock:
            row = self._conn(0).execute(
                "SELECT payload FROM artifacts WHERE artifact_key=?", (key,),
            ).fetchone()
        return bytes(row[0]) if row else None


class RunWriter:
    """Per-site writer for one run: live checkpoints and delta splices.

    Both paths share the same position counters and wall-clock timer, so
    a run that mixes spliced slices with real visits lays out rows (and
    accumulates elapsed time) exactly as an uninterrupted full crawl
    would.  :meth:`checkpoint` is the callback handed to
    ``OpenWPMCrawler`` (see :meth:`CrawlStore.checkpointer`);
    :meth:`splice` is the delta-crawl fast path that re-inserts a prior
    run's raw rows without rendering the site
    (:func:`repro.datastore.delta.delta_crawl`).
    """

    def __init__(self, store: CrawlStore, run: RunId, *,
                 trim: bool = False) -> None:
        self._store = store
        self._trim = trim
        handles = store._resolve(run)
        self._site_shard: Dict[str, Tuple[int, int, int]] = {}
        with store._lock:
            for index, local_id in handles:
                for domain, position in store._conn(index).execute(
                    "SELECT domain, position FROM run_sites WHERE run_id=?",
                    (local_id,),
                ):
                    self._site_shard[domain] = (index, local_id, position)
        self._counters = {
            table: store._count_rows(handles, table)
            for table in ("visits", "requests", "cookies", "js_calls")
        }
        self._last = time.perf_counter()

    def checkpoint(self, domain: str, log: CrawlLog,
                   marks: Tuple[int, int, int, int]) -> bool:
        """Persist one freshly visited site's event rows (see
        :meth:`CrawlStore.checkpointer`)."""
        now = time.perf_counter()
        site_elapsed, self._last = now - self._last, now
        v0, r0, c0, j0 = marks
        index, local_id, position = self._site_shard[domain]
        counters = self._counters
        vp, rp = counters["visits"], counters["requests"]
        cp, jp = counters["cookies"], counters["js_calls"]
        with self._store._txn(index) as conn:
            conn.executemany(
                "INSERT INTO visits VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [(local_id, vp + i) + visit_to_row(v)
                 for i, v in enumerate(log.visits[v0:])],
            )
            conn.executemany(
                "INSERT INTO requests VALUES"
                " (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [(local_id, rp + i) + request_to_row(r)
                 for i, r in enumerate(log.requests[r0:])],
            )
            conn.executemany(
                "INSERT INTO cookies VALUES"
                " (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [(local_id, cp + i) + cookie_to_row(c)
                 for i, c in enumerate(log.cookies[c0:])],
            )
            conn.executemany(
                "INSERT INTO js_calls VALUES (?, ?, ?, ?, ?, ?)",
                [(local_id, jp + i) + jscall_to_row(c)
                 for i, c in enumerate(log.js_calls[j0:])],
            )
            conn.execute(
                "UPDATE run_sites SET completed=1, elapsed=?, requests=?,"
                " cookies=?, js_calls=? WHERE run_id=? AND position=?",
                (site_elapsed, len(log.requests) - r0,
                 len(log.cookies) - c0, len(log.js_calls) - j0,
                 local_id, position),
            )
            conn.execute(
                "UPDATE runs SET seq=?, elapsed=elapsed+? WHERE id=?",
                (log._seq, site_elapsed, local_id),
            )
        counters["visits"] = vp + len(log.visits) - v0
        counters["requests"] = rp + len(log.requests) - r0
        counters["cookies"] = cp + len(log.cookies) - c0
        counters["js_calls"] = jp + len(log.js_calls) - j0
        return self._trim

    def _insert_spliced(self, conn: sqlite3.Connection, local_id: int,
                        position: int, rows: Dict[str, List[tuple]],
                        site_elapsed: float) -> None:
        """Insert one site's raw rows inside an open transaction."""
        counters = self._counters
        vp, rp = counters["visits"], counters["requests"]
        cp, jp = counters["cookies"], counters["js_calls"]
        conn.executemany(
            "INSERT INTO visits VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            [(local_id, vp + i) + tuple(row)
             for i, row in enumerate(rows["visits"])],
        )
        conn.executemany(
            "INSERT INTO requests VALUES"
            " (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            [(local_id, rp + i) + tuple(row)
             for i, row in enumerate(rows["requests"])],
        )
        conn.executemany(
            "INSERT INTO cookies VALUES"
            " (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            [(local_id, cp + i) + tuple(row)
             for i, row in enumerate(rows["cookies"])],
        )
        conn.executemany(
            "INSERT INTO js_calls VALUES (?, ?, ?, ?, ?, ?)",
            [(local_id, jp + i) + tuple(row)
             for i, row in enumerate(rows["js_calls"])],
        )
        conn.execute(
            "UPDATE run_sites SET completed=1, elapsed=?, requests=?,"
            " cookies=?, js_calls=? WHERE run_id=? AND position=?",
            (site_elapsed, len(rows["requests"]), len(rows["cookies"]),
             len(rows["js_calls"]), local_id, position),
        )
        counters["visits"] = vp + len(rows["visits"])
        counters["requests"] = rp + len(rows["requests"])
        counters["cookies"] = cp + len(rows["cookies"])
        counters["js_calls"] = jp + len(rows["js_calls"])

    def splice(self, domain: str, rows: Dict[str, List[tuple]], *,
               seq_end: int) -> None:
        """Insert one site's pre-rewritten raw rows without a visit.

        ``rows`` maps each event table to serialized tuples exactly as
        :meth:`CrawlStore.site_event_rows` returned them, with ``seq``
        columns already rebased to this run's counter.  Positions are
        assigned from the shared counters, so the spliced site lands in
        the store byte-identically to a real visit.
        """
        now = time.perf_counter()
        site_elapsed, self._last = now - self._last, now
        index, local_id, position = self._site_shard[domain]
        with self._store._txn(index) as conn:
            self._insert_spliced(conn, local_id, position, rows,
                                 site_elapsed)
            conn.execute(
                "UPDATE runs SET seq=?, elapsed=elapsed+? WHERE id=?",
                (seq_end, site_elapsed, local_id),
            )

    def splice_many(self,
                    items: List[Tuple[str, Dict[str, List[tuple]], int]],
                    ) -> None:
        """Splice a contiguous group of ``(domain, rows, seq_end)`` sites.

        On a single-file store the whole group commits in one
        transaction — per-site commit overhead is the dominant splice
        cost, and coarsening crash granularity is safe because spliced
        sites are nearly free to redo on resume.  On a sharded store
        each site still commits alone: a site's rows and completion flag
        must land atomically in its own shard, and committing shards
        independently could tear the completed *prefix* that global row
        positions rely on.
        """
        if not items:
            return
        if self._store.shard_count > 1:
            for domain, rows, seq_end in items:
                self.splice(domain, rows, seq_end=seq_end)
            return
        now = time.perf_counter()
        batch_elapsed, self._last = now - self._last, now
        site_elapsed = batch_elapsed / len(items)
        counters = self._counters
        inserts: Dict[str, List[tuple]] = {
            "visits": [], "requests": [], "cookies": [], "js_calls": [],
        }
        site_updates: List[tuple] = []
        local_id = None
        for domain, rows, _ in items:
            _, local_id, position = self._site_shard[domain]
            for table, batch in inserts.items():
                base = counters[table]
                batch.extend(
                    (local_id, base + i) + tuple(row)
                    for i, row in enumerate(rows[table])
                )
                counters[table] = base + len(rows[table])
            site_updates.append((
                site_elapsed, len(rows["requests"]), len(rows["cookies"]),
                len(rows["js_calls"]), local_id, position,
            ))
        with self._store._txn(0) as conn:
            conn.executemany(
                "INSERT INTO visits VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                inserts["visits"],
            )
            conn.executemany(
                "INSERT INTO requests VALUES"
                " (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                inserts["requests"],
            )
            conn.executemany(
                "INSERT INTO cookies VALUES"
                " (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                inserts["cookies"],
            )
            conn.executemany(
                "INSERT INTO js_calls VALUES (?, ?, ?, ?, ?, ?)",
                inserts["js_calls"],
            )
            conn.executemany(
                "UPDATE run_sites SET completed=1, elapsed=?, requests=?,"
                " cookies=?, js_calls=? WHERE run_id=? AND position=?",
                site_updates,
            )
            conn.execute(
                "UPDATE runs SET seq=?, elapsed=elapsed+? WHERE id=?",
                (items[-1][2], batch_elapsed, local_id),
            )


# ----------------------------------------------------------------------
# The crawl-through-the-store entry point
# ----------------------------------------------------------------------

#: In-process serialization of same-run crawls.  The service's worker
#: pool may execute two jobs that need the same logical run (same
#: run_key + domains_hash) concurrently; without a lock both would
#: resume the run and race to insert the same row positions.  The loser
#: of this lock finds the run complete and loads it instead.  Keyed by
#: (absolute store path, run_key, domains_hash); cross-*process* writers
#: are already serialized per checkpoint by WAL, and distinct runs never
#: contend.
_RUN_LOCKS: Dict[Tuple[str, str, str], threading.Lock] = {}
_RUN_LOCKS_GUARD = threading.Lock()


def _run_lock(store_path: str, key: str, dh: str) -> threading.Lock:
    with _RUN_LOCKS_GUARD:
        return _RUN_LOCKS.setdefault(
            (os.path.abspath(store_path), key, dh), threading.Lock()
        )


def _cache_snapshot(stats) -> Tuple[int, int, int]:
    return (stats.hits, stats.misses, stats.evictions)


def _cache_delta(stats, before: Tuple[int, int, int]) -> Dict[str, int]:
    hits, misses, evictions = before
    return {
        "hits": stats.hits - hits,
        "misses": stats.misses - misses,
        "evictions": stats.evictions - evictions,
    }


def stored_crawl(
    store: CrawlStore,
    universe,
    vantage: VantagePoint,
    kind: str,
    domains: Sequence[str],
    *,
    epoch: str = "crawl",
    keep_html: bool = True,
    allow_crawl: bool = True,
    hydrate: bool = True,
    baseline: Optional["CrawlStore"] = None,
    progress=None,
) -> Optional[CrawlLog]:
    """Load, resume, or run one crawl through the store.

    Fully stored runs are loaded without touching a browser; partially
    stored runs resume with the remaining sites appended to the stored
    partial log (bit-identical to an uninterrupted session — see the
    module docstring); fresh runs crawl from scratch, checkpointing after
    every site.  ``allow_crawl=False`` turns a miss into
    :class:`MissingRunError` (the ``repro report`` contract: render from
    the store, never crawl).

    ``hydrate=False`` is the streaming mode: the crawl runs with trim
    checkpointing (in-memory event lists dropped once each site is on
    disk) and the function returns ``None`` — consumers read the rows
    back through the store's cursors.  Peak memory is then bounded by
    one site's events instead of the whole run.

    ``baseline`` turns the crawl into a **delta crawl**: when the
    baseline store holds the matching run for a *previous universe
    epoch*, sites whose content hash is unchanged are spliced from the
    baseline's stored rows instead of being rendered
    (:mod:`repro.datastore.delta`).  The result is byte-identical to a
    full crawl by construction; when preconditions fail the delta layer
    degrades to a normal crawl.

    ``progress(event, **fields)`` observes the crawl: ``run_started``
    fires once up front (with ``completed`` telling how many sites the
    store already held — 0 for a fresh run, ``total`` for a pure load),
    the crawler's per-site ``site_started``/``site_finished`` hooks fire
    for every *remaining* site, and ``run_finished`` fires once the run
    manifest is stamped.  Concurrent callers targeting the same logical
    run serialize on an in-process lock; the second caller finds the
    rows stored and degrades to a load.
    """
    from ..crawler.openwpm import OpenWPMCrawler
    from ..html.parser import parse_cache_stats

    domains = list(domains)
    key = run_key(universe.config, vantage, kind, epoch=epoch,
                  keep_html=keep_html)
    with _run_lock(store.path, key, domains_hash(domains)):
        state = store.open_run(universe.config, vantage, kind, domains,
                               epoch=epoch, keep_html=keep_html)
        remaining = state.remaining
        if progress is not None:
            progress("run_started", kind=kind,
                     country=vantage.country_code, total=len(domains),
                     completed=len(state.completed))
        if not remaining:
            if not state.finished:
                store.finish_run(state.run_id)
            if progress is not None:
                progress("run_finished", kind=kind,
                         country=vantage.country_code, total=len(domains))
            return store.load_log(state.run_id) if hydrate else None
        if not allow_crawl:
            raise MissingRunError(
                f"store {store.path} holds "
                f"{len(state.completed)}/{len(domains)} "
                f"sites for {kind} from {vantage.country_code}; re-run with "
                "--store to complete it"
            )
        if hydrate:
            partial = store.load_log(state.run_id)
        else:
            # Trim mode resumes with an empty log that only carries the seq
            # counter forward; stored rows are never re-materialized.
            partial = CrawlLog(country_code=vantage.country_code,
                               client_ip=vantage.client_ip)
            partial._seq = state.seq
        fetch_before = _cache_snapshot(universe.fetch_cache.stats)
        parse_before = _cache_snapshot(parse_cache_stats())
        delta_stats = None
        log = None
        if baseline is not None:
            from .delta import delta_crawl
            outcome = delta_crawl(
                store, universe, vantage, kind, domains, state, baseline,
                partial, epoch=epoch, keep_html=keep_html, hydrate=hydrate,
                progress=progress,
            )
            if outcome is not None:
                log, delta_stats = outcome
        if delta_stats is None:
            crawler = OpenWPMCrawler(universe, vantage, epoch=epoch,
                                     keep_html=keep_html)
            log = crawler.crawl(
                remaining, log=partial,
                checkpoint=store.checkpointer(state.run_id,
                                              trim=not hydrate),
                progress=progress,
            )
        stats = {
            "fetch_cache": _cache_delta(universe.fetch_cache.stats,
                                        fetch_before),
            "parse_cache": _cache_delta(parse_cache_stats(), parse_before),
            "resumed_from_site": len(state.completed),
        }
        if delta_stats is not None:
            stats["delta"] = delta_stats
        store.finish_run(state.run_id, stats=stats)
        if progress is not None:
            progress("run_finished", kind=kind,
                     country=vantage.country_code, total=len(domains))
        return log if hydrate else None
