"""The persistent crawl datastore (our OpenWPM SQLite equivalent).

:class:`CrawlStore` persists whole :class:`~repro.browser.events.CrawlLog`
sessions as they happen: the crawler calls the store's *checkpointer*
after every landing-page visit, which appends that site's event rows and
flips its completion flag in a single transaction.  A killed crawl
therefore loses at most the site it was on, and :func:`stored_crawl`
resumes it at per-site granularity.

Store layout
------------

A store is a directory of ``shard-NNNN.sqlite`` files (one by default,
``shards=N`` at creation for more), each a SQLite database in WAL mode
with the same schema, where a site-visit's rows live in the shard
``sha256(site_domain) % N`` of the *visited* site (all of a visit's
requests/cookies/JS calls route with the visit, so one checkpoint is
still one transaction in one file, and shard-local WAL writers never
contend).  Every shard file is stamped with its ``(index, count)`` and
carries a copy of the run manifest row for each run (with ``run_sites``
restricted to its own domains, at their *global* positions);
``find_run``/``run_manifests`` fan results back in, and readers merge
shards by global position.  Runs are addressed by :class:`RunRef`.

A fresh store is built in a temporary sibling directory — every shard
file already in WAL mode, schema'd and stamped — and renamed into place
in one step, so concurrent openers of a fresh path never see a
half-built store: the loser of the rename opens the winner's directory.
A path that is a regular file is refused at open: it is not a store
(the single-file layout of early versions included), and its rows
re-create from the universe with ``repro study --store NEW_DIR``.  So
is a shard file SQLite cannot read (cut short, or overwritten), with a
:class:`DamagedShardError` naming it when the shard is first touched.

Why resume is bit-identical
---------------------------

A resumed session starts a browser whose empty log carries the stored
``seq`` counter forward (so global ``seq`` numbering continues where it
stopped) with a *fresh* cookie jar.  That is safe because nothing the
log records depends on jar state carried across sites: the synthetic
servers never read request cookies (``Universe.fetch`` is a pure
function of URL, referrer and client context),
``CookieJar.store_from_response`` reports every parsed
cookie regardless of what the jar already holds, and minted
``document.cookie`` identifiers derive from (script host, cookie name,
client IP) only.  The per-site event stream is thus a pure function of
(universe, client, site), which ``tests/test_datastore.py`` asserts by
diffing an aborted-and-resumed crawl against an uninterrupted one.

The same property lets a stored crawl keep nothing: the crawler drops
its in-memory event lists once each site is on disk (positions continue
from persistent counters), so crawl RSS is bounded by one site's events
regardless of corpus size.  Before it does, the checkpoint writes the
site's map/merge partials in the same transaction
(:mod:`repro.datastore.incremental`).

It is also the purity contract behind **delta crawls**
(:mod:`repro.datastore.delta`): since a site's event slice is a pure
function of (universe content, client context), a slice stored for a
*previous epoch* can be spliced verbatim into a new run whenever the
site is unchanged — only ``run_id``, the row positions and the global
``seq`` values are rewritten to the new run's counters.  The copy never
leaves SQLite: :meth:`RunWriter.attach` attaches the baseline's shard
files read-only to this store's shard connections, and
:meth:`RunWriter.splice_many` runs one ``INSERT ... SELECT`` per event
table over each span of contiguous sites and shard, checking each row
count against the baseline's slice index, and one more for the span's
partials, in one transaction per touched shard.  The splice path shares
its position counters and timer with the live-checkpoint path, so a
run that mixes spliced and freshly crawled sites lays out rows exactly
as an uninterrupted full crawl would.

Concurrency: worker processes and threads each open their own
:class:`CrawlStore` on the same path; WAL plus a busy timeout serializes
writers, every checkpoint is one short transaction, and a write that
spans shards locks them in ascending order (:meth:`CrawlStore._txns`).
Cursor reads (:meth:`CrawlStore.iter_visits` et al.) open their own read
connections, so long scans never block a writer.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import os
import shutil
import sqlite3
import tempfile
import threading
import time
import urllib.parse
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

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
    "SiteSlice",
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


#: SQLite attaches at most this many databases to one connection (its
#: default ``SQLITE_MAX_ATTACHED``); a delta crawl against a baseline
#: with more shards than this runs as a normal crawl.
MAX_ATTACHED = 10

#: Distinct ``ATTACH`` aliases for writers sharing one connection.
_ATTACH_SERIAL = itertools.count()


def shard_of_domain(domain: str, shard_count: int) -> int:
    """The shard that owns ``domain``'s visits: ``sha256(domain) % N``."""
    if shard_count <= 1:
        return 0
    digest = hashlib.sha256(domain.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shard_count


class MissingRunError(RuntimeError):
    """A store-only consumer asked for a crawl the store does not hold."""


class DamagedShardError(ValueError):
    """A shard file SQLite cannot read: cut short, or not a database."""


@dataclass(frozen=True)
class RunRef:
    """Which run: its key and domain list hash, the same in every shard.

    ``RunState.run_id`` and ``RunManifest.run_id`` are the value to pass
    back into the read and write APIs.
    """

    run_key: str
    domains_hash: str


@dataclass(frozen=True)
class RunState:
    """Where one run stands: which sites are already on disk."""

    run_id: RunRef
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
    """One manifest row for ``repro store info``, fanned in across shards.

    ``run_id`` can be passed back into ``load_log`` / ``iter_*``.
    """

    run_id: RunRef
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


@dataclass(frozen=True)
class SiteSlice:
    """Where one completed site's rows live inside its run.

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

    def bounds(self) -> Dict[str, Tuple[int, int, int]]:
        """Event table -> ``(lo, hi, row count)`` of this site's rows."""
        return {
            "visits": (self.visits_start, self.visits_start + 1, 1),
            "requests": (self.requests_start,
                         self.requests_start + self.requests, self.requests),
            "cookies": (self.cookies_start,
                        self.cookies_start + self.cookies, self.cookies),
            "js_calls": (self.js_calls_start,
                         self.js_calls_start + self.js_calls, self.js_calls),
        }


def _slice_index(store: "CrawlStore", run: RunRef) -> Dict[str, SiteSlice]:
    """Prefix-sum a run's per-site counts into slices.

    Completion is always a position prefix (crawls visit in order and
    resume from where they stopped), so the walk stops at the first
    uncompleted site.
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


def _create_store(path: str, shards: int, timeout: float) -> None:
    """Build a ``shards``-way store at the fresh ``path``, atomically.

    The shard files are written, switched to WAL, schema'd and stamped
    in a temporary sibling directory, which is then renamed onto
    ``path``.  Losing that rename to a concurrent creator is not an
    error: the caller opens the winner's store.
    """
    if shards < 1:
        raise ValueError(f"a store needs at least 1 shard, not {shards}")
    parent, name = os.path.split(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=f".{name}.", suffix=".creating",
                               dir=parent)
    try:
        for index in range(shards):
            connection = sqlite3.connect(
                os.path.join(staging, SHARD_FILE_FORMAT.format(index=index)),
                timeout=timeout, isolation_level=None,
            )
            try:
                connection.execute("PRAGMA journal_mode=WAL")
                ensure_schema(connection)
                stamp_shard(connection, index, shards)
            finally:
                connection.close()
        try:
            os.rename(staging, path)
        except OSError:
            if not os.path.exists(path):
                raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)


class CrawlStore:
    """One crawl datastore: a directory of stamped SQLite shard files."""

    def __init__(self, path: str, *, timeout: float = 30.0,
                 shards: Optional[int] = None) -> None:
        """Open the store at ``path``, creating it when absent.

        ``shards`` is the shard count of a store created here (default
        1); on an existing store it must match, or be ``None``.
        """
        self.path = str(path)
        self._timeout = timeout
        self._lock = threading.RLock()
        #: Lifetime I/O counters for this handle: ``opens`` counts SQLite
        #: connections established (shared facade + per-cursor read
        #: connections), ``scans`` counts event range scans (one per
        #: cursor, one per :meth:`site_event_rows` call), and
        #: ``partial_scans`` the shard scans of :meth:`partial_rows`.  The
        #: trend CLI prints these per epoch under ``--stats``.
        self.io_stats: Dict[str, int] = {"opens": 0, "scans": 0,
                                         "partial_scans": 0}
        #: :meth:`_resolve` results for runs present in every shard.
        #: Runs are never deleted and a run row, once inserted, keeps its
        #: id, so a complete resolution cannot go stale.
        self._resolved: Dict[RunRef, List[Tuple[int, int]]] = {}

        if not os.path.exists(self.path):
            _create_store(self.path, 1 if shards is None else shards,
                          timeout)
        if not os.path.isdir(self.path):
            raise ValueError(
                f"{self.path} is a file, not a store directory of shard "
                "files; rebuild the store (its rows re-create from the "
                "universe) with `repro study --store NEW_DIR`"
            )
        existing = sorted(
            name for name in os.listdir(self.path)
            if name.startswith("shard-") and name.endswith(".sqlite")
        )
        if not existing:
            raise ValueError(f"{self.path} is a directory with no shards")
        if shards is not None and shards != len(existing):
            raise ValueError(
                f"store {self.path} has {len(existing)} shards, not {shards}"
            )
        self.shard_count = len(existing)
        self._shard_paths = [os.path.join(self.path, n) for n in existing]
        self._connections: List[Optional[sqlite3.Connection]] = (
            [None] * self.shard_count
        )
        # Opening shard 0 validates the store (schema version, shard
        # stamp); the remaining shards open on first touch.
        self._conn(0)

    # -- lifecycle ------------------------------------------------------

    def _conn(self, index: int) -> sqlite3.Connection:
        with self._lock:
            connection = self._connections[index]
            if connection is not None:
                return connection
            path = self._shard_paths[index]
            try:
                connection = self._open(path)
                ensure_schema(connection)
                stamp = shard_stamp(connection)
            except BaseException as exc:
                if connection is not None:
                    connection.close()
                # SQLite's corrupt and not-a-database errors are plain
                # DatabaseErrors; a busy lock raises a subclass.
                if type(exc) is sqlite3.DatabaseError:
                    raise DamagedShardError(
                        f"{path} is damaged ({exc}); rebuild the store "
                        "(its rows re-create from the universe) with "
                        "`repro study --store NEW_DIR`"
                    ) from None
                raise
            if stamp != (index, self.shard_count):
                connection.close()
                raise ValueError(
                    f"{self._shard_paths[index]} is stamped "
                    f"{stamp}, expected ({index}, {self.shard_count})"
                )
            self._connections[index] = connection
            return connection

    def _open(self, path: str) -> sqlite3.Connection:
        self.io_stats["opens"] += 1
        # An absolute path is never read as a URI; ``uri=True`` is for
        # the read-only baseline URIs RunWriter.attach hands to ATTACH.
        connection = sqlite3.connect(
            os.path.abspath(path), timeout=self._timeout,
            check_same_thread=False, uri=True,
            isolation_level=None,  # autocommit; transactions are explicit
        )
        connection.execute("PRAGMA synchronous=NORMAL")
        connection.execute(f"PRAGMA busy_timeout={int(self._timeout * 1000)}")
        return connection

    def _read_conn(self, index: int) -> sqlite3.Connection:
        """A private connection for one cursor scan.

        Cursors outlive any facade lock scope, so they never share the
        writer connection; WAL lets them read while checkpoints commit.
        """
        self._conn(index)  # validate the shard (schema, stamp) first
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
    def _txns(self, indexes: Sequence[int]):
        """One write transaction on each shard of ``indexes``; yields
        their connections in ascending shard order.

        The write locks are taken in ascending order, so two writers on
        one store never wait on each other in a cycle (``BEGIN
        IMMEDIATE`` waits out a busy shard for the busy timeout), and
        the commits run in the same order.  Each shard commits on its
        own: a kill between two commits tears a multi-shard write, which
        :meth:`open_run` repairs.
        """
        with self._lock:
            connections: List[sqlite3.Connection] = []
            try:
                for index in sorted(indexes):
                    connection = self._conn(index)
                    connection.execute("BEGIN IMMEDIATE")
                    connections.append(connection)
                yield connections
                for connection in connections:
                    connection.execute("COMMIT")
            except BaseException:
                for connection in connections:
                    if connection.in_transaction:
                        connection.execute("ROLLBACK")
                raise

    @contextmanager
    def _txn(self, index: int = 0):
        """One serialized write transaction on one shard."""
        with self._txns((index,)) as (connection,):
            yield connection

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

    def _resolve(self, run: RunRef) -> List[Tuple[int, int]]:
        """``(shard_index, local_run_id)`` for every shard holding the run."""
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

    def _local_id(self, run: RunRef, index: int) -> Optional[int]:
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
        keep_html: bool = True,
    ) -> RunState:
        """Find or create the manifest row(s) for one logical crawl.

        Every shard gets a manifest row (so fan-in readers need no side
        channel), with ``run_sites`` restricted to the shard's own
        domains at their global positions.
        """
        config_json = self._check_config(config)
        key = run_key(config, vantage, kind, keep_html=keep_html)
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
        self._truncate_torn(RunRef(key, dh))
        return self._run_state(key, dh, domains)

    def _truncate_torn(self, run: RunRef) -> None:
        """Cut a torn run back to its completed position prefix.

        A splice group commits one transaction per shard
        (:meth:`RunWriter.splice_many`), so a kill between two of those
        commits can leave sites completed after one that is not.  Rows
        sit at global positions that assume every earlier site is
        stored, so such a run cannot resume as it is: every row at or
        past each table's prefix end and every partial at or past the
        first gap is deleted, those sites' completion flags and counts
        are reset, and ``runs.seq`` drops to the prefix's counter.  Each
        shard is cut in its own transaction; a kill in between leaves a
        run this repairs again.
        """
        counts = self.run_site_counts(run)
        gap = next((at for at, row in enumerate(counts) if not row[2]),
                   len(counts))
        if not any(row[2] for row in counts[gap:]):
            return
        prefix = counts[:gap]
        ends = {"visits": len(prefix),
                "requests": sum(row[3] for row in prefix),
                "cookies": sum(row[4] for row in prefix),
                "js_calls": sum(row[5] for row in prefix)}
        position = counts[gap][0]
        for index, local_id in self._resolve(run):
            with self._txn(index) as conn:
                for table, end in ends.items():
                    conn.execute(f"DELETE FROM {table} WHERE run_id=?"
                                 " AND position>=?", (local_id, end))
                conn.execute("DELETE FROM partials WHERE run_id=?"
                             " AND position>=?", (local_id, position))
                conn.execute(
                    "UPDATE run_sites SET completed=0, elapsed=NULL,"
                    " requests=NULL, cookies=NULL, js_calls=NULL"
                    " WHERE run_id=? AND position>=?", (local_id, position))
                conn.execute("UPDATE runs SET seq=MIN(seq, ?) WHERE id=?",
                             (ends["requests"] + ends["cookies"], local_id))

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
        return RunState(
            run_id=ref, domains=tuple(domains),
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
        keep_html: bool = True,
    ) -> Optional[RunState]:
        """The run's state if it exists, without creating anything."""
        key = run_key(config, vantage, kind, keep_html=keep_html)
        dh = domains_hash(domains)
        with self._lock:
            row = self._conn(0).execute(
                "SELECT id FROM runs WHERE run_key=? AND domains_hash=?",
                (key, dh),
            ).fetchone()
        if row is None:
            return None
        return self._run_state(key, dh, domains)

    def run_writer(self, run: RunRef, universe) -> "RunWriter":
        """The per-site writer for one run of ``universe`` (checkpoints
        and splices)."""
        return RunWriter(self, run, universe)

    def checkpointer(self, run: RunRef, universe) -> Callable:
        """A per-site checkpoint callback for ``OpenWPMCrawler.crawl``.

        Each invocation appends one visited site's event rows and
        partials and marks the site complete in a single transaction
        *on that site's shard* — the atomic unit a kill can never tear.
        Event positions come from persistent counters seeded with the
        rows already stored, so the crawler can drop its event lists
        after every site.
        """
        return self.run_writer(run, universe).checkpoint

    def run_site_counts(
        self, run: RunRef
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

    def site_event_rows(self, run: RunRef, domain: str, table: str,
                        lo: int, hi: int) -> List[tuple]:
        """Raw serialized rows ``[lo, hi)`` of one event table.

        Rows come back as stored, without the run_id/position prefix,
        for :class:`~repro.datastore.StoredRows` to decode one site at a
        time.  All of a site's rows live in its own shard, so this is
        one range scan.
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

    def event_rows_in_range(self, run: RunRef, table: str,
                            lo: int, hi: int) -> List[tuple]:
        """``(position, *columns)`` rows in ``[lo, hi)``, across shards,
        in position order (``make delta-check`` digests whole runs with
        it)."""
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

    def position_ends(self, run: RunRef) -> Dict[str, int]:
        """Event table -> highest stored position of the run plus one
        (0 for no rows), across shards."""
        ends = dict.fromkeys(_EVENT_COLUMNS, 0)
        with self._lock:
            for index, local_id in self._resolve(run):
                connection = self._conn(index)
                for table in ends:
                    highest = connection.execute(
                        f"SELECT MAX(position) FROM {table} WHERE run_id=?",
                        (local_id,),
                    ).fetchone()[0]
                    if highest is not None:
                        ends[table] = max(ends[table], highest + 1)
        return ends

    def partial_rows(self, run: RunRef,
                     names: Optional[Sequence[str]] = None
                     ) -> List[Tuple[int, str, int, bytes]]:
        """``(position, analysis, analysis_version, payload)`` of the
        run's stored partials (of ``names`` only, if given), in
        (position, analysis) order: one range scan per shard."""
        select = ("SELECT position, analysis, analysis_version, payload"
                  " FROM partials WHERE run_id=?")
        if names is not None:
            select += f" AND analysis IN ({', '.join('?' * len(names))})"
        rows: List[Tuple[int, str, int, bytes]] = []
        with self._lock:
            for index, local_id in self._resolve(run):
                self.io_stats["partial_scans"] += 1
                rows.extend(self._conn(index).execute(
                    select, (local_id, *(names or ()))))
        rows.sort(key=lambda row: row[:2])
        return rows

    def partial_stats(self) -> Dict[str, Tuple[int, int]]:
        """Analysis -> ``(rows, payload bytes)`` over every shard."""
        totals: Dict[str, List[int]] = {}
        with self._lock:
            for index in range(self.shard_count):
                for name, *counts in self._conn(index).execute(
                        "SELECT analysis, COUNT(*), SUM(LENGTH(payload))"
                        " FROM partials GROUP BY analysis"):
                    total = totals.setdefault(name, [0, 0])
                    total[0] += counts[0]
                    total[1] += counts[1]
        return {name: tuple(totals[name]) for name in sorted(totals)}

    def finish_run(self, run: RunRef,
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

    def _run_header(self, run: RunRef) -> Tuple[str, str, int, str]:
        """``(country_code, client_ip, seq, kind)`` with seq fanned in as
        max."""
        handles = self._resolve(run)
        country = client_ip = kind = ""
        seq = 0
        with self._lock:
            for index, local_id in handles:
                row = self._conn(index).execute(
                    "SELECT country_code, client_ip, seq, kind FROM runs"
                    " WHERE id=?", (local_id,),
                ).fetchone()
                country, client_ip, kind = row[0], row[1], row[3]
                seq = max(seq, row[2])
        return country, client_ip, seq, kind

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

    def count_events(self, run: RunRef, table: str) -> int:
        """Total stored rows of one event table for a run."""
        if table not in ("visits", "requests", "cookies", "js_calls"):
            raise ValueError(f"unknown event table {table!r}")
        return self._count_rows(self._resolve(run), table)

    def _iter_rows(self, run: RunRef, table: str,
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

    def iter_visits(self, run: RunRef, *, batch: int = 1024):
        """Stored :class:`PageVisit` records in visit order."""
        for row in self._iter_rows(run, "visits", VISIT_COLUMNS, batch):
            yield visit_from_row(row)

    def iter_requests(self, run: RunRef, *, batch: int = 1024):
        """Stored :class:`RequestRecord` records in observation order."""
        for row in self._iter_rows(run, "requests", REQUEST_COLUMNS, batch):
            yield request_from_row(row)

    def iter_cookies(self, run: RunRef, *, batch: int = 1024):
        """Stored :class:`CookieRecord` records in observation order."""
        for row in self._iter_rows(run, "cookies", COOKIE_COLUMNS, batch):
            yield cookie_from_row(row)

    def iter_js_calls(self, run: RunRef, *, batch: int = 1024):
        """Stored :class:`JSCall` records in observation order."""
        for row in self._iter_rows(run, "js_calls", JSCALL_COLUMNS, batch):
            yield jscall_from_row(row)

    def load_log(self, run: RunRef) -> CrawlLog:
        """Reconstruct the (possibly partial) crawl log of a run.

        Rows stream through the batched cursors — nothing is ever
        ``fetchall``-ed — but the returned log is fully hydrated; its
        ``site_marks`` are the run's per-site slice starts.  Analyses
        that must stay bounded read the run one site at a time instead
        (:class:`~repro.datastore.incremental.StoredRows`).
        """
        country, client_ip, seq, _ = self._run_header(run)
        log = CrawlLog(country_code=country, client_ip=client_ip)
        log.visits = list(self.iter_visits(run))
        log.requests = list(self.iter_requests(run))
        log.cookies = list(self.iter_cookies(run))
        log.js_calls = list(self.iter_js_calls(run))
        log._seq = seq
        log.site_marks = [
            (s.domain, s.visits_start, s.requests_start, s.cookies_start,
             s.js_calls_start)
            for s in _slice_index(self, run).values()
        ]
        return log

    def run_manifests(self) -> List[RunManifest]:
        """Every run with completion, per-table counts, and timings.

        Per-shard manifest rows fan back into one row per logical run
        (counts summed, ``finished`` only when every shard is stamped).  Per-table tallies are ``COUNT(*)`` index-range
        counts — never Python-side cursor iteration — so ``repro store
        info -v`` stays milliseconds on stores holding millions of
        event rows.
        """
        query = """
            SELECT r.run_key, r.domains_hash, r.kind, r.country_code,
                   r.client_ip, r.total_sites,
                   (SELECT COUNT(*) FROM run_sites s
                     WHERE s.run_id = r.id AND s.completed = 1),
                   (SELECT COUNT(*) FROM visits v WHERE v.run_id = r.id),
                   (SELECT COUNT(*) FROM requests q WHERE q.run_id = r.id),
                   (SELECT COUNT(*) FROM cookies c WHERE c.run_id = r.id),
                   (SELECT COUNT(*) FROM js_calls j WHERE j.run_id = r.id),
                   r.elapsed, r.started_at, r.finished_at, r.stats_json
              FROM runs r ORDER BY r.id
        """
        merged: Dict[Tuple[str, str], List] = {}
        with self._lock:
            for index in range(self.shard_count):
                for row in self._conn(index).execute(query):
                    entry = merged.get(row[:2])
                    if entry is None:
                        merged[row[:2]] = list(row)
                        continue
                    for slot in range(5, 12):  # site/row counts, elapsed
                        entry[slot] += row[slot]
                    entry[12] = min(entry[12], row[12])
                    entry[13] = (
                        None if entry[13] is None or row[13] is None
                        else max(entry[13], row[13])
                    )
                    entry[14] = entry[14] or row[14]
        return [
            RunManifest(
                run_id=RunRef(key, dh), run_key=key, kind=kind,
                country_code=country, client_ip=client_ip,
                total_sites=total, completed_sites=completed,
                visits=visits, requests=requests, cookies=cookies,
                js_calls=js_calls, elapsed=elapsed, started_at=started,
                finished_at=finished,
                stats=json.loads(stats) if stats else None,
            )
            for (key, dh, kind, country, client_ip, total, completed, visits,
                 requests, cookies, js_calls, elapsed, started, finished,
                 stats) in merged.values()
        ]

    def shard_infos(self) -> List[ShardInfo]:
        """Per-shard file size and row counts."""
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
    :meth:`splice_many` is the delta-crawl fast path that copies a prior
    run's rows inside SQLite without rendering the site
    (:func:`repro.datastore.delta.delta_crawl`).
    """

    def __init__(self, store: CrawlStore, run: RunRef, universe) -> None:
        """Each site's partials are mapped with ``universe``'s mapper
        for the analyses the run feeds (see :class:`~repro.datastore.
        incremental.SitePartials`)."""
        from .incremental import SitePartials

        self._store = store
        self._run = run
        country, client_ip, _, kind = store._run_header(run)
        self._partials = SitePartials(universe, country, kind, client_ip)
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
        #: ``(shard index, alias)`` of every baseline attachment.
        self._attached: List[Tuple[int, str]] = []

    def checkpoint(self, domain: str, log: CrawlLog,
                   marks: Tuple[int, int, int, int]) -> None:
        """Persist one freshly visited site's event rows and partials
        (see :meth:`CrawlStore.checkpointer`)."""
        partials = self._partials.from_log(log, marks)
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
            conn.executemany(
                "INSERT INTO partials VALUES (?, ?, ?, ?, ?)",
                [(local_id, position) + row for row in partials],
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

    def attach(self, baseline: CrawlStore, run: RunRef) -> None:
        """Attach ``baseline``'s shard files, read-only, to every shard
        connection of this store, as the source :meth:`splice_many`
        copies ``run``'s rows from.

        The ``file:...?mode=ro`` URI matters: ``BEGIN IMMEDIATE`` takes
        a write lock on every attached database it could write, but only
        a read transaction on a read-only one, so splicing never
        write-locks the baseline.  When a connection refuses an attach
        (SQLite allows :data:`MAX_ATTACHED` per connection) whatever was
        attached is detached again and the error propagates.  Pair with
        :meth:`detach` in a ``finally``.
        """
        serial = next(_ATTACH_SERIAL)
        local_ids = dict(baseline._resolve(run))
        self._base_ids = [local_ids.get(index)
                          for index in range(baseline.shard_count)]
        self._aliases = [f"base{serial}_{index}"
                         for index in range(baseline.shard_count)]
        self._copy_sql = {
            (table, alias): _copy_statement(table, alias)
            for table in _EVENT_COLUMNS for alias in self._aliases
        }
        # Partials only at their current version; NULL matches nothing.
        current = ", ".join(f"('{name}', {version})" for name, version
                            in self._partials.versions.items())
        for alias in self._aliases:
            self._copy_sql["partials", alias] = (
                "INSERT INTO main.partials SELECT :run, position + :moved,"
                f" analysis, analysis_version, payload FROM {alias}.partials"
                " WHERE run_id=:base AND position>=:first"
                " AND position<:end AND (analysis, analysis_version)"
                f" IN (VALUES {current or '(NULL, NULL)'})")
        try:
            with self._store._lock:
                for index in range(self._store.shard_count):
                    connection = self._store._conn(index)
                    for alias, path in zip(self._aliases,
                                           baseline._shard_paths):
                        uri = ("file:" + urllib.parse.quote(
                            os.path.abspath(path)) + "?mode=ro")
                        connection.execute(f"ATTACH DATABASE ? AS {alias}",
                                           (uri,))
                        self._attached.append((index, alias))
        except BaseException:
            self.detach()
            raise

    def detach(self) -> None:
        """Detach what :meth:`attach` attached (a no-op otherwise)."""
        with self._store._lock:
            while self._attached:
                index, alias = self._attached.pop()
                self._store._conn(index).execute(f"DETACH DATABASE {alias}")

    def _spans(self, items: Sequence[Tuple[SiteSlice, int]]
               ) -> List[List[Tuple[SiteSlice, int]]]:
        """Cut consecutive ``(slice, seq_delta)`` sites into spans.

        A span's sites are contiguous in both the baseline and this run
        and share one ``seq_delta``, and each of its baseline shards
        maps to one shard of this store, so every table's rows of a
        (baseline shard, shard) pair are one position range moved by one
        constant.  Stores with equal shard counts map shard to shard, so
        a group of spliceable sites is then one span.
        """
        spans: List[List[Tuple[SiteSlice, int]]] = []
        targets: Dict[int, int] = {}
        last: Optional[Tuple[SiteSlice, int, int]] = None
        for item in items:
            slice_, seq_delta = item
            index, _, position = self._site_shard[slice_.domain]
            base = shard_of_domain(slice_.domain, len(self._aliases))
            if last is None or (slice_.position, position, seq_delta) != (
                    last[0].position + 1, last[2] + 1, last[1]) \
                    or targets.get(base, index) != index:
                spans.append([])
                targets = {}
            spans[-1].append(item)
            targets[base] = index
            last = (slice_, seq_delta, position)
        return spans

    def _copy_span(self, span: Sequence[Tuple[SiteSlice, int]],
                   site_elapsed: float) -> bool:
        """Copy one span's baseline rows inside the open transactions.

        Per (baseline shard, shard) pair: one ``INSERT ... SELECT`` per
        event table over the span's row range, checked against the
        slices' counts; one for the partials over the span's positions;
        and one ``executemany`` flagging the sites complete.  False as
        soon as a count disagrees; the caller then rolls the span back.
        The counters only advance once every copy matched.  Partials are
        copied only at their current ``ANALYSIS_VERSIONS``; a site short
        of one has it mapped from the rows just copied, in the same
        transaction.
        """
        first, seq_delta = span[0]
        last = span[-1][0]
        moved = self._site_shard[first.domain][2] - first.position
        ranges = {table: (lo, last.bounds()[table][1])
                  for table, (lo, _, _) in first.bounds().items()}
        pairs: Dict[Tuple[int, int], List[SiteSlice]] = {}
        for slice_, _ in span:
            pairs.setdefault(
                (shard_of_domain(slice_.domain, len(self._aliases)),
                 self._site_shard[slice_.domain][0]), []).append(slice_)
        names = self._partials.names
        for (base, index), slices in pairs.items():
            base_id = self._base_ids[base]
            if base_id is None:
                return False
            alias = self._aliases[base]
            local_id = self._site_shard[slices[0].domain][1]
            conn = self._store._conn(index)
            params = {"run": local_id, "base": base_id, "seq": seq_delta}
            for table, (lo, hi) in ranges.items():
                params.update(shift=self._counters[table] - lo, lo=lo, hi=hi)
                expected = sum(slice_.bounds()[table][2] for slice_ in slices)
                if conn.execute(self._copy_sql[table, alias],
                                params).rowcount != expected:
                    return False
            copied = conn.execute(
                self._copy_sql["partials", alias],
                dict(params, moved=moved, first=first.position,
                     end=last.position + 1)).rowcount
            if copied < len(names) * len(slices):
                self._map_missing_partials(conn, local_id, slices, ranges,
                                           moved)
            conn.executemany(
                "UPDATE run_sites SET completed=1, elapsed=?, requests=?,"
                " cookies=?, js_calls=? WHERE run_id=? AND position=?",
                [(site_elapsed, slice_.requests, slice_.cookies,
                  slice_.js_calls, local_id, slice_.position + moved)
                 for slice_ in slices])
        for table, (lo, hi) in ranges.items():
            self._counters[table] += hi - lo
        return True

    def _map_missing_partials(self, conn: sqlite3.Connection, local_id: int,
                              slices: Sequence[SiteSlice],
                              ranges: Dict[str, Tuple[int, int]],
                              moved: int) -> None:
        """Map the partials the copy left out (stale or missing in the
        baseline) from the span's rows just copied into this store."""
        names = self._partials.names
        held: Dict[int, set] = {}
        for position, name in conn.execute(
                "SELECT position, analysis FROM main.partials"
                " WHERE run_id=? AND position>=? AND position<?",
                (local_id, slices[0].position + moved,
                 slices[-1].position + moved + 1)):
            held.setdefault(position, set()).add(name)
        for slice_ in slices:
            position = slice_.position + moved
            missing = [name for name in names
                       if name not in held.get(position, ())]
            if not missing:
                continue
            bounds = slice_.bounds()
            rows = {}
            for table in self._partials.tables:
                lo = self._counters[table] + bounds[table][0] \
                    - ranges[table][0]
                rows[table] = self._store.site_event_rows(
                    self._run, slice_.domain, table, lo,
                    lo + bounds[table][2])
            conn.executemany(
                "INSERT INTO main.partials VALUES (?, ?, ?, ?, ?)",
                [(local_id, position) + row
                 for row in self._partials.from_stored(rows, missing)])

    def _in_savepoint(self, indexes: Sequence[int], copy: Callable[[], bool]
                      ) -> bool:
        """Run ``copy`` in a savepoint on each shard of ``indexes``,
        rolled back on every one of them when it returns False."""
        connections = [self._store._conn(index) for index in indexes]
        for connection in connections:
            connection.execute("SAVEPOINT splice_span")
        landed = copy()
        for connection in connections:
            if not landed:
                connection.execute("ROLLBACK TO splice_span")
            connection.execute("RELEASE splice_span")
        return landed

    def splice(self, item: Tuple[SiteSlice, int],
               site_elapsed: float) -> bool:
        """Splice one ``(slice, seq_delta)`` site inside the transactions
        :meth:`splice_many` holds open, in its own savepoint; False, with
        nothing written, when its baseline rows disagree with the slice.
        """
        index = self._site_shard[item[0].domain][0]
        return self._in_savepoint(
            (index,), lambda: self._copy_span((item,), site_elapsed))

    def splice_many(self, items: Sequence[Tuple[SiteSlice, int]]) -> int:
        """Splice consecutive ``(slice, seq_delta)`` sites from the
        attached baseline; returns how many of them (a prefix) landed.

        The sites are cut into spans (:meth:`_spans`; one span per call
        when both stores have the same shard count), and each span is
        copied per shard pair with one ``INSERT ... SELECT`` per event
        table over its row range (``run_id`` replaced, positions and the
        request and cookie ``seq`` values shifted by constants), one for
        its current partials over its positions, and one ``executemany``
        for its completions (:meth:`_copy_span`).

        The call is one transaction per shard it touches, begun in
        ascending shard order (:meth:`CrawlStore._txns`), with a
        savepoint per span.  A row count that disagrees with the slices
        (a baseline torn or edited behind its manifest) rolls that span
        back, and it is redone site by site (:meth:`splice`) up to the
        site that disagrees: the sites before it land, the call ends
        there and the caller visits that site for real.  Per-site commit
        overhead was the dominant splice cost; coarsening crash
        granularity is safe because spliced sites are nearly free to
        redo, and a kill between two shards' commits leaves a torn run
        that :meth:`CrawlStore.open_run` cuts back to its completed
        prefix on resume.  Each shard's ``runs.seq`` is the counter
        after its own last landed site, as after a checkpoint.
        """
        if not items:
            return 0
        now = time.perf_counter()
        site_elapsed = (now - self._last) / len(items)
        shards = sorted({self._site_shard[slice_.domain][0]
                         for slice_, _ in items})
        done = 0
        # shard -> (local run id, seq after its last landed site, sites)
        landed: Dict[int, Tuple[int, int, int]] = {}
        with self._store._txns(shards):
            for span in self._spans(items):
                if self._in_savepoint(
                        shards, lambda: self._copy_span(span, site_elapsed)):
                    count = len(span)
                else:
                    count = 0
                    while count < len(span) \
                            and self.splice(span[count], site_elapsed):
                        count += 1
                for slice_, seq_delta in span[:count]:
                    index, local_id, _ = self._site_shard[slice_.domain]
                    sites = landed.get(index, (0, 0, 0))[2]
                    landed[index] = (
                        local_id, slice_.seq_start + slice_.seq_span
                        + seq_delta, sites + 1)
                done += count
                if count < len(span):
                    break
            for index, (local_id, seq, sites) in landed.items():
                self._store._conn(index).execute(
                    "UPDATE runs SET seq=?, elapsed=elapsed+? WHERE id=?",
                    (seq, site_elapsed * sites, local_id))
        if done:
            self._last = now
        return done


def _copy_statement(table: str, alias: str) -> str:
    """``INSERT ... SELECT`` copying one row range of ``table`` from the
    attached ``alias`` (named parameters: see ``RunWriter._copy_span``)."""
    columns = _EVENT_COLUMNS[table]
    selected = ", ".join("seq + :seq" if column == "seq" else column
                         for column in columns)
    return (
        f"INSERT INTO main.{table} (run_id, position, {', '.join(columns)})"
        f" SELECT :run, position + :shift, {selected} FROM {alias}.{table}"
        " WHERE run_id=:base AND position>=:lo AND position<:hi"
        " ORDER BY position"
    )


# ----------------------------------------------------------------------
# The crawl-through-the-store entry point
# ----------------------------------------------------------------------

#: In-process serialization of same-run crawls.  The service's worker
#: pool may execute two jobs that need the same logical run (same
#: run_key + domains_hash) concurrently; without a lock both would
#: resume the run and race to insert the same row positions.  The loser
#: of this lock finds the run complete and crawls nothing.  Keyed by
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
    keep_html: bool = True,
    baseline: Optional["CrawlStore"] = None,
    progress=None,
) -> RunRef:
    """Complete one crawl in the store and return its :class:`RunRef`.

    Fully stored runs are left as they are, without touching a browser;
    partially stored runs resume at the first missing site
    (bit-identical to an uninterrupted session — see the module
    docstring); fresh runs crawl from scratch.  Every visited site is
    checkpointed and then dropped from memory, so peak memory is bounded
    by one site's events; readers go through the store
    (:class:`~repro.datastore.StoredRows`, or :meth:`CrawlStore.load_log`
    for a whole log).  Each checkpoint writes the site's partials with
    its rows (:class:`RunWriter`).

    ``baseline`` turns the crawl into a **delta crawl**: when the
    baseline store holds the matching run for an *earlier epoch of the
    universe's evolution chain*, unchanged sites are spliced from the
    baseline's stored rows instead of being rendered
    (:mod:`repro.datastore.delta`).  The result is byte-identical to a
    full crawl by construction; when preconditions fail the delta layer
    degrades to a normal crawl.

    ``progress(event, **fields)`` observes the crawl: ``run_started``
    fires once up front (with ``completed`` telling how many sites the
    store already held — 0 for a fresh run, ``total`` for a stored one),
    the crawler's per-site ``site_started``/``site_finished`` hooks fire
    for every *remaining* site, and ``run_finished`` fires once the run
    manifest is stamped.  Concurrent callers targeting the same logical
    run serialize on an in-process lock; the second caller finds the
    rows stored and crawls nothing.
    """
    from ..crawler.openwpm import OpenWPMCrawler
    from ..html.parser import parse_cache_stats

    domains = list(domains)
    key = run_key(universe.config, vantage, kind, keep_html=keep_html)
    with _run_lock(store.path, key, domains_hash(domains)):
        state = store.open_run(universe.config, vantage, kind, domains,
                               keep_html=keep_html)
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
            return state.run_id
        fetch_before = _cache_snapshot(universe.fetch_cache.stats)
        parse_before = _cache_snapshot(parse_cache_stats())
        delta_stats = None
        if baseline is not None:
            from .delta import delta_crawl
            outcome = delta_crawl(
                store, universe, vantage, kind, domains, state, baseline,
                keep_html=keep_html, progress=progress,
            )
            if outcome is not None:
                delta_stats = outcome[1]
        if delta_stats is None:
            # Stored rows are never re-materialized: the crawl starts
            # from an empty log that carries the seq counter forward.
            log = CrawlLog(country_code=vantage.country_code,
                           client_ip=vantage.client_ip)
            log._seq = state.seq
            crawler = OpenWPMCrawler(universe, vantage, keep_html=keep_html)
            crawler.crawl(remaining, log=log,
                          checkpoint=store.checkpointer(state.run_id,
                                                        universe),
                          progress=progress)
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
        return state.run_id
