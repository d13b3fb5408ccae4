"""Persistent per-site analysis partials: the map/merge aggregate cache.

The incremental analysis engine (:mod:`repro.datastore.incremental`)
expresses each cacheable analysis as ``map(site rows) -> partial`` +
``merge(partials) -> table``.  Partials are tiny compared to the event
rows they summarize, and — keyed on the site's *analysis* content hash
(:class:`repro.webgen.evolve.AnalysisHashIndex`) — they stay valid for
as long as the site's served content and every attribution fact an
analysis can read stay unchanged.  Across epochs that is the ~95% of
sites a delta crawl splices, so analyzing epoch N+1 only maps the churn.

This module is the persistence layer: one small SQLite database holding
an ``analysis_aggregates`` table next to the shard files.  The primary
key is the ISSUE's five-tuple ``(analysis_key, analysis_version,
site_domain, content_hash, run_ref)``:

* ``analysis_key`` folds the analysis name together with the run kind,
  a vantage-point digest, and the ``keep_html`` flag — everything that
  selects *which* observed rows a site contributes (content hashes are
  vantage-independent by design, partials are not);
* ``analysis_version`` is the code version of the map function
  (:data:`repro.core.mapmerge.ANALYSIS_VERSIONS`); bumping it orphans
  every cached partial of that analysis;
* ``content_hash`` is the self-invalidating part: a churned site hashes
  differently, so its stale partials are simply never looked up again;
* ``run_ref`` records provenance (which stored run produced the rows)
  — lookups deliberately ignore it, because two runs that agree on all
  other key parts are byte-identical by the store's purity contract.

Corrupt or unreadable rows are treated as misses (the engine falls back
to mapping the site), never as answers: a wrong table is the one failure
mode this cache must not have.
"""

from __future__ import annotations

import gc
import marshal
import os
import re
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

__all__ = ["AggregateStore", "AggregateCacheStats", "aggregates_path"]

AGGREGATES_FILE = "aggregates.sqlite"

#: Epoch sibling stores (``<store>-eN``, see
#: :func:`repro.service.jobs.epoch_store_path`) share the base store's
#: cache — cross-epoch reuse is the entire point of the cache.
_EPOCH_SUFFIX = re.compile(r"-e\d+$")

_DDL = """
CREATE TABLE IF NOT EXISTS analysis_aggregates (
    analysis_key     TEXT NOT NULL,
    analysis_version INTEGER NOT NULL,
    site_domain      TEXT NOT NULL,
    content_hash     TEXT NOT NULL,
    run_ref          TEXT NOT NULL,
    payload          BLOB NOT NULL,
    created_at       REAL NOT NULL,
    PRIMARY KEY (analysis_key, analysis_version, site_domain,
                 content_hash, run_ref)
);
CREATE TABLE IF NOT EXISTS aggregate_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


def _encode(value: object) -> bytes:
    """Serialize one partial with marshal, behind a one-byte ``M`` tag.

    Partials are plain tuples/dicts of primitives by the map/merge
    contract, and ``marshal`` decodes those several times faster than
    pickle — a warm study decodes every partial of the corpus, so the
    codec is on the hot path.  Marshal also cannot run code on load,
    which pickle can: the cache file is as exposed as the store it sits
    in.  A value marshal cannot take raises ``ValueError``.
    """
    return b"M" + marshal.dumps(value, 4)


def _decode(payload: bytes) -> object:
    """Inverse of :func:`_encode`; raises on any malformed payload —
    including the ``P`` (pickle) tag older caches wrote, which is never
    loaded."""
    tag, body = payload[:1], payload[1:]
    if tag == b"M":
        return marshal.loads(body)
    raise ValueError(f"unknown aggregate payload tag {tag!r}")


def aggregates_path(store_path: str) -> str:
    """Where a store's aggregate cache lives: ``aggregates.sqlite``
    inside the store directory, beside the shard files (as
    :func:`repro.service.jobs.journal_path` keeps the job journal).  An
    ``-eN`` epoch suffix is stripped first so every epoch sibling of a
    longitudinal series resolves to the *base* store's cache file.
    """
    return os.path.join(_EPOCH_SUFFIX.sub("", str(store_path)),
                        AGGREGATES_FILE)


@dataclass
class AggregateCacheStats:
    """Hit/miss counters for one process's use of the cache."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "corrupt": self.corrupt}


class AggregateStore:
    """The ``analysis_aggregates`` SQLite cache next to the shard files.

    One connection, serialized by a lock (the write volume is a few
    thousand tiny rows per epoch — contention is not the bottleneck),
    WAL so a concurrently-running study can read while another warms.
    """

    def __init__(self, path: str, *, timeout: float = 30.0) -> None:
        self.path = str(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            self.path, timeout=timeout, check_same_thread=False,
            isolation_level=None,
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_DDL)
        self.stats = AggregateCacheStats()

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "AggregateStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the cache proper ----------------------------------------------

    def get(self, analysis_key: str, analysis_version: int,
            site_domain: str, content_hash: str) -> Optional[object]:
        """The cached partial for one (analysis, site, content) triple.

        ``run_ref`` is not part of the lookup: any run that agrees on
        the other four key parts produced identical rows (store purity),
        so the newest row wins.  Returns ``None`` — and counts a miss —
        when absent or unreadable.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM analysis_aggregates"
                " WHERE analysis_key=? AND analysis_version=?"
                " AND site_domain=? AND content_hash=?"
                " ORDER BY created_at DESC LIMIT 1",
                (analysis_key, analysis_version, site_domain, content_hash),
            ).fetchone()
        if row is None:
            self.stats.misses += 1
            return None
        try:
            value = _decode(row[0])
        except Exception:
            # A torn write or bit rot must degrade to a recompute, never
            # to a wrong table.
            self.stats.misses += 1
            self.stats.corrupt += 1
            return None
        self.stats.hits += 1
        return value

    def get_many(self, analysis_key: str, analysis_version: int,
                 wanted: Dict[str, str], *,
                 convert: Optional[Callable[[object], object]] = None,
                 ) -> Dict[str, object]:
        """Batch lookup: ``{site_domain: partial}`` for every hit.

        ``wanted`` maps each site to the content hash it must match.
        One scan of the analysis's rows replaces one query per site —
        an incremental study looks every corpus site up on every pass,
        and the per-call round-trips dominate a fully warm pass.  Hit,
        miss, and corrupt accounting matches :meth:`get` row for row;
        like there, the newest row wins when several match.
        ``convert`` turns each decoded row into the caller's value; a
        row it rejects (raises on) counts as corrupt, like a payload
        that fails to decode.
        """
        if not wanted:
            return {}
        with self._lock:
            rows = self._conn.execute(
                "SELECT site_domain, content_hash, payload"
                " FROM analysis_aggregates"
                " WHERE analysis_key=? AND analysis_version=?"
                " ORDER BY created_at ASC",
                (analysis_key, analysis_version),
            ).fetchall()
        matched: Dict[str, bytes] = {}
        for domain, content_hash, payload in rows:
            if wanted.get(domain) == content_hash:
                matched[domain] = payload
        results: Dict[str, object] = {}
        # Decoding a whole corpus of partials allocates hundreds of
        # thousands of small tuples in one burst; with a large live heap
        # (a built universe) the allocation-count trigger would run
        # several full collections *inside* the burst, each scanning the
        # whole heap.  None of the new objects are garbage — they all go
        # into ``results`` — so pause collection for the burst.
        gc_enabled = gc.isenabled()
        if gc_enabled:
            gc.disable()
        try:
            for domain, payload in matched.items():
                try:
                    value = _decode(payload)
                    results[domain] = value if convert is None \
                        else convert(value)
                    self.stats.hits += 1
                except Exception:
                    self.stats.misses += 1
                    self.stats.corrupt += 1
        finally:
            if gc_enabled:
                gc.enable()
        self.stats.misses += len(wanted) - len(matched)
        return results

    def put(self, analysis_key: str, analysis_version: int,
            site_domain: str, content_hash: str, run_ref: str,
            value: object) -> None:
        self.put_many([(analysis_key, analysis_version, site_domain,
                        content_hash, run_ref, value)])

    def put_many(
        self,
        rows: Iterable[Tuple[str, int, str, str, str, object]],
    ) -> None:
        """Insert many partials in one transaction (idempotent)."""
        now = time.time()
        encoded = [
            (key, version, domain, content_hash, run_ref,
             _encode(value), now)
            for key, version, domain, content_hash, run_ref, value in rows
        ]
        if not encoded:
            return
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO analysis_aggregates"
                    " (analysis_key, analysis_version, site_domain,"
                    "  content_hash, run_ref, payload, created_at)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?)",
                    encoded,
                )
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")

    # -- introspection (``repro store info -v``) ------------------------

    def row_count(self) -> int:
        with self._lock:
            return self._conn.execute(
                "SELECT COUNT(*) FROM analysis_aggregates"
            ).fetchone()[0]

    def total_bytes(self) -> int:
        """Total payload bytes cached (not file size — the useful part)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT COALESCE(SUM(LENGTH(payload)), 0)"
                " FROM analysis_aggregates"
            ).fetchone()
        return row[0]

    def per_analysis_rows(self) -> Dict[str, int]:
        """Row counts grouped by the analysis name prefix of the key."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT analysis_key, COUNT(*) FROM analysis_aggregates"
                " GROUP BY analysis_key"
            ).fetchall()
        counts: Dict[str, int] = {}
        for key, count in rows:
            name = key.split(":", 1)[0]
            counts[name] = counts.get(name, 0) + count
        return counts

    def persist_stats(self) -> None:
        """Record this process's counters as the cache's last-study stats."""
        import json

        payload = json.dumps(self.stats.as_dict(), sort_keys=True)
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute(
                    "INSERT OR REPLACE INTO aggregate_meta (key, value)"
                    " VALUES ('last_study', ?)",
                    (payload,),
                )
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")

    def last_study_stats(self) -> Optional[Dict[str, int]]:
        import json

        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM aggregate_meta WHERE key='last_study'"
            ).fetchone()
        if row is None:
            return None
        try:
            return json.loads(row[0])
        except ValueError:
            return None
