"""Persistent per-site results computed before any crawl: the
aggregate cache.

The §3 sanitize verdicts and the Selenium inspection pass are pure
functions of a site's served content and the vantage, and both run
before the crawl, so they have no stored rows to sit beside (a crawled
site's map/merge partials are written with its rows, see
:mod:`repro.datastore.incremental`).  Keyed on the site's *analysis*
content hash (:class:`repro.webgen.evolve.AnalysisHashIndex`) they stay
valid for as long as the site's served content stays unchanged; across
epochs that is most of the corpus, so an evolved epoch re-sanitizes and
re-inspects only the churn.

This module is the persistence layer: one small SQLite database holding
an ``analysis_aggregates`` table next to the shard files.  The primary
key is ``(analysis_key, analysis_version, site_domain, content_hash,
run_ref)``:

* ``analysis_key`` folds the result's name together with a vantage-point
  digest (content hashes are vantage-independent by design, what a site
  shows a vantage is not);
* ``analysis_version`` is the code version of the producer
  (:data:`repro.core.mapmerge.ANALYSIS_VERSIONS`); bumping it orphans
  every cached row of that result;
* ``content_hash`` is the self-invalidating part: a churned site hashes
  differently, so its stale rows are simply never looked up again;
* ``run_ref`` records provenance (which candidate or corpus list
  produced the row) — lookups deliberately ignore it.

Payloads are :func:`~repro.datastore.serialize.pack_value` bytes.
Corrupt or unreadable rows are treated as misses (the caller recomputes
the site), never as answers: a wrong table is the one failure mode this
cache must not have.
"""

from __future__ import annotations

import os
import re
import sqlite3
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

from .serialize import pack_value, unpack_value

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

    def get_many(self, analysis_key: str, analysis_version: int,
                 wanted: Dict[str, str], *,
                 convert: Optional[Callable[[object], object]] = None,
                 ) -> Dict[str, object]:
        """Batch lookup: ``{site_domain: value}`` for every hit.

        ``wanted`` maps each site to the content hash it must match.
        One scan of the result's rows replaces one query per site.  A
        match counts a hit, a site with none a miss, and a match that
        fails to decode a miss and a corrupt row; the newest row wins
        when several match.
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
        for domain, payload in matched.items():
            try:
                value = unpack_value(payload)
                results[domain] = value if convert is None \
                    else convert(value)
                self.stats.hits += 1
            except Exception:
                self.stats.misses += 1
                self.stats.corrupt += 1
        self.stats.misses += len(wanted) - len(matched)
        return results

    def put_many(
        self,
        rows: Iterable[Tuple[str, int, str, str, str, object]],
    ) -> None:
        """Insert many rows in one transaction (idempotent)."""
        now = time.time()
        encoded = [
            (key, version, domain, content_hash, run_ref,
             pack_value(value), now)
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

    def persist_stats(self) -> None:
        """Record this process's counters as the cache's last-study stats."""
        import json

        payload = json.dumps(asdict(self.stats), sort_keys=True)
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
