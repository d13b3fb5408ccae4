"""Single-file store migration: ``repro store reshard``.

Older versions wrote a crawl store as one SQLite file (the v1 layout),
which :class:`~repro.datastore.store.CrawlStore` no longer opens.
:func:`reshard_store` converts such a file, once, into the N-shard
directory every store now is (``N = 1`` keeps one shard).  The
conversion preserves every event row *and its global position*, so
cursors over the resharded store yield the exact row sequence of the
source — ``tests/test_sharded_store.py`` asserts byte-identical reports
across the migration.

Routing matches the live write path (``sha256(site_domain) % N`` of the
*visited* site):

* ``visits`` carry their site domain and route directly;
* ``partials`` sit at their site's run position, and route with it;
* ``requests``/``cookies``/``js_calls`` carry no reliable site column
  (a JS call's ``document_host`` may be an iframe's), so they route by
  *slice*: ``run_sites`` records each completed site's per-table counts,
  completed sites are always a position-order prefix (resume preserves
  order), and event rows were appended one site at a time — cumulative
  counts therefore cut the position-ordered stream into per-site slices.

Everything streams through ``fetchmany``; peak memory is one batch of
rows regardless of store size.
"""

from __future__ import annotations

import os
import sqlite3
from typing import Dict, Iterator, List, Sequence, Tuple

from .schema import ensure_schema, stamp_shard
from .serialize import (
    COOKIE_COLUMNS,
    JSCALL_COLUMNS,
    REQUEST_COLUMNS,
    VISIT_COLUMNS,
)
from .store import SHARD_FILE_FORMAT, shard_of_domain

__all__ = ["reshard_store"]

_BATCH = 2048


def _batched(cursor) -> Iterator[tuple]:
    while True:
        rows = cursor.fetchmany(_BATCH)
        if not rows:
            return
        yield from rows


def reshard_store(src_path: str, dst_path: str, *, shards: int) -> List[str]:
    """Convert the v1 store at ``src_path`` into an N-shard directory.

    Returns the created shard file paths.  The source is opened
    read-only and left untouched; the destination must not exist.
    """
    if shards < 1:
        raise ValueError("a store needs at least 1 shard")
    if not os.path.isfile(src_path):
        raise ValueError(f"{src_path} is not a v1 single-file store")
    if os.path.exists(dst_path):
        raise ValueError(f"refusing to overwrite {dst_path}")

    src = sqlite3.connect(f"file:{src_path}?mode=ro", uri=True)
    try:
        ensure_schema(src)  # raises SchemaError on version mismatch
        if src.execute(
            "SELECT 1 FROM meta WHERE key='shard_index'"
        ).fetchone():
            raise ValueError(f"{src_path} is already a shard file")

        os.makedirs(dst_path)
        paths = [
            os.path.join(dst_path, SHARD_FILE_FORMAT.format(index=i))
            for i in range(shards)
        ]
        dst = [sqlite3.connect(path) for path in paths]
        try:
            for index, conn in enumerate(dst):
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=OFF")  # bulk load; rebuildable
                ensure_schema(conn)
                stamp_shard(conn, index, shards)
                conn.execute("BEGIN")
            _copy_meta(src, dst)
            for run in src.execute(
                "SELECT id, run_key, kind, country_code, client_ip,"
                " config_json, vantage_json, domains_hash, seq, started_at,"
                " finished_at, stats_json FROM runs ORDER BY id"
            ).fetchall():
                _copy_run(src, dst, shards, run)
            _copy_artifacts(src, dst[0])
            for conn in dst:
                conn.execute("COMMIT")
        finally:
            for conn in dst:
                conn.close()
        return paths
    finally:
        src.close()


def _copy_meta(src: sqlite3.Connection, dst: Sequence[sqlite3.Connection]) -> None:
    row = src.execute(
        "SELECT value FROM meta WHERE key='config_json'"
    ).fetchone()
    if row:
        for conn in dst:
            conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                ("config_json", row[0]),
            )


def _copy_run(src: sqlite3.Connection, dst: Sequence[sqlite3.Connection],
              shards: int, run: tuple) -> None:
    (src_id, key, kind, country, client_ip, config_json, vantage_json,
     dh, seq, started_at, finished_at, stats_json) = run

    sites = src.execute(
        "SELECT position, domain, completed, elapsed, requests, cookies,"
        " js_calls FROM run_sites WHERE run_id=? ORDER BY position",
        (src_id,),
    ).fetchall()
    route = {domain: shard_of_domain(domain, shards)
             for _, domain, *_ in sites}

    local_ids: List[int] = []
    for index, conn in enumerate(dst):
        subset = [s for s in sites if route[s[1]] == index]
        elapsed = sum(s[3] or 0.0 for s in subset)
        cursor = conn.execute(
            "INSERT INTO runs (run_key, kind, country_code, client_ip,"
            " config_json, vantage_json, domains_hash, total_sites, seq,"
            " started_at, finished_at, elapsed, stats_json)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (key, kind, country, client_ip, config_json, vantage_json, dh,
             len(subset), seq, started_at, finished_at, elapsed,
             stats_json if index == 0 else None),
        )
        local_id = cursor.lastrowid
        local_ids.append(local_id)
        conn.executemany(
            "INSERT INTO run_sites VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            [(local_id,) + tuple(s) for s in subset],
        )

    # Visits name their site; route each row directly.
    placeholders = ", ".join("?" * (len(VISIT_COLUMNS) + 2))
    for row in _batched(src.execute(
        f"SELECT position, {', '.join(VISIT_COLUMNS)} FROM visits"
        " WHERE run_id=? ORDER BY position", (src_id,),
    )):
        index = route[row[1]]  # site_domain is the first selected column
        dst[index].execute(
            f"INSERT INTO visits VALUES ({placeholders})",
            (local_ids[index],) + tuple(row),
        )

    # The other event tables route by per-site slice (module docstring).
    slices: Dict[str, List[Tuple[int, int, int]]] = {
        "requests": [], "cookies": [], "js_calls": [],
    }
    offsets = {"requests": 0, "cookies": 0, "js_calls": 0}
    for _, domain, completed, _, n_requests, n_cookies, n_js in sites:
        if not completed:
            break  # completed sites are a position-order prefix
        index = route[domain]
        for table, count in (("requests", n_requests), ("cookies", n_cookies),
                             ("js_calls", n_js)):
            start = offsets[table]
            slices[table].append((start, start + count, index))
            offsets[table] = start + count

    for table, columns in (("requests", REQUEST_COLUMNS),
                           ("cookies", COOKIE_COLUMNS),
                           ("js_calls", JSCALL_COLUMNS)):
        placeholders = ", ".join("?" * (len(columns) + 2))
        cuts = slices[table]
        cut = 0
        for n, row in enumerate(_batched(src.execute(
            f"SELECT position, {', '.join(columns)} FROM {table}"
            " WHERE run_id=? ORDER BY position", (src_id,),
        ))):
            while cuts[cut][1] <= n:
                cut += 1
            index = cuts[cut][2]
            dst[index].execute(
                f"INSERT INTO {table} VALUES ({placeholders})",
                (local_ids[index],) + tuple(row),
            )

    # Partials sit at their site's run position; route by its domain.
    domain_at = {position: domain for position, domain, *_ in sites}
    for row in _batched(src.execute(
        "SELECT position, analysis, analysis_version, payload FROM partials"
        " WHERE run_id=?", (src_id,),
    )):
        index = route[domain_at[row[0]]]
        dst[index].execute("INSERT INTO partials VALUES (?, ?, ?, ?, ?)",
                           (local_ids[index],) + tuple(row))


def _copy_artifacts(src: sqlite3.Connection,
                    shard0: sqlite3.Connection) -> None:
    for row in _batched(src.execute(
        "SELECT artifact_key, payload, created_at FROM artifacts"
    )):
        shard0.execute(
            "INSERT INTO artifacts VALUES (?, ?, ?)", tuple(row)
        )
