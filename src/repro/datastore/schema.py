"""Versioned SQLite schema for the crawl datastore.

The layout mirrors OpenWPM's instrumentation database: one row per
observed event (request, cookie, JS call), grouped under a *run* — one
crawler session from one vantage point over one ordered site list.  The
``runs`` table is the run manifest; ``run_sites`` records per-site
completion, which is the unit of checkpoint/resume granularity.
``partials`` holds each completed site's map/merge partials.

Schema changes bump :data:`SCHEMA_VERSION`; :func:`ensure_schema`
creates a fresh schema or verifies the stored version, refusing to open
stores written by an incompatible layout (there is no silent migration —
measurement data is re-creatable from the deterministic universe, so a
hard error beats a subtly wrong upgrade).
"""

from __future__ import annotations

import sqlite3

__all__ = [
    "SCHEMA_VERSION",
    "SchemaError",
    "ensure_schema",
    "shard_stamp",
    "stamp_shard",
]

#: Bump on any table/column change.  2: the ``partials`` table.
SCHEMA_VERSION = 2

_DDL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);

-- Run manifest: one crawler session.  ``run_key`` is the content hash of
-- (UniverseConfig, vantage point, crawler kind); ``domains_hash`` covers
-- the ordered site list so the same logical crawl over a different
-- corpus slice is a distinct run.
CREATE TABLE IF NOT EXISTS runs (
    id            INTEGER PRIMARY KEY,
    run_key       TEXT    NOT NULL,
    kind          TEXT    NOT NULL,
    country_code  TEXT    NOT NULL,
    client_ip     TEXT    NOT NULL,
    config_json   TEXT    NOT NULL,
    vantage_json  TEXT    NOT NULL,
    domains_hash  TEXT    NOT NULL,
    total_sites   INTEGER NOT NULL,
    seq           INTEGER NOT NULL DEFAULT 0,
    started_at    REAL    NOT NULL,
    finished_at   REAL,
    elapsed       REAL    NOT NULL DEFAULT 0.0,
    stats_json    TEXT,
    UNIQUE (run_key, domains_hash)
);

-- Per-site completion ledger: the ordered site list of a run, with the
-- checkpoint flag and per-site timings/counts for the manifest view.
CREATE TABLE IF NOT EXISTS run_sites (
    run_id    INTEGER NOT NULL REFERENCES runs(id),
    position  INTEGER NOT NULL,
    domain    TEXT    NOT NULL,
    completed INTEGER NOT NULL DEFAULT 0,
    elapsed   REAL,
    requests  INTEGER,
    cookies   INTEGER,
    js_calls  INTEGER,
    PRIMARY KEY (run_id, position)
);

CREATE TABLE IF NOT EXISTS visits (
    run_id         INTEGER NOT NULL REFERENCES runs(id),
    position       INTEGER NOT NULL,
    site_domain    TEXT    NOT NULL,
    url            TEXT    NOT NULL,
    success        INTEGER NOT NULL,
    status         INTEGER,
    failure_reason TEXT    NOT NULL,
    html           TEXT    NOT NULL,
    https          INTEGER NOT NULL,
    PRIMARY KEY (run_id, position)
);

CREATE TABLE IF NOT EXISTS requests (
    run_id            INTEGER NOT NULL REFERENCES runs(id),
    position          INTEGER NOT NULL,
    url               TEXT    NOT NULL,
    fqdn              TEXT    NOT NULL,
    scheme            TEXT    NOT NULL,
    page_domain       TEXT    NOT NULL,
    resource_type     TEXT    NOT NULL,
    initiator         TEXT,
    referrer          TEXT,
    seq               INTEGER NOT NULL,
    status            INTEGER,
    failed            INTEGER NOT NULL,
    error             TEXT    NOT NULL,
    redirect_location TEXT,
    PRIMARY KEY (run_id, position)
);

CREATE TABLE IF NOT EXISTS cookies (
    run_id      INTEGER NOT NULL REFERENCES runs(id),
    position    INTEGER NOT NULL,
    page_domain TEXT    NOT NULL,
    set_by_host TEXT    NOT NULL,
    domain      TEXT    NOT NULL,
    name        TEXT    NOT NULL,
    value       TEXT    NOT NULL,
    session     INTEGER NOT NULL,
    secure      INTEGER NOT NULL,
    over_https  INTEGER NOT NULL,
    seq         INTEGER NOT NULL,
    PRIMARY KEY (run_id, position)
);

CREATE TABLE IF NOT EXISTS js_calls (
    run_id        INTEGER NOT NULL REFERENCES runs(id),
    position      INTEGER NOT NULL,
    script_url    TEXT    NOT NULL,
    document_host TEXT    NOT NULL,
    api           TEXT    NOT NULL,
    args_json     TEXT    NOT NULL,
    PRIMARY KEY (run_id, position)
);

-- ``pack_value`` bytes of each site's partial, at its run position.
CREATE TABLE IF NOT EXISTS partials (
    run_id           INTEGER NOT NULL REFERENCES runs(id),
    position         INTEGER NOT NULL,
    analysis         TEXT    NOT NULL,
    analysis_version INTEGER NOT NULL,
    payload          BLOB    NOT NULL,
    PRIMARY KEY (run_id, position, analysis)
) WITHOUT ROWID;

-- Auxiliary payloads (e.g. the marshal-encoded Selenium inspection pass)
-- keyed like runs, for crawl products that are not CrawlLog-shaped.
CREATE TABLE IF NOT EXISTS artifacts (
    artifact_key TEXT PRIMARY KEY,
    payload      BLOB NOT NULL,
    created_at   REAL NOT NULL
);

CREATE INDEX IF NOT EXISTS idx_runs_key       ON runs (run_key);
CREATE INDEX IF NOT EXISTS idx_requests_page  ON requests (run_id, page_domain);
CREATE INDEX IF NOT EXISTS idx_cookies_page   ON cookies (run_id, page_domain);
"""


class SchemaError(RuntimeError):
    """The store file exists but was written by an incompatible schema."""


def _verify_version(connection: sqlite3.Connection) -> None:
    stored = connection.execute(
        "SELECT value FROM meta WHERE key='schema_version'"
    ).fetchone()
    if stored is None or int(stored[0]) != SCHEMA_VERSION:
        found = "missing" if stored is None else stored[0]
        raise SchemaError(
            f"store schema version {found} is not the supported "
            f"{SCHEMA_VERSION}; rebuild the store (its rows re-create from "
            "the universe) with `repro study --store` into a new path"
        )


def ensure_schema(connection: sqlite3.Connection) -> None:
    """Create the schema on a fresh store file, or verify a stored version.

    Creation is one ``BEGIN IMMEDIATE`` transaction with a re-check
    inside, so two connections to one fresh file cannot both create it
    and neither observes the tables without the version row
    (``executescript`` would expose exactly that window).
    """
    row = connection.execute(
        "SELECT name FROM sqlite_master WHERE type='table' AND name='meta'"
    ).fetchone()
    if row is not None:
        _verify_version(connection)
        return
    connection.execute("BEGIN IMMEDIATE")
    try:
        row = connection.execute(
            "SELECT name FROM sqlite_master WHERE type='table' AND name='meta'"
        ).fetchone()
        if row is not None:  # another opener won the race
            _verify_version(connection)
        else:
            # Statement-at-a-time (executescript would auto-commit);
            # comment lines go first since they may contain semicolons.
            ddl = "\n".join(
                line for line in _DDL.splitlines()
                if not line.lstrip().startswith("--")
            )
            for statement in ddl.split(";"):
                if statement.strip():
                    connection.execute(statement)
            connection.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(SCHEMA_VERSION)),
            )
    except BaseException:
        connection.execute("ROLLBACK")
        raise
    connection.execute("COMMIT")


def stamp_shard(connection: sqlite3.Connection, index: int, count: int) -> None:
    """Mark a store file as shard ``index`` of a ``count``-way store.

    Shard files are self-describing: each carries its position so a
    half-copied directory or a renamed file is detected at open time
    instead of silently routing rows to the wrong shard.
    """
    with connection:
        connection.executemany(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            [("shard_index", str(index)), ("shard_count", str(count))],
        )


def shard_stamp(connection: sqlite3.Connection):
    """The ``(index, count)`` stamp of a shard file, or ``None`` when the
    file carries none (it is not a shard of a store)."""
    rows = dict(connection.execute(
        "SELECT key, value FROM meta"
        " WHERE key IN ('shard_index', 'shard_count')"
    ))
    if not rows:
        return None
    return int(rows["shard_index"]), int(rows["shard_count"])
