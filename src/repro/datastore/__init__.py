"""Persistent crawl datastore: OpenWPM-style SQLite persistence.

The paper's crawler writes every request, cookie, and JS call to SQLite
and runs analyses over the stored measurement data; this package gives
the reproduction the same shape.  :class:`CrawlStore` is the store,
:func:`stored_crawl` the load-resume-or-crawl entry point (each crawled
site's map/merge partials are written beside its rows), and
:func:`run_key` the content-hash run identity.
"""

from .aggregates import AggregateCacheStats, AggregateStore, aggregates_path
from .delta import delta_crawl
from .incremental import (
    IncrementalRunAnalyzer,
    LogRows,
    SiteMapper,
    StoredRows,
    cached_inspections,
    cached_sanitize,
    run_analyses,
)
from .schema import SCHEMA_VERSION, SchemaError
from .serialize import config_from_json, config_to_json, domains_hash, run_key
from .store import (
    CrawlStore,
    DamagedShardError,
    MissingRunError,
    RunManifest,
    RunRef,
    RunState,
    RunWriter,
    ShardInfo,
    SiteSlice,
    shard_of_domain,
    stored_crawl,
)

__all__ = [
    "SCHEMA_VERSION",
    "SchemaError",
    "AggregateCacheStats",
    "AggregateStore",
    "aggregates_path",
    "CrawlStore",
    "DamagedShardError",
    "IncrementalRunAnalyzer",
    "LogRows",
    "cached_inspections",
    "cached_sanitize",
    "MissingRunError",
    "RunManifest",
    "RunRef",
    "RunState",
    "RunWriter",
    "ShardInfo",
    "SiteMapper",
    "SiteSlice",
    "StoredRows",
    "delta_crawl",
    "config_from_json",
    "config_to_json",
    "domains_hash",
    "run_analyses",
    "run_key",
    "shard_of_domain",
    "stored_crawl",
]
