"""Persistent crawl datastore: OpenWPM-style SQLite persistence.

The paper's crawler writes every request, cookie, and JS call to SQLite
and runs analyses over the stored measurement data; this package gives
the reproduction the same shape.  :class:`CrawlStore` is the store,
:func:`stored_crawl` the load-resume-or-crawl entry point, and
:func:`run_key` the content-hash run identity.
"""

from .aggregates import AggregateCacheStats, AggregateStore, aggregates_path
from .delta import DeltaSource, SiteSlice, delta_crawl
from .incremental import (
    IncrementalRunAnalyzer,
    LogRows,
    StoredRows,
    cached_inspections,
    cached_sanitize,
)
from .schema import SCHEMA_VERSION, SchemaError
from .serialize import config_from_json, config_to_json, domains_hash, run_key
from .shards import reshard_store
from .store import (
    CrawlStore,
    MissingRunError,
    RunManifest,
    RunRef,
    RunState,
    RunWriter,
    ShardInfo,
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
    "IncrementalRunAnalyzer",
    "LogRows",
    "cached_inspections",
    "cached_sanitize",
    "DeltaSource",
    "MissingRunError",
    "RunManifest",
    "RunRef",
    "RunState",
    "RunWriter",
    "ShardInfo",
    "SiteSlice",
    "StoredRows",
    "delta_crawl",
    "config_from_json",
    "config_to_json",
    "domains_hash",
    "reshard_store",
    "run_key",
    "shard_of_domain",
    "stored_crawl",
]
