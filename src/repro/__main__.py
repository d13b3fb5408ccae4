"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``corpus``        — compile and sanitize the §3 corpus, print the accounting.
``crawl``         — crawl N sites from a vantage point, print tracker summary.
``study``         — run the full study and print every table and figure.
``report``        — render every table and figure purely from a crawl store.
``trend``         — longitudinal report across per-epoch stores: tracker
                    prevalence, HTTPS adoption, and organization churn.
``store info``    — print a store's run manifests (timings, counts, caches).
``serve``         — run the measurement service: a job queue, SSE progress
                    streams, and result endpoints over one shared store.

Every crawling command accepts ``--scale`` (corpus size as a fraction of
the paper's 6,843 sites), ``--seed``, and ``--store PATH`` (persist
crawls to a datastore directory of SQLite shard files, created with one
shard unless ``--store-shards N`` asks for more; an interrupted run
resumes at per-site granularity).
``report`` and ``store info`` read scale and seed from the store itself.

Longitudinal runs add ``--epoch N`` (evolve the universe N epochs past
the seed one: trackers are born, die, and consolidate; sites migrate to
HTTPS, adopt banners, and churn content) and ``--since PATH`` (delta
crawl: splice event slices for provably-unchanged sites out of an
earlier epoch's store of the same seed, scale and churn instead of
re-rendering them — byte-identical to a full crawl by construction, and
several times faster at low churn; any other store means a full crawl).

Universes keep their site specs as compact packed rows minted on first
fetch (``tests/golden/universe.json`` pins what they serve), so memory
stays proportional to the sites actually visited.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import Study, UniverseConfig
from .datastore import DamagedShardError
from .net.url import registrable_domain
from .reporting import full_report


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.1,
                        help="corpus scale (1.0 = the paper's 6,843 sites)")
    parser.add_argument("--seed", type=int, default=20191021)
    parser.add_argument("--epoch", type=int, default=0,
                        help="evolve the universe this many epochs past "
                             "the seed one (tracker birth/death/"
                             "consolidation, HTTPS migration, banner "
                             "spread, content churn)")
    parser.add_argument("--churn", type=float, default=0.1,
                        help="fraction of sites whose content changes "
                             "per epoch")


def _add_store(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", metavar="PATH", default=None,
                        help="persist crawls to this datastore directory "
                             "(created if missing; resumable; re-runs "
                             "skip stored sites)")
    parser.add_argument("--store-shards", metavar="N", type=int, default=None,
                        help="create a new store with N shard files keyed "
                             "by site domain (default 1; checkpoints touch "
                             "one shard)")
    parser.add_argument("--since", metavar="PATH", default=None,
                        help="delta crawl against this earlier-epoch "
                             "store of the same seed, scale and churn: "
                             "sites whose content is provably unchanged "
                             "splice their stored slices instead of "
                             "re-rendering (results byte-identical to a "
                             "full crawl; any other store: a full crawl)")
    parser.add_argument("--incremental", action="store_true",
                        help="cache the per-site sanitize verdicts and "
                             "Selenium inspections next to the store and "
                             "reuse them across epochs: only churned "
                             "sites are re-visited, output stays "
                             "byte-identical")


def _config(args: argparse.Namespace) -> UniverseConfig:
    return UniverseConfig(seed=args.seed, scale=args.scale,
                          epoch=getattr(args, "epoch", 0),
                          churn=getattr(args, "churn", 0.1))


def _open_store(path: str, shards=None):
    """Open (or create) a crawl store; a path that is not one — such as
    a regular file, or a store of an older schema — exits 1 with the
    reason."""
    from .datastore import CrawlStore, SchemaError

    try:
        return CrawlStore(path, shards=shards)
    except (ValueError, SchemaError) as exc:
        raise SystemExit(f"error: {exc}")


def _build_study(args: argparse.Namespace) -> Study:
    from .webgen.builder import build_universe

    config = _config(args)
    store = getattr(args, "store", None)
    since = getattr(args, "since", None)
    incremental = bool(getattr(args, "incremental", False))
    if incremental and store is None:
        raise SystemExit("error: --incremental requires --store "
                         "(the cache lives next to the store)")
    return Study(build_universe(config),
                 store=store and _open_store(
                     store, getattr(args, "store_shards", None)),
                 baseline_store=since and _open_store(since),
                 aggregate_cache=incremental or None,
                 parallelism=getattr(args, "parallelism", None))


def cmd_corpus(args: argparse.Namespace) -> int:
    study = _build_study(args)
    candidates, sanitized = study.corpus()
    by_source = candidates.count_by_source()
    print(f"candidates: {len(candidates)}")
    for source, count in sorted(by_source.items()):
        print(f"  {source}: {count}")
    print(f"false positives: {sanitized.false_positives} "
          f"({len(sanitized.unresponsive)} unresponsive, "
          f"{len(sanitized.non_adult)} non-adult)")
    print(f"sanitized corpus: {len(sanitized.corpus)} sites")
    report = study.popularity()
    print(f"always in the top-1M: {report.always_top_1m_count} "
          f"({report.always_top_1m_fraction:.0%})")
    return 0


def _print_cache_stats(universe) -> None:
    from .html.parser import parse_cache_stats

    for name, stats in (("fetch cache", universe.fetch_cache.stats),
                        ("parse cache", parse_cache_stats())):
        print(f"{name}: {stats.hits} hits / {stats.misses} misses "
              f"({stats.hit_rate:.0%} hit rate, "
              f"{stats.evictions} evictions)")


def cmd_crawl(args: argparse.Namespace) -> int:
    from collections import Counter

    from .crawler import CrawlExecutor, CrawlSpec

    study = _build_study(args)
    domains = study.corpus_domains()[: args.sites]
    # The same per-site hook the measurement service streams over SSE;
    # here it just counts milestones for the --stats summary.
    progress_counts: Counter = Counter()

    def progress(event: str, **fields) -> None:
        progress_counts[event] += 1

    started = time.perf_counter()
    (outcome,) = CrawlExecutor(
        study.universe, study.vantage_points, store=study.store,
        baseline=study.baseline_store,
        progress=progress if args.stats else None,
    ).run([CrawlSpec(key=args.country, country=args.country,
                     domains=tuple(domains), store_kind=Study._PORN_KIND)])
    # With a store the crawl streams into it; the summary below reads
    # the stored run back whole.
    log = (outcome.log if outcome.run is None
           else study.store.load_log(outcome.run))
    elapsed = time.perf_counter() - started
    ok = sum(1 for visit in log.visits if visit.success)
    print(f"crawled {ok}/{len(domains)} sites from {args.country}: "
          f"{len(log.requests)} requests, {len(log.cookies)} cookies, "
          f"{len(log.js_calls)} JS calls")
    third_parties = sorted({
        registrable_domain(record.fqdn) for record in log.requests
        if registrable_domain(record.fqdn)
        != registrable_domain(record.page_domain)
    })
    print(f"{len(third_parties)} third-party domains; top of the list:")
    for domain in third_parties[: args.top]:
        print(f"  {domain}")
    if args.stats:
        print(f"\ncrawl wall time: {elapsed:.2f}s")
        print(f"progress events: {progress_counts['site_started']} sites "
              f"started, {progress_counts['site_finished']} finished, "
              f"{progress_counts['site_spliced']} spliced, "
              f"{progress_counts['run_started']} runs")
        _print_cache_stats(study.universe)
    return 0


def _render_study(study: Study, scale: float, geo: bool) -> None:
    """Print every table and figure (shared by ``study`` and ``report``).

    The text comes verbatim from :func:`repro.reporting.full_report`,
    the same section renderer the measurement service serves results
    through — which is what makes a served table byte-identical to this
    output (``tests/test_service.py`` reassembles the report from the
    served sections and compares it with this command's output and with
    the golden digests).
    """
    print(full_report(study, scale, geo=geo), end="")


def _print_similarity_stats() -> None:
    from .text.sparse import engine_stats

    counters = engine_stats()
    print(f"similarity engine: {counters.documents} docs across "
          f"{counters.engines} fits, {counters.vocabulary} vocabulary "
          f"terms, {counters.nonzeros} nonzeros, "
          f"{counters.blocks} gram blocks, "
          f"{counters.candidate_pairs} candidate pairs")


def cmd_study(args: argparse.Namespace) -> int:
    study = _build_study(args)
    # Evaluate every analysis up front: with --parallelism > 1 crawls
    # fan out across forked workers, and the analyses run in the
    # section table's order either way.  Rendering below is pure cache
    # reads, so the printed report is byte-identical across parallelism
    # settings.
    study.run_all(geo=args.geo)
    _render_study(study, args.scale, args.geo)
    if args.stats:
        print()
        _print_similarity_stats()
        _print_cache_stats(study.universe)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .datastore import MissingRunError
    from .webgen.builder import build_universe

    store = _open_store(args.store)
    config = store.stored_config()
    if config is None:
        print(f"error: {args.store} holds no runs; populate it with "
              "`repro study --store` first", file=sys.stderr)
        return 1
    # The synthetic universe is rebuilt (cheap, deterministic) for the
    # analyses' lookup tables; no browser session is ever started.  Each
    # run's partials, written by the crawl beside its rows, are read in
    # one pass before the sections merge them.
    study = Study(build_universe(config), store=store, store_only=True)
    try:
        study.prefetch_partials(geo=args.geo)
        _render_study(study, config.scale, args.geo)
    except MissingRunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_trend(args: argparse.Namespace) -> int:
    from .datastore import MissingRunError
    from .reporting import trend_report
    from .webgen.builder import build_universe

    stores = []
    for path in args.stores:
        store = _open_store(path)
        config = store.stored_config()
        if config is None:
            print(f"error: {path} holds no runs; populate it with "
                  "`repro study --store` first", file=sys.stderr)
            return 1
        stores.append((path, config, store))
    epochs = [config.epoch for _, config, _ in stores]
    if len(set(epochs)) != len(epochs):
        print(f"error: duplicate epochs in {args.stores} "
              f"(epochs {sorted(epochs)}); pass one store per epoch",
              file=sys.stderr)
        return 1
    # In epoch order, each universe evolves from the previous one when
    # that is an earlier epoch of its chain (one build from scratch).
    stores.sort(key=lambda item: item[1].epoch)
    studies = []
    universe = None
    for _, config, store in stores:
        universe = build_universe(config, ancestor=universe)
        studies.append((config.epoch,
                        Study(universe, store=store, store_only=True)))
    try:
        print(trend_report(studies), end="")
    except MissingRunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.stats:
        # Each epoch store is opened once and read per *analysis*
        # (never per rendered section); the counters prove it.
        print()
        for path, config, store in stores:
            counts = store.io_stats
            print(f"epoch {config.epoch} ({path}): {counts['opens']} "
                  f"connection opens, {counts['partial_scans']} partial "
                  f"scans, {counts['scans']} event scans")
    return 0


def _format_timestamp(stamp) -> str:
    if stamp is None:
        return "-"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(stamp))


def cmd_store_info(args: argparse.Namespace) -> int:
    store = _open_store(args.path)
    config = store.stored_config()
    manifests = store.run_manifests()
    count = store.shard_count
    print(f"store: {args.path} (schema v{store.schema_version()}, "
          f"{count} shard{'s' if count != 1 else ''})")
    if config is not None:
        print(f"universe: seed={config.seed} scale={config.scale}")
    print(f"runs: {len(manifests)}")
    if args.shards:
        from .reporting import render_shard_table

        print()
        print(render_shard_table(store.shard_infos()))
    for run in manifests:
        status = "complete" if run.complete else \
            f"partial {run.completed_sites}/{run.total_sites}"
        print(f"\n[{run.run_key[:12]}] {run.kind} from {run.country_code} "
              f"({run.client_ip}) — {status}")
        print(f"    sites: {run.completed_sites}/{run.total_sites}  "
              f"visits: {run.visits}  requests: {run.requests}  "
              f"cookies: {run.cookies}  js_calls: {run.js_calls}")
        print(f"    crawl time: {run.elapsed:.2f}s "
              f"({run.sites_per_second:.1f} sites/s)  "
              f"started: {_format_timestamp(run.started_at)}  "
              f"finished: {_format_timestamp(run.finished_at)}")
        if args.verbose:
            print(f"    run key: {run.run_key}")
            stats = run.stats or {}
            for cache in ("fetch_cache", "parse_cache"):
                counters = stats.get(cache)
                if counters is None:
                    continue
                lookups = counters["hits"] + counters["misses"]
                rate = counters["hits"] / lookups if lookups else 0.0
                print(f"    {cache}: {counters['hits']} hits / "
                      f"{counters['misses']} misses ({rate:.0%} hit rate, "
                      f"{counters['evictions']} evictions)")
            if "resumed_from_site" in stats and stats["resumed_from_site"]:
                print(f"    resumed from site {stats['resumed_from_site']}")
    if args.verbose:
        if config is not None:
            _print_artifact_info(store, config)
        _print_partial_info(store)
        _print_aggregate_info(store)
    return 0


def _print_artifact_info(store, config) -> None:
    """The home-vantage artifact block of ``repro store info -v``."""
    from .crawler.vpn import VantagePointManager
    from .datastore import run_key
    from .datastore.serialize import INSPECTIONS_KIND, SANITIZE_KIND

    home = VantagePointManager().home
    print(f"\nartifacts (home vantage {home.country_code}):")
    missing = False
    for kind in (INSPECTIONS_KIND, SANITIZE_KIND):
        payload = store.get_artifact(run_key(config, home, kind))
        missing = missing or payload is None
        print(f"    {kind}: " + ("missing" if payload is None
                                   else f"{len(payload)} bytes"))
    if missing:
        print("    re-run `repro study --store` on this store to record "
              "the missing artifacts; `repro report` needs both")


def _print_partial_info(store) -> None:
    """The partials-at-rest block of ``repro store info -v``."""
    stats = store.partial_stats()
    print(f"\npartials: {sum(n for n, _ in stats.values())} rows "
          f"({sum(size for _, size in stats.values())} payload bytes)")
    for name, (count, size) in stats.items():
        print(f"    {name}: {count} rows, {size} bytes")


def _print_aggregate_info(store) -> None:
    """The aggregate-cache block of ``repro store info -v``: the cached
    sanitize verdicts and inspections."""
    import os

    from .datastore import AggregateStore, aggregates_path

    path = aggregates_path(store.path)
    if not os.path.exists(path):
        return
    cache = AggregateStore(path)
    try:
        print(f"\naggregate cache: {path}")
        print(f"    {cache.row_count()} sanitize/inspection rows")
        last = cache.last_study_stats()
        if last:
            lookups = last["hits"] + last["misses"]
            rate = last["hits"] / lookups if lookups else 0.0
            print(f"    last study: {last['hits']} hits / "
                  f"{last['misses']} misses ({rate:.0%} hit rate, "
                  f"{last.get('corrupt', 0)} corrupt)")
    finally:
        cache.close()


def cmd_serve(args: argparse.Namespace) -> int:
    from .datastore import SchemaError
    from .service import ReproServer

    try:
        server = ReproServer(
            args.store, port=args.port, host=args.host,
            workers=args.workers, store_shards=args.store_shards,
            verbose=args.verbose,
        )
    except (ValueError, SchemaError) as exc:  # not a store this opens
        raise SystemExit(f"error: {exc}")
    # Flushed before blocking so wrapper scripts can scrape the bound
    # port (--port 0 binds an ephemeral one).
    print(f"serving on {server.url} (store {args.store}, "
          f"{args.workers} worker{'s' if args.workers != 1 else ''})",
          flush=True)
    try:
        server.serve_forever()
    finally:
        server.stop()
    return 0


def package_version() -> str:
    """The installed package version, or the one pinned in pyproject.toml.

    A source checkout run via ``PYTHONPATH=src`` has no installed
    distribution, so the pyproject file two levels above the package is
    the fallback source of truth.
    """
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        pass
    from pathlib import Path

    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    try:
        for line in pyproject.read_text().splitlines():
            if line.startswith("version"):
                return line.split("=", 1)[1].strip().strip('"')
    except OSError:
        pass
    return "unknown"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Tales from the Porn' (IMC 2019)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {package_version()}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    corpus = subparsers.add_parser("corpus", help="compile the §3 corpus")
    _add_common(corpus)
    corpus.set_defaults(func=cmd_corpus)

    crawl = subparsers.add_parser("crawl", help="crawl sites, show trackers")
    _add_common(crawl)
    _add_store(crawl)
    crawl.add_argument("--sites", type=int, default=25)
    crawl.add_argument("--country", default="ES",
                       choices=["ES", "US", "UK", "RU", "IN", "SG"])
    crawl.add_argument("--top", type=int, default=15)
    crawl.add_argument("--stats", action="store_true",
                       help="print fetch/parse cache hit rates after the crawl")
    crawl.set_defaults(func=cmd_crawl)

    study = subparsers.add_parser("study", help="run the whole paper")
    _add_common(study)
    _add_store(study)
    study.add_argument("--geo", action="store_true",
                       help="include the six-country Table 7 (slow)")
    study.add_argument("--parallelism", type=int, default=None,
                       help="how many crawls run at once in forked "
                            "workers (default: usable CPUs; 1 = every "
                            "crawl inline, in plan order; analyses always "
                            "run serially; output is byte-identical "
                            "either way)")
    study.add_argument("--stats", action="store_true",
                       help="print similarity-engine counters and "
                            "fetch/parse cache hit rates after the report")
    study.set_defaults(func=cmd_study)

    report = subparsers.add_parser(
        "report", help="render all tables/figures from a store (no crawling)"
    )
    report.add_argument("--store", metavar="PATH", required=True,
                        help="crawl datastore written by study/crawl --store")
    report.add_argument("--geo", action="store_true",
                        help="include the six-country Table 7")
    report.set_defaults(func=cmd_report)

    trend = subparsers.add_parser(
        "trend", help="longitudinal report across per-epoch stores"
    )
    trend.add_argument("stores", metavar="STORE", nargs="+",
                       help="one crawl store per epoch (any order); each "
                            "written by `repro study --store --epoch N`")
    trend.add_argument("--stats", action="store_true",
                       help="print per-epoch store open/scan counts")
    trend.set_defaults(func=cmd_trend)

    store = subparsers.add_parser("store", help="inspect a crawl datastore")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    info = store_sub.add_parser("info", help="print run manifests")
    info.add_argument("path", help="path to the datastore")
    info.add_argument("--verbose", "-v", action="store_true",
                      help="include run keys, cache hit/miss counters, "
                           "the stored partials per analysis and the "
                           "report's stored artifacts")
    info.add_argument("--shards", action="store_true",
                      help="list per-shard file sizes and row counts")
    info.set_defaults(func=cmd_store_info)

    serve = subparsers.add_parser(
        "serve", help="run the long-lived measurement service"
    )
    serve.add_argument("--store", metavar="DIR", required=True,
                       help="shared crawl datastore jobs read and write "
                            "(created if missing)")
    serve.add_argument("--port", type=int, default=8008,
                       help="listen port (0 binds an ephemeral port)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--workers", type=int, default=1,
                       help="measurement worker threads draining the "
                            "job queue")
    serve.add_argument("--store-shards", metavar="N", type=int, default=None,
                       help="create a new store with N shard files "
                            "(default 1)")
    serve.add_argument("--verbose", "-v", action="store_true",
                       help="log every HTTP request to stderr")
    serve.set_defaults(func=cmd_serve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "scale"):
        try:
            _config(args)
        except ValueError as exc:
            parser.error(str(exc))  # usage error: exit status 2
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # Conventional 128+SIGINT exit, and no traceback splatter when a
        # long crawl or the serve loop is ^C'd.
        print("interrupted", file=sys.stderr)
        return 130
    except DamagedShardError as exc:
        # A shard past the first opens on first touch, deep in a study.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
