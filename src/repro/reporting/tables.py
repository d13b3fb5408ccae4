"""Text rendering of the paper's tables.

Each function takes the corresponding analysis result and prints the same
rows the paper reports, for side-by-side comparison in EXPERIMENTS.md and
the benchmark harness.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, Tuple

from ..core.compliance.banners import (
    BANNER_BINARY,
    BANNER_CONFIRMATION,
    BANNER_NO_OPTION,
    BANNER_OTHER,
    BannerReport,
)
from ..core.cookie_analysis import CookieStats
from ..core.ecosystem import Table2, Table3
from ..core.geodiff import GeoReport
from ..core.https_analysis import HTTPSReport
from ..core.owners import OwnerReport

__all__ = [
    "format_table",
    "render_shard_table",
    "render_table1",
    "render_table2",
    "render_table3",
    "render_table4",
    "render_table5",
    "render_table6",
    "render_table7",
    "render_table8",
]


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Monospace table with column auto-sizing."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * width for width in widths),
    ]
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_shard_table(infos) -> str:
    """``repro store info --shards``: one row per shard file.

    ``infos`` is any sequence of objects shaped like
    :class:`~repro.datastore.ShardInfo` (duck-typed to keep the
    reporting layer free of datastore imports).
    """
    rows = [
        (info.index, info.path, f"{info.size_bytes:,}",
         f"{info.runs:,}", f"{info.visits:,}")
        for info in infos
    ]
    total_bytes = sum(info.size_bytes for info in infos)
    total_visits = sum(info.visits for info in infos)
    rows.append(("total", f"{len(infos)} shard(s)", f"{total_bytes:,}",
                 "—", f"{total_visits:,}"))
    return format_table(("Shard", "File", "Bytes", "Runs", "Visits"), rows)


def render_table1(owners: OwnerReport, best_rank: Callable[[str], int],
                  *, top_n: int = 15) -> str:
    rows = [
        (company, size, f"{site} ({rank:,})")
        for company, size, site, rank in owners.table1(best_rank, top_n=top_n)
    ]
    return format_table(("Company", "# sites", "Most popular site (rank)"), rows)


def render_table2(table: Table2) -> str:
    rows = [
        ("Corpus size", f"{table.porn_corpus:,}", f"{table.regular_corpus:,}", "—"),
        ("First-party", f"{table.porn_first_party:,}",
         f"{table.regular_first_party:,}", "—"),
        ("Third-party", f"{table.porn_third_party:,}",
         f"{table.regular_third_party:,}", f"{table.fqdn_intersection:,}"),
        ("Third-party ATS", f"{table.porn_ats:,}", f"{table.regular_ats:,}",
         f"{table.ats_intersection:,}"),
    ]
    return format_table(
        ("Domain category", "Porn (P)", "Regular (R)", "|P ∩ R|"), rows
    )


def render_table3(table: Table3) -> str:
    rows = [
        (row.interval, f"{row.site_count:,}",
         f"{row.third_party_total:,} ({row.third_party_unique:,})")
        for row in table.rows
    ]
    return format_table(
        ("Popularity interval", "# porn websites", "Third-party domains (unique)"),
        rows,
    )


def render_table4(stats: CookieStats) -> str:
    rows = [
        (
            domain.domain,
            f"{domain.site_fraction:.0%}",
            f"{domain.cookie_count:,}",
            "yes" if domain.is_ats else "no",
            "yes" if domain.in_regular_web else "no",
            f"{domain.ip_cookie_fraction:.0%}",
        )
        for domain in stats.top_domains
    ]
    return format_table(
        ("Third-party domain", "% porn websites", "# cookies", "ATS",
         "In web ecosystem", "% cookies with user IP"),
        rows,
    )


def render_table5(
    rows: Sequence[Tuple[str, int, int, int]],
    *,
    is_ats: Callable[[str], bool],
    in_regular_web: Callable[[str], bool],
) -> str:
    formatted = [
        (
            domain,
            f"{presence:,}",
            "yes" if is_ats(domain) else "-",
            "yes" if in_regular_web(domain) else "-",
            canvas,
            webrtc,
        )
        for domain, presence, canvas, webrtc in rows
    ]
    return format_table(
        ("Domain", "Presence in porn sites", "ATS", "Regular web",
         "Canvas fingerprinting", "WebRTC"),
        formatted,
    )


def render_table6(report: HTTPSReport) -> str:
    rows = []
    for row in report.rows:
        rows.append((row.interval, f"Porn websites ({row.site_count:,})",
                     f"{row.site_https_fraction:.0%}"))
        rows.append(("", f"3rd-party services ({row.service_count:,})",
                     f"{row.service_https_fraction:.0%}"))
    return format_table(("Interval", "Feature", "HTTPS"), rows)


def render_table7(report: GeoReport) -> str:
    rows = [
        (
            row.country,
            f"{row.fqdn_count:,}",
            f"{row.web_ecosystem_fraction:.0%}",
            f"{row.unique_fqdns:,}",
            f"{row.ats_count:,}",
            f"{row.unique_ats:,}",
        )
        for row in report.rows
    ]
    rows.append(
        ("Total", f"{report.total_fqdns:,}", "—", f"{report.total_unique:,}",
         f"{report.total_ats:,}", f"{report.total_unique_ats:,}")
    )
    return format_table(
        ("Country", "FQDN", "Web ecosystem", "Unique country", "ATS",
         "Unique ATS"),
        rows,
    )


def render_table8(eu: BannerReport, us: BannerReport) -> str:
    def pct(report: BannerReport, banner_type: str) -> str:
        return f"{report.fraction(banner_type):.2%}"

    rows = [
        ("No Option", pct(eu, BANNER_NO_OPTION), pct(us, BANNER_NO_OPTION)),
        ("Confirmation", pct(eu, BANNER_CONFIRMATION), pct(us, BANNER_CONFIRMATION)),
        ("Binary", pct(eu, BANNER_BINARY), pct(us, BANNER_BINARY)),
        ("Others", pct(eu, BANNER_OTHER), pct(us, BANNER_OTHER)),
        ("Total", f"{eu.total_fraction:.2%}", f"{us.total_fraction:.2%}"),
    ]
    return format_table(("Type", "EU", "USA"), rows)
