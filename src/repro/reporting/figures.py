"""Figure data export: CSV series and terminal-friendly charts.

The paper's figures are reproduced as data series (CSV) plus compact
ASCII renderings so benchmark output is self-contained without plotting
dependencies.
"""

from __future__ import annotations

import io
from typing import Sequence

from ..core.cookie_sync import SyncReport
from ..core.ecosystem import OrganizationPrevalence
from ..core.popularity import PopularityReport

__all__ = [
    "figure1_csv",
    "figure1_ascii",
    "figure3_csv",
    "figure3_ascii",
    "figure4_edges_csv",
    "figure4_ascii",
    "bar",
]


def bar(fraction: float, *, width: int = 40, fill: str = "#") -> str:
    """A [0,1] fraction as a fixed-width ASCII bar."""
    fraction = min(max(fraction, 0.0), 1.0)
    filled = round(fraction * width)
    return fill * filled + "." * (width - filled)


# ----------------------------------------------------------------------
# Figure 1 — best/median rank and presence per site
# ----------------------------------------------------------------------

def figure1_csv(report: PopularityReport) -> str:
    buffer = io.StringIO()
    buffer.write("site,best_rank,median_rank,days_present_fraction\n")
    for site in report.sorted_by_best():
        buffer.write(
            f"{site.domain},{site.best_rank},{site.median_rank},"
            f"{site.presence_fraction:.4f}\n"
        )
    return buffer.getvalue()


def figure1_ascii(report: PopularityReport, *, buckets: int = 20) -> str:
    """Presence fraction distribution across the best-rank ordering."""
    ordered = report.sorted_by_best()
    if not ordered:
        return "(no sites)"
    lines = ["Fig.1 — presence in the top-1M across the corpus "
             "(sites ordered by best rank):"]
    step = max(1, len(ordered) // buckets)
    for start in range(0, len(ordered), step):
        chunk = ordered[start:start + step]
        mean_presence = sum(s.presence_fraction for s in chunk) / len(chunk)
        best = chunk[0].best_rank
        lines.append(f"  rank>={best:>9,}  {bar(mean_presence)}  "
                     f"{mean_presence:.0%}")
    lines.append(
        f"  always in top-1M: {report.always_top_1m_count:,} "
        f"({report.always_top_1m_fraction:.0%}); "
        f"always in top-1K: {report.always_top_1k_count}"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figure 3 — top organizations, porn vs regular prevalence
# ----------------------------------------------------------------------

def figure3_csv(bars: Sequence[OrganizationPrevalence]) -> str:
    buffer = io.StringIO()
    buffer.write("organization,porn_fraction,regular_fraction\n")
    for entry in bars:
        buffer.write(
            f"{entry.organization},{entry.porn_fraction:.4f},"
            f"{entry.regular_fraction:.4f}\n"
        )
    return buffer.getvalue()


def figure3_ascii(bars: Sequence[OrganizationPrevalence]) -> str:
    lines = ["Fig.3 — top third-party organizations (porn [P] vs regular [R]):"]
    for entry in bars:
        lines.append(f"  {entry.organization[:28]:<28} "
                     f"P {bar(entry.porn_fraction, width=30)} "
                     f"{entry.porn_fraction:.0%}")
        lines.append(f"  {'':<28} "
                     f"R {bar(entry.regular_fraction, width=30, fill='=')} "
                     f"{entry.regular_fraction:.0%}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figure 4 — cookie-sync graph
# ----------------------------------------------------------------------

def figure4_edges_csv(report: SyncReport, *, minimum: int = 75) -> str:
    buffer = io.StringIO()
    buffer.write("origin,destination,cookies_exchanged\n")
    for (origin, destination), count in sorted(
        report.heavy_pairs(minimum).items(), key=lambda item: -item[1]
    ):
        buffer.write(f"{origin},{destination},{count}\n")
    return buffer.getvalue()


def figure4_ascii(report: SyncReport, *, minimum: int = 75,
                  top_n: int = 25) -> str:
    heavy = sorted(report.heavy_pairs(minimum).items(), key=lambda i: -i[1])
    lines = [
        f"Fig.4 — cookie syncing (pairs exchanging >= {minimum} cookies; "
        f"{len(heavy)} edges, {len(report.origins)} origins, "
        f"{len(report.destinations)} destinations):"
    ]
    for (origin, destination), count in heavy[:top_n]:
        lines.append(f"  {origin:>28} -> {destination:<28} {count:>6,}")
    if len(heavy) > top_n:
        lines.append(f"  ... and {len(heavy) - top_n} more edges")
    return "\n".join(lines)
