"""Longitudinal trend sections across evolving universe epochs.

``repro trend`` points at one store per epoch (each written by
``repro study --store --epoch N``, ideally with ``--since`` so every
epoch after the first is a cheap delta crawl) and renders how the
ecosystem shifts as :func:`~repro.webgen.evolve.evolve_universe` plays
time forward: tracker prevalence, HTTPS adoption, and churn among the
top third-party organizations.

Input is a sequence of ``(epoch, study)`` pairs; the renderers sort by
epoch, so callers can pass stores in any order.  Every metric is pulled
through the study memo and works identically on live and store-only
studies.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .tables import format_table

__all__ = ["trend_report", "trend_sections"]


def _ordered(studies: Sequence[Tuple[int, object]]):
    return sorted(studies, key=lambda pair: pair[0])


def _visited(study) -> int:
    return len(study.visited_sites())


def tracker_trend_section(studies: Sequence[Tuple[int, object]]) -> str:
    """Tracker prevalence by epoch: distinct ATS services and reach."""
    rows = []
    for epoch, study in _ordered(studies):
        ats = study.porn_ats()
        visited = _visited(study)
        with_ats = sum(1 for fqdns in ats.per_page.values() if fqdns)
        fraction = with_ats / visited if visited else 0.0
        rows.append((epoch, ats.fqdn_count, len(ats.ats_domains_relaxed),
                     with_ats, f"{fraction:.1%}"))
    return ("== trend: tracker prevalence ==\n"
            + format_table(
                ("epoch", "ATS FQDNs", "ATS domains", "sites w/ ATS",
                 "prevalence"),
                rows))


def https_trend_section(studies: Sequence[Tuple[int, object]]) -> str:
    """HTTPS adoption by epoch: fully-HTTPS sites and cleartext leaks."""
    rows = []
    for epoch, study in _ordered(studies):
        report = study.https_report()
        fully = 1.0 - report.not_fully_https_fraction
        rows.append((epoch, report.sites_visited, f"{fully:.1%}",
                     len(report.not_fully_https_sites),
                     f"{report.cleartext_cookie_fraction:.1%}"))
    return ("== trend: HTTPS adoption ==\n"
            + format_table(
                ("epoch", "sites", "fully HTTPS", "not fully",
                 "cleartext cookies"),
                rows))


def organization_trend_section(
    studies: Sequence[Tuple[int, object]], top_n: int = 5
) -> str:
    """Top third-party organizations by epoch, with churn annotations.

    Each epoch row lists the ``top_n`` organizations by porn-site reach
    (the Figure 3 ranking) and, from the second epoch on, which names
    entered and left the top set relative to the previous epoch — the
    consolidation/birth/death dynamics of
    :func:`~repro.webgen.evolve.evolve_universe` made visible.
    """
    lines = [f"== trend: top {top_n} organizations =="]
    previous = None
    for epoch, study in _ordered(studies):
        bars = study.figure3(top_n=top_n)
        names = [bar.organization for bar in bars]
        listing = ", ".join(
            f"{bar.organization} ({bar.porn_fraction:.0%})" for bar in bars
        )
        lines.append(f"epoch {epoch}: {listing}")
        if previous is not None:
            entered = [name for name in names if name not in previous]
            exited = [name for name in previous if name not in names]
            if entered or exited:
                lines.append(
                    "    churn: +" + (", ".join(entered) or "-")
                    + " / -" + (", ".join(exited) or "-")
                )
            else:
                lines.append("    churn: none")
        previous = names
    return "\n".join(lines)


def trend_sections(
    studies: Sequence[Tuple[int, object]]
) -> List[Tuple[str, str]]:
    """Every trend section, in print order, as ``(name, text)``."""
    return [
        ("trackers", tracker_trend_section(studies)),
        ("https", https_trend_section(studies)),
        ("organizations", organization_trend_section(studies)),
    ]


def trend_report(studies: Sequence[Tuple[int, object]]) -> str:
    """The complete longitudinal report as the CLI prints it."""
    texts = [text for _, text in trend_sections(studies)]
    return "\n\n".join(texts) + "\n"
