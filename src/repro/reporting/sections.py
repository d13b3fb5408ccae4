"""The study report as one ordered table of sections.

One source of truth for everything the full report prints: the CLI
(``repro study`` / ``repro report``) joins the sections into the
familiar stdout report, and the measurement service serves each section
individually (``GET /jobs/<id>/tables/<name>``).  Because both consumers
render through this module, a served section is byte-identical to the
corresponding chunk of ``repro report`` *by construction* —
``tests/test_service.py`` reassembles the full report from the served
sections and compares it with the CLI output and the golden digests to
keep it that way.

Each :class:`Section` of :data:`SECTIONS` declares, once, the study
results it merges, the partials those read from each run, and its
renderer; the name lists, the job API's analysis names, what a crawl
maps and what a render reads all derive from it.

A section's text never carries the blank separator line; the full
report is ``"\\n\\n".join(texts)`` plus a trailing newline.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..datastore.incremental import (
    BANNER_COUNTRIES,
    PORN_ANALYSES,
    REGULAR_ANALYSES,
    run_roles,
)
from ..net.url import registrable_domain
from .figures import figure1_ascii, figure3_ascii, figure4_ascii
from .tables import (
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    render_table5,
    render_table6,
    render_table7,
    render_table8,
)

__all__ = [
    "FIGURE_NAMES", "FIGURE_SECTIONS", "SECTIONS", "Section", "full_report",
    "rendered", "render_figure", "render_section", "report_sections",
    "run_reads", "section_names", "sections_reading", "study_results",
]

#: ``(name, call)``: one study result, evaluated as ``call(study,
#: countries)`` (Table 7's vantage points; ``None`` for all of them).
Result = Tuple[str, Callable[[object, Optional[Sequence[str]]], object]]


class Section(NamedTuple):
    """One report section and everything it reads."""

    name: str
    #: The study results it merges, in evaluation order.
    results: Tuple[Result, ...]
    #: Run role (:func:`~repro.datastore.incremental.run_roles`) -> the
    #: analyses whose partials it merges; ``inspections`` is the
    #: Selenium pass.
    runs: Dict[str, Tuple[str, ...]]
    #: The ``== title ==`` line; ``None`` when ``body`` draws its own.
    title: Optional[str]
    body: Callable[[object, float], str]
    #: ``(name, draw)``: the figure whose art ``render_figure`` serves.
    figure: Optional[Tuple[str, Callable[[object, float], str]]] = None

    def headed(self, body: str) -> str:
        """``body`` under the section's title line."""
        return body if self.title is None else f"== {self.title} ==\n{body}"

    def text(self, study, scale: float) -> str:
        return self.headed(self.body(study, scale))


def _calls(*names: str) -> Tuple[Result, ...]:
    """Results computed by the study method of the same name."""
    return tuple((name, lambda study, _countries, name=name:
                  getattr(study, name)())
                 for name in names)


def _figure1(study, scale: float) -> str:
    return figure1_ascii(study.popularity())


def _figure3(study, scale: float) -> str:
    return figure3_ascii(study.figure3(top_n=10))


def _figure4(study, scale: float) -> str:
    return figure4_ascii(study.cookie_sync(),
                         minimum=max(2, int(75 * scale)))


def _corpus(study, scale: float) -> str:
    return (f"== corpus ({len(study.corpus_domains())} sites) ==\n"
            + _figure1(study, scale))


def _table5(study, scale: float) -> str:
    porn_labels = study.porn_labels()
    regular_bases = {registrable_domain(fqdn) for fqdn
                     in study.regular_labels().all_third_party_fqdns}
    return render_table5(
        study.fingerprinting().per_service_table(
            lambda domain: len(porn_labels.sites_embedding(domain))
        ),
        is_ats=study.ats_classifier().matches_domain,
        in_regular_web=lambda domain: domain in regular_bases,
    )


def _malware(study, scale: float) -> str:
    malware = study.malware()
    return (
        f"§5.3 malware: {len(malware.malicious_sites)} malicious porn "
        f"sites, {len(malware.malicious_third_parties)} malicious third "
        f"parties reaching {malware.affected_site_count} sites; "
        f"cryptomining: {len(malware.miner_services)} services on "
        f"{len(malware.miner_sites)} sites"
    )


_THIRD_PARTIES = ("labels", "ats", "visits")

#: Every section, in print order.  ``table7`` is the one that reads the
#: ``geo`` runs, so only a ``geo`` report renders it.
SECTIONS: Tuple[Section, ...] = (
    Section("corpus", _calls("popularity"), {}, None, _corpus,
            figure=("figure1", _figure1)),
    Section("table1", _calls("owners"),
            {"home": ("owners",), "inspections": ()}, "Table 1: owners",
            lambda study, scale: render_table1(study.owners(),
                                               study.best_rank)),
    Section("table2", _calls("table2"),
            {"home": _THIRD_PARTIES, "regular": _THIRD_PARTIES},
            "Table 2: third parties",
            lambda study, scale: render_table2(study.table2())),
    Section("table3", _calls("table3", "crawled_popularity"),
            {"home": ("labels", "visits")}, "Table 3: long tail",
            lambda study, scale: render_table3(study.table3())),
    Section("figure3", _calls("porn_attribution", "regular_attribution"),
            {"home": ("labels", "visits"), "regular": ("labels", "visits")},
            "Figure 3: organizations", _figure3,
            figure=("figure3", _figure3)),
    Section("table4", _calls("cookie_stats"),
            {"home": ("labels", "ats", "cookies"), "regular": ("labels",)},
            "Table 4: cookies",
            lambda study, scale: render_table4(study.cookie_stats())),
    Section("figure4", _calls("cookie_sync"), {"home": ("sync",)},
            "Figure 4: cookie syncing", _figure4,
            figure=("figure4", _figure4)),
    Section("table5", _calls("fingerprinting"),
            {"home": ("labels", "jsapi"), "regular": ("labels",)},
            "Table 5: fingerprinting", _table5),
    Section("table6", (("https", lambda study, _: study.https_report()),),
            {"home": ("https", "visits")}, "Table 6: HTTPS",
            lambda study, scale: render_table6(study.https_report())),
    Section("malware", _calls("malware"), {"home": ("labels", "visits")},
            None, _malware),
    Section("table7",
            (("geography",
              lambda study, countries: study.geography(countries)),),
            {"geo": _THIRD_PARTIES, "regular": ("labels",)},
            "Table 7: geography",
            lambda study, scale: render_table7(study.geography())),
    Section("table8",
            tuple((f"banners:{country}",
                   lambda study, _, country=country: study.banners(country))
                  for country in BANNER_COUNTRIES),
            {"banner": ("banners",)}, "Table 8: banners",
            lambda study, scale: render_table8(
                *(study.banners(country) for country in BANNER_COUNTRIES))),
)

_BY_NAME = {section.name: section for section in SECTIONS}
_FIGURES = {section.figure[0]: section.figure[1]
            for section in SECTIONS if section.figure}

#: Every figure ``render_figure`` draws, in print order.
FIGURE_NAMES: Tuple[str, ...] = tuple(_FIGURES)
#: Section names served under ``/figures/`` rather than ``/tables/``:
#: the sections that are one figure.
FIGURE_SECTIONS = frozenset(name for name in _FIGURES if name in _BY_NAME)


def rendered(geo: bool = False) -> Tuple[Section, ...]:
    """The sections a report renders, in print order."""
    return tuple(section for section in SECTIONS
                 if geo or "geo" not in section.runs)


def section_names(geo: bool = False) -> List[str]:
    """The section names a report renders, in order, without a study."""
    return [section.name for section in rendered(geo)]


def sections_reading(roles: Sequence[str]) -> Tuple[str, ...]:
    """The sections that read no run outside ``roles``, in print order."""
    return tuple(section.name for section in SECTIONS
                 if set(section.runs) <= set(roles))


def study_results(geo: bool = False) -> List[Result]:
    """The results of the sections a report renders, each once, in the
    order a front-to-back render first pulls them."""
    results: Dict[str, Callable] = {}
    for section in rendered(geo):
        for name, call in section.results:
            results.setdefault(name, call)
    return list(results.items())


def run_reads(sections: Sequence[Section], country: str,
              kind: str) -> Tuple[str, ...]:
    """The analyses ``sections`` read from the run of ``kind`` from
    ``country`` (in its roles), in the run's map order."""
    wanted = {name for section in sections
              for role in run_roles(country, kind)
              for name in section.runs.get(role, ())}
    order = PORN_ANALYSES if kind.endswith(":porn") else REGULAR_ANALYSES
    return tuple(name for name in order if name in wanted)


def report_sections(study, scale: float,
                    geo: bool = False) -> List[Tuple[str, str]]:
    """Every section of the full study report, in print order.

    Evaluating the list pulls each analysis through the study's memo,
    so it works identically on a live study and a store-only one
    (``repro report``).
    """
    return [(section.name, section.text(study, scale))
            for section in rendered(geo)]


def render_section(study, scale: float, name: str) -> str:
    """One section's text, evaluating only the analyses it needs.

    This is the service's result path: a job that ran a subset of
    analyses can serve the sections that subset feeds without the
    renderer demanding crawls the store does not hold.  Every section is
    addressable, including ``table7``.
    """
    return _BY_NAME[name].text(study, scale)


def full_report(study, scale: float, geo: bool = False) -> str:
    """The complete report text exactly as the CLI prints it."""
    texts = [text for _, text in report_sections(study, scale, geo=geo)]
    return "\n\n".join(texts) + "\n"


def render_figure(study, scale: float, name: str) -> str:
    """A figure's raw ASCII art (no ``== header ==`` line).

    ``figure1`` is only available here — in the report it is embedded in
    the ``corpus`` section.
    """
    return _FIGURES[name](study, scale)
