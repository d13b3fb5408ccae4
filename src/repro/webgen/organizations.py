"""Organizations: porn-site operators and third-party parent companies.

Section 4.1 identifies 24 companies owning 286 porn sites (Table 1), mostly
via TF-IDF similarity of privacy policies and ``<head>`` markup plus
DNS/WHOIS/X.509 joins.  Section 4.2(3) attributes third-party domains to
1,014 parent companies, mostly via X.509 Subject organizations.

This module holds the operator roster (from the calibration table) and an
allocator that mints long-tail third-party organizations, each owning a
handful of domains — giving attribution something real to recover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .config import CalibrationTargets

__all__ = ["PornOperator", "operators_from_targets", "TailOrgAllocator"]


@dataclass(frozen=True)
class PornOperator:
    """A company operating a cluster of pornographic websites."""

    name: str
    site_count: int
    flagship_domain: str
    flagship_best_rank: int

    @property
    def legal_name(self) -> str:
        """The string that appears in X.509 Subject O fields and policies."""
        if any(suffix in self.name for suffix in ("LTD", "Ltd", "Inc", "Media", "Holding")):
            return self.name
        return f"{self.name} Ltd."


def operators_from_targets(targets: CalibrationTargets) -> List[PornOperator]:
    """Build the operator roster from the calibration table (Table 1)."""
    return [
        PornOperator(name, count, flagship, rank)
        for name, count, flagship, rank in targets.owner_clusters
    ]


_TAIL_ORG_WORDS = (
    "Apex", "Blue", "Crimson", "Delta", "Echo", "Falcon", "Granite", "Harbor",
    "Ion", "Jade", "Kite", "Lumen", "Mosaic", "Nimbus", "Onyx", "Pivot",
    "Quartz", "Ridge", "Summit", "Tidal", "Umber", "Vertex", "Willow", "Zenith",
    "Nova", "Orbit", "Pulse", "Raven", "Slate", "Terra",
)

_TAIL_ORG_SUFFIXES = (
    "Media Group", "Digital Ltd", "Networks Inc.", "Interactive LLC",
    "Ad Solutions", "Online Media", "Technologies S.L.", "Marketing B.V.",
    "Data Systems", "Labs OU",
)


class TailOrgAllocator:
    """Mints long-tail third-party organizations and assigns domains.

    Each organization owns between one and ``max_domains`` service domains;
    74% of domains end up attributable (their certificates carry the
    organization name), matching Section 4.2(3).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        *,
        mean_domains_per_org: float = 3.5,
        max_domains: int = 8,
    ) -> None:
        self._rng = rng
        self._mean = mean_domains_per_org
        self._max = max_domains
        self._minted: Dict[str, int] = {}
        self._current_org: Optional[str] = None
        self._remaining_slots = 0

    def _mint_name(self) -> str:
        for _ in range(128):
            first = _TAIL_ORG_WORDS[int(self._rng.integers(0, len(_TAIL_ORG_WORDS)))]
            second = _TAIL_ORG_WORDS[int(self._rng.integers(0, len(_TAIL_ORG_WORDS)))]
            suffix = _TAIL_ORG_SUFFIXES[int(self._rng.integers(0, len(_TAIL_ORG_SUFFIXES)))]
            name = f"{first}{second} {suffix}" if first != second else f"{first} {suffix}"
            if name not in self._minted:
                self._minted[name] = 0
                return name
        # Pool exhausted: disambiguate with a counter.
        base = f"{_TAIL_ORG_WORDS[0]} {_TAIL_ORG_SUFFIXES[0]}"
        counter = len(self._minted)
        name = f"{base} {counter}"
        self._minted[name] = 0
        return name

    def next_org(self) -> str:
        """The organization that should own the next domain.

        Domains are assigned to the current organization until its sampled
        slot budget runs out, then a new organization is minted.
        """
        if self._remaining_slots <= 0 or self._current_org is None:
            self._current_org = self._mint_name()
            # Geometric-ish size: 1 + Poisson(mean - 1), capped.
            size = 1 + int(self._rng.poisson(max(self._mean - 1.0, 0.0)))
            self._remaining_slots = min(size, self._max)
        self._remaining_slots -= 1
        self._minted[self._current_org] += 1
        return self._current_org

    @property
    def organizations(self) -> Dict[str, int]:
        """Minted organizations and how many domains each received."""
        return dict(self._minted)
