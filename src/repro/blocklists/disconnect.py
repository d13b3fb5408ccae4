"""Disconnect-style entity list: domain -> parent organization.

Section 4.2(3) starts from Disconnect's domain-to-company mapping, finds it
incomplete (only 142 companies resolvable), and completes it with X.509
Subject organizations (1,014 companies).  This module models the list
itself; the completion logic lives in :mod:`repro.core.attribution`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..net.url import registrable_domain

__all__ = ["DisconnectEntry", "DisconnectList"]


@dataclass(frozen=True)
class DisconnectEntry:
    """One organization with the domains Disconnect attributes to it."""

    organization: str
    category: str  # advertising | analytics | social | content | fingerprinting
    domains: Tuple[str, ...]


class DisconnectList:
    """Lookup table from registrable domain to organization."""

    def __init__(self, entries: Iterable[DisconnectEntry] = ()) -> None:
        self._entries: List[DisconnectEntry] = []
        self._by_domain: Dict[str, DisconnectEntry] = {}
        for entry in entries:
            self.add(entry)

    def add(self, entry: DisconnectEntry) -> None:
        self._entries.append(entry)
        for domain in entry.domains:
            self._by_domain[registrable_domain(domain)] = entry

    def lookup(self, host: str) -> Optional[DisconnectEntry]:
        """Find the entry covering ``host`` (by registrable domain)."""
        return self._by_domain.get(registrable_domain(host))

    def organization_of(self, host: str) -> Optional[str]:
        entry = self.lookup(host)
        return entry.organization if entry else None

    def category_of(self, host: str) -> Optional[str]:
        entry = self.lookup(host)
        return entry.category if entry else None

    @property
    def organizations(self) -> Set[str]:
        return {entry.organization for entry in self._entries}

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)
