"""A DNS resolver over the synthetic universe.

The resolver maps FQDNs to IPv4 addresses allocated by
:mod:`repro.net.geo`.  Wildcard zones support services that mint arbitrary
subdomains (the paper observes CDN-style hosts like
``img100-589.xvideos.com``); a wildcard record resolves every label under
its zone to the same server.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = ["DNSError", "NXDomain", "DNSResolver"]


class DNSError(Exception):
    """Base class for resolver failures."""


class NXDomain(DNSError):
    """The queried name does not exist."""

    def __init__(self, name: str) -> None:
        super().__init__(f"NXDOMAIN: {name}")
        self.name = name


class DNSResolver:
    """Authoritative resolver for the synthetic address space."""

    def __init__(self) -> None:
        self._records: Dict[str, str] = {}
        self._wildcards: Dict[str, str] = {}
        self._queries = 0

    @property
    def query_count(self) -> int:
        """Total lookups served (useful for crawl accounting)."""
        return self._queries

    def add_record(self, name: str, address: str) -> None:
        """Register an exact A record."""
        self._records[name.lower()] = address

    def add_wildcard(self, zone: str, address: str) -> None:
        """Register ``*.zone`` (and the zone apex) to resolve to ``address``."""
        zone = zone.lower()
        self._wildcards[zone] = address
        self._records.setdefault(zone, address)

    def resolve(self, name: str) -> str:
        """Resolve ``name`` to an IPv4 address or raise :class:`NXDomain`."""
        self._queries += 1
        name = name.lower().rstrip(".")
        address = self._records.get(name)
        if address is not None:
            return address
        # Walk up parent zones looking for a wildcard.
        labels = name.split(".")
        for i in range(1, len(labels)):
            zone = ".".join(labels[i:])
            address = self._wildcards.get(zone)
            if address is not None:
                return address
        raise NXDomain(name)

    def try_resolve(self, name: str) -> Optional[str]:
        """Like :meth:`resolve` but returns ``None`` on NXDOMAIN."""
        try:
            return self.resolve(name)
        except NXDomain:
            return None

    def knows(self, name: str) -> bool:
        return self.try_resolve(name) is not None

    def __len__(self) -> int:
        return len(self._records)
