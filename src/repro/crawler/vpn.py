"""Vantage-point management (the paper's VPN setup, §3.1).

The study crawls from a physical machine in Spain plus NordVPN /
PrivateVPN exits in the US, UK, Russia, India, and Singapore.  Here a
vantage point is simply a client context whose IP falls in the right
country prefix; the synthetic servers geo-discriminate on it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..net.geo import DEFAULT_VANTAGE_POINTS, VantagePoint
from ..webgen.universe import ClientContext

__all__ = ["VantagePointManager", "client_for"]


def client_for(point: VantagePoint, *, epoch: str = "crawl") -> ClientContext:
    """Build the browser-facing client context for a vantage point."""
    return ClientContext(country_code=point.country_code,
                         client_ip=point.client_ip, epoch=epoch)


class VantagePointManager:
    """The study's vantage points, by country code.

    The Spanish vantage point is the physical machine (no VPN); the rest
    tunnel through commercial VPN exits.
    """

    def __init__(self, points: Optional[Sequence[VantagePoint]] = None) -> None:
        self.points: List[VantagePoint] = list(points or DEFAULT_VANTAGE_POINTS)
        by_country = {point.country_code: point for point in self.points}
        if len(by_country) != len(self.points):
            raise ValueError("duplicate vantage-point country codes")
        self._by_country: Dict[str, VantagePoint] = by_country

    def __len__(self) -> int:
        return len(self.points)

    @property
    def country_codes(self) -> List[str]:
        return [point.country_code for point in self.points]

    def point(self, country_code: str) -> VantagePoint:
        try:
            return self._by_country[country_code]
        except KeyError:
            raise KeyError(f"no vantage point in {country_code!r}") from None

    def client(self, country_code: str, *, epoch: str = "crawl") -> ClientContext:
        return client_for(self.point(country_code), epoch=epoch)

    @property
    def home(self) -> VantagePoint:
        """The physical (non-VPN) vantage point, if any; else the first."""
        for point in self.points:
            if not point.via_vpn:
                return point
        return self.points[0]
