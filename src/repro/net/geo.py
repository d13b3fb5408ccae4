"""IP address allocation, geo-IP lookup, and vantage points.

Section 6 of the paper crawls from six countries (Spain, the USA, the UK,
Russia, India, and Singapore) through commercial VPNs.  Section 5.1.1 also
finds cookies that embed the client's IP address and approximate geo-IP
coordinates.  Both require a consistent model of client addresses and a
geo-IP database, provided here.

Addresses live in a per-country /8 so country attribution is a pure prefix
lookup, mimicking a MaxMind-style database with deliberately coarse
coordinates (geo-IP is city-level at best in reality).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "COUNTRIES",
    "Country",
    "GeoIPDatabase",
    "IPAllocator",
    "VantagePoint",
    "DEFAULT_VANTAGE_POINTS",
]


@dataclass(frozen=True)
class Country:
    """A jurisdiction the study crawls from or reasons about."""

    code: str
    name: str
    prefix: int  # first octet of the country's /8
    latitude: float
    longitude: float
    in_eu: bool = False
    #: Digital Economy Act-style age-verification mandate in force.
    age_verification_law: bool = False
    #: Pornhub-style passport/social-login mandate (Russia, §2.1).
    social_login_mandate: bool = False


COUNTRIES: Dict[str, Country] = {
    "ES": Country("ES", "Spain", 31, 40.4, -3.7, in_eu=True),
    "US": Country("US", "United States", 23, 38.9, -77.0),
    "UK": Country("UK", "United Kingdom", 51, 51.5, -0.1, age_verification_law=True),
    "RU": Country("RU", "Russia", 77, 55.7, 37.6, social_login_mandate=True),
    "IN": Country("IN", "India", 59, 28.6, 77.2),
    "SG": Country("SG", "Singapore", 119, 1.35, 103.8),
    "DE": Country("DE", "Germany", 46, 52.5, 13.4, in_eu=True),
    "NL": Country("NL", "Netherlands", 62, 52.4, 4.9, in_eu=True),
}


class IPAllocator:
    """Deterministically allocates IPv4 addresses inside country prefixes."""

    def __init__(self) -> None:
        self._next_host: Dict[str, int] = {}

    def allocate(self, country_code: str = "US") -> str:
        """Allocate the next unused address in the country's /8."""
        country = COUNTRIES.get(country_code)
        if country is None:
            raise KeyError(f"unknown country code: {country_code!r}")
        index = self._next_host.get(country_code, 0)
        self._next_host[country_code] = index + 1
        # Skip .0 and .255 in the final octet for realism.
        third, fourth = divmod(index, 254)
        second, third = divmod(third, 256)
        if second > 255:
            raise RuntimeError(f"address space exhausted for {country_code}")
        return f"{country.prefix}.{second}.{third}.{fourth + 1}"


class GeoIPDatabase:
    """MaxMind-style lookup: address -> country and coarse coordinates."""

    def __init__(self, countries: Optional[Dict[str, Country]] = None) -> None:
        self._by_prefix: Dict[int, Country] = {}
        for country in (countries or COUNTRIES).values():
            self._by_prefix[country.prefix] = country

    def country_of(self, address: str) -> Optional[Country]:
        try:
            prefix = int(address.split(".", 1)[0])
        except (ValueError, IndexError):
            return None
        return self._by_prefix.get(prefix)

    def coordinates_of(self, address: str) -> Optional[Tuple[float, float]]:
        """Approximate (lat, lon) — country centroid, like a coarse geo-IP DB."""
        country = self.country_of(address)
        if country is None:
            return None
        return (country.latitude, country.longitude)


@dataclass(frozen=True)
class VantagePoint:
    """A crawl origin: a client IP in some jurisdiction.

    ``via_vpn`` is informational — the paper used NordVPN/PrivateVPN for all
    non-Spanish vantage points.
    """

    country_code: str
    client_ip: str
    via_vpn: bool = True
    label: str = ""

    @property
    def country(self) -> Country:
        return COUNTRIES[self.country_code]

    @property
    def in_eu(self) -> bool:
        return self.country.in_eu

    def __str__(self) -> str:
        return self.label or f"{self.country_code} ({self.client_ip})"


def default_vantage_points() -> List[VantagePoint]:
    """The six vantage points used throughout the paper's Section 6."""
    allocator = IPAllocator()
    points = []
    for code, via_vpn in [
        ("ES", False),  # the physical machine in Spain
        ("US", True),
        ("UK", True),
        ("RU", True),
        ("IN", True),
        ("SG", True),
    ]:
        points.append(
            VantagePoint(code, allocator.allocate(code), via_vpn=via_vpn, label=code)
        )
    return points


DEFAULT_VANTAGE_POINTS: List[VantagePoint] = default_vantage_points()
