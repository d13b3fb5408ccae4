"""Section 4.2(3) — attributing third-party domains to parent companies.

Disconnect's entity list alone resolves very few organizations; the paper
completes it with the organization field of each domain's X.509
certificate, discarding domain-validated certificates whose Subject only
repeats the domain name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Set

from ..blocklists.disconnect import DisconnectList
from ..net.tls import Certificate

__all__ = ["AttributionResult", "attribute_organizations"]

CertLookup = Callable[[str], Optional[Certificate]]


WhoisLookup = Callable[[str], Optional[str]]


@dataclass
class AttributionResult:
    """Organization attribution for a set of third-party FQDNs."""

    organization_of: Dict[str, str] = field(default_factory=dict)  # fqdn -> org
    via_disconnect: Set[str] = field(default_factory=set)
    via_certificate: Set[str] = field(default_factory=set)
    via_whois: Set[str] = field(default_factory=set)
    unattributed: Set[str] = field(default_factory=set)

    @property
    def organizations(self) -> Set[str]:
        return set(self.organization_of.values())

    @property
    def disconnect_only_organizations(self) -> Set[str]:
        """Organizations resolvable with Disconnect alone."""
        return {
            self.organization_of[fqdn]
            for fqdn in self.via_disconnect
        }

    def domains_of(self, organization: str) -> Set[str]:
        return {
            fqdn for fqdn, org in self.organization_of.items()
            if org == organization
        }

    def attributed_fraction(self, total: Optional[int] = None) -> float:
        denominator = total if total else (
            len(self.organization_of) + len(self.unattributed)
        )
        return len(self.organization_of) / denominator if denominator else 0.0


def attribute_organizations(
    fqdns: Iterable[str],
    *,
    disconnect: DisconnectList,
    cert_lookup: Optional[CertLookup] = None,
    whois_lookup: Optional[WhoisLookup] = None,
) -> AttributionResult:
    """Attribute each FQDN to its parent organization.

    Priority: Disconnect's curated mapping, then the X.509 Subject
    organization, then the WHOIS registrant (the only evidence for domains
    without TLS).
    """
    result = AttributionResult()
    for fqdn in fqdns:
        organization = disconnect.organization_of(fqdn)
        if organization is not None:
            result.organization_of[fqdn] = organization
            result.via_disconnect.add(fqdn)
            continue
        if cert_lookup is not None:
            certificate = cert_lookup(fqdn)
            if certificate is not None and certificate.has_organization:
                result.organization_of[fqdn] = certificate.subject_o
                result.via_certificate.add(fqdn)
                continue
        if whois_lookup is not None:
            organization = whois_lookup(fqdn)
            if organization is not None:
                result.organization_of[fqdn] = organization
                result.via_whois.add(fqdn)
                continue
        result.unattributed.add(fqdn)
    return result
