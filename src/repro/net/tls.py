"""X.509 certificate model for the synthetic universe.

The paper (Section 4.2) uses certificate metadata two ways:

1. *first/third-party labeling* — an embedded service sharing a certificate
   (same Subject organization or overlapping SANs) with the host website is
   treated as first party;
2. *organization attribution* — the Subject ``O`` field names the parent
   company of a third-party domain, completing Disconnect's list.

We model exactly the fields those joins need.  Some real certificates carry
only a CN and no organization (domain-validated certs); the generator
reproduces that, and the paper's rule of ignoring such certificates is
implemented in :mod:`repro.core.attribution`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import FrozenSet, Optional

from .url import is_subdomain_of

__all__ = ["Certificate", "certificate_matches_host", "share_organization"]

_DOMAIN_RE = re.compile(
    r"^\*?\.?[a-z0-9]([a-z0-9-]*[a-z0-9])?(\.[a-z0-9]([a-z0-9-]*[a-z0-9])?)+$"
)


def _looks_like_domain(text: str) -> bool:
    """True when a certificate Subject field is just a hostname."""
    return bool(_DOMAIN_RE.match(text.strip().lower())) and " " not in text


@dataclass(frozen=True)
class Certificate:
    """A leaf X.509 certificate presented during a TLS handshake."""

    subject_cn: str
    subject_o: Optional[str] = None
    issuer_o: str = "Synthetic CA"
    san: FrozenSet[str] = frozenset()
    self_signed: bool = False

    @property
    def names(self) -> FrozenSet[str]:
        """Every DNS name the certificate is valid for (CN + SANs)."""
        return self.san | {self.subject_cn}

    @property
    def has_organization(self) -> bool:
        """True when Subject O carries a real company name.

        Domain-validated certificates often repeat the domain in the
        Subject; the paper discards those when attributing organizations.
        A Subject that *looks like* a hostname (single lowercase token with
        internal dots, e.g. ``ads.example.com``) is treated as such, while
        names with legal punctuation ("ExoClick S.L.") pass.
        """
        if not self.subject_o:
            return False
        return not _looks_like_domain(self.subject_o)

    def covers(self, host: str) -> bool:
        """True if this certificate is valid for ``host`` (wildcards allowed)."""
        host = host.lower()
        for name in self.names:
            name = name.lower()
            if name.startswith("*."):
                base = name[2:]
                # A wildcard matches exactly one extra label.
                if host.endswith("." + base) and host[: -(len(base) + 1)].count(".") == 0:
                    return True
            elif name == host:
                return True
        return False


def certificate_matches_host(cert: Certificate, host: str) -> bool:
    """Loose host/certificate relation used for party labeling.

    True when the certificate covers the host directly, or any certificate
    name shares a registrable relationship with it (subdomain either way).
    """
    if cert.covers(host):
        return True
    for name in cert.names:
        bare = name[2:] if name.startswith("*.") else name
        if is_subdomain_of(host, bare) or is_subdomain_of(bare, host):
            return True
    return False


def share_organization(a: Optional[Certificate], b: Optional[Certificate]) -> bool:
    """True when two certificates declare the same Subject organization."""
    if a is None or b is None:
        return False
    if not (a.has_organization and b.has_organization):
        return False
    return a.subject_o.strip().lower() == b.subject_o.strip().lower()
