"""Extension (§10) — tracking on subscription versus free websites.

The paper proposes comparing "the presence and amount of tracking
services between the subscription and free modes" as future work.  This
module joins the §4.1 business-model classification against the §4.2/§5
tracking measurements, per monetization model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ...browser.events import CrawlLog
from ...net.url import registrable_domain
from ..business import BusinessReport, MODEL_FREE, MODEL_NONE, MODEL_PAID
from ..cookie_analysis import MIN_ID_LENGTH
from ..partylabel import PartyLabels

__all__ = ["ModelTrackingRow", "SubscriptionTrackingReport",
           "compare_tracking_by_model"]


@dataclass(frozen=True)
class ModelTrackingRow:
    """Tracking surface for one monetization model."""

    model: str
    site_count: int
    mean_third_parties: float
    mean_third_party_id_cookies: float
    sites_with_tracking_fraction: float


@dataclass
class SubscriptionTrackingReport:
    rows: List[ModelTrackingRow] = field(default_factory=list)

    def row(self, model: str) -> Optional[ModelTrackingRow]:
        return next((row for row in self.rows if row.model == model), None)


def compare_tracking_by_model(
    business: BusinessReport,
    labels: PartyLabels,
    log: CrawlLog,
) -> SubscriptionTrackingReport:
    """Aggregate third-party and cookie counts per monetization model."""
    model_of = {entry.site_domain: entry.model for entry in business.models}

    cookie_counts: Dict[str, int] = {}
    seen = set()
    for cookie in log.cookies:
        key = (cookie.page_domain, cookie.domain, cookie.name, cookie.value)
        if key in seen:
            continue
        seen.add(key)
        if cookie.session or len(cookie.value) < MIN_ID_LENGTH:
            continue
        if registrable_domain(cookie.domain) != \
                registrable_domain(cookie.page_domain):
            cookie_counts[cookie.page_domain] = \
                cookie_counts.get(cookie.page_domain, 0) + 1

    report = SubscriptionTrackingReport()
    for model in (MODEL_NONE, MODEL_FREE, MODEL_PAID):
        sites = [site for site, site_model in model_of.items()
                 if site_model == model]
        if not sites:
            report.rows.append(ModelTrackingRow(model, 0, 0.0, 0.0, 0.0))
            continue
        third_parties = [len(labels.third_parties_of(site)) for site in sites]
        cookies = [cookie_counts.get(site, 0) for site in sites]
        tracked = sum(1 for count in cookies if count > 0)
        report.rows.append(
            ModelTrackingRow(
                model=model,
                site_count=len(sites),
                mean_third_parties=sum(third_parties) / len(sites),
                mean_third_party_id_cookies=sum(cookies) / len(sites),
                sites_with_tracking_fraction=tracked / len(sites),
            )
        )
    return report
