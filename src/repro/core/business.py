"""Section 4.1 — monetization-model classification.

The landing page is scanned for account-creation and premium cues
(multilingual); sites with cues are labeled subscription sites, then
split into *paid* (payment-wall markers) and *free* (registration-only
markers) — the semi-automatic pass the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List

from ..crawler.selenium import SiteInspection

__all__ = ["BusinessModel", "BusinessReport", "classify_business_models"]

MODEL_NONE = "ad_supported"
MODEL_FREE = "free_subscription"
MODEL_PAID = "paid_subscription"


@dataclass(frozen=True)
class BusinessModel:
    site_domain: str
    model: str
    has_account_option: bool
    has_premium_cue: bool
    has_payment_cue: bool


@dataclass
class BusinessReport:
    models: List[BusinessModel] = field(default_factory=list)

    @property
    def inspected(self) -> int:
        return len(self.models)

    @property
    def subscription_sites(self) -> List[BusinessModel]:
        return [m for m in self.models if m.model != MODEL_NONE]

    @property
    def subscription_fraction(self) -> float:
        return len(self.subscription_sites) / self.inspected \
            if self.inspected else 0.0

    @property
    def paid_fraction_of_subscriptions(self) -> float:
        subscriptions = self.subscription_sites
        if not subscriptions:
            return 0.0
        paid = sum(1 for m in subscriptions if m.model == MODEL_PAID)
        return paid / len(subscriptions)


def classify_business_models(
    inspections: Iterable[SiteInspection],
) -> BusinessReport:
    """Label each inspected site's monetization model."""
    report = BusinessReport()
    for inspection in inspections:
        if not inspection.reachable:
            continue
        subscription = inspection.has_account_option or inspection.has_premium_cue
        if not subscription:
            model = MODEL_NONE
        elif inspection.has_payment_cue:
            model = MODEL_PAID
        else:
            model = MODEL_FREE
        report.models.append(
            BusinessModel(
                site_domain=inspection.domain,
                model=model,
                has_account_option=inspection.has_account_option,
                has_premium_cue=inspection.has_premium_cue,
                has_payment_cue=inspection.has_payment_cue,
            )
        )
    return report
