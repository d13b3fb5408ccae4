"""Synthetic web ecosystem generator (the study's crawl substrate)."""

from .builder import build_universe
from .config import CalibrationTargets, TIER_NAMES, UniverseConfig
from .rank import RankModel, RankTrajectory, TOP_LIST_SIZE, tier_of_rank
from .sites import AgeGateSpec, BannerSpec, PornSiteSpec, RegularSiteSpec
from .thirdparty import NAMED_SERVICES, ThirdPartyService
from .universe import (
    ClientContext,
    FetchError,
    SiteTimeoutError,
    SiteUnresponsiveError,
    Universe,
)

__all__ = [
    "build_universe",
    "CalibrationTargets",
    "TIER_NAMES",
    "UniverseConfig",
    "RankModel",
    "RankTrajectory",
    "TOP_LIST_SIZE",
    "tier_of_rank",
    "AgeGateSpec",
    "BannerSpec",
    "PornSiteSpec",
    "RegularSiteSpec",
    "NAMED_SERVICES",
    "ThirdPartyService",
    "ClientContext",
    "FetchError",
    "SiteTimeoutError",
    "SiteUnresponsiveError",
    "Universe",
]
