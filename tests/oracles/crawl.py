"""The sequential crawl loops, kept as the reference for the sharded executor.

Every product crawl runs through :mod:`repro.analysis.parallel`, which
splits a population into shards, runs each shard's sites through
``ZgrabCampaign.scan_sites_indexed`` / ``ChromeCampaign.run_sites`` and
merges the partials. The loops here make one partial covering every site,
in population order, in the calling process — no partition, no journal, no
pool — so a sharded result can be checked against an answer that shares
only the per-site code with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.analysis.crawl import (
    ChromeCampaign,
    ChromeCampaignResult,
    ZgrabCampaign,
    ZgrabScanPartial,
    ZgrabScanResult,
)
from repro.core.detector import PageDetector
from repro.core.signatures import build_reference_database
from repro.internet.population import SiteSpec


@dataclass
class SequentialZgrabCampaign(ZgrabCampaign):
    """:class:`~repro.analysis.crawl.ZgrabCampaign` run as one pass."""

    def scan_sites(self, sites: Iterable[SiteSpec], scan_index: int = 0) -> ZgrabScanPartial:
        """Fetch-and-match ``sites``, indexed in the order given."""
        return self.scan_sites_indexed(enumerate(sites), scan_index)

    def scan(self, scan_index: int = 0) -> ZgrabScanResult:
        """Scan ``0`` (first date) or ``1`` (second date, after churn)."""
        return self.finalize_scan(
            self.scan_sites(self.population.sites, scan_index), scan_index
        )

    def both_scans(self) -> list[ZgrabScanResult]:
        return [self.scan(0), self.scan(1)]


@dataclass
class SequentialChromeCampaign(ChromeCampaign):
    """:class:`~repro.analysis.crawl.ChromeCampaign` run as one pass, with
    the reference-catalogue detector the sharded campaign builds when
    none is given."""

    def __post_init__(self) -> None:
        if self.detector is None:
            self.detector = PageDetector()
            self.detector.classifier.database = build_reference_database()

    def run(self) -> ChromeCampaignResult:
        return self.finalize_run(self.run_sites(enumerate(self.population.sites)))
