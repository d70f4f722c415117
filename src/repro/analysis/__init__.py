"""Measurement campaigns and the table/figure reproduction harness.

One module per experiment group:

- :mod:`repro.analysis.crawl` — the zgrab campaign (Figure 2) and the
  Chrome campaign (Tables 1–3).
- :mod:`repro.analysis.shortlink` — the cnhv.co study (Figures 3–4,
  Tables 4–5).
- :mod:`repro.analysis.network` — the four-week/three-month network
  observation (Figure 5, Table 6).
- :mod:`repro.analysis.economics` — revenue arithmetic.
- :mod:`repro.analysis.parallel` — the sharded parallel campaign executor
  (deterministic domain→shard hashing, serial or forked shards, retries).
- :mod:`repro.analysis.metrics` — per-shard execution metrics.
- :mod:`repro.analysis.reporting` — plain-text table and chart rendering
  so every benchmark prints the same rows/series as the paper.
"""

from repro.analysis.crawl import ChromeCampaign, ZgrabCampaign
from repro.analysis.metrics import CampaignMetrics, ShardMetrics
from repro.analysis.parallel import (
    ParallelConfig,
    ShardedChromeCampaign,
    ShardedZgrabCampaign,
)
from repro.analysis.shortlink import ShortLinkStudy
from repro.analysis.network import NetworkObservation, NetworkSimConfig, simulate_network
from repro.analysis.economics import EconomicsReport

__all__ = [
    "CampaignMetrics",
    "ChromeCampaign",
    "ParallelConfig",
    "ShardMetrics",
    "ShardedChromeCampaign",
    "ShardedZgrabCampaign",
    "ZgrabCampaign",
    "ShortLinkStudy",
    "NetworkObservation",
    "NetworkSimConfig",
    "simulate_network",
    "EconomicsReport",
]
