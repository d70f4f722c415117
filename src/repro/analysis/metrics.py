"""Per-shard campaign metrics.

The sharded executor (:mod:`repro.analysis.parallel`) measures every shard
worker — wall clock, throughput, fetch failures, detector hits, retries —
and aggregates them into a :class:`CampaignMetrics` the CLI renders next
to the campaign results. Shards that exhausted their retries are kept in
the list with their ``error`` set, so degraded runs stay inspectable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.faults.ledger import FaultLedger
from repro.obs.metrics import MetricsRegistry


@dataclass
class ShardMetrics:
    """Measurements of one shard worker's execution."""

    shard_id: int
    sites: int
    wall_seconds: float = 0.0
    domains_probed: int = 0
    fetch_failures: int = 0
    detector_hits: int = 0
    retries: int = 0
    error: Optional[str] = None
    #: fault accounting for this shard (``None`` when no chaos plane ran)
    ledger: Optional[FaultLedger] = None
    #: unified obs registry for this shard (``None`` when obs is off)
    registry: Optional[MetricsRegistry] = None
    #: spans traced inside this shard (``None`` when obs is off)
    spans: Optional[list] = None

    def as_registry(self) -> MetricsRegistry:
        """This shard's tallies under the unified merge law.

        Starts from the obs registry (stage histograms, counters recorded
        during the shard run) and folds in the dataclass fields plus the
        fault ledger, so one ``MetricsRegistry.merge`` chain reproduces
        every aggregate ``CampaignMetrics`` computes field-by-field.
        """
        registry = MetricsRegistry()
        if self.registry is not None:
            registry.merge(self.registry)
        registry.inc("shard.sites", self.sites)
        registry.inc("shard.domains_probed", self.domains_probed)
        registry.inc("shard.fetch_failures", self.fetch_failures)
        registry.inc("shard.detector_hits", self.detector_hits)
        registry.inc("shard.retries", self.retries)
        registry.inc("shard.failed", 0 if self.ok else 1)
        if self.ledger is not None:
            registry.merge(self.ledger.as_registry())
        return registry

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def domains_per_sec(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.domains_probed / self.wall_seconds


@dataclass
class CampaignMetrics:
    """Aggregated view over every shard of one campaign execution."""

    shards: list[ShardMetrics] = field(default_factory=list)
    wall_seconds: float = 0.0
    mode: str = "serial"
    workers: int = 1

    @property
    def total_sites(self) -> int:
        return sum(shard.sites for shard in self.shards)

    @property
    def total_probed(self) -> int:
        return sum(shard.domains_probed for shard in self.shards)

    @property
    def total_fetch_failures(self) -> int:
        return sum(shard.fetch_failures for shard in self.shards)

    @property
    def total_detector_hits(self) -> int:
        return sum(shard.detector_hits for shard in self.shards)

    @property
    def failed_shards(self) -> list[int]:
        return [shard.shard_id for shard in self.shards if not shard.ok]

    @property
    def fault_ledger(self) -> FaultLedger:
        """All shard ledgers merged (additively, in shard order)."""
        merged = FaultLedger()
        for shard in self.shards:
            if shard.ledger is not None:
                merged.merge(shard.ledger)
        return merged

    def merged_registry(self) -> MetricsRegistry:
        """Every shard's registry folded under the single merge law.

        Because counter addition is associative and commutative with the
        empty registry as identity, the result is independent of shard
        order, worker count, and execution mode — the property the
        determinism suite pins (serial == process == resumed
        for the ``fault.*`` and ``shard.*`` planes).
        """
        merged = MetricsRegistry()
        for shard in self.shards:
            merged.merge(shard.as_registry())
        return merged

    @property
    def aggregate_rate(self) -> float:
        """Overall domains/second against campaign wall clock."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.total_probed / self.wall_seconds

    @property
    def parallel_efficiency(self) -> float:
        """Sum of shard wall clocks over campaign wall clock × workers.

        1.0 means every worker stayed busy the whole time; low values flag
        skewed shards or scheduling overhead.
        """
        if self.wall_seconds <= 0.0 or self.workers <= 0:
            return 0.0
        busy = sum(shard.wall_seconds for shard in self.shards)
        return busy / (self.wall_seconds * self.workers)

    def summary_rows(self) -> list[list[object]]:
        """Rows for :func:`repro.analysis.reporting.render_table`."""
        rows: list[list[object]] = []
        for shard in self.shards:
            rows.append(
                [
                    shard.shard_id,
                    shard.sites,
                    f"{shard.wall_seconds:.3f}s",
                    f"{shard.domains_per_sec:.0f}/s",
                    shard.fetch_failures,
                    shard.detector_hits,
                    shard.retries,
                    "ok" if shard.ok else f"FAILED: {shard.error}",
                ]
            )
        return rows

    SUMMARY_HEADER = [
        "shard", "sites", "wall", "rate", "fetch fails", "hits", "retries", "status",
    ]
