"""Blockchain pool association (Section 4.2 of the paper).

The method: join the pool as a miner and request fresh PoW inputs every
500 ms from every endpoint. Cluster inputs by their previous-block pointer.
When the chain advances, compare each clustered input's Merkle root with
the Merkle root of the block actually mined on that parent: a match proves
the block was mined from that pool's template, because the first Merkle
leaf is the pool's own coinbase — "we could never by accident see a Merkle
tree root of another miner in the PoW input".

Classes:

- :class:`PoolObserver` — the polling client (with optional blob
  de-transformation for pools that obfuscate, as Coinhive does).
- :class:`BlockAttributor` — the chain-side matching.
- :class:`NetworkEstimator` — blocks/day → pool share → hash rate → users,
  the arithmetic behind Table 6 and the in-text estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.blockchain.chain import Blockchain
from repro.faults.ledger import FaultLedger
from repro.faults.plan import FaultKind, FaultPlan
from repro.faults.resilience import BreakerPolicy, BreakerRegistry, RetryPolicy
from repro.faults.taxonomy import ErrorClass, classify_reason, is_transient
from repro.obs.profile import NULL_OBS, Obs
from repro.pool.jobs import parse_blob
from repro.pool.server import PoolUnavailable


@dataclass(frozen=True)
class PowObservation:
    """One polled PoW input, parsed."""

    endpoint: str
    seen_at: float
    prev_id: bytes
    merkle_root: bytes
    num_txs: int


@dataclass
class PoolObserver:
    """Polls pool endpoints for PoW inputs and clusters them.

    Parameters
    ----------
    fetch_input:
        ``fetch_input(endpoint, now) -> bytes`` returning the raw job blob
        a miner would receive from that endpoint.
    endpoints:
        Endpoint identifiers to poll (Coinhive: 32).
    poll_interval:
        Seconds between polls per endpoint (paper: 0.5).
    detransform:
        Optional blob de-obfuscation (the reverse-engineered XOR).
    fault_plan:
        Optional chaos plane injecting client-side poll failures, keyed on
        ``(endpoint, poll sequence, attempt)``.
    retry:
        Optional in-tick retry budget: a transient poll failure is retried
        immediately (retries are fast against the 500 ms poll interval).
    breaker:
        Optional per-endpoint circuit breaker; an endpoint that keeps
        failing is skipped until its half-open probe succeeds.
    ledger:
        Optional :class:`~repro.faults.ledger.FaultLedger` receiving the
        injected/observed/recovered accounting.

    A poll that fails terminally is simply a missed observation — the
    association method is a lower bound by construction, and stays correct
    as long as *some* poll per template window succeeds.
    """

    fetch_input: Callable[[str, float], bytes]
    endpoints: list
    poll_interval: float = 0.5
    detransform: Optional[Callable[[bytes], bytes]] = None
    fault_plan: Optional[FaultPlan] = None
    retry: Optional[RetryPolicy] = None
    breaker: Optional[BreakerPolicy] = None
    ledger: Optional[FaultLedger] = None
    #: observability hook — each poll tick is one ``ws-poll`` span
    obs: Obs = field(default=NULL_OBS, repr=False)
    observations: list = field(default_factory=list)
    #: prev_id → {merkle_root, ...}
    clusters: dict = field(default_factory=dict)
    #: (prev_id, endpoint) → {merkle_root, ...}
    per_endpoint_clusters: dict = field(default_factory=dict)
    polls: int = 0
    failures: int = 0
    #: per-endpoint poll sequence numbers (fault keying)
    _poll_seq: dict = field(default_factory=dict)
    _breakers: Optional[BreakerRegistry] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.breaker is not None:
            self._breakers = BreakerRegistry(policy=self.breaker, ledger=self.ledger)

    def poll_once(self, now: float) -> list:
        """Poll every endpoint once; returns new observations."""
        if not self.obs.enabled:
            return self._poll_once(now)
        failures_before = self.failures
        with self.obs.span("ws-poll") as span:
            new = self._poll_once(now)
            span.set_tag("observations", len(new))
        self.obs.inc("poll.ticks")
        self.obs.inc("poll.observations", len(new))
        self.obs.inc("poll.failures", self.failures - failures_before)
        return new

    def _poll_once(self, now: float) -> list:
        new: list[PowObservation] = []
        for endpoint in self.endpoints:
            self.polls += 1
            seq = self._poll_seq.get(endpoint, 0)
            self._poll_seq[endpoint] = seq + 1
            breaker = self._breakers.get(endpoint) if self._breakers is not None else None
            if breaker is not None and not breaker.allow():
                self.failures += 1
                if self.ledger is not None:
                    self.ledger.record_observed(ErrorClass.BREAKER_OPEN)
                continue
            blob, injected, error_class = self._fetch(endpoint, now, seq)
            if blob is None:
                self.failures += 1
                if breaker is not None:
                    breaker.record_failure()
                if self.ledger is not None:
                    self.ledger.settle(injected, recovered=False)
                    self.ledger.record_observed(error_class)
                continue
            if breaker is not None:
                breaker.record_success()
            if self.ledger is not None:
                self.ledger.settle(injected, recovered=True)
            if self.detransform is not None:
                blob = self.detransform(blob)
            try:
                _header, prev_id, _nonce, merkle_root, num_txs = parse_blob(blob)
            except Exception:
                self.failures += 1
                if self.ledger is not None:
                    self.ledger.record_observed(ErrorClass.PROTOCOL)
                continue
            observation = PowObservation(
                endpoint=endpoint,
                seen_at=now,
                prev_id=prev_id,
                merkle_root=merkle_root,
                num_txs=num_txs,
            )
            new.append(observation)
            self.observations.append(observation)
            self.clusters.setdefault(prev_id, set()).add(merkle_root)
            self.per_endpoint_clusters.setdefault((prev_id, endpoint), set()).add(merkle_root)
        return new

    def _fetch(
        self, endpoint: str, now: float, seq: int
    ) -> tuple[Optional[bytes], list, ErrorClass]:
        """One poll under the retry budget.

        Returns ``(blob_or_None, injected fault kinds, terminal class)``.
        Injection counts land in the ledger here; settlement (recovered vs
        unrecovered) happens in :meth:`poll_once` where the poll's fate is
        known.
        """
        attempts = self.retry.max_attempts if self.retry is not None else 1
        injected: list = []
        error_class = ErrorClass.POOL_OUTAGE
        for attempt in range(attempts):
            if attempt > 0 and self.ledger is not None:
                self.ledger.retries += 1
            if self.fault_plan is not None and self.fault_plan.poll_fault(
                endpoint, seq, attempt
            ):
                injected.append(FaultKind.POOL_OUTAGE)
                if self.ledger is not None:
                    self.ledger.record_injection(FaultKind.POOL_OUTAGE)
                error_class = ErrorClass.POOL_OUTAGE
                continue
            try:
                return self.fetch_input(endpoint, now), injected, error_class
            except PoolUnavailable:
                injected.append(FaultKind.POOL_OUTAGE)
                if self.ledger is not None:
                    self.ledger.record_injection(FaultKind.POOL_OUTAGE)
                error_class = ErrorClass.POOL_OUTAGE
                continue
            except Exception as exc:
                error_class = classify_reason(str(exc))
                if not is_transient(error_class):
                    break
        return None, injected, error_class

    def run(self, loop, duration: float) -> None:
        """Poll on the event loop for ``duration`` simulated seconds."""
        end = loop.now + duration

        def tick() -> None:
            self.poll_once(loop.now)
            if loop.now + self.poll_interval <= end:
                loop.call_later(self.poll_interval, tick)

        tick()
        loop.run_until(end)

    # -- the paper's endpoint-count observations ---------------------------------

    def max_inputs_per_endpoint(self) -> int:
        """Paper: "we never obtain more than 8 different PoW inputs"."""
        return max((len(roots) for roots in self.per_endpoint_clusters.values()), default=0)

    def max_inputs_per_block(self) -> int:
        """Paper: "at most 128 different PoW inputs per block" (32 endpoints)."""
        return max((len(roots) for roots in self.clusters.values()), default=0)


@dataclass(frozen=True)
class AttributedBlock:
    """A block proven to originate from the observed pool."""

    height: int
    timestamp: int
    reward_atomic: int
    merkle_root: bytes
    #: the previous-block id whose observed PoW inputs held the root
    cluster_id: bytes = b""


@dataclass
class BlockAttributor:
    """Matches observed PoW inputs against blocks on the chain."""

    chain: Blockchain

    def attribute(self, clusters: dict) -> list:
        """All chain blocks whose Merkle root appears in ``clusters``.

        ``clusters`` maps prev-block id → set of observed Merkle roots (as
        built by :class:`PoolObserver`). For each cluster we look up the
        block that extended that parent and compare roots.
        """
        attributed: list[AttributedBlock] = []
        for prev_id, merkle_roots in clusters.items():
            block = self.chain.block_after(prev_id)
            if block is None:
                continue  # parent never got extended on our chain view
            if block.merkle_root() in merkle_roots:
                height = self.chain.height_of(block)
                attributed.append(
                    AttributedBlock(
                        height=height,
                        timestamp=block.header.timestamp,
                        reward_atomic=block.reward(),
                        merkle_root=block.merkle_root(),
                        cluster_id=prev_id,
                    )
                )
        attributed.sort(key=lambda blk: blk.height)
        return attributed


def attribution_evidence(block: AttributedBlock, clusters: dict):
    """The Merkle proof behind one attribution :meth:`BlockAttributor.attribute`
    already made: the cluster id (the previous-block pointer the PoW inputs
    were grouped on), the matched Merkle root, and the cluster size — "we
    could never by accident see a Merkle tree root of another miner"."""
    from repro.obs.evidence import Evidence

    prev_id = block.cluster_id.hex()
    return Evidence(
        detector="pool",
        verdict="attributed",
        summary=(
            f"block {block.height}: mined Merkle root matches a PoW input "
            f"observed for cluster {prev_id[:16]}"
        ),
        details=(
            ("cluster_id", prev_id),
            ("prev_block_pointer", prev_id),
            ("merkle_root", block.merkle_root.hex()),
            ("cluster_roots_observed", str(len(clusters[block.cluster_id]))),
            ("height", str(block.height)),
        ),
    )


@dataclass
class NetworkEstimator:
    """Derives the paper's Section 4.2 quantities.

    All methods are pure arithmetic over attributed-block counts and chain
    difficulty, so they can be unit-tested against the paper's numbers
    (8.5 blocks/day of 720 ⇒ 1.18%; 55.4 G difficulty ⇒ 462 MH/s; ×1.18%
    ⇒ 5.5 MH/s; at 20–100 H/s per client ⇒ 292 K–58 K users).
    """

    block_target_seconds: int = 120

    def blocks_per_day_network(self) -> float:
        return 86400 / self.block_target_seconds

    def pool_share(self, pool_blocks_per_day: float) -> float:
        return pool_blocks_per_day / self.blocks_per_day_network()

    def network_hashrate(self, difficulty: float) -> float:
        return difficulty / self.block_target_seconds

    def pool_hashrate(self, pool_blocks_per_day: float, difficulty: float) -> float:
        return self.pool_share(pool_blocks_per_day) * self.network_hashrate(difficulty)

    def users_required(self, pool_hashrate: float, per_user_rate: float) -> float:
        if per_user_rate <= 0:
            raise ValueError("per-user hash rate must be positive")
        return pool_hashrate / per_user_rate

    def monthly_revenue_usd(
        self, xmr_mined: float, usd_per_xmr: float = 120.0
    ) -> float:
        return xmr_mined * usd_per_xmr
