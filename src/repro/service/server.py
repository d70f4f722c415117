"""The deterministic, sim-clock-driven verdict server.

One :class:`VerdictServer` models a single-worker detection backend the
way the rest of the repo models the internet: every latency is simulated
seconds, every decision is a pure function of the seed and the arrival
timeline, and two runs with the same inputs produce byte-identical
metrics. The request lifecycle:

1. **Admission** (:meth:`submit`): per-tenant token bucket, then the
   bounded queue. Rejections answer immediately.
2. **Dequeue** (:meth:`drain_until`): requests start when the server
   frees up. A request whose deadline passed while queued is rejected
   without touching the cascade; otherwise the queue depth at dequeue
   picks the degradation tier.
3. **Fetch**: the server re-fetches the page through the chaos-wired
   :class:`~repro.web.zgrab.ZgrabFetcher` under a
   :class:`~repro.faults.resilience.ResiliencePolicy` whose deadline is
   the request's *remaining* budget — fetch retries can never outlive
   the caller. All fault accounting lands in the shared ledger.
4. **Cascade** (:meth:`~repro.core.detector.PageDetector.detect_request`):
   runs at the chosen tier against one atomically-snapshotted
   :class:`~repro.service.bundles.DetectionBundle`; the submitted wasm
   capture feeds the signature/classifier/dynamic stages.
5. **Response**: a :class:`ServiceResponse` carrying the verdict, the
   tier, the bundle version, and (in evidence mode) an evidence chain
   that `repro obs explain` can render — including *why* a degraded
   answer was partial.

Metrics land under ``service.*`` plus ``stage.svc.*`` histograms, so the
existing obs toolkit (profile tables, run diffs, SLO gates) applies
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.classifier import MinerClassifier
from repro.core.detector import (
    TIER_FULL,
    TIER_NO_CLASSIFIER,
    TIER_NO_DYNAMIC,
    TIER_STATIC_ONLY,
    PageDetector,
)
from repro.core.dynamic import DynamicMinerDetector
from repro.faults.ledger import FaultLedger
from repro.faults.plan import FaultKind, FaultPlan
from repro.faults.resilience import BreakerRegistry, ResiliencePolicy
from repro.internet.population import Population
from repro.obs.evidence import Evidence, VerdictRecord
from repro.obs.metrics import MetricsRegistry
from repro.service.admission import AdmissionQueue, ServicePolicy, TokenBucket
from repro.service.bundles import BundleStore
from repro.sim.clock import SimClock
from repro.web.zgrab import ZgrabFetcher

#: histogram bounds for request latencies (simulated seconds; the default
#: obs bounds top out at 60 s which is far past any request deadline)
_LATENCY_BOUNDS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0)


@dataclass(frozen=True)
class ServiceRequest:
    """One client request: a page to judge plus the client's capture."""

    tenant: str
    domain: str
    arrival: float
    #: absolute simulated deadline (arrival + budget)
    deadline: float
    #: wasm modules and WebSocket endpoints the client observed
    wasm_dumps: tuple = ()
    websocket_urls: tuple = ()
    sequence: int = 0


@dataclass(frozen=True)
class ServiceResponse:
    """The server's answer for one request."""

    request: ServiceRequest
    status: str  # ok | error | rejected
    reason: str = ""  # rejection/error detail ("rate-limit", "queue-full", ...)
    tier: str = TIER_FULL
    bundle_version: str = ""
    is_miner: bool = False
    family: str = ""
    method: str = ""
    nocoin_hit: bool = False
    started: float = 0.0
    completed: float = 0.0

    @property
    def latency(self) -> float:
        return max(0.0, self.completed - self.request.arrival)

    @property
    def queue_wait(self) -> float:
        return max(0.0, self.started - self.request.arrival)


@dataclass
class VerdictServer:
    """A single-worker verdict service over one population's web."""

    population: Population
    policy: ServicePolicy = field(default_factory=ServicePolicy)
    store: Optional[BundleStore] = None
    clock: SimClock = field(default_factory=SimClock)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    ledger: FaultLedger = field(default_factory=FaultLedger)
    fault_plan: Optional[FaultPlan] = None
    dynamic: Optional[DynamicMinerDetector] = field(default_factory=DynamicMinerDetector)
    collect_evidence: bool = True
    #: called with each completed VerdictRecord (None = keep in .verdicts)
    verdict_sink: Optional[Callable] = None
    verdicts: list = field(default_factory=list)
    responses: list = field(default_factory=list)
    #: optional TimeSeriesRecorder polled with sim time as it advances —
    #: the windowed-telemetry tap (`--timeseries-interval`)
    recorder: Optional[object] = None
    #: optional ProgressReporter advanced per response (`--heartbeat`);
    #: construct it with ``clock=lambda: server.clock.now`` and
    #: ``health=server.service_health`` so lines carry live service state
    progress: Optional[object] = None

    def __post_init__(self) -> None:
        if self.store is None:
            self.store = BundleStore(metrics=self.metrics)
        elif self.store.metrics is None:
            self.store.metrics = self.metrics
        self._queue = AdmissionQueue(capacity=self.policy.queue_capacity)
        self._buckets: dict = {}
        self._busy_until = 0.0
        self._breakers = BreakerRegistry(ledger=self.ledger)
        if self.fault_plan is not None:
            self.population.attach_fault_plan(self.fault_plan)
        self._dataset = self.population.spec.name
        self._last_tier = TIER_FULL

    # -- admission ----------------------------------------------------------------

    def _advance(self, when: float) -> None:
        # the clock tracks max(event time, completion time): an arrival that
        # lands while the server is mid-request must not rewind it
        if when > self.clock.now:
            # poll before the move: a tick boundary exactly at `when`
            # closes *before* the event at `when` is accounted, so the
            # event deterministically lands in the next window
            if self.recorder is not None:
                self.recorder.poll(when)
            self.clock.advance_to(when)

    def submit(self, request: ServiceRequest) -> Optional[ServiceResponse]:
        """Admit or reject one arrival; None means enqueued."""
        self._advance(request.arrival)
        self.metrics.inc("service.requests.offered")
        self.metrics.inc(f"service.tenant.{request.tenant}.offered")
        bucket = self._buckets.get(request.tenant)
        if bucket is None:
            bucket = TokenBucket(
                rate=self.policy.tenant_rate,
                burst=self.policy.tenant_burst,
                last_refill=request.arrival,
            )
            self._buckets[request.tenant] = bucket
        if not bucket.try_take(request.arrival):
            self.metrics.inc("service.rejected.rate_limit")
            return self._reject(request, "rate-limit", at=request.arrival)
        if not self._queue.offer(request):
            self.metrics.inc("service.rejected.queue_full")
            return self._reject(request, "queue-full", at=request.arrival)
        self.metrics.inc("service.requests.admitted")
        self.metrics.gauge_max("service.queue.depth", float(self._queue.depth))
        return None

    def _reject(self, request: ServiceRequest, reason: str, at: float) -> ServiceResponse:
        response = ServiceResponse(
            request=request,
            status="rejected",
            reason=reason,
            started=at,
            completed=at,
        )
        self.responses.append(response)
        self._notify_progress(response)
        return response

    def _notify_progress(self, response: ServiceResponse) -> None:
        if self.progress is not None:
            self.progress.advance(1, failed=int(response.status != "ok"))

    # -- the serving loop ---------------------------------------------------------

    def drain_until(self, horizon: float) -> None:
        """Serve queued requests that the server can *start* by ``horizon``."""
        while self._queue and self._busy_until <= horizon:
            request = self._queue.take()
            start = max(self._busy_until, request.arrival)
            if start >= request.deadline:
                # deadline-aware rejection: the answer would arrive too late
                self.metrics.inc("service.rejected.deadline")
                self._reject(request, "deadline", at=start)
                continue
            response = self._serve(request, start)
            self._busy_until = response.completed
            self._advance(self._busy_until)
            self.responses.append(response)
            self._notify_progress(response)

    def drain(self) -> None:
        """Serve everything still queued (end-of-run flush)."""
        self.drain_until(float("inf"))

    def run(self, requests, reloads=()) -> list:
        """Serve a full arrival schedule; returns every response.

        ``requests`` must be sorted by arrival time. ``reloads`` is an
        iterable of ``(when, bundle)`` pairs applied at simulated time
        ``when`` — interleaved deterministically with arrivals, which is
        how hot reloads under load are exercised.
        """
        events = [(req.arrival, 1, index, req) for index, req in enumerate(requests)]
        events += [(when, 0, index, bundle) for index, (when, bundle) in enumerate(reloads)]
        events.sort(key=lambda item: (item[0], item[1], item[2]))
        if self.progress is not None:
            self.progress.begin(len(requests))
        for when, kind, _index, payload in events:
            self.drain_until(when)
            if kind == 0:
                self.store.reload(payload)
            else:
                self.submit(payload)
        self.drain()
        if self.progress is not None:
            self.progress.finish()
        return list(self.responses)

    # -- one request through the cascade ------------------------------------------

    def _serve(self, request: ServiceRequest, start: float) -> ServiceResponse:
        policy = self.policy
        depth = self._queue.depth
        tier = policy.tier_for_depth(depth)
        self._last_tier = tier
        bundle = self.store.active()  # ONE snapshot; every stage uses it
        if not bundle.consistent():
            self.metrics.inc("service.reload.mixed_bundle")
        self.metrics.inc(f"service.tier.{tier}")
        if tier != TIER_FULL:
            self.metrics.inc(f"service.degraded.{tier}")

        remaining = request.deadline - start
        fetcher = ZgrabFetcher(
            web=self.population.web,
            timeout=policy.fetch_timeout,
            resilience=ResiliencePolicy(
                retry=policy.retry,
                breaker=self._breakers.policy,
                deadline=remaining,
            ),
            ledger=self.ledger,
        )
        fetcher._breakers = self._breakers  # breaker state outlives requests
        result = fetcher.fetch_domain(request.domain)
        fetch_time = policy.fetch_cost * max(1, result.attempts)
        self.metrics.observe("stage.svc.fetch", fetch_time)
        elapsed = fetch_time

        if not result.ok:
            self.metrics.inc("service.fetch.errors")
            self.metrics.inc(f"service.error.{result.error_class}")
            completed = start + elapsed
            self._observe_request(request, start, completed)
            self._record_verdict(request, None, tier, bundle, depth, start, "error")
            return ServiceResponse(
                request=request,
                status="error",
                reason=result.error_class or "fetch-failed",
                tier=tier,
                bundle_version=bundle.version,
                started=start,
                completed=completed,
            )

        detector = PageDetector(
            nocoin=bundle.filters,
            classifier=MinerClassifier(database=bundle.signatures),
            collect_evidence=self.collect_evidence,
        )
        stalled = (
            self.fault_plan is not None
            and bool(request.wasm_dumps)
            and tier != TIER_STATIC_ONLY
            and self.fault_plan.signature_stall(request.domain)
        )
        report = detector.detect_request(
            request.domain,
            result.body,
            wasm_dumps=request.wasm_dumps,
            websocket_urls=request.websocket_urls,
            tier=tier,
            dynamic=self.dynamic,
        )
        elapsed += self._charge_stages(request, tier, stalled)
        if stalled:
            # chaos on the signature path: injected, answered late, recovered
            self.ledger.record_injection(FaultKind.SLOW)
            self.ledger.settle([FaultKind.SLOW], recovered=True)
            self.metrics.inc("service.signature.stalls")

        completed = start + elapsed
        self._observe_request(request, start, completed)
        self.metrics.inc("service.verdict.miner" if report.is_miner else "service.verdict.clean")
        self.metrics.inc(f"service.bundle.{bundle.version}.verdicts")
        if self.collect_evidence:
            report.evidence = report.evidence + (
                self._service_evidence(tier, bundle, depth, remaining, request.tenant),
            )
        self._record_verdict(request, report, tier, bundle, depth, start, "ok")
        return ServiceResponse(
            request=request,
            status="ok",
            tier=tier,
            bundle_version=bundle.version,
            is_miner=report.is_miner,
            family=report.miner_family or "",
            method=report.miner.method if report.is_miner else "",
            nocoin_hit=report.nocoin_hit,
            started=start,
            completed=completed,
        )

    def _charge_stages(self, request: ServiceRequest, tier: str, stalled: bool) -> float:
        """Simulated seconds the cascade stages cost at this tier."""
        policy = self.policy
        elapsed = policy.static_cost
        self.metrics.observe("stage.svc.static", policy.static_cost)
        dumps = len(request.wasm_dumps)
        if not dumps or tier == TIER_STATIC_ONLY:
            return elapsed
        signature_time = policy.signature_cost * dumps
        if stalled:
            signature_time += policy.signature_stall_cost
        self.metrics.observe("stage.svc.signature", signature_time)
        elapsed += signature_time
        if tier in (TIER_FULL, TIER_NO_DYNAMIC):
            classify_time = policy.classify_cost * dumps
            self.metrics.observe("stage.svc.classify", classify_time)
            elapsed += classify_time
        if tier == TIER_FULL and self.dynamic is not None:
            dynamic_time = policy.dynamic_cost * dumps
            self.metrics.observe("stage.svc.dynamic", dynamic_time)
            elapsed += dynamic_time
        return elapsed

    def _observe_request(self, request: ServiceRequest, start: float, completed: float) -> None:
        self.metrics.inc("service.requests.completed")
        self.metrics.observe(
            "service.latency", completed - request.arrival, bounds=_LATENCY_BOUNDS
        )
        self.metrics.observe(
            "service.queue_wait", start - request.arrival, bounds=_LATENCY_BOUNDS
        )

    def _service_evidence(
        self, tier: str, bundle, depth: int, remaining: float, tenant: str = ""
    ) -> Evidence:
        """Why this response is (or is not) partial — for `obs explain`."""
        if tier == TIER_FULL:
            summary = "full cascade served (queue below degradation thresholds)"
            verdict = "full"
        else:
            threshold = {
                TIER_NO_DYNAMIC: self.policy.degrade_thresholds[0],
                TIER_NO_CLASSIFIER: self.policy.degrade_thresholds[1],
                TIER_STATIC_ONLY: self.policy.degrade_thresholds[2],
            }[tier]
            summary = (
                f"degraded to {tier}: queue depth {depth} crossed "
                f"threshold {threshold}; expensive stages shed"
            )
            verdict = tier
        return Evidence(
            detector="service",
            verdict=verdict,
            summary=summary,
            details=(
                ("tier", tier),
                ("queue_depth", str(depth)),
                ("bundle_version", bundle.version),
                ("deadline_remaining", f"{remaining:.3f}s"),
                ("tenant", tenant),
            ),
        )

    def _record_verdict(
        self, request, report, tier, bundle, depth, start, status
    ) -> None:
        if not self.collect_evidence:
            return
        if report is None:
            record = VerdictRecord(
                subject=request.domain,
                dataset=self._dataset,
                pipeline="service",
                status="error",
            )
        else:
            record = VerdictRecord(
                subject=request.domain,
                dataset=self._dataset,
                pipeline="service",
                status=status,
                nocoin_hit=report.nocoin_hit,
                wasm_present=report.wasm_present,
                is_miner=report.is_miner,
                family=report.miner_family or "",
                method=report.miner.method if report.is_miner else "",
                confidence=report.miner.confidence if report.is_miner else 0.0,
                evidence=report.evidence,
            )
        if self.verdict_sink is not None:
            self.verdict_sink(record)
        else:
            self.verdicts.append(record)

    # -- operational surface ------------------------------------------------------

    def reload(self, bundle) -> bool:
        """Hot-swap detection state (validated; rolled back on failure)."""
        return self.store.reload(bundle)

    @property
    def queue_depth(self) -> int:
        return self._queue.depth

    def service_health(self) -> dict:
        """Live health for heartbeat lines: queue depth, shed rate, tier."""
        offered = self.metrics.counter("service.requests.offered")
        rejected = (
            self.metrics.counter("service.rejected.rate_limit")
            + self.metrics.counter("service.rejected.queue_full")
            + self.metrics.counter("service.rejected.deadline")
        )
        return {
            "queue": self._queue.depth,
            "shed": f"{rejected / max(1, offered):.1%}",
            "tier": self._last_tier,
        }
