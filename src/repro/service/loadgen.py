"""The seeded open-loop load generator.

Open-loop means arrivals do not wait for responses: each tenant is an
independent Poisson process (via
:meth:`~repro.sim.rng.RngStream.exponential_interarrivals`), so offered
load keeps arriving at the configured rate no matter how slow the server
gets — the regime where admission control actually earns its keep.
Everything is a pure function of the seed: arrival times, which domain
each request asks about, and the client capture attached to it.

Client captures are synthesized from population ground truth, modeling
the browser-extension consumer: a request for a miner site carries that
site's actual corpus wasm (rebuilt deterministically from its
``(family, wasm_variant)``) and the family's WebSocket backend; benign
wasm sites carry their module; everything else is HTML-only. That makes
service-side recall directly measurable against
``population.ground_truth_miners()`` — including how much recall a
degraded tier gives up.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Optional

from repro.core.detector import TIER_STATIC_ONLY
from repro.core.nocoin import FilterList
from repro.faults.plan import build_fault_plan
from repro.internet.population import build_population
from repro.obs.ledger import record_run
from repro.service.admission import ServicePolicy
from repro.service.bundles import DetectionBundle
from repro.service.server import ServiceRequest, VerdictServer
from repro.sim.rng import RngStream
from repro.wasm.builder import FAMILY_PROFILES, ModuleBlueprint, WasmCorpusBuilder


@dataclass(frozen=True)
class LoadgenConfig:
    """One load run: who arrives, how fast, for how long."""

    seed: int = 2018
    dataset: str = "alexa"
    scale: float = 0.1
    #: aggregate offered load (requests/second, split evenly over tenants)
    rate: float = 40.0
    #: simulated seconds of arrivals
    duration: float = 30.0
    tenants: int = 4
    fault_profile: str = ""
    #: simulated times at which a refreshed (valid) bundle is hot-swapped
    reload_at: tuple = ()
    #: simulated times at which an *invalid* bundle is offered (rollback demo)
    bad_reload_at: tuple = ()
    policy: ServicePolicy = field(default_factory=ServicePolicy)
    collect_evidence: bool = True
    #: tick width for the windowed-telemetry recorder (0 = no recorder)
    timeseries_interval: float = 0.0
    #: simulated seconds of quiet observation after the last arrival
    #: drains — long enough for burn-rate alerts to resolve on tape
    cooldown: float = 0.0
    #: heartbeat line interval in simulated seconds (0 = no heartbeat)
    heartbeat: float = 0.0
    #: burn-rate rules for the recorder (None = default_service_rules())
    alert_rules: object = None


@dataclass
class LoadReport:
    """Everything a load run produced, summarized."""

    config: LoadgenConfig
    server: VerdictServer
    responses: list
    #: the TimeSeriesRecorder attached for this run (None when disabled)
    recorder: object = None

    # -- derived views -------------------------------------------------------------

    def counter(self, name: str) -> int:
        return self.server.metrics.counter(name)

    @property
    def offered(self) -> int:
        return self.counter("service.requests.offered")

    @property
    def completed(self) -> int:
        return self.counter("service.requests.completed")

    @property
    def rejected(self) -> int:
        return (
            self.counter("service.rejected.rate_limit")
            + self.counter("service.rejected.queue_full")
            + self.counter("service.rejected.deadline")
        )

    @property
    def shed_rate(self) -> float:
        return self.rejected / max(1, self.offered)

    def latency_quantile(self, q: float) -> float:
        histogram = self.server.metrics.histograms.get("service.latency")
        return histogram.quantile(q) if histogram is not None else 0.0

    @property
    def timeseries(self):
        return self.recorder.timeseries() if self.recorder is not None else None

    @property
    def alerts_fired(self) -> int:
        if self.recorder is None:
            return 0
        return sum(1 for event in self.recorder.alerts if event.kind == "fire")

    @property
    def alerts_resolved(self) -> int:
        if self.recorder is None:
            return 0
        return sum(1 for event in self.recorder.alerts if event.kind == "resolve")

    def recall(self, tier: Optional[str] = None) -> Optional[float]:
        """Miner recall over served requests (optionally one tier only).

        A response "flags" a miner if any surviving detector fired — the
        wasm cascade *or* the NoCoin list (which is all a static-only
        response has left). None when no ground-truth miner was served at
        that tier: recall is undefined, not perfect.
        """
        miners = self.server.population.ground_truth_miners()
        seen = flagged = 0
        for response in self.responses:
            if response.status != "ok" or response.request.domain not in miners:
                continue
            if tier is not None and response.tier != tier:
                continue
            seen += 1
            flagged += int(response.is_miner or response.nocoin_hit)
        if seen == 0:
            return None
        return flagged / seen

    def summary_rows(self) -> list:
        degraded = sum(
            self.server.metrics.counters_with_prefix("service.degraded.").values()
        )
        recall_full = self.recall()
        recall_static = self.recall(TIER_STATIC_ONLY)
        return [
            ["offered", self.offered],
            ["admitted", self.counter("service.requests.admitted")],
            ["completed", self.completed],
            ["rejected: rate-limit", self.counter("service.rejected.rate_limit")],
            ["rejected: queue-full", self.counter("service.rejected.queue_full")],
            ["rejected: deadline", self.counter("service.rejected.deadline")],
            ["shed rate", f"{self.shed_rate:.1%}"],
            ["degraded responses", degraded],
            ["max queue depth", int(self.server.metrics.gauges.get("service.queue.depth", 0.0))],
            ["latency p50", f"{self.latency_quantile(0.5) * 1000:.0f}ms"],
            ["latency p99", f"{self.latency_quantile(0.99) * 1000:.0f}ms"],
            ["miner recall (all tiers)", "n/a" if recall_full is None else f"{recall_full:.0%}"],
            ["miner recall (static-only)", "n/a" if recall_static is None else f"{recall_static:.0%}"],
            ["reloads applied/rejected",
             f"{self.counter('service.reload.applied')}/{self.counter('service.reload.rejected')}"],
        ] + (
            [
                ["timeseries ticks", len(self.recorder.records)],
                ["alerts fired/resolved", f"{self.alerts_fired}/{self.alerts_resolved}"],
            ]
            if self.recorder is not None
            else []
        )

    def persist(self, run_dir, command: str, params: dict):
        """Persist the run under ``run_dir``: metrics, fault ledger, verdicts,
        timeseries and the verdicts' attribution graph."""
        from repro.graph.build import graph_from_verdicts

        return record_run(
            run_dir, command, params, self.server.metrics, self.server.ledger,
            verdicts=self.server.verdicts,
            timeseries=self.timeseries,
            graph=graph_from_verdicts(self.server.verdicts),
        )


# ---------------------------------------------------------------------------
# request synthesis


def synthesize_capture(site, corpus: WasmCorpusBuilder, cache: dict) -> tuple:
    """(wasm_dumps, websocket_urls) a client would have captured on ``site``."""
    if site.role == "miner":
        key = (site.family, site.wasm_variant)
        if key not in cache:
            cache[key] = corpus.build(ModuleBlueprint(site.family, site.wasm_variant))
        backend = FAMILY_PROFILES[site.family].backend
        urls = (backend % 1,) if backend is not None else ()
        return (cache[key],), urls
    if site.role == "benign-wasm":
        key = (site.family, site.wasm_variant)
        if key not in cache:
            cache[key] = corpus.build(ModuleBlueprint(site.family, site.wasm_variant))
        return (cache[key],), ()
    return (), ()


def build_requests(config: LoadgenConfig, population) -> list:
    """The full seeded arrival schedule, sorted by arrival time."""
    rng = RngStream(config.seed, "loadgen", config.dataset)
    corpus = WasmCorpusBuilder(root_seed=config.seed)
    cache: dict = {}
    sites = population.sites
    per_tenant_rate = config.rate / max(1, config.tenants)
    arrivals = []
    for tenant_index in range(config.tenants):
        tenant = f"tenant-{tenant_index}"
        times = rng.substream("arrivals", tenant)
        picks = rng.substream("domains", tenant)
        for when in times.exponential_interarrivals(per_tenant_rate, config.duration):
            site = sites[picks.randint(0, len(sites) - 1)]
            wasm_dumps, websocket_urls = synthesize_capture(site, corpus, cache)
            arrivals.append(
                (when, tenant, site.domain, wasm_dumps, websocket_urls)
            )
    return schedule_requests(arrivals, config.policy.request_deadline)


def schedule_requests(arrivals, deadline: float) -> list:
    """Requests from ``(when, tenant, domain, wasm_dumps, websocket_urls)``
    arrivals, sorted by arrival time; each expires ``deadline`` seconds in."""
    arrivals = sorted(arrivals, key=lambda item: (item[0], item[1]))
    return [
        ServiceRequest(
            tenant=tenant,
            domain=domain,
            arrival=when,
            deadline=when + deadline,
            wasm_dumps=wasm_dumps,
            websocket_urls=websocket_urls,
            sequence=sequence,
        )
        for sequence, (when, tenant, domain, wasm_dumps, websocket_urls) in enumerate(arrivals)
    ]


def build_reloads(config: LoadgenConfig) -> list:
    """(when, bundle) events: valid refreshes plus doomed candidates."""
    reloads = [
        (when, DetectionBundle.build(f"refresh-{index + 1}"))
        for index, when in enumerate(config.reload_at)
    ]
    for index, when in enumerate(config.bad_reload_at):
        # an empty filter list never validates: exercises rollback
        version = f"broken-{index + 1}"
        reference = DetectionBundle.build(version)
        broken = DetectionBundle(
            version=version,
            filters=FilterList(),
            signatures=reference.signatures,
            filter_version=version,
            db_version=version,
        )
        reloads.append((when, broken))
    reloads.sort(key=lambda item: item[0])
    return reloads


def run_loadgen(
    config: LoadgenConfig, population=None, run_dir=None, label: str = "loadgen"
) -> LoadReport:
    """Run one seeded open-loop load campaign against a fresh server.

    With ``config.timeseries_interval > 0`` a
    :class:`~repro.obs.timeseries.TimeSeriesRecorder` rides the sim
    clock, evaluating burn-rate alert rules every tick. With ``run_dir``
    it appends each tick to ``<run_dir>/timeseries.jsonl``, so ``repro obs
    top --watch`` can follow the run live; it rewrites the file atomically
    only on the first flush, when the appended lines would overflow its
    ring, and once more at the end.
    ``config.cooldown`` extends observation past the last drained request
    so recovered alerts resolve on tape. ``label`` names the heartbeat
    lines; ``serve --duration`` and ``loadgen`` both run through here.
    """
    if population is None:
        population = build_population(
            config.dataset, seed=config.seed, scale=config.scale
        )
    server = VerdictServer(
        population=population,
        policy=config.policy,
        fault_plan=build_fault_plan(config.fault_profile, seed=config.seed),
        collect_evidence=config.collect_evidence,
    )
    recorder = None
    if config.timeseries_interval > 0:
        from repro.obs.alerts import default_service_rules
        from repro.obs.timeseries import TimeSeriesRecorder

        rules = config.alert_rules
        if rules is None:
            rules = default_service_rules()
        flush_path = None
        if run_dir is not None:
            flush_path = pathlib.Path(run_dir) / "timeseries.jsonl"
            flush_path.parent.mkdir(parents=True, exist_ok=True)
        recorder = TimeSeriesRecorder(
            registry=server.metrics,
            interval=config.timeseries_interval,
            rules=rules,
            flush_path=flush_path,
        )
        server.recorder = recorder
    if config.heartbeat > 0:
        from repro.obs.heartbeat import ProgressReporter

        server.progress = ProgressReporter(
            config.heartbeat,
            label=label,
            clock=lambda: server.clock.now,
            health=server.service_health,
        )
    requests = build_requests(config, population)
    responses = server.run(requests, reloads=build_reloads(config))
    if recorder is not None:
        recorder.finish(server.clock.now + max(0.0, config.cooldown))
    return LoadReport(
        config=config, server=server, responses=responses, recorder=recorder
    )
