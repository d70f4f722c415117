"""One-call reproduction runner.

``run_reproduction()`` executes every experiment at a configurable scale
and assembles a single markdown report with all regenerated tables — the
programmatic equivalent of running the whole benchmark suite, for use
from scripts, notebooks, or ``repro-mining reproduce``.

:func:`crawl_dataset` (one dataset's zgrab and Chrome campaigns) and
:class:`ObservedRun` (obs, progress, recorder and run directory) are the
crawl driver that ``repro-mining crawl`` shares with it.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.crawl import ChromeCampaign, ChromeCampaignResult, ZgrabCampaign
from repro.analysis.economics import EconomicsReport, user_count_bracket
from repro.analysis.metrics import CampaignMetrics
from repro.analysis.network import NetworkSimConfig, simulate_network
from repro.analysis.parallel import (
    ParallelConfig,
    PopulationRecipe,
    ShardedChromeCampaign,
    ShardedZgrabCampaign,
    fork_pool,
)
from repro.analysis.reporting import render_day_hour_heatmap, render_table
from repro.analysis.shortlink import ShortLinkStudy
from repro.core.detector import PageDetector
from repro.core.pool_association import attribution_evidence
from repro.core.signatures import SignatureDatabase
from repro.faults.ledger import FaultLedger
from repro.faults.plan import FaultPlan, build_fault_plan
from repro.faults.resilience import ResiliencePolicy
from repro.graph.build import add_verdict
from repro.graph.model import Graph
from repro.internet.population import DATASETS, build_population
from repro.internet.shortlinks import build_shortlink_population
from repro.internet.streaming import StreamingPopulation, parse_strata
from repro.obs.clock import get_clock
from repro.obs.evidence import VerdictRecord
from repro.obs.heartbeat import ProgressReporter
from repro.obs.ledger import RunManifest, record_run
from repro.obs.profile import NULL_OBS, Obs, make_obs, render_profile
from repro.obs.timeseries import RecorderProgress, TimeSeriesRecorder
from repro.sim.clock import utc_timestamp


@dataclass
class ReproductionConfig:
    """Scales for one full reproduction run.

    The defaults favour a quick run (a couple of minutes); the benchmark
    suite is the full-calibration reference. ``crawl_workers > 1`` (or
    ``crawl_shards > 1``) routes the crawl campaigns through the sharded
    parallel executor with ``max(crawl_shards, crawl_workers)`` shards; the
    merged results are identical to the sequential path, only faster.
    ``repro-mining crawl`` runs one dataset under the same config.
    """

    seed: int = 2018
    crawl_scale: float = 0.25
    shortlink_scale: float = 0.004
    shortlink_samples: int = 100
    network_days: int = 28
    datasets: tuple[str, ...] = ("alexa", "com", "net", "org")
    crawl_shards: int = 1
    crawl_workers: int = 1
    crawl_executor: str = "thread"
    #: fault-injection profile for the crawls ("" = no chaos plane);
    #: implies the sharded executor (which carries the fault ledger)
    fault_profile: str = ""
    #: checkpoint-journal directory for the crawls (also implies sharded)
    checkpoint_dir: Optional[str] = None
    #: write the campaign trace (span JSONL) here after the run
    trace_out: Optional[str] = None
    #: append a per-stage latency table to the report
    profile: bool = False
    #: persist run artifacts (manifest/metrics/trace/profile/ledger) here;
    #: implies observability and the sharded executor
    run_dir: Optional[str] = None
    #: emit live progress snapshots every N seconds (0 = off)
    heartbeat: float = 0.0
    #: record windowed per-tick telemetry every N seconds into the run
    #: dir's ``timeseries.jsonl`` (0 = off; implies observability and the
    #: sharded executor, whose progress hooks poll the recorder)
    timeseries_interval: float = 0.0
    #: stream index-addressable populations of this size instead of
    #: materializing ``crawl_scale`` builds (zgrab plane only; Chrome and
    #: its tables are skipped). Implies the sharded executor.
    population_size: int = 0
    #: custom rank strata for streaming runs (``parse_strata`` syntax;
    #: "" = the dataset's calibrated default buckets)
    strata: str = ""
    #: scan only K sampled ranks per stratum (0 = the full population)
    sample_per_stratum: int = 0

    def fault_plan(self) -> Optional[FaultPlan]:
        """The crawls' injection plan; ``None`` without a fault profile."""
        return build_fault_plan(self.fault_profile, seed=self.seed)

    def campaign_params(self) -> dict:
        """Run-manifest params of the campaign settings every crawl records."""
        return {
            "seed": self.seed,
            "shards": self.crawl_shards,
            "workers": self.crawl_workers,
            "executor": self.crawl_executor,
            "fault_profile": self.fault_profile,
            "heartbeat": self.heartbeat,
            "timeseries_interval": self.timeseries_interval,
            "population_size": self.population_size,
            "strata": self.strata,
            "sample_per_stratum": self.sample_per_stratum,
        }


@dataclass
class ReproductionReport:
    """Collected results plus the rendered markdown."""

    config: ReproductionConfig
    sections: dict[str, str] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    def to_markdown(self) -> str:
        lines = [
            "# Reproduction report — Digging into Browser-based Crypto Mining",
            "",
            f"seed={self.config.seed} crawl_scale={self.config.crawl_scale} "
            f"shortlink_scale={self.config.shortlink_scale} "
            f"network_days={self.config.network_days}",
            f"completed in {self.elapsed_seconds:.1f}s",
        ]
        for title, body in self.sections.items():
            lines += ["", f"## {title}", "", "```", body, "```"]
        return "\n".join(lines) + "\n"


@dataclass
class ObservedRun:
    """The observability around one ``crawl`` or ``reproduce`` run.

    :meth:`start` sets up obs, progress and the time-series recorder from a
    config's flags; campaigns fold their verdicts, attribution graph and
    fault ledger into it; :meth:`finish` closes the recorder and writes the
    trace and the run directory.
    """

    config: ReproductionConfig
    obs: Obs
    progress: Optional[object] = None
    recorder: Optional[TimeSeriesRecorder] = None
    verdicts: list = field(default_factory=list)  # populated only on observed runs
    graph: Graph = field(default_factory=Graph)  # stays empty on unobserved runs
    fault_ledger: FaultLedger = field(default_factory=FaultLedger)

    @classmethod
    def start(cls, config: ReproductionConfig, prefix: str) -> "ObservedRun":
        observe = (
            bool(config.trace_out)
            or config.profile
            or config.run_dir is not None
            or config.timeseries_interval > 0
        )
        run = cls(config=config, obs=make_obs(prefix=prefix) if observe else NULL_OBS)
        if config.heartbeat > 0:
            run.progress = ProgressReporter(config.heartbeat)
        if config.timeseries_interval > 0:
            # origin anchored at the current obs-clock reading: tick times are
            # relative, and a PerfClock's absolute value is arbitrary
            run.recorder = TimeSeriesRecorder(
                registry=run.obs.registry,
                interval=config.timeseries_interval,
                origin=get_clock().now(),
            )
            run.progress = RecorderProgress(run.recorder, run.progress)
        return run

    def finish(self, command: str, params: dict) -> Optional[RunManifest]:
        """Close the run; returns the run-dir manifest when one was written.

        The manifest records ``params`` on top of ``config.campaign_params()``.
        """
        config = self.config
        if self.recorder is not None:
            self.recorder.finish(get_clock().now())
        if config.trace_out:
            self.obs.tracer.write_jsonl(config.trace_out)
        if config.run_dir is None:
            return None
        return record_run(
            config.run_dir, command, {**config.campaign_params(), **params},
            self.obs.registry, self.fault_ledger,
            spans=self.obs.tracer.spans,
            verdicts=self.verdicts,
            timeseries=self.recorder.timeseries() if self.recorder is not None else None,
            graph=self.graph,
        )


#: columns of one per-stratum prevalence row
STRATUM_HEADER = ["stratum", "probed", "hits", "prevalence", "stratum size", "est. domains"]


def stratum_cells(row) -> list:
    """One :class:`~repro.analysis.crawl.StratumPrevalence` under ``STRATUM_HEADER``."""
    return [
        row.stratum, row.probed, row.hits, f"{row.prevalence:.4%}",
        row.population_size, row.estimated_domains,
    ]


@dataclass
class DatasetCrawl:
    """One dataset's campaign: the two zgrab scans, then the Chrome pass."""

    scans: list
    #: None for zgrab-only datasets and streamed populations
    chrome: Optional[ChromeCampaignResult] = None
    #: shard metrics of the second zgrab scan and of the Chrome pass
    #: (sharded runs only)
    zgrab_metrics: Optional[CampaignMetrics] = None
    chrome_metrics: Optional[CampaignMetrics] = None


def crawl_dataset(
    dataset: str,
    run: ObservedRun,
    counter_prefix: str,
    signature_db: Optional[str] = None,
    announce=None,
) -> DatasetCrawl:
    """Build ``dataset``'s population and run its campaigns under ``run.config``.

    Streams a ``population_size`` population when set (zgrab plane only),
    else materializes ``crawl_scale``. Verdicts, graph and
    fault ledger fold into ``run``; the summary counters land under
    ``<counter_prefix>.zgrab{0,1}.*`` and ``<counter_prefix>.chrome.*``.
    ``announce(population)`` is called once the population is built.
    """
    config, obs = run.config, run.obs
    fault_plan = config.fault_plan()
    streaming = config.population_size > 0
    if streaming:
        strata = (
            parse_strata(config.strata, DATASETS[dataset]) if config.strata else None
        )
        population = StreamingPopulation(
            dataset,
            seed=config.seed,
            size=config.population_size,
            strata=strata,
            sample_per_stratum=config.sample_per_stratum,
        )
    else:
        population = build_population(dataset, seed=config.seed, scale=config.crawl_scale)
    if fault_plan is not None:
        population.attach_fault_plan(fault_plan)
    if announce is not None:
        announce(population)
    # chaos and checkpointing ride on the sharded executor (it carries the
    # per-shard fault ledgers and journals), even with a single serial
    # shard; run dirs, heartbeats and streaming populations ride on it too:
    # the persisted metrics carry the shard plane, and the reporter hooks
    # the executor's site loop
    sharded = (
        streaming
        or config.crawl_shards > 1
        or config.crawl_workers > 1
        or fault_plan is not None
        or config.checkpoint_dir is not None
        or config.run_dir is not None
        or run.progress is not None
    )
    # at least one shard per worker: fewer shards would leave workers idle
    parallel_config = ParallelConfig(
        shards=max(config.crawl_shards, config.crawl_workers),
        workers=config.crawl_workers,
        mode=config.crawl_executor,
        resilience=ResiliencePolicy() if fault_plan is not None else None,
        checkpoint_dir=config.checkpoint_dir,
    )
    result = DatasetCrawl(scans=[])
    if sharded:
        zgrab = ShardedZgrabCampaign(
            population=population, config=parallel_config, obs=obs, progress=run.progress
        )
        for scan_index in (0, 1):  # metrics hold the most recent scan only
            result.scans.append(zgrab.scan(scan_index))
            if zgrab.metrics is not None:
                run.fault_ledger.merge(zgrab.metrics.fault_ledger)
        result.zgrab_metrics = zgrab.metrics
    else:
        with obs.span("campaign", kind="zgrab", mode="sequential", dataset=dataset):
            result.scans = ZgrabCampaign(population=population, obs=obs).both_scans()
    for scan_index, scan in enumerate(result.scans):
        run.verdicts.extend(scan.verdicts)
        if scan.graph is not None:
            run.graph.merge(scan.graph)
        # campaign-level summary counters: schedule-independent, so
        # persisted runs diff on them (and CI can gate on ratios)
        prefix = f"{counter_prefix}.zgrab{scan_index}"
        obs.inc(f"{prefix}.domains_probed", scan.domains_probed)
        obs.inc(f"{prefix}.nocoin_domains", scan.nocoin_domains)
        obs.inc(f"{prefix}.fetch_failures", scan.fetch_failures)
        for row in scan.stratum_rows:
            obs.inc(f"{prefix}.stratum.{row.stratum}.probed", row.probed)
            obs.inc(f"{prefix}.stratum.{row.stratum}.hits", row.hits)
    if streaming or not population.spec.chrome_crawl:
        return result
    if sharded:
        chrome = ShardedChromeCampaign(
            population=population,
            recipe=PopulationRecipe(
                dataset,
                seed=config.seed,
                scale=config.crawl_scale,
                fault_profile=config.fault_profile,
            ),
            config=parallel_config,
            signature_db_path=signature_db,
            obs=obs,
            progress=run.progress,
        )
        result.chrome = chrome.run()
        if chrome.metrics is not None:
            run.fault_ledger.merge(chrome.metrics.fault_ledger)
        result.chrome_metrics = chrome.metrics
    else:
        detector = None
        if signature_db:
            detector = PageDetector()
            detector.classifier.database = SignatureDatabase.from_json(
                pathlib.Path(signature_db).read_text()
            )
        with obs.span("campaign", kind="chrome", mode="sequential", dataset=dataset):
            result.chrome = ChromeCampaign(
                population=population, detector=detector, obs=obs
            ).run()
    run.verdicts.extend(result.chrome.verdicts)
    if result.chrome.graph is not None:
        run.graph.merge(result.chrome.graph)
    tab = result.chrome.cross_tab
    obs.inc(f"{counter_prefix}.chrome.wasm_miners", tab.wasm_miner_hits)
    obs.inc(f"{counter_prefix}.chrome.nocoin_hits", tab.nocoin_hits)
    return result


@dataclass
class NetworkStudy:
    """What the report reads of the Figure 5 + Table 6 experiment: the two
    rendered sections, and the attributed blocks with their observed
    clusters, which the block verdicts cite."""

    sections: dict
    attributed: list
    clusters: dict


def network_study(config: ReproductionConfig) -> NetworkStudy:
    """Simulate ``config.network_days`` of the Monero network, attribute
    the Coinhive blocks and render Figure 5 and Table 6.

    The :class:`~repro.analysis.network.NetworkObservation` (the whole
    chain) stays here: only the small :class:`NetworkStudy` is returned,
    so handing it back from a worker process costs little.
    """
    start = utc_timestamp(2018, 4, 26)
    observation = simulate_network(
        NetworkSimConfig(seed=config.seed, start=start, end=start + config.network_days * 86400)
    )
    economics = EconomicsReport.from_attributed(observation.attributed)
    median_difficulty = observation.chain.median_difficulty(last=5000)
    pool_rate = observation.overall_share() * median_difficulty / 120
    high, low = user_count_bracket(max(pool_rate, 1.0))
    sections = {
        "Figure 5 — blocks over time": render_day_hour_heatmap(observation.day_hour_matrix()),
        "Table 6 — economics": render_table(
            ["quantity", "value"],
            [
                ["blocks attributed", len(observation.attributed)],
                ["share of all blocks", f"{observation.overall_share():.2%}"],
                ["attribution recall", f"{observation.attribution_recall():.1%}"],
                ["pool hash rate", f"{pool_rate / 1e6:.1f} MH/s"],
                ["users @20–100 H/s", f"{low:,.0f}–{high:,.0f}"],
                ["XMR mined", f"{economics.xmr_mined:.0f}"],
                ["USD @120/XMR", f"{economics.gross_usd:,.0f}"],
            ],
        ),
    }
    return NetworkStudy(sections, observation.attributed, observation.clusters)


def _network_study_in_worker(config: ReproductionConfig) -> NetworkStudy:
    """:func:`network_study` at a lower CPU priority. It finishes well
    before the crawls, so when the host has fewer than two CPUs to give,
    the crawls, which bound the run, should keep one."""
    os.nice(10)
    return network_study(config)


def _network_pool(config: ReproductionConfig) -> Optional[ProcessPoolExecutor]:
    """A one-worker fork pool to run :func:`network_study` beside the
    crawls, or ``None`` to run it inline.

    The study shares no input with the crawls, so a second CPU runs it for
    free. Inline when there is no second usable CPU or no ``fork``; and
    when the crawls fork their own process pool, which would then fork
    while this pool's manager thread runs.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if (
        cpus < 2
        or "fork" not in multiprocessing.get_all_start_methods()
        or config.crawl_executor == "process"
    ):
        return None
    return fork_pool(1)


def run_reproduction(config: Optional[ReproductionConfig] = None, log=print) -> ReproductionReport:
    """Run every experiment; returns the assembled report.

    With a second usable CPU the network study (Figure 5 + Table 6) runs
    in a forked worker while this process runs the crawls and the
    short-link study; see :func:`_network_pool`. The worker is gone when
    this returns or raises.
    """
    config = config if config is not None else ReproductionConfig()
    # fork first: before ObservedRun.start, the heartbeat and the recorder,
    # so the worker inherits no thread
    pool = _network_pool(config)
    try:
        network = pool.submit(_network_study_in_worker, config) if pool is not None else None
        return _reproduce(config, log, network)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _reproduce(config: ReproductionConfig, log, network: Optional[Future]) -> ReproductionReport:
    """:func:`run_reproduction`'s experiments; ``network`` is the pending
    network study, or ``None`` to run it inline."""
    report = ReproductionReport(config=config)
    run = ObservedRun.start(config, prefix="repro")
    obs = run.obs
    clock = get_clock()
    started = clock.now()

    # ---- Figure 2 + Tables 1-3 ------------------------------------------------
    chrome_rows = []
    fig2_rows = []
    stratum_rows = []
    for dataset in config.datasets:
        if config.population_size > 0:
            log(f"[crawl] {dataset} @ streaming population {config.population_size}")
        else:
            log(f"[crawl] {dataset} @ scale {config.crawl_scale}")
        crawl = crawl_dataset(dataset, run, counter_prefix=f"crawl.{dataset}")
        for scan_index, scan in enumerate(crawl.scans):
            fig2_rows.append(
                [dataset, scan.scan_date, scan.nocoin_domains, f"{scan.prevalence:.4%}"]
            )
            stratum_rows += [
                [dataset, scan_index, *stratum_cells(row)] for row in scan.stratum_rows
            ]
        if crawl.chrome is None:
            if config.population_size > 0 and DATASETS[dataset].chrome_crawl:
                log(f"[crawl] {dataset}: chrome plane skipped (streaming run)")
            continue
        tab = crawl.chrome.cross_tab
        top = ", ".join(f"{f}:{c}" for f, c in crawl.chrome.signature_counts.most_common(3))
        chrome_rows.append(
            [dataset, tab.wasm_miner_hits, tab.nocoin_hits,
             f"{tab.missed_fraction:.0%}", f"{tab.detection_factor:.1f}x", top]
        )
    report.sections["Figure 2 — NoCoin prevalence"] = render_table(
        ["dataset", "scan", "NoCoin domains", "prevalence"], fig2_rows
    )
    report.sections["Tables 1–2 — Chrome crawls"] = render_table(
        ["dataset", "Wasm miners", "NoCoin hits", "missed", "factor", "top families"],
        chrome_rows,
    )
    if stratum_rows:
        report.sections["Per-stratum prevalence"] = render_table(
            ["dataset", "scan", *STRATUM_HEADER], stratum_rows,
        )
    ledger = run.fault_ledger
    chaos_active = config.fault_plan() is not None or config.checkpoint_dir is not None
    if chaos_active and ledger.has_events():
        report.sections["Fault ledger"] = (
            render_table(FaultLedger.SUMMARY_HEADER, ledger.summary_rows())
            + "\n"
            + ledger.status_line()
        )

    # ---- Figures 3-4 + Tables 4-5 ------------------------------------------------
    log(f"[shortlinks] scale {config.shortlink_scale}")
    with obs.span("shortlinks", scale=config.shortlink_scale):
        population = build_shortlink_population(seed=config.seed, scale=config.shortlink_scale)
        study = ShortLinkStudy(population=population, sample_per_top_user=config.shortlink_samples)
        ranks = study.links_per_token()
        hashes = study.hash_requirements()
        destinations = study.destinations()
    report.sections["Figures 3–4 — short links"] = render_table(
        ["quantity", "value"],
        [
            ["links / tokens", f"{ranks.total_links} / {len(ranks.counts_by_rank)}"],
            ["top-1 / top-10 share", f"{ranks.top1_share:.1%} / {ranks.topn_share(10):.1%}"],
            ["≤1024 hashes (unbiased)", f"{hashes.share_resolvable_within(1024):.0%}"],
            ["max hashes", max(hashes.all_links)],
        ],
    )
    report.sections["Tables 4–5 — destinations"] = render_table(
        ["destination", "count"], destinations.top_user_domains.most_common(8)
    ) + "\n\n" + render_table(
        ["category", "count"], destinations.unbiased_categories.most_common(8)
    )

    # ---- Figure 5 + Table 6 ----------------------------------------------------------
    log(f"[network] {config.network_days} days")
    # the span times what the report waits for the study: all of it inline,
    # only the part the crawls did not cover when it ran in the worker
    with obs.span("network-sim", days=config.network_days):
        study = network.result() if network is not None else network_study(config)
    if obs.enabled:
        # block verdicts: each attribution cites its Merkle-root proof
        obs.inc("detector.pool.blocks_attributed", len(study.attributed))
        for block in study.attributed:
            record = VerdictRecord(
                subject=f"block-{block.height}",
                dataset="network",
                pipeline="pool",
                kind="block",
                is_miner=True,
                family="coinhive",
                method="pool-association",
                confidence=1.0,
                evidence=(attribution_evidence(block, study.clusters),),
            )
            run.verdicts.append(record)
            add_verdict(run.graph, record)
    report.sections.update(study.sections)

    if config.profile:
        report.sections["Stage profile"] = render_profile(obs.registry, title="")
    manifest = run.finish(
        "reproduce",
        {
            "crawl_scale": config.crawl_scale,
            "shortlink_scale": config.shortlink_scale,
            "shortlink_samples": config.shortlink_samples,
            "network_days": config.network_days,
            "datasets": ",".join(config.datasets),
        },
    )
    if config.trace_out:
        log(f"[trace] {len(obs.tracer.spans)} spans -> {config.trace_out}")
    if manifest is not None:
        log(f"[run] artifacts ({manifest.run_id}) -> {config.run_dir}")

    report.elapsed_seconds = clock.now() - started
    return report
