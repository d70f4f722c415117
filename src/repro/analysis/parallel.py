"""Sharded parallel campaign execution.

The paper's scans cover 138M domains with zgrab and ~3.2M with instrumented
Chrome — scale that a single-threaded loop over ``population.sites`` never
reaches. This module partitions a :class:`~repro.internet.population.WebPopulation`
into deterministic shards (stable hash of the domain → shard id), runs the
campaign's per-site pipeline on each shard via a ``concurrent.futures``
pool, and merges the per-shard partial results into output **identical to
the sequential path**:

- shard membership depends only on the domain string (stable across runs,
  processes, and site orderings),
- the per-site work in :class:`~repro.analysis.crawl.ZgrabCampaign` /
  :class:`~repro.analysis.crawl.ChromeCampaign` is site-independent and
  keyed by URL-scoped RNG streams, so grouping does not change outcomes,
- partials merge in shard-id order and every tally is a plain sum, so the
  finalized result does not depend on worker count or completion order.

Execution modes:

- ``serial``  — run shards in the calling thread (debugging, baselines),
- ``thread``  — ``ThreadPoolExecutor``; zero-copy sharing of the population,
- ``process`` — ``ProcessPoolExecutor`` with the ``fork`` start method; the
  population is inherited copy-on-write, giving each worker an isolated
  view with no pickling of the web registry.

Every shard is wrapped in retry-with-exponential-backoff (the shared
:class:`repro.faults.resilience.RetryPolicy` — re-exported here for
backward compatibility); a shard that exhausts its retries is recorded in
the metrics (``error`` set) and skipped instead of killing the whole
campaign. With ``checkpoint_dir`` set, every shard journals per-site
outcomes so a killed run resumes without repeating (or re-randomizing)
completed work.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import threading
from concurrent.futures import FIRST_COMPLETED, Executor, ProcessPoolExecutor, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.analysis.crawl import (
    ChromeCampaign,
    ChromeCampaignResult,
    ChromeRunPartial,
    ZgrabCampaign,
    ZgrabScanPartial,
    ZgrabScanResult,
)
from repro.analysis.metrics import CampaignMetrics, ShardMetrics
from repro.core.detector import PageDetector
from repro.core.signatures import build_reference_database
from repro.faults.checkpoint import shard_journal
from repro.faults.plan import build_fault_plan
from repro.faults.resilience import ResiliencePolicy, RetryPolicy, run_with_retry
from repro.internet.population import SiteSpec, WebPopulation, build_population
from repro.obs.clock import get_clock
from repro.obs.profile import NULL_OBS, Obs, make_obs
from repro.rulespace.engine import RuleSpaceEngine
from repro.web.browser import BrowserConfig

EXECUTOR_MODES = ("serial", "thread", "process")

__all__ = [
    "EXECUTOR_MODES",
    "ParallelConfig",
    "PopulationRecipe",
    "RetryPolicy",
    "ShardedChromeCampaign",
    "ShardedZgrabCampaign",
    "partition_indices",
    "run_with_retry",
    "stable_shard",
]


# ---------------------------------------------------------------------------
# sharding


def stable_shard(domain: str, num_shards: int) -> int:
    """Deterministic shard id for a domain.

    SHA-256 based, so the assignment is stable across Python versions,
    processes, and hash randomization — resumable pipelines depend on a
    domain always landing in the same shard.
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    digest = hashlib.sha256(domain.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


def partition_indices(sites: list[SiteSpec], num_shards: int) -> list[list[int]]:
    """Population indices per shard, by stable hash of each site's domain."""
    shards: list[list[int]] = [[] for _ in range(num_shards)]
    for index, site in enumerate(sites):
        shards[stable_shard(site.domain, num_shards)].append(index)
    return shards


# ---------------------------------------------------------------------------
# configuration
#
# (Shard retry used to be implemented here; it now lives in
# repro.faults.resilience, shared with the zgrab fetcher and the pool
# observer. RetryPolicy/run_with_retry stay importable from this module.)


@dataclass(frozen=True)
class ParallelConfig:
    """How a sharded campaign executes."""

    shards: int = 4
    workers: int = 4
    mode: str = "thread"  # serial | thread | process
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: False: a shard that exhausts retries is dropped (recorded in the
    #: metrics); True: the campaign raises instead.
    fail_fast: bool = False
    #: per-domain retry/breaker/deadline policy handed to the campaign's
    #: fetchers; ``None`` keeps the legacy single-attempt fetch
    resilience: Optional[ResiliencePolicy] = None
    #: directory for per-shard checkpoint journals; ``None`` disables
    #: checkpoint/resume
    checkpoint_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.mode not in EXECUTOR_MODES:
            raise ValueError(f"mode must be one of {EXECUTOR_MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class PopulationRecipe:
    """Enough to rebuild a population deterministically in any worker.

    Builds are pure functions of ``(dataset, seed, scale, fault_profile)``,
    so a worker reconstructing its own copy sees byte-identical sites —
    this is how thread-mode Chrome workers get mutation-isolated Coinhive
    services without pickling anything. ``fault_profile`` rides along so a
    rebuilt population reattaches the same seeded fault plan.
    """

    dataset: str
    seed: int = 2018
    scale: float = 1.0
    fault_profile: str = ""

    def build(self) -> WebPopulation:
        population = build_population(self.dataset, seed=self.seed, scale=self.scale)
        if self.fault_profile:
            population.attach_fault_plan(
                build_fault_plan(self.fault_profile, seed=self.seed)
            )
        return population


# ---------------------------------------------------------------------------
# worker-side state

#: Populated in the parent just before a fork-based pool spins up; forked
#: workers read their copy-on-write view of it. Not used in thread mode.
_FORK_STATE: dict = {}

#: Per-thread (and, transitively, per-process) caches for the expensive
#: worker artifacts: the reference signature database and recipe-built
#: population copies.
_WORKER_CACHE = threading.local()


def _worker_chrome_detector(signature_db_path: Optional[str] = None) -> PageDetector:
    cached = getattr(_WORKER_CACHE, "chrome_detector", None)
    if cached is None or cached[0] != signature_db_path:
        detector = PageDetector()
        if signature_db_path:
            detector.classifier.database = _load_signature_db(signature_db_path)
        else:
            detector.classifier.database = build_reference_database()
        cached = (signature_db_path, detector)
        _WORKER_CACHE.chrome_detector = cached
    # the campaign re-enables this per run when its Obs context is on; a
    # cached detector must not leak the flag into an unobserved run
    cached[1].collect_evidence = False
    return cached[1]


def _load_signature_db(path: str):
    import pathlib

    from repro.core.signatures import SignatureDatabase

    return SignatureDatabase.from_json(pathlib.Path(path).read_text())


def _worker_population(recipe: PopulationRecipe) -> WebPopulation:
    key = (recipe.dataset, recipe.seed, recipe.scale, recipe.fault_profile)
    cached = getattr(_WORKER_CACHE, "population", None)
    if cached is None or cached[0] != key:
        cached = (key, recipe.build())
        _WORKER_CACHE.population = cached
    return cached[1]


# ---------------------------------------------------------------------------
# shard work (shared by every execution mode)


def _campaign_fingerprint(*parts: object) -> str:
    """Stable digest pinning a checkpoint journal to one configuration.

    The shard's ``(population index, domain)`` assignment is included, so
    any change to dataset, seed, scale, or shard count — all of which
    reshape that list — invalidates the journal; the fault plan and
    per-site policy objects cover the rest. A mismatched journal is
    discarded and its sites re-run (see :mod:`repro.faults.checkpoint`).
    """
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def _shard_checkpoint_identity(population, indices):
    """Journal-fingerprint material for a shard's site assignment.

    Streaming populations pin ``(population identity, index bounds)`` —
    O(1) in the range length; materialized populations keep the legacy
    per-domain list, byte-compatible with journals written before
    streaming existed.
    """
    identity = getattr(population, "checkpoint_identity", None)
    if identity is not None:
        return identity(indices)
    return [(i, population.sites[i].domain) for i in indices]


def _zgrab_shard_work(
    population: WebPopulation,
    shard_id: int,
    indices: list[int],
    scan_index: int,
    resilience: Optional[ResiliencePolicy] = None,
    checkpoint_dir: Optional[str] = None,
    observe: bool = False,
    progress=None,
) -> tuple[ZgrabScanPartial, ShardMetrics]:
    # each shard traces into its own context; the id prefix is derived from
    # the dataset, scan, and shard, so the merged trace is identical across
    # executor modes and span ids stay unique when run_reproduction merges
    # several datasets' shard traces into one run directory
    obs = (
        make_obs(prefix=f"{population.spec.name}-z{scan_index}s{shard_id}")
        if observe
        else NULL_OBS
    )
    campaign = ZgrabCampaign(population=population, resilience=resilience, obs=obs)
    journal = None
    if checkpoint_dir is not None:
        # the journal name carries the dataset — run_reproduction loops
        # four datasets over one checkpoint_dir, and an unqualified name
        # would replay one dataset's outcomes into another's shards
        dataset = population.spec.name
        fingerprint_parts = [
            dataset,
            f"zgrab{scan_index}",
            shard_id,
            _shard_checkpoint_identity(population, indices),
            population.web.fault_plan,
            resilience,
        ]
        if observe:
            # observed runs journal outcomes *with* evidence chains; a
            # journal recorded unobserved has none to replay, so it must
            # be discarded rather than yield evidence-free verdicts
            fingerprint_parts.append("evidence")
        journal = shard_journal(
            checkpoint_dir,
            f"{dataset}-zgrab{scan_index}",
            shard_id,
            fingerprint=_campaign_fingerprint(*fingerprint_parts),
        )
    clock = get_clock()
    started = clock.now()
    try:
        with obs.span("shard", shard=shard_id, kind=f"zgrab{scan_index}"):
            partial = campaign.scan_sites_indexed(
                ((i, population.sites[i]) for i in indices),
                scan_index,
                journal=journal,
                progress=progress,
            )
    finally:
        if journal is not None:
            journal.close()
    wall = clock.now() - started
    metrics = ShardMetrics(
        shard_id=shard_id,
        sites=len(indices),
        wall_seconds=wall,
        domains_probed=partial.domains_probed,
        fetch_failures=partial.fetch_failures,
        detector_hits=partial.nocoin_domains,
        ledger=partial.fault_ledger,
        registry=obs.registry if observe else None,
        spans=obs.tracer.spans if observe else None,
    )
    return partial, metrics


def _chrome_shard_work(
    population: WebPopulation,
    shard_id: int,
    indices: list[int],
    browser_config: BrowserConfig,
    checkpoint_dir: Optional[str] = None,
    observe: bool = False,
    progress=None,
    signature_db_path: Optional[str] = None,
) -> tuple[ChromeRunPartial, ShardMetrics]:
    obs = make_obs(prefix=f"{population.spec.name}-cs{shard_id}") if observe else NULL_OBS
    campaign = ChromeCampaign(
        population=population,
        detector=_worker_chrome_detector(signature_db_path),
        browser_config=browser_config,
        rulespace=RuleSpaceEngine(),
        obs=obs,
    )
    journal = None
    if checkpoint_dir is not None:
        dataset = population.spec.name
        fingerprint_parts = [
            dataset,
            "chrome",
            shard_id,
            _shard_checkpoint_identity(population, indices),
            population.web.fault_plan,
            browser_config,
        ]
        if signature_db_path:
            # a different signature catalogue changes verdicts; stale
            # journals from another db must not replay into this run
            fingerprint_parts.append(signature_db_path)
        if observe:
            # same contract as the zgrab journals: only journals whose
            # outcomes carry evidence may replay into an observed run
            fingerprint_parts.append("evidence")
        journal = shard_journal(
            checkpoint_dir,
            f"{dataset}-chrome",
            shard_id,
            fingerprint=_campaign_fingerprint(*fingerprint_parts),
        )
    clock = get_clock()
    started = clock.now()
    try:
        with obs.span("shard", shard=shard_id, kind="chrome"):
            partial = campaign.run_sites(
                ((i, population.sites[i]) for i in indices),
                journal=journal,
                progress=progress,
            )
    finally:
        if journal is not None:
            journal.close()
    wall = clock.now() - started
    metrics = ShardMetrics(
        shard_id=shard_id,
        sites=len(indices),
        wall_seconds=wall,
        domains_probed=len(indices),
        fetch_failures=sum(1 for _, report in partial.reports if report.status == "error"),
        detector_hits=partial.miner_wasm_sites,
        ledger=partial.fault_ledger,
        registry=obs.registry if observe else None,
        spans=obs.tracer.spans if observe else None,
    )
    return partial, metrics


def _call_zgrab_work(
    population: WebPopulation,
    shard_id: int,
    indices: list[int],
    scan_index: int,
    resilience: Optional[ResiliencePolicy],
    checkpoint_dir: Optional[str],
    observe: bool = False,
    progress=None,
) -> tuple[ZgrabScanPartial, ShardMetrics]:
    # keep the legacy positional call when the chaos/checkpoint/obs planes
    # are off — callers (and tests) may substitute a 4-arg _zgrab_shard_work
    if resilience is None and checkpoint_dir is None and not observe and progress is None:
        return _zgrab_shard_work(population, shard_id, indices, scan_index)
    return _zgrab_shard_work(
        population, shard_id, indices, scan_index, resilience, checkpoint_dir, observe,
        progress,
    )


def _call_chrome_work(
    population: WebPopulation,
    shard_id: int,
    indices: list[int],
    browser_config: BrowserConfig,
    checkpoint_dir: Optional[str],
    observe: bool = False,
    progress=None,
    signature_db_path: Optional[str] = None,
) -> tuple[ChromeRunPartial, ShardMetrics]:
    if (
        checkpoint_dir is None
        and not observe
        and progress is None
        and signature_db_path is None
    ):
        return _chrome_shard_work(population, shard_id, indices, browser_config)
    return _chrome_shard_work(
        population, shard_id, indices, browser_config, checkpoint_dir, observe, progress,
        signature_db_path,
    )


def _zgrab_process_entry(
    shard_id: int,
    indices: list[int],
    scan_index: int,
    retry: RetryPolicy,
    resilience: Optional[ResiliencePolicy] = None,
    checkpoint_dir: Optional[str] = None,
    observe: bool = False,
) -> tuple[ZgrabScanPartial, ShardMetrics]:
    population = _FORK_STATE["population"]
    result, retries = run_with_retry(
        lambda: _call_zgrab_work(
            population, shard_id, indices, scan_index, resilience, checkpoint_dir, observe
        ),
        retry,
        key=(f"zgrab{scan_index}", f"shard{shard_id}"),
    )
    result[1].retries = retries
    return result


def _chrome_process_entry(
    shard_id: int,
    indices: list[int],
    browser_config: BrowserConfig,
    retry: RetryPolicy,
    checkpoint_dir: Optional[str] = None,
    observe: bool = False,
    signature_db_path: Optional[str] = None,
) -> tuple[ChromeRunPartial, ShardMetrics]:
    population = _FORK_STATE["population"]
    result, retries = run_with_retry(
        lambda: _call_chrome_work(
            population, shard_id, indices, browser_config, checkpoint_dir, observe,
            None, signature_db_path,
        ),
        retry,
        key=("chrome", f"shard{shard_id}"),
    )
    result[1].retries = retries
    return result


# ---------------------------------------------------------------------------
# executor core


def fork_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool whose workers are forked, inheriting the caller's
    memory copy-on-write; raises where ``fork`` is unavailable."""
    if "fork" not in multiprocessing.get_all_start_methods():
        raise RuntimeError(
            "process mode needs the 'fork' start method (copy-on-write "
            "population sharing); use mode='thread' on this platform"
        )
    return ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("fork")
    )


def _collect_shards(
    submit: Callable[[Executor, int], "object"],
    shard_sizes: dict[int, int],
    pool: Optional[Executor],
    config: ParallelConfig,
    progress=None,
) -> tuple[dict[int, object], list[ShardMetrics]]:
    """Run every shard, gathering partials and metrics (failures included).

    ``progress`` is only passed here in process mode, where per-site
    advances cannot cross the fork boundary — the parent advances one
    whole shard at a time as results come back.
    """
    partials: dict[int, object] = {}
    failures: list[ShardMetrics] = []
    metrics_by_shard: dict[int, ShardMetrics] = {}

    def record(shard_id: int, outcome) -> None:
        partial, shard_metrics = outcome
        partials[shard_id] = partial
        metrics_by_shard[shard_id] = shard_metrics
        if progress is not None:
            ledger = shard_metrics.ledger
            progress.advance(
                shard_sizes[shard_id],
                failed=shard_metrics.fetch_failures,
                faults=ledger.total_injected if ledger is not None else 0,
                breakers_opened=ledger.breaker_opened if ledger is not None else 0,
                breakers_closed=ledger.breaker_closed if ledger is not None else 0,
            )

    if pool is None:  # serial
        for shard_id in shard_sizes:
            try:
                record(shard_id, submit(None, shard_id))
            except Exception as exc:
                if config.fail_fast:
                    raise
                failures.append(
                    ShardMetrics(
                        shard_id=shard_id,
                        sites=shard_sizes[shard_id],
                        retries=config.retry.max_attempts - 1,
                        error=str(exc) or type(exc).__name__,
                    )
                )
    else:
        futures = {submit(pool, shard_id): shard_id for shard_id in shard_sizes}
        pending = set(futures)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                shard_id = futures[future]
                try:
                    record(shard_id, future.result())
                except Exception as exc:
                    if config.fail_fast:
                        for other in pending:
                            other.cancel()
                        raise
                    failures.append(
                        ShardMetrics(
                            shard_id=shard_id,
                            sites=shard_sizes[shard_id],
                            retries=config.retry.max_attempts - 1,
                            error=str(exc) or type(exc).__name__,
                        )
                    )

    all_metrics = sorted(
        list(metrics_by_shard.values()) + failures, key=lambda m: m.shard_id
    )
    return partials, all_metrics


class _ShardedCampaignBase:
    """Shared machinery: partitioning, pool lifecycle, metrics assembly."""

    population: WebPopulation
    config: ParallelConfig
    obs: Obs

    def _partition(self) -> tuple[list[list[int]], dict[int, int]]:
        # streaming populations publish their own plan (contiguous index
        # ranges, or stratified-sample chunks) so shards stay O(1)-memory
        plan = getattr(self.population, "shard_plan", None)
        if plan is not None:
            shard_indices = plan(self.config.shards)
        else:
            shard_indices = partition_indices(self.population.sites, self.config.shards)
        sizes = {shard_id: len(idx) for shard_id, idx in enumerate(shard_indices)}
        return shard_indices, sizes

    def _execute(self, submit_local, submit_process, kind: str = "campaign") -> tuple[dict[int, object], CampaignMetrics]:
        """Run all shards under the configured mode.

        ``submit_local(pool_or_none, shard_id)`` runs/submits a shard in
        serial or thread mode; ``submit_process(pool, shard_id)`` submits
        the module-level fork entry point. All wall clocks come from the
        injectable obs clock, so a ``TickClock`` makes the derived rates
        (``domains_per_sec``, ``parallel_efficiency``) reproducible.
        """
        config = self.config
        obs = self.obs
        _, sizes = self._partition()
        dataset = self.population.spec.name
        progress = getattr(self, "progress", None)
        if progress is not None:
            progress.begin(total=sum(sizes.values()), label=f"{dataset}-{kind}")
        clock = get_clock()
        started = clock.now()
        with obs.span(
            "campaign", kind=kind, mode=config.mode, shards=config.shards, dataset=dataset
        ) as campaign_span:
            if config.mode == "serial":
                partials, shard_metrics = _collect_shards(submit_local, sizes, None, config)
            elif config.mode == "thread":
                with ThreadPoolExecutor(max_workers=config.workers) as pool:
                    partials, shard_metrics = _collect_shards(submit_local, sizes, pool, config)
            else:  # process
                _FORK_STATE["population"] = self.population
                try:
                    with fork_pool(config.workers) as pool:
                        partials, shard_metrics = _collect_shards(
                            submit_process, sizes, pool, config, progress
                        )
                finally:
                    _FORK_STATE.pop("population", None)
        wall = clock.now() - started
        if progress is not None:
            progress.finish()
        metrics = CampaignMetrics(
            shards=shard_metrics,
            wall_seconds=wall,
            mode=config.mode,
            workers=config.workers if config.mode != "serial" else 1,
        )
        if obs.enabled:
            # fold the shard-local traces/registries into the campaign
            # context: shard root spans re-root under the campaign span,
            # stage histograms merge under the single registry law
            for shard in metrics.shards:
                if shard.spans:
                    obs.tracer.adopt(shard.spans, parent_id=campaign_span.span_id)
                if shard.registry is not None:
                    obs.registry.merge(shard.registry)
        return partials, metrics


@dataclass
class ShardedZgrabCampaign(_ShardedCampaignBase):
    """Shard-parallel drop-in for :class:`ZgrabCampaign`.

    ``scan``/``both_scans`` return the same :class:`ZgrabScanResult` values
    the sequential campaign produces; ``metrics`` holds the per-shard
    measurements of the most recent scan.
    """

    population: WebPopulation
    config: ParallelConfig = field(default_factory=ParallelConfig)
    metrics: Optional[CampaignMetrics] = None
    #: observability context; shard traces and registries merge into it
    obs: Obs = field(default=NULL_OBS, repr=False)
    #: live heartbeat reporter (``--heartbeat``); ``None`` costs nothing
    progress: Optional[object] = field(default=None, repr=False)

    def scan(self, scan_index: int = 0) -> ZgrabScanResult:
        shard_indices, _ = self._partition()
        retry = self.config.retry
        resilience = self.config.resilience
        checkpoint_dir = self.config.checkpoint_dir
        observe = self.obs.enabled
        # per-site advances in serial/thread; process advances per shard
        # in the parent (see _collect_shards)
        progress = self.progress if self.config.mode != "process" else None

        def submit_local(pool, shard_id):
            def attempt():
                return _call_zgrab_work(
                    self.population,
                    shard_id,
                    shard_indices[shard_id],
                    scan_index,
                    resilience,
                    checkpoint_dir,
                    observe,
                    progress,
                )

            def entry():
                result, retries = run_with_retry(
                    attempt, retry, key=(f"zgrab{scan_index}", f"shard{shard_id}")
                )
                result[1].retries = retries
                return result

            return entry() if pool is None else pool.submit(entry)

        def submit_process(pool, shard_id):
            return pool.submit(
                _zgrab_process_entry,
                shard_id,
                shard_indices[shard_id],
                scan_index,
                retry,
                resilience,
                checkpoint_dir,
                observe,
            )

        partials, self.metrics = self._execute(
            submit_local, submit_process, kind=f"zgrab{scan_index}"
        )
        merged = ZgrabScanPartial()
        for shard_id in sorted(partials):
            merged.merge(partials[shard_id])
        return ZgrabCampaign(population=self.population).finalize_scan(merged, scan_index)

    def both_scans(self) -> list[ZgrabScanResult]:
        return [self.scan(0), self.scan(1)]


@dataclass
class ShardedChromeCampaign(_ShardedCampaignBase):
    """Shard-parallel drop-in for :class:`ChromeCampaign`.

    Each shard drives its own fresh browser, so per-page RNG (keyed by URL)
    and page-load timing replay exactly as in the sequential run. In thread
    mode, pass a ``recipe`` to give every worker thread its own rebuilt
    population — Coinhive pool state is mutated during visits, and the
    rebuild isolates those writes without changing any detection outcome.
    In process mode the fork gives workers copy-on-write isolation for free.
    """

    population: Optional[WebPopulation] = None
    recipe: Optional[PopulationRecipe] = None
    config: ParallelConfig = field(default_factory=ParallelConfig)
    browser_config: BrowserConfig = field(default_factory=BrowserConfig)
    #: path to a ``SignatureDatabase.to_json`` file; workers load it instead
    #: of building the reference catalogue (the path, not the db, crosses
    #: thread/process boundaries)
    signature_db_path: Optional[str] = None
    metrics: Optional[CampaignMetrics] = None
    #: observability context; shard traces and registries merge into it
    obs: Obs = field(default=NULL_OBS, repr=False)
    #: live heartbeat reporter (``--heartbeat``); ``None`` costs nothing
    progress: Optional[object] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.population is None:
            if self.recipe is None:
                raise ValueError("need a population or a recipe")
            self.population = self.recipe.build()

    def _shard_population(self) -> WebPopulation:
        if self.config.mode == "thread" and self.recipe is not None:
            return _worker_population(self.recipe)
        return self.population

    def run(self) -> ChromeCampaignResult:
        shard_indices, _ = self._partition()
        retry = self.config.retry
        browser_config = self.browser_config
        checkpoint_dir = self.config.checkpoint_dir
        observe = self.obs.enabled
        signature_db_path = self.signature_db_path
        progress = self.progress if self.config.mode != "process" else None

        def submit_local(pool, shard_id):
            def attempt():
                return _call_chrome_work(
                    self._shard_population(),
                    shard_id,
                    shard_indices[shard_id],
                    browser_config,
                    checkpoint_dir,
                    observe,
                    progress,
                    signature_db_path,
                )

            def entry():
                result, retries = run_with_retry(
                    attempt, retry, key=("chrome", f"shard{shard_id}")
                )
                result[1].retries = retries
                return result

            return entry() if pool is None else pool.submit(entry)

        def submit_process(pool, shard_id):
            return pool.submit(
                _chrome_process_entry,
                shard_id,
                shard_indices[shard_id],
                browser_config,
                retry,
                checkpoint_dir,
                observe,
                signature_db_path,
            )

        partials, self.metrics = self._execute(submit_local, submit_process, kind="chrome")
        merged = ChromeRunPartial()
        for shard_id in sorted(partials):
            merged.merge(partials[shard_id])
        finalizer = ChromeCampaign(
            population=self.population,
            detector=PageDetector(),  # finalize only aggregates; no detection runs
            browser_config=self.browser_config,
        )
        return finalizer.finalize_run(merged)
