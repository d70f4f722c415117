"""Sharded parallel campaign execution.

The paper's scans cover 138M domains with zgrab and ~3.2M with instrumented
Chrome — scale that a single-threaded loop over ``population.sites`` never
reaches. This module partitions any :class:`~repro.internet.population.Population`
into deterministic shards (its ``shard_plan``: a stable hash of each
domain for a materialized build, contiguous index ranges for a streamed
one), runs the campaign's per-site pipeline on each shard via a
``concurrent.futures`` pool, and merges the per-shard partial results into
output **identical to one pass over every site** (the loop kept in
``tests/oracles/crawl.py``):

- shard membership depends only on the population (stable across runs,
  processes, and site orderings),
- the per-site work in :class:`~repro.analysis.crawl.ZgrabCampaign` /
  :class:`~repro.analysis.crawl.ChromeCampaign` is site-independent and
  keyed by URL-scoped RNG streams, so grouping does not change outcomes,
- partials merge in shard-id order and every tally is a plain sum, so the
  finalized result does not depend on worker count or completion order.

Execution modes (:func:`executor_mode` picks one from the worker count;
the work is pure-Python and CPU-bound, so threads would only share a GIL):

- ``serial``  — run shards in the calling process: one worker, or no
  ``fork`` on this platform,
- ``process`` — ``ProcessPoolExecutor`` with the ``fork`` start method; the
  population is inherited copy-on-write, giving each worker an isolated
  view with no pickling of the web registry.

Every shard is wrapped in retry-with-exponential-backoff (the shared
:class:`repro.faults.resilience.RetryPolicy`); a shard that exhausts its
retries is recorded in the metrics (``error`` set) and skipped instead of
killing the whole campaign. With ``checkpoint_dir`` set, every shard
journals per-site outcomes so a killed run resumes without repeating (or
re-randomizing) completed work.
"""

from __future__ import annotations

import hashlib
import multiprocessing
from concurrent.futures import Executor, ProcessPoolExecutor, as_completed
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
from repro.faults.resilience import ResiliencePolicy, RetryPolicy, run_with_retry
from repro.internet.population import Population, WebPopulation
from repro.obs.clock import get_clock
from repro.obs.profile import NULL_OBS, Obs, make_obs
from repro.rulespace.engine import RuleSpaceEngine
from repro.web.browser import BrowserConfig

EXECUTOR_MODES = ("serial", "process")

__all__ = [
    "EXECUTOR_MODES",
    "ForkedCall",
    "ParallelConfig",
    "ShardedChromeCampaign",
    "ShardedZgrabCampaign",
    "can_fork",
    "executor_mode",
]


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ParallelConfig:
    """How a sharded campaign executes; the defaults run one shard in the
    calling process."""

    shards: int = 1
    workers: int = 1
    mode: str = "serial"  # serial | process
    #: per-shard retries; a shard that exhausts them is dropped and
    #: recorded in the metrics
    retry: RetryPolicy = field(default_factory=RetryPolicy)
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


# ---------------------------------------------------------------------------
# worker-side state

#: Holds the campaign's retried shard runner (``"run_shard"``), set in the
#: parent just before a fork-based pool spins up; forked workers read
#: their copy-on-write view of it, population included. Process mode only.
_FORK_STATE: dict = {}

#: Per-process cache of the Chrome plane's detector (its signature
#: database is the expensive part). The parent fills it before a campaign
#: starts, so forked workers inherit it copy-on-write.
_WORKER_CACHE: dict = {}


def _worker_chrome_detector(signature_db_path: Optional[str] = None) -> PageDetector:
    cached = _WORKER_CACHE.get("chrome_detector")
    if cached is None or cached[0] != signature_db_path:
        detector = PageDetector()
        if signature_db_path:
            detector.classifier.database = _load_signature_db(signature_db_path)
        else:
            detector.classifier.database = build_reference_database()
        cached = (signature_db_path, detector)
        _WORKER_CACHE["chrome_detector"] = cached
    # the campaign re-enables this per run when its Obs context is on; a
    # cached detector must not leak the flag into an unobserved run
    cached[1].collect_evidence = False
    return cached[1]


def _load_signature_db(path: str):
    import pathlib

    from repro.core.signatures import SignatureDatabase

    return SignatureDatabase.from_json(pathlib.Path(path).read_text())


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


def _run_shard(
    population: Population,
    shard_id: int,
    indices: list[int],
    kind: str,
    obs: Obs,
    checkpoint_dir: Optional[str],
    fingerprint_parts: list,
    work: Callable,
    counts: Callable,
) -> tuple[object, ShardMetrics]:
    """One shard of either plane: journal, ``shard`` span, timing, metrics.

    ``work(indexed_sites, journal)`` runs the plane's campaign over the
    shard's sites and returns its partial; ``counts(partial)`` gives the
    shard's ``(domains_probed, fetch_failures, detector_hits)``. The
    journal fingerprint is ``(dataset, kind, shard, site assignment,
    fault plan, *fingerprint_parts)``, plus ``"evidence"`` on observed runs.
    """
    journal = None
    if checkpoint_dir is not None:
        # the journal name carries the dataset — run_reproduction loops
        # four datasets over one checkpoint_dir, and an unqualified name
        # would replay one dataset's outcomes into another's shards
        dataset = population.spec.name
        parts = [
            dataset,
            kind,
            shard_id,
            population.checkpoint_identity(indices),
            population.web.fault_plan,
            *fingerprint_parts,
        ]
        if obs.enabled:
            # observed runs journal outcomes *with* evidence chains; a
            # journal recorded unobserved has none to replay, so it must
            # be discarded rather than yield evidence-free verdicts
            parts.append("evidence")
        journal = shard_journal(
            checkpoint_dir,
            f"{dataset}-{kind}",
            shard_id,
            fingerprint=_campaign_fingerprint(*parts),
        )
    clock = get_clock()
    started = clock.now()
    try:
        with obs.span("shard", shard=shard_id, kind=kind):
            partial = work(((i, population.sites[i]) for i in indices), journal)
    finally:
        if journal is not None:
            journal.close()
    wall = clock.now() - started
    domains_probed, fetch_failures, detector_hits = counts(partial)
    metrics = ShardMetrics(
        shard_id=shard_id,
        sites=len(indices),
        wall_seconds=wall,
        domains_probed=domains_probed,
        fetch_failures=fetch_failures,
        detector_hits=detector_hits,
        ledger=partial.fault_ledger,
        registry=obs.registry if obs.enabled else None,
        spans=obs.tracer.spans if obs.enabled else None,
    )
    return partial, metrics


def _zgrab_shard_work(
    population: Population,
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
    return _run_shard(
        population, shard_id, indices, f"zgrab{scan_index}", obs, checkpoint_dir,
        [resilience],
        lambda sites, journal: campaign.scan_sites_indexed(
            sites, scan_index, journal=journal, progress=progress
        ),
        lambda partial: (partial.domains_probed, partial.fetch_failures, partial.nocoin_domains),
    )


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
    # a different signature catalogue changes verdicts; stale journals
    # from another db must not replay into this run
    fingerprint_parts = [browser_config] + ([signature_db_path] if signature_db_path else [])
    return _run_shard(
        population, shard_id, indices, "chrome", obs, checkpoint_dir, fingerprint_parts,
        lambda sites, journal: campaign.run_sites(sites, journal=journal, progress=progress),
        lambda partial: (
            len(indices),
            sum(1 for _, report in partial.reports if report.status == "error"),
            partial.miner_wasm_sites,
        ),
    )


def _process_entry(shard_id: int) -> tuple[object, ShardMetrics]:
    """Run one shard in a forked worker: the campaign stored its retried
    attempt in ``_FORK_STATE`` before the pool forked."""
    return _FORK_STATE["run_shard"](shard_id)


# ---------------------------------------------------------------------------
# executor core


def can_fork() -> bool:
    """Whether this platform has the ``fork`` start method, which process
    mode and :class:`ForkedCall` both need."""
    return "fork" in multiprocessing.get_all_start_methods()


def executor_mode(workers: int) -> str:
    """The mode a crawl with ``workers`` workers runs: ``process`` above
    one worker where ``fork`` exists, else ``serial``."""
    return "process" if workers > 1 and can_fork() else "serial"


def fork_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool whose workers are forked, inheriting the caller's
    memory copy-on-write; raises where ``fork`` is unavailable."""
    if not can_fork():
        raise RuntimeError(
            "process mode needs the 'fork' start method (copy-on-write "
            "population sharing); run mode='serial' on this platform"
        )
    return ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("fork")
    )


def _answer(sender, fn: Callable, args: tuple) -> None:
    try:
        sender.send((True, fn(*args)))
    except BaseException as exc:  # ForkedCall.result re-raises it
        sender.send((False, exc))


class ForkedCall:
    """``fn(*args)`` running in one forked child; :meth:`result` returns
    what it returned or re-raises what it raised.

    A bare fork ``Process`` answering over a one-way ``Pipe`` leaves no
    pool manager or queue-feeder thread in the parent, so later forks (a
    crawl's process pool) still fork a one-thread parent. The parent
    holds only the read end: a child that dies before answering reads as
    end-of-file and raises instead of hanging. :meth:`close` stops and
    reaps the child.
    """

    def __init__(self, fn: Callable, *args) -> None:
        context = multiprocessing.get_context("fork")
        self._receiver, sender = context.Pipe(duplex=False)
        self._process = context.Process(target=_answer, args=(sender, fn, args), daemon=True)
        self._process.start()
        sender.close()

    def result(self):
        try:
            ok, value = self._receiver.recv()
        except EOFError:
            self._process.join()
            raise RuntimeError(
                f"forked worker died with exit code {self._process.exitcode}"
            ) from None
        if not ok:
            raise value
        return value

    def close(self) -> None:
        if self._process.is_alive():
            self._process.terminate()
        self._process.join()
        self._receiver.close()


def _collect_shards(
    run_shard: Callable[[int], tuple],
    shard_sizes: dict[int, int],
    pool: Optional[Executor],
    retry: RetryPolicy,
    progress=None,
) -> tuple[dict[int, object], list[ShardMetrics]]:
    """Run every shard, gathering partials and metrics (failures included).

    ``run_shard(shard_id)`` runs inline without a ``pool``, else is
    submitted to it. ``progress`` is only passed here in process mode,
    where per-site advances cannot cross the fork boundary — the parent
    advances one whole shard at a time as results come back.
    """
    partials: dict[int, object] = {}
    all_metrics: list[ShardMetrics] = []

    def settle(shard_id: int, outcome: Callable[[], tuple]) -> None:
        try:
            partial, shard_metrics = outcome()
        except Exception as exc:
            # a shard that exhausts its retries is dropped, not fatal
            all_metrics.append(
                ShardMetrics(
                    shard_id=shard_id,
                    sites=shard_sizes[shard_id],
                    retries=retry.max_attempts - 1,
                    error=str(exc) or type(exc).__name__,
                )
            )
            return
        partials[shard_id] = partial
        all_metrics.append(shard_metrics)
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
            settle(shard_id, lambda: run_shard(shard_id))
    else:
        futures = {pool.submit(run_shard, shard_id): shard_id for shard_id in shard_sizes}
        for future in as_completed(futures):
            settle(futures[future], future.result)
    return partials, sorted(all_metrics, key=lambda m: m.shard_id)


class _ShardedCampaignBase:
    """Shared machinery: partitioning, pool lifecycle, metrics assembly."""

    population: Population
    config: ParallelConfig
    obs: Obs
    #: live heartbeat reporter (``--heartbeat``); ``None`` costs nothing
    progress: Optional[object]

    def _execute(
        self, shard_indices: list, attempt: Callable, kind: str
    ) -> tuple[dict[int, object], CampaignMetrics]:
        """Run every shard of ``shard_indices`` under the configured mode.

        ``attempt(shard_id, progress)`` runs one shard and returns its
        ``(partial, ShardMetrics)``; each shard's attempts retry under
        ``config.retry`` with the key ``(kind, "shard<id>")``. Serial mode
        hands ``attempt`` the heartbeat reporter for per-site advances;
        process mode hands it ``None`` and advances per shard in the
        parent. All wall clocks come from the injectable obs clock,
        so a ``TickClock`` makes the derived rates (``domains_per_sec``,
        ``parallel_efficiency``) reproducible.
        """
        config = self.config
        obs = self.obs
        sizes = {shard_id: len(idx) for shard_id, idx in enumerate(shard_indices)}
        dataset = self.population.spec.name
        progress = self.progress
        if progress is not None:
            progress.begin(total=sum(sizes.values()), label=f"{dataset}-{kind}")
        site_progress = progress if config.mode != "process" else None

        def run_shard(shard_id: int) -> tuple:
            result, retries = run_with_retry(
                lambda: attempt(shard_id, site_progress),
                config.retry,
                key=(kind, f"shard{shard_id}"),
            )
            result[1].retries = retries
            return result

        clock = get_clock()
        started = clock.now()
        with obs.span(
            "campaign", kind=kind, mode=config.mode, shards=config.shards, dataset=dataset
        ) as campaign_span:
            if config.mode == "serial":
                partials, shard_metrics = _collect_shards(run_shard, sizes, None, config.retry)
            else:  # process: forked workers inherit run_shard copy-on-write
                _FORK_STATE["run_shard"] = run_shard
                try:
                    with fork_pool(config.workers) as pool:
                        partials, shard_metrics = _collect_shards(
                            _process_entry, sizes, pool, config.retry, progress
                        )
                finally:
                    _FORK_STATE.pop("run_shard", None)
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
    """The Section 3.1 zgrab pass over any population, sharded.

    ``scan(0)`` and ``scan(1)`` give the two scan dates' Figure-2 rows;
    ``metrics`` holds the per-shard measurements of the most recent scan.
    """

    population: Population
    config: ParallelConfig = field(default_factory=ParallelConfig)
    metrics: Optional[CampaignMetrics] = None
    #: observability context; shard traces and registries merge into it
    obs: Obs = field(default=NULL_OBS, repr=False)
    progress: Optional[object] = field(default=None, repr=False)

    def scan(self, scan_index: int = 0) -> ZgrabScanResult:
        shard_indices = self.population.shard_plan(self.config.shards)

        def attempt(shard_id: int, progress) -> tuple:
            return _zgrab_shard_work(
                self.population, shard_id, shard_indices[shard_id], scan_index,
                self.config.resilience, self.config.checkpoint_dir, self.obs.enabled,
                progress,
            )

        partials, self.metrics = self._execute(
            shard_indices, attempt, kind=f"zgrab{scan_index}"
        )
        merged = ZgrabScanPartial()
        for shard_id in sorted(partials):
            merged.merge(partials[shard_id])
        return ZgrabCampaign(population=self.population).finalize_scan(merged, scan_index)


@dataclass
class ShardedChromeCampaign(_ShardedCampaignBase):
    """The Section 3.2 Chrome pass over a materialized population, sharded.

    Each shard drives its own fresh browser, so per-page RNG (keyed by URL)
    and page-load timing replay exactly as in one unsharded pass. Coinhive
    pool state is mutated during visits; in process mode the fork gives
    every worker a copy-on-write population, so those writes stay isolated.
    """

    population: WebPopulation
    config: ParallelConfig = field(default_factory=ParallelConfig)
    browser_config: BrowserConfig = field(default_factory=BrowserConfig)
    #: path to a ``SignatureDatabase.to_json`` file, loaded instead of
    #: building the reference catalogue
    signature_db_path: Optional[str] = None
    metrics: Optional[CampaignMetrics] = None
    #: observability context; shard traces and registries merge into it
    obs: Obs = field(default=NULL_OBS, repr=False)
    progress: Optional[object] = field(default=None, repr=False)

    def run(self) -> ChromeCampaignResult:
        shard_indices = self.population.shard_plan(self.config.shards)
        # built once here, before the campaign clock starts, so the shards
        # (forked workers too, copy-on-write) time only their sites
        with self.obs.span("setup", kind="chrome", dataset=self.population.spec.name):
            _worker_chrome_detector(self.signature_db_path)

        def attempt(shard_id: int, progress) -> tuple:
            return _chrome_shard_work(
                self.population, shard_id, shard_indices[shard_id],
                self.browser_config, self.config.checkpoint_dir, self.obs.enabled,
                progress, self.signature_db_path,
            )

        partials, self.metrics = self._execute(shard_indices, attempt, kind="chrome")
        merged = ChromeRunPartial()
        for shard_id in sorted(partials):
            merged.merge(partials[shard_id])
        return ChromeCampaign(population=self.population).finalize_run(merged)
