"""The benchmark workloads, each driven through public entry points.

Each repetition runs in a fresh process in three steps:

- ``setup(seed, workdir)`` builds the inputs a workload always needs (the
  served population). It imports the program lazily, so ``setup`` plus
  ``prepare`` is the whole set-up a user pays before the first item.
- ``prepare(state, rep_seed, progress)`` builds the repetition's inputs (a
  streamed population and its campaign, or a request schedule and a fresh
  server).
- ``run(state, inputs)`` is the timed work. It returns a :class:`RepOutcome`
  with the items, the operations attempted and failed, and the outputs
  that are checked.

Repetition ``i`` of a run with seed ``s`` uses :func:`rep_seed`, so the
repetitions of one run see different inputs and the run's figures average
over them.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

#: the calibrated population the verdict server judges, whatever --seed is:
#: the seed draws the request schedule. Seeding the population too made the
#: share of requests that reach dynamic profiling, and with it every timing,
#: swing by up to 40% from seed to seed at this 286-site scale.
SERVE_POPULATION_SEED = 2018
SERVE_SCALE = 0.1
SERVE_RATE = 10.0
ZGRAB_SITES = 10_000


class CheckError(Exception):
    """A repetition's outputs break an invariant every seed must keep."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


#: section titles every reproduction report carries
REPORT_SECTIONS = (
    "## Figure 2",
    "## Tables 1–2",
    "## Figures 3–4",
    "## Tables 4–5",
    "## Figure 5",
    "## Table 6",
)


def rep_seed(seed: int, index: int) -> int:
    """The input seed of repetition ``index``; repetition 0 uses ``seed``."""
    return seed + 1_000_003 * index


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class RepOutcome:
    """What one timed repetition did."""

    #: items completed: reproductions, site probes, or offered requests
    items: int
    #: site probes or requests attempted, and those that ended in a fetch
    #: error or a refusal (the program's answer, not a benchmark failure)
    operations: int
    failed_operations: int
    outputs: dict
    #: the verdict server's metrics registry (serve-live only)
    registry: object = None
    #: wall-clock gaps between consecutive completions that count toward
    #: the per-item quantiles (seconds)
    gaps: list = field(default_factory=list)


class GapProgress:
    """A ``progress`` hook that records the wall gap between completions.

    The campaigns call ``begin(total=..., label=...)`` and the verdict
    server ``begin(n)``; both call ``advance(1, failed=...)`` once per
    finished site or response. With ``ok_only`` a gap counts only when the
    completion it ends is not a failure.
    """

    def __init__(self, ok_only: bool = False) -> None:
        self.ok_only = ok_only
        self.gaps: list = []
        self._last = 0.0

    def begin(self, total: int = 0, label: str = "") -> None:
        self._last = time.perf_counter()

    def advance(self, count: int = 1, failed: int = 0, **_details) -> None:
        now = time.perf_counter()
        if not (self.ok_only and failed):
            self.gaps.append(now - self._last)
        self._last = now

    def finish(self) -> None:
        pass


# ---------------------------------------------------------------------------
# reproduce


class Reproduce:
    """``run_reproduction(ReproductionConfig(seed=...))`` at its defaults."""

    name = "reproduce"
    #: one repetition is one whole reproduction
    nominal_rep_s = 10.0
    ok_only = False

    def setup(self, seed: int, workdir):
        from repro.analysis import crawl

        tally = {"probes": 0, "failed": 0}
        finalize_scan = crawl.ZgrabCampaign.finalize_scan
        finalize_run = crawl.ChromeCampaign.finalize_run

        # The report does not print fetch failures, so the two finalize
        # steps are tapped for them: ten calls per reproduction, no cost.
        def tapped_scan(campaign, partial, scan_index=0):
            result = finalize_scan(campaign, partial, scan_index)
            tally["probes"] += result.domains_probed
            tally["failed"] += result.fetch_failures
            return result

        def tapped_run(campaign, partial):
            result = finalize_run(campaign, partial)
            tally["probes"] += len(result.reports)
            tally["failed"] += sum(1 for r in result.reports if r.status == "error")
            return result

        crawl.ZgrabCampaign.finalize_scan = tapped_scan
        crawl.ChromeCampaign.finalize_run = tapped_run
        return {"tally": tally}

    def prepare(self, state, seed: int, progress: GapProgress):
        from repro.analysis.runner import ReproductionConfig

        return ReproductionConfig(seed=seed), progress

    def run(self, state, inputs) -> RepOutcome:
        from repro.analysis import runner

        config, progress = inputs
        progress.begin(1)
        report = runner.run_reproduction(config, log=lambda *_args: None)
        progress.advance(1)
        text = "".join(
            line
            for line in report.to_markdown().splitlines(keepends=True)
            if not line.startswith("completed in ")
        )
        for title in REPORT_SECTIONS:
            require(title in text, f"report lacks section {title!r}")
        require(state["tally"]["probes"] > 0, "no site was probed")
        return RepOutcome(
            items=1,
            operations=state["tally"]["probes"],
            failed_operations=state["tally"]["failed"],
            outputs={"report_sha256": digest(text.encode("utf-8"))},
            gaps=progress.gaps,
        )


# ---------------------------------------------------------------------------
# zgrab-stream


class ZgrabStream:
    """One streamed ``.com`` zgrab scan with no fault plan, as ``repro-mining
    crawl --dataset com --population-size 10000 --shards 1 --executor
    serial`` runs it."""

    name = "zgrab-stream"
    nominal_rep_s = 3.75
    ok_only = False

    def setup(self, seed: int, workdir):
        return {}

    def prepare(self, state, seed: int, progress: GapProgress):
        from repro.analysis.parallel import ParallelConfig, ShardedZgrabCampaign
        from repro.internet.streaming import StreamingPopulation

        population = StreamingPopulation("com", seed=seed, size=ZGRAB_SITES)
        config = ParallelConfig(shards=1, workers=1, mode="serial")
        return ShardedZgrabCampaign(population=population, config=config, progress=progress)

    def run(self, state, campaign) -> RepOutcome:
        scan = campaign.scan(0)
        require(scan.domains_probed == ZGRAB_SITES, f"probed {scan.domains_probed} sites")
        require(
            scan.nocoin_domains + scan.fetch_failures <= scan.domains_probed,
            "more hits and failures than probes",
        )
        outputs = {
            "probed": scan.domains_probed,
            "hits": scan.nocoin_domains,
            "failures": scan.fetch_failures,
            "script_shares": {label: round(share, 12) for label, share in scan.script_shares.items()},
            "strata": [[row.stratum, row.probed, row.hits, row.failures] for row in scan.stratum_rows],
        }
        return RepOutcome(
            items=scan.domains_probed,
            operations=scan.domains_probed,
            failed_operations=scan.fetch_failures,
            outputs=outputs,
            gaps=campaign.progress.gaps,
        )


# ---------------------------------------------------------------------------
# serve-live


class ServeLive:
    """``VerdictServer.run`` over a seeded open-loop schedule with
    ``--timeseries-interval 1`` and a run directory: the recorder rewrites
    ``timeseries.jsonl`` atomically on every tick, as ``repro-mining obs top
    --watch`` expects, and the run directory is written at the end, the
    way ``repro-mining serve --duration --run-dir`` writes it."""

    name = "serve-live"
    nominal_rep_s = 5.0
    #: per-item quantiles count only gaps that end at an ``ok`` response
    ok_only = True
    #: simulated seconds of arrivals per repetition; each tick rewrites the
    #: whole ring, so flush cost grows with the square of this
    duration = 300.0
    timeseries_interval = 1.0

    def setup(self, seed: int, workdir):
        from repro.internet import population as population_module

        population = population_module.build_population(
            "alexa", seed=SERVE_POPULATION_SEED, scale=SERVE_SCALE
        )
        return {"population": population, "run_dir": workdir / f"{self.name}-run"}

    def prepare(self, state, seed: int, progress: GapProgress):
        from repro.obs.alerts import default_service_rules
        from repro.obs.timeseries import TimeSeriesRecorder
        from repro.service import loadgen
        from repro.service.server import VerdictServer

        config = loadgen.LoadgenConfig(
            seed=seed,
            dataset="alexa",
            scale=SERVE_SCALE,
            rate=SERVE_RATE,
            duration=self.duration,
        )
        requests = loadgen.build_requests(config, state["population"])
        server = VerdictServer(population=state["population"])
        server.progress = progress
        state["run_dir"].mkdir(parents=True, exist_ok=True)
        server.recorder = TimeSeriesRecorder(
            registry=server.metrics,
            interval=self.timeseries_interval,
            rules=default_service_rules(),
            flush_path=state["run_dir"] / "timeseries.jsonl",
        )
        return server, requests, seed

    def run(self, state, inputs) -> RepOutcome:
        from repro.graph import build as graph_build
        from repro.obs import ledger
        from repro.obs.metrics import MetricsRegistry

        server, requests, seed = inputs
        responses = server.run(requests)
        server.recorder.finish(server.clock.now)
        manifest = ledger.RunManifest.build(
            "serve",
            {
                "dataset": "alexa",
                "seed": seed,
                "scale": SERVE_SCALE,
                "rate": SERVE_RATE,
                "duration": self.duration,
                "timeseries_interval": self.timeseries_interval,
            },
            git_describe="unknown",
        )
        registry = MetricsRegistry()
        registry.merge(server.metrics)
        registry.merge(server.ledger.as_registry())
        graph = graph_build.graph_from_verdicts(server.verdicts)
        run_dir = ledger.write_run(
            state["run_dir"], manifest, registry, [], server.ledger,
            verdicts=server.verdicts,
            timeseries=server.recorder.timeseries(),
            graph=graph if graph else None,
        )
        metrics = server.metrics
        served = sum(metrics.counters_with_prefix("service.tier.").values())
        rejected = sum(metrics.counters_with_prefix("service.rejected.").values())
        require(len(responses) == len(requests), "a request got no response")
        require(served + rejected == len(requests), "tier and rejection counts miss requests")
        require(len(server.verdicts) == served, "a served request left no verdict")
        outputs = {
            "verdicts_sha256": digest((run_dir / "verdicts.jsonl").read_bytes()),
            "timeseries_sha256": digest((run_dir / "timeseries.jsonl").read_bytes()),
            "tiers": dict(sorted(metrics.counters_with_prefix("service.tier.").items())),
            "rejected": dict(sorted(metrics.counters_with_prefix("service.rejected.").items())),
        }
        return RepOutcome(
            items=len(responses),
            operations=len(responses),
            failed_operations=sum(1 for response in responses if response.status != "ok"),
            outputs=outputs,
            registry=metrics,
            gaps=server.progress.gaps,
        )


WORKLOADS = {w.name: w for w in (Reproduce(), ZgrabStream(), ServeLive())}

#: the longest --seconds BENCHMARK.json allows; references cover the
#: repetitions a run of that length makes
MAX_SECONDS = 60


#: every run makes at least this many repetitions
MIN_REPS = 2


def rep_count(workload, seconds: float) -> int:
    """Repetitions for a run of ``seconds``: fixed by the nominal repetition
    time, not by the clock, so both sides of a comparison run the same
    inputs."""
    seconds = min(seconds, MAX_SECONDS)
    return max(MIN_REPS, round(seconds / workload.nominal_rep_s))
