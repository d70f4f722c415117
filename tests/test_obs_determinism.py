"""Executor-mode and wall-clock determinism of the observability layer.

Two guarantees:

1. Under an installed :class:`TickClock`, serial campaign timing is a pure
   function of the work done — ``wall_seconds``, ``domains_per_sec`` and
   ``parallel_efficiency`` reproduce exactly across runs (previously these
   read :func:`time.perf_counter` directly and were untestable).
2. With observability enabled, the *merged* view is executor-mode
   invariant: serial, process, and resumed runs agree on results, metric
   counters, histogram observation counts, span name counts, and span id
   sets. Only durations may differ (they reflect the real schedule).
"""

from __future__ import annotations

import pytest

from repro.analysis.parallel import (
    ParallelConfig,
    ShardedChromeCampaign,
    ShardedZgrabCampaign,
    can_fork,
)
from repro.faults.resilience import ResiliencePolicy
from repro.internet.population import build_population
from repro.obs.clock import TickClock, use_clock
from repro.obs.profile import make_obs

SHARDS = 4
WORKERS = 3

needs_fork = pytest.mark.skipif(not can_fork(), reason="needs the fork start method")


@pytest.fixture(scope="module")
def population():
    return build_population("alexa", seed=42, scale=0.04)


def _zgrab_run(population, mode: str, workers: int, checkpoint_dir=None):
    obs = make_obs(prefix="det")
    campaign = ShardedZgrabCampaign(
        population=population,
        config=ParallelConfig(
            shards=SHARDS,
            workers=workers,
            mode=mode,
            resilience=ResiliencePolicy() if checkpoint_dir else None,
            checkpoint_dir=checkpoint_dir,
        ),
        obs=obs,
    )
    result = campaign.scan(0)
    return result, campaign.metrics, obs


def _span_view(obs):
    """The schedule-independent projection of a trace."""
    counts: dict = {}
    for span in obs.tracer.spans:
        counts[span.name] = counts.get(span.name, 0) + 1
    return counts, {span.span_id for span in obs.tracer.spans}


def _nonhealth_counters(registry):
    return {k: v for k, v in registry.counters.items() if not k.startswith("health.")}


class TestTickClockTiming:
    def test_serial_timing_reproduces_exactly(self, population):
        snapshots = []
        for _ in range(2):
            with use_clock(TickClock()):
                _result, metrics, _obs = _zgrab_run(population, "serial", 1)
            snapshots.append(
                (
                    metrics.wall_seconds,
                    metrics.aggregate_rate,
                    metrics.parallel_efficiency,
                    [shard.wall_seconds for shard in metrics.shards],
                    [shard.domains_per_sec for shard in metrics.shards],
                )
            )
        assert snapshots[0] == snapshots[1]
        assert snapshots[0][0] > 0.0

    def test_trace_durations_reproduce_exactly(self, population):
        dumps = []
        for _ in range(2):
            with use_clock(TickClock()):
                _result, _metrics, obs = _zgrab_run(population, "serial", 1)
            dumps.append(obs.tracer.to_jsonl())
        assert dumps[0] == dumps[1]


class TestExecutorModeInvariance:
    @needs_fork
    def test_serial_vs_process(self, population):
        with use_clock(TickClock()):
            serial_result, serial_metrics, serial_obs = _zgrab_run(population, "serial", 1)
        process_result, process_metrics, process_obs = _zgrab_run(
            population, "process", WORKERS
        )

        assert serial_result == process_result
        assert (
            serial_metrics.merged_registry().counters
            == process_metrics.merged_registry().counters
        )
        assert (
            serial_metrics.merged_registry().histogram_counts()
            == process_metrics.merged_registry().histogram_counts()
        )
        assert _span_view(serial_obs) == _span_view(process_obs)

    @needs_fork
    def test_chrome_serial_vs_process(self):
        views = []
        for mode, workers in (("serial", 1), ("process", WORKERS)):
            obs = make_obs(prefix="cdet")
            campaign = ShardedChromeCampaign(
                # a fresh build per campaign: visits mutate the Coinhive pool state
                population=build_population("alexa", seed=42, scale=0.04),
                config=ParallelConfig(shards=SHARDS, workers=workers, mode=mode),
                obs=obs,
            )
            result = campaign.run()
            views.append(
                (
                    result,
                    campaign.metrics.merged_registry().counters,
                    campaign.metrics.merged_registry().histogram_counts(),
                    _span_view(obs),
                )
            )
        assert views[0] == views[1]

    def test_obs_does_not_change_results(self, population):
        bare = ShardedZgrabCampaign(
            population=population,
            config=ParallelConfig(shards=SHARDS, workers=1, mode="serial"),
        )
        _observed_result, _metrics, _obs = _zgrab_run(population, "serial", 1)
        assert bare.scan(0) == _observed_result


class TestStreamingInvariance:
    """The same guarantees hold when the population is streamed instead
    of materialized (site derivation happens inside the shard workers)."""

    @pytest.fixture(scope="class")
    def streaming_population(self):
        from repro.internet.streaming import StreamingPopulation

        return StreamingPopulation("alexa", seed=42, size=250)

    @needs_fork
    def test_serial_vs_process(self, streaming_population):
        with use_clock(TickClock()):
            serial_result, serial_metrics, serial_obs = _zgrab_run(
                streaming_population, "serial", 1
            )
        process_result, process_metrics, process_obs = _zgrab_run(
            streaming_population, "process", WORKERS
        )
        assert serial_result == process_result
        assert (
            serial_metrics.merged_registry().counters
            == process_metrics.merged_registry().counters
        )
        assert _span_view(serial_obs) == _span_view(process_obs)

    def test_streamed_resume_counters_match_fresh(self, streaming_population, tmp_path):
        checkpoint_dir = str(tmp_path / "journals")
        fresh_result, fresh_metrics, _ = _zgrab_run(
            streaming_population, "serial", 1, checkpoint_dir=checkpoint_dir
        )
        resumed_result, resumed_metrics, _ = _zgrab_run(
            streaming_population, "serial", 1, checkpoint_dir=checkpoint_dir
        )
        assert resumed_result == fresh_result
        assert _nonhealth_counters(
            resumed_metrics.merged_registry()
        ) == _nonhealth_counters(fresh_metrics.merged_registry())
        assert resumed_metrics.merged_registry().counter("health.checkpoint.resumed") > 0


class TestResumedRunInvariance:
    def test_resumed_counters_match_fresh(self, population, tmp_path):
        checkpoint_dir = str(tmp_path / "journals")
        fresh_result, fresh_metrics, _ = _zgrab_run(
            population, "serial", 1, checkpoint_dir=checkpoint_dir
        )
        resumed_result, resumed_metrics, _ = _zgrab_run(
            population, "serial", 1, checkpoint_dir=checkpoint_dir
        )
        assert resumed_result == fresh_result
        # health.* (checkpoint/retry accounting) legitimately differs on a
        # resumed run; everything else must not
        assert _nonhealth_counters(
            resumed_metrics.merged_registry()
        ) == _nonhealth_counters(fresh_metrics.merged_registry())
        assert resumed_metrics.merged_registry().counter("health.checkpoint.resumed") > 0

    def test_resumed_span_view_matches_fresh(self, population, tmp_path):
        # resumed sites replay their recorded stage spans, so the span-id
        # set and per-stage histogram counts survive checkpoint/resume
        checkpoint_dir = str(tmp_path / "journals")
        with use_clock(TickClock()):
            _, fresh_metrics, fresh_obs = _zgrab_run(
                population, "serial", 1, checkpoint_dir=checkpoint_dir
            )
        with use_clock(TickClock()):
            _, resumed_metrics, resumed_obs = _zgrab_run(
                population, "serial", 1, checkpoint_dir=checkpoint_dir
            )
        assert _span_view(resumed_obs) == _span_view(fresh_obs)
        assert (
            resumed_metrics.merged_registry().histogram_counts()
            == fresh_metrics.merged_registry().histogram_counts()
        )
