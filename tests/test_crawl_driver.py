"""`crawl` and `reproduce` share one crawl driver (``repro.analysis.runner``).

The same dataset crawled through ``main(["crawl", ...])`` and through
``run_reproduction`` yields the same summary counters (``crawl.zgrab{i}.*``
against ``crawl.<dataset>.zgrab{i}.*``) and the same verdict records, and a
crawl with more workers than shards runs one shard per worker without
changing what it finds. A crawl with one worker runs the same sharded
executor, serially, and finds what the sequential reference campaigns
find.
"""

from __future__ import annotations

import pytest

from repro.analysis.parallel import can_fork
from repro.analysis.runner import (
    ObservedRun,
    ReproductionConfig,
    crawl_dataset,
    run_reproduction,
)
from repro.cli import main
from repro.internet.population import build_population
from repro.obs.clock import TickClock, use_clock
from repro.obs.ledger import load_run
from tests.oracles.crawl import SequentialChromeCampaign, SequentialZgrabCampaign

SEED = 7
SCALE = 0.03


def _crawl(run_dir, *flags) -> None:
    with use_clock(TickClock()):
        assert main([
            "--seed", str(SEED), "crawl", "--dataset", "net", "--scale", str(SCALE),
            *flags, "--run-dir", str(run_dir),
        ]) == 0


def _zgrab_counters(registry, prefix: str) -> dict:
    return {
        name[len(prefix):]: value
        for name, value in registry.counters.items()
        if name.startswith(prefix + "zgrab")
    }


def _crawl_verdicts(artifacts) -> list:
    return [
        record.to_dict()
        for record in artifacts.verdicts
        if record.pipeline != "pool"
    ]


@pytest.mark.parametrize(
    "streamed",
    [False, True],
    ids=["materialized", "streamed"],
)
def test_crawl_and_reproduce_agree(tmp_path, capsys, streamed):
    stream_flags = (
        ["--population-size", "3000", "--strata", "top1k:1000:0.02,tail::0.003"]
        if streamed
        else []
    )
    _crawl(tmp_path / "crawl", *stream_flags)
    config = ReproductionConfig(
        seed=SEED,
        datasets=("net",),
        crawl_scale=SCALE,
        shortlink_scale=0.0005,
        network_days=1,
        run_dir=str(tmp_path / "reproduce"),
        population_size=3000 if streamed else 0,
        strata="top1k:1000:0.02,tail::0.003" if streamed else "",
    )
    with use_clock(TickClock()):
        run_reproduction(config, log=lambda *_args: None)
    crawl = load_run(tmp_path / "crawl")
    reproduce = load_run(tmp_path / "reproduce")

    counters = _zgrab_counters(crawl.registry, "crawl.")
    assert counters["zgrab0.domains_probed"] > 0
    if streamed:
        assert any(".stratum." in name for name in counters)
    assert counters == _zgrab_counters(reproduce.registry, "crawl.net.")
    verdicts = _crawl_verdicts(crawl)
    assert {record["pipeline"] for record in verdicts} == {"zgrab0", "zgrab1"}
    assert verdicts == _crawl_verdicts(reproduce)


@pytest.mark.skipif(not can_fork(), reason="needs the fork start method")
def test_each_worker_gets_a_shard(tmp_path, capsys):
    _crawl(tmp_path / "serial")
    _crawl(tmp_path / "process", "--workers", "3")
    serial = load_run(tmp_path / "serial")
    forked = load_run(tmp_path / "process")

    campaigns = [span for span in forked.spans if span.name == "campaign"]
    assert [span.tags["shards"] for span in campaigns] == ["3", "3"]
    assert {span.tags["mode"] for span in campaigns} == {"process"}
    shard_ids = {span.tags["shard"] for span in forked.spans if "shard" in span.tags}
    assert shard_ids == {"0", "1", "2"}
    assert forked.registry.counters == serial.registry.counters
    assert (tmp_path / "process" / "verdicts.jsonl").read_bytes() == (
        tmp_path / "serial" / "verdicts.jsonl"
    ).read_bytes()


def test_default_crawl_runs_the_serial_executor():
    config = ReproductionConfig(seed=SEED, crawl_scale=SCALE)
    crawl = crawl_dataset("alexa", ObservedRun.start(config, prefix="crawl"), "crawl")

    assert crawl.zgrab_metrics.mode == "serial"
    assert crawl.chrome_metrics.mode == "serial"
    zgrab_reference = SequentialZgrabCampaign(
        population=build_population("alexa", seed=SEED, scale=SCALE)
    ).both_scans()
    chrome_reference = SequentialChromeCampaign(
        population=build_population("alexa", seed=SEED, scale=SCALE)
    ).run()
    assert crawl.scans == zgrab_reference
    assert crawl.chrome == chrome_reference
