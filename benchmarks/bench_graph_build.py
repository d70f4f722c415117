"""Attribution-graph build throughput and memory footprint.

Graph emission rides the verdict hot path of every observed campaign, so
its cost must stay a rounding error next to the crawl itself. This
benchmark replays a fixed set of persisted-style verdicts through
:func:`repro.graph.build.add_verdict` (the exact call the campaign makes
per site), measures nodes/sec and the tracemalloc peak, and emits both
into BENCH_SUMMARY.json so ``obs diff``-style gates can pin the cost
across commits. The serialization leg times the canonical sorted
``graph.jsonl`` round-trip the twin-run byte-identity guarantee rests on.
"""

from __future__ import annotations

import time
import tracemalloc

from conftest import emit, emit_json
from repro.analysis.parallel import ShardedChromeCampaign, ShardedZgrabCampaign
from repro.graph.build import add_verdict
from repro.graph.model import Graph, graph_to_jsonl, parse_graph_jsonl
from repro.internet.population import build_population
from repro.obs.profile import make_obs

SEED = 2018
SCALE = 0.3
REPLAYS = 8


def _observed_verdicts():
    """(record, site, includers) triples exactly as the campaigns emit them."""
    population = build_population("alexa", seed=SEED, scale=SCALE)
    layer = population.includer_layer
    sites = {site.domain: site for site in population.sites}
    triples = []
    for result in (
        ShardedZgrabCampaign(population=population, obs=make_obs(prefix="bench-z")).scan(0),
        ShardedChromeCampaign(population=population, obs=make_obs(prefix="bench-c")).run(),
    ):
        for record in result.verdicts:
            site = sites.get(record.subject)
            includers = layer.includers_for(site) if site is not None else ()
            triples.append((record, site, includers))
    return triples


def test_graph_build_throughput(benchmark):
    triples = _observed_verdicts()

    def build():
        graph = Graph()
        for record, site, includers in triples:
            add_verdict(graph, record, site=site, includers=includers)
        return graph

    tracemalloc.start()
    try:
        started = time.perf_counter()
        for _ in range(REPLAYS):
            graph = build()
        elapsed = time.perf_counter() - started
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    benchmark.pedantic(build, rounds=3, iterations=1)

    text = graph_to_jsonl(graph)
    started = time.perf_counter()
    round_trips = 0
    while time.perf_counter() - started < 0.5:
        assert graph_to_jsonl(parse_graph_jsonl(text)) == text
        round_trips += 1
    serialize_elapsed = time.perf_counter() - started

    verdicts_per_sec = REPLAYS * len(triples) / elapsed
    nodes_per_sec = REPLAYS * len(graph.nodes) / elapsed
    payload = {
        "verdicts": len(triples),
        "nodes": len(graph.nodes),
        "edges": len(graph.edges),
        "verdicts_per_sec": round(verdicts_per_sec),
        "nodes_per_sec": round(nodes_per_sec),
        "peak_mb": round(peak / 1e6, 2),
        "serialize_round_trips_per_sec": round(round_trips / serialize_elapsed, 1),
    }
    emit(
        "graph_build",
        "\n".join(f"{name:>28}  {value}" for name, value in payload.items()),
    )
    emit_json("graph_build", payload)
    # an observed crawl processes a few hundred sites/sec; graph emission
    # at tens of thousands of verdicts/sec is structurally invisible
    assert verdicts_per_sec > 2_000
    assert payload["peak_mb"] < 64
