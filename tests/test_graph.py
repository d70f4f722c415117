"""The attribution graph: model laws, includer layer, builder, queries.

The shard merge law (associative/commutative/idempotent union) and the
sorted serialization together are what make ``graph.jsonl`` byte-identical
for twin same-seed runs regardless of shard count or executor — the
CLI-level twin test pins exactly that. The includer layer is pure in
``(seed, dataset, domain)``, so streamed and materialized populations
seed identical inclusion edges.
"""

from __future__ import annotations

import copy

import pytest

from repro.graph.model import (
    Graph,
    graph_to_jsonl,
    parse_graph_jsonl,
    read_graph_jsonl,
)
from repro.obs.artifact import ArtifactSchemaError
from repro.graph.query import clusters, find_path, graph_metrics, neighbors
from repro.internet.includers import build_includer_layer, layer_for_spec
from repro.internet.population import DATASETS, build_population
from repro.internet.streaming import StreamingPopulation


def _sample_graphs():
    a = Graph()
    a.add_node("domain", "shop.com", miner="yes", role="miner")
    a.add_node("includer", "zamcdn.io", kind="campaign", family="coinhive")
    a.add_edge("includes", "includer:zamcdn.io", "domain:shop.com", url="https://zamcdn.io/t.js")
    b = Graph()
    b.add_node("domain", "shop.com", blocked="no")
    b.add_node("family", "coinhive")
    b.add_edge("attributed-to", "domain:shop.com", "family:coinhive", method="signature")
    c = Graph()
    c.add_node("domain", "news.org", miner="no")
    c.add_edge("attributed-to", "domain:shop.com", "family:coinhive", method="backend")
    return a, b, c


def _canon(graph):
    return graph_to_jsonl(graph)


class TestMergeLaw:
    def test_associative(self):
        a, b, c = _sample_graphs()
        left = copy.deepcopy(a).merge(copy.deepcopy(b)).merge(copy.deepcopy(c))
        right = copy.deepcopy(a).merge(copy.deepcopy(b).merge(copy.deepcopy(c)))
        assert _canon(left) == _canon(right)

    def test_commutative(self):
        a, b, _ = _sample_graphs()
        ab = copy.deepcopy(a).merge(copy.deepcopy(b))
        ba = copy.deepcopy(b).merge(copy.deepcopy(a))
        assert _canon(ab) == _canon(ba)

    def test_idempotent(self):
        a, b, _ = _sample_graphs()
        once = copy.deepcopy(a).merge(copy.deepcopy(b))
        twice = copy.deepcopy(a).merge(copy.deepcopy(b)).merge(copy.deepcopy(b))
        assert _canon(once) == _canon(twice)

    def test_attr_values_union(self):
        a = Graph()
        a.add_node("domain", "shop.com", pipeline="zgrab0")
        b = Graph()
        b.add_node("domain", "shop.com", pipeline="chrome")
        a.merge(b)
        assert a.node_attrs("domain:shop.com")["pipeline"] == "chrome,zgrab0"


class TestSerialization:
    def test_round_trip_is_byte_identical(self):
        a, b, c = _sample_graphs()
        graph = a.merge(b).merge(c)
        text = graph_to_jsonl(graph)
        assert graph_to_jsonl(parse_graph_jsonl(text)) == text

    def test_header_declares_counts_and_version(self):
        a, _, _ = _sample_graphs()
        header = graph_to_jsonl(a).splitlines()[0]
        assert header == '{"edges":1,"nodes":2,"schema_version":1}'

    def test_headerless_legacy_file_is_tolerated(self):
        a, b, _ = _sample_graphs()
        graph = a.merge(b)
        lines = graph_to_jsonl(graph).splitlines()[1:]
        legacy = parse_graph_jsonl("\n".join(lines))
        assert _canon(legacy) == _canon(graph)

    def test_future_schema_is_rejected_with_upgrade_hint(self):
        with pytest.raises(ArtifactSchemaError, match="upgrade repro"):
            parse_graph_jsonl('{"edges":0,"nodes":0,"schema_version":99}\n')

    def test_malformed_line_is_rejected(self):
        with pytest.raises(ArtifactSchemaError, match="malformed"):
            parse_graph_jsonl('{"edges":0,"nodes":0,"schema_version":1}\nnot json\n')
        with pytest.raises(ArtifactSchemaError, match="line 2 .*missing field 'dst'"):
            parse_graph_jsonl('{"edges":1,"nodes":0,"schema_version":1}\n{"src":"domain:a"}\n')

    def test_attr_values_fold_commas_and_newlines(self):
        graph = Graph()
        graph.add_node("domain", "shop.com", note="a,b\nc")
        assert graph.node_attrs("domain:shop.com")["note"] == "a;b c"
        text = graph_to_jsonl(graph)
        assert _canon(parse_graph_jsonl(text)) == text


class TestIncluderLayer:
    def test_layer_is_pure_in_seed_and_dataset(self):
        first = build_includer_layer("alexa", 2018, ["coinhive", "cryptoloot"])
        second = build_includer_layer("alexa", 2018, ["cryptoloot", "coinhive"])
        assert first == second
        assert build_includer_layer("alexa", 7, ["coinhive"]) != build_includer_layer(
            "alexa", 8, ["coinhive"]
        )

    def test_one_campaign_includer_per_family_plus_benign_trio(self):
        layer = build_includer_layer("alexa", 2018, ["coinhive", "cryptoloot"])
        kinds = [includer.kind for includer in layer.includers]
        assert kinds.count("campaign") == 2
        assert kinds.count("benign") == 3
        assert len({includer.domain for includer in layer.includers}) == 5

    def test_campaign_includers_never_appear_off_campaign(self):
        population = build_population("alexa", seed=2018, scale=0.05)
        layer = population.includer_layer
        for site in population.sites:
            for includer in layer.includers_for(site):
                if includer.kind == "campaign":
                    assert site.family == includer.family

    def test_stream_and_materialized_seed_identical_edges(self):
        population = StreamingPopulation("alexa", seed=2018, size=60)
        materialized = population.materialize()
        assert population.includer_layer == materialized.includer_layer
        layer = population.includer_layer
        for index in range(60):
            streamed = layer.includers_for(population.site(index))
            eager = layer.includers_for(materialized.sites[index])
            assert streamed == eager

    def test_includer_tags_land_in_served_html(self):
        population = build_population("alexa", seed=2018, scale=0.05)
        layer = population.includer_layer
        tagged = 0
        for site in population.sites:
            expected = {includer.url for includer in layer.includers_for(site)}
            body = population.web.fetch(f"http://www.{site.domain}/").body.decode()
            present = {
                includer.url for includer in layer.includers if includer.url in body
            }
            assert present == expected, site.domain
            tagged += bool(expected)
        assert tagged  # the layer actually fired somewhere at this scale

    def test_layer_for_spec_covers_every_miner_family(self):
        layer = layer_for_spec(DATASETS["alexa"], 2018)
        families = {i.family for i in layer.includers if i.kind == "campaign"}
        assert families == set(DATASETS["alexa"].miner_counts)


class TestUnobservedRuns:
    def test_bare_campaign_builds_no_graph(self):
        from tests.oracles.crawl import SequentialZgrabCampaign

        population = build_population("com", seed=5, scale=0.001)
        result = SequentialZgrabCampaign(population=population).scan(0)
        assert result.graph is None
        assert result.verdicts == ()
