"""CLI surface of the attribution graph: ``repro obs graph`` family.

Pins the PR's acceptance criteria end to end: twin same-seed runs write
byte-identical ``graph.jsonl`` regardless of shard or worker count,
``path <miner> --to includer`` names the campaign includer that seeded
the site, and the ``query --fail-on`` gates reuse the ledger-wide exit
contract (0 ok / 1 violated / 2 bad expression).
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.obs.clock import TickClock, use_clock

CRAWL = [
    "--seed", "11", "crawl", "--dataset", "alexa", "--scale", "0.05",
    "--shards", "2",
]


def _crawl(run_dir, extra=()):
    with use_clock(TickClock()):
        return main([*CRAWL, "--run-dir", str(run_dir), *extra])


@pytest.fixture(scope="module")
def graph_run(tmp_path_factory):
    run = tmp_path_factory.mktemp("graph") / "run"
    assert _crawl(run) == 0
    return run


def _loaded(graph_run):
    from repro.graph.model import read_graph_jsonl

    return read_graph_jsonl(graph_run / "graph.jsonl")


class TestGraphArtifact:
    def test_twin_runs_byte_identical_across_shards_and_executors(
        self, graph_run, tmp_path
    ):
        twin = tmp_path / "twin"
        assert _crawl(twin, extra=["--shards", "3", "--workers", "2"]) == 0
        assert (twin / "graph.jsonl").read_bytes() == (
            graph_run / "graph.jsonl"
        ).read_bytes()

    def test_artifact_is_listed_and_counted(self, graph_run):
        import json

        manifest = json.loads((graph_run / "manifest.json").read_text())
        assert "graph.jsonl" in manifest["artifacts"]
        header = json.loads(
            (graph_run / "graph.jsonl").read_text().splitlines()[0]
        )
        graph = _loaded(graph_run)
        assert header["nodes"] == len(graph.nodes)
        assert header["edges"] == len(graph.edges)

    def test_load_run_exposes_the_graph(self, graph_run):
        from repro.obs.ledger import load_run

        artifacts = load_run(graph_run)
        assert artifacts.graph is not None
        assert artifacts.graph.nodes_of_kind("includer")


def _campaign_seeded_miner(graph):
    """A miner domain reached by a campaign includer's ``includes`` edge."""
    for (kind, src, dst), _attrs in sorted(graph.edges.items()):
        if kind != "includes":
            continue
        if "campaign" not in graph.nodes[src][1].get("kind", ()):
            continue
        if "yes" in graph.nodes[dst][1].get("miner", ()):
            return dst, src
    raise AssertionError("population seeded no campaign-included miner")


class TestGraphPath:
    def test_path_names_the_seeding_includer(self, graph_run, capsys):
        graph = _loaded(graph_run)
        miner, includer = _campaign_seeded_miner(graph)
        assert main([
            "obs", "graph", "path", str(graph_run), miner, "--to", "includer",
        ]) == 0
        out = capsys.readouterr().out
        # the nearest includer is the campaign seeder, never the benign
        # infra shared across a fifth of the population
        assert includer in out
        assert "kind=campaign" in out
        assert "url=" in out  # the inclusion evidence is cited

    def test_bare_domain_name_resolves(self, graph_run, capsys):
        graph = _loaded(graph_run)
        miner, _ = _campaign_seeded_miner(graph)
        # strip both the kind prefix and the dataset qualifier: the bare
        # site name a user would paste must still resolve
        bare = miner.split(":", 1)[1].split("/", 1)[1]
        assert main([
            "obs", "graph", "path", str(graph_run), bare, "--to", "family",
        ]) == 0
        assert "family:" in capsys.readouterr().out

    def test_unreachable_target_exits_1(self, graph_run, capsys):
        graph = _loaded(graph_run)
        miner, _ = _campaign_seeded_miner(graph)
        # crawl runs have no service plane, hence no tenant nodes
        assert main([
            "obs", "graph", "path", str(graph_run), miner, "--to", "tenant",
        ]) == 1
        assert "no path" in capsys.readouterr().out

    def test_unknown_kind_exits_2(self, graph_run, capsys):
        graph = _loaded(graph_run)
        miner, _ = _campaign_seeded_miner(graph)
        assert main([
            "obs", "graph", "path", str(graph_run), miner, "--to", "nonsense",
        ]) == 2

    def test_unknown_node_lists_near_misses(self, graph_run, capsys):
        assert main([
            "obs", "graph", "neighbors", str(graph_run), "domain:nope.example",
        ]) == 1
        assert "no graph node" in capsys.readouterr().out


class TestGraphNeighbors:
    def test_miner_neighborhood_shows_provenance(self, graph_run, capsys):
        graph = _loaded(graph_run)
        miner, includer = _campaign_seeded_miner(graph)
        assert main(["obs", "graph", "neighbors", str(graph_run), miner]) == 0
        out = capsys.readouterr().out
        assert includer in out
        assert "attributed-to" in out


class TestGraphClusters:
    def test_components_are_per_campaign(self, graph_run, capsys):
        assert main(["obs", "graph", "clusters", str(graph_run)]) == 0
        out = capsys.readouterr().out
        assert "campaign clusters" in out
        assert "-seeder" in out

    def test_benign_includers_never_define_clusters(self, graph_run):
        from repro.graph.query import clusters

        graph = _loaded(graph_run)
        benign = {
            nid
            for nid, (kind, attrs) in graph.nodes.items()
            if kind == "includer" and "benign" in attrs.get("kind", ())
        }
        assert benign  # the trio exists at this scale
        clustered = {n for component in clusters(graph) for n in component.nodes}
        assert not benign & clustered


class TestGraphQuery:
    def test_prints_sorted_metrics(self, graph_run, capsys):
        assert main(["obs", "graph", "query", str(graph_run)]) == 0
        out = capsys.readouterr().out
        assert "clusters.count = " in out
        assert "edges.includes = " in out

    def test_gate_passes(self, graph_run):
        assert main([
            "obs", "graph", "query", str(graph_run),
            "--fail-on", "edges.includes<1",
        ]) == 0

    def test_inverted_gate_trips_exit_1(self, graph_run, capsys):
        assert main([
            "obs", "graph", "query", str(graph_run),
            "--fail-on", "edges.includes>=1",
        ]) == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_unknown_metric_exits_2(self, graph_run, capsys):
        assert main([
            "obs", "graph", "query", str(graph_run),
            "--fail-on", "clusters.bogus>1",
        ]) == 2
        assert "available" in capsys.readouterr().out

    def test_relative_gate_exits_2(self, graph_run, capsys):
        assert main([
            "obs", "graph", "query", str(graph_run),
            "--fail-on", "edges.total>1.5x",
        ]) == 2
        assert "absolute" in capsys.readouterr().out


class TestExplainHint:
    def test_explain_cites_graph_nodes_and_hint(self, graph_run, capsys):
        graph = _loaded(graph_run)
        miner, _ = _campaign_seeded_miner(graph)
        qualified = miner.split(":", 1)[1]  # alexa/<domain>
        domain = qualified.split("/", 1)[1]
        assert main(["obs", "explain", str(graph_run), domain]) == 0
        out = capsys.readouterr().out
        assert "graph node: " in out
        assert f"repro obs graph neighbors {graph_run} domain:{qualified}" in out


class TestScorecardClusters:
    def test_scorecard_shows_per_includer_rows_and_gates(self, graph_run, capsys):
        assert main(["obs", "scorecard", str(graph_run)]) == 0
        out = capsys.readouterr().out
        assert "per-includer-cluster detection" in out
        assert "-seeder" in out

    def test_cluster_gate_is_addressable(self, graph_run, capsys):
        import re

        from repro.graph.query import clusters

        graph = _loaded(graph_run)
        component = next(c for c in clusters(graph) if c.includers)
        # the gate grammar's target charset is [A-Za-z0-9_.-]; the
        # scorecard folds anything else (dataset slashes, "+") to "-"
        label = re.sub(r"[^A-Za-z0-9_.\-]", "-", component.label)
        assert main([
            "obs", "scorecard", str(graph_run),
            "--fail-on", f"cluster.{label}.miner_share<0.01",
        ]) == 0
        assert f"cluster.{label}.miner_share" in capsys.readouterr().out
