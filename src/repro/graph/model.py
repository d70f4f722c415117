"""The attribution graph container and its persistence contract.

A :class:`Graph` is a typed property graph: nodes are keyed by an id that
embeds their kind (``domain:shop.com``, ``includer:zamvorcdn.io``,
``family:coinhive`` ...), edges by ``(kind, src, dst)``. Attribute values
are *sets of strings* merged by union, which makes :meth:`Graph.merge`
associative, commutative, and idempotent — per-shard subgraphs union in
any order (or twice, on resume) to the same graph, and sorted
serialization then makes ``graph.jsonl`` byte-identical for the same
seed/config regardless of shard count or executor.

``graph.jsonl`` holds all nodes sorted by id, then all edges sorted by
key, under the versioned-JSONL contract of :mod:`repro.obs.artifact`; its
header also counts the nodes and edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.obs.artifact import ArtifactFormat, write_atomic

GRAPH_SCHEMA_VERSION = 1

GRAPH = ArtifactFormat("graph", GRAPH_SCHEMA_VERSION, record_keys=("id", "src"))

#: The node kinds the builder emits. Kept here so queries can validate
#: ``--to <kind>`` arguments without importing the builder.
NODE_KINDS = (
    "domain",
    "includer",
    "sig",
    "family",
    "pool",
    "rule",
    "stratum",
    "tenant",
    "bundle",
    "block",
)


def node_id(kind: str, key: str) -> str:
    return f"{kind}:{key}"


def node_kind(nid: str) -> str:
    return nid.split(":", 1)[0]


def _clean(value) -> str:
    """Attribute values must be comma-free single-line strings.

    Commas separate set members in the serialized form and newlines would
    break the JSONL framing of downstream consumers, so both are folded.
    """
    return str(value).replace(",", ";").replace("\n", " ")


@dataclass
class Graph:
    """Nodes ``id -> (kind, {attr: set of values})``; edges
    ``(kind, src, dst) -> {attr: set of values}``. Plain dicts and sets,
    so partials carrying a graph pickle across process executors."""

    nodes: Dict[str, tuple] = field(default_factory=dict)
    edges: Dict[Tuple[str, str, str], dict] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.nodes or self.edges)

    def add_node(self, kind: str, key: str, /, **attrs) -> str:
        nid = node_id(kind, _clean(key))
        existing = self.nodes.get(nid)
        if existing is None:
            existing = (kind, {})
            self.nodes[nid] = existing
        store = existing[1]
        for name, value in attrs.items():
            if value is None or value == "":
                continue
            store.setdefault(name, set()).add(_clean(value))
        return nid

    def add_edge(self, kind: str, src: str, dst: str, /, **attrs) -> None:
        key = (kind, src, dst)
        store = self.edges.setdefault(key, {})
        for name, value in attrs.items():
            if value is None or value == "":
                continue
            store.setdefault(name, set()).add(_clean(value))

    def merge(self, other: "Graph") -> "Graph":
        """Union ``other`` into this graph (the shard merge law)."""
        for nid, (kind, attrs) in other.nodes.items():
            mine = self.nodes.get(nid)
            if mine is None:
                self.nodes[nid] = (kind, {k: set(v) for k, v in attrs.items()})
                continue
            for name, values in attrs.items():
                mine[1].setdefault(name, set()).update(values)
        for key, attrs in other.edges.items():
            store = self.edges.setdefault(key, {})
            for name, values in attrs.items():
                store.setdefault(name, set()).update(values)
        return self

    # -- views --------------------------------------------------------------

    def node_attrs(self, nid: str) -> dict:
        """Flattened attrs of one node: ``name -> "v1,v2"`` sorted."""
        kind_attrs = self.nodes.get(nid)
        if kind_attrs is None:
            return {}
        return _flatten(kind_attrs[1])

    def nodes_of_kind(self, kind: str) -> list:
        return sorted(n for n, (k, _) in self.nodes.items() if k == kind)

    def adjacency(self) -> Dict[str, list]:
        """``node -> [(edge kind, direction, other node)]``, sorted."""
        adj: Dict[str, list] = {nid: [] for nid in self.nodes}
        for kind, src, dst in self.edges:
            adj.setdefault(src, []).append((kind, "out", dst))
            adj.setdefault(dst, []).append((kind, "in", src))
        for entries in adj.values():
            entries.sort()
        return adj


def _flatten(attrs: dict) -> dict:
    return {name: ",".join(sorted(values)) for name, values in sorted(attrs.items())}


# ---------------------------------------------------------------------------
# persistence


def _records(graph: Graph):
    for nid in sorted(graph.nodes):
        kind, attrs = graph.nodes[nid]
        yield {"attrs": _flatten(attrs), "id": nid, "kind": kind}
    for key in sorted(graph.edges):
        kind, src, dst = key
        yield {"attrs": _flatten(graph.edges[key]), "dst": dst, "kind": kind, "src": src}


def graph_to_jsonl(graph: Graph) -> str:
    """Canonical serialization: header, sorted nodes, sorted edges."""
    return GRAPH.encode(_records(graph), edges=len(graph.edges), nodes=len(graph.nodes))


def _explode(attrs: dict) -> dict:
    return {name: set(value.split(",")) if value else set() for name, value in attrs.items()}


def _entry(record: dict) -> tuple:
    """A decoded line as ``(node id, (kind, attrs))`` or ``(edge key, attrs)``."""
    if "id" in record:
        kind = record.get("kind", node_kind(record["id"]))
        return record["id"], (kind, _explode(record.get("attrs", {})))
    if "src" in record:
        key = (record.get("kind", ""), record["src"], record["dst"])
        return key, _explode(record.get("attrs", {}))
    raise ValueError("graph line is neither node nor edge")


def _assemble(entries) -> Graph:
    graph = Graph()
    for key, value in entries:
        (graph.edges if isinstance(key, tuple) else graph.nodes)[key] = value
    return graph


def parse_graph_jsonl(text: str) -> Graph:
    """Inverse of :func:`graph_to_jsonl` (lossless round-trip)."""
    return _assemble(GRAPH.decode(text, _entry)[1])


def write_graph_jsonl(path, graph: Graph) -> int:
    """Write a graph file; returns the node + edge count."""
    write_atomic(path, graph_to_jsonl(graph))
    return len(graph.nodes) + len(graph.edges)


def read_graph_jsonl(path) -> Graph:
    return _assemble(GRAPH.read(path, _entry)[1])
