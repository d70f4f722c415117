"""Campaign attribution graph: typed property graph over run evidence.

``model`` holds the :class:`Graph` container with its associative merge
law and schema-versioned JSONL persistence; ``build`` derives nodes and
edges from verdict evidence chains plus the population's includer edge
layer; ``query`` answers neighbor / path / cluster questions and exposes
flat metrics for ``--fail-on`` CI gates.
"""

from repro.graph.build import (
    add_verdict,
    evidence_node_id,
    graph_from_verdicts,
)
from repro.graph.model import (
    GRAPH_SCHEMA_VERSION,
    Graph,
    parse_graph_jsonl,
    graph_to_jsonl,
)
from repro.graph.query import (
    clusters,
    find_path,
    graph_metrics,
    neighbors,
)

__all__ = [
    "GRAPH_SCHEMA_VERSION",
    "Graph",
    "add_verdict",
    "clusters",
    "evidence_node_id",
    "find_path",
    "graph_from_verdicts",
    "graph_metrics",
    "graph_to_jsonl",
    "neighbors",
    "parse_graph_jsonl",
]
