"""Walk queries over the attribution graph.

``neighbors`` / ``find_path`` answer the single-campaign questions
("which includer seeded this miner?"), ``clusters`` groups the population
into campaign components over ``includes`` / ``attributed-to`` edges, and
``graph_metrics`` flattens everything into the scalar namespace the
``--fail-on`` gate grammar addresses (``clusters.max_miner_share>0.5``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.graph.model import Graph, NODE_KINDS, node_kind

#: Edge kinds that define campaign membership: shared includer scripts and
#: shared family attribution (via domains, signatures, pools). ``includes``
#: edges count only when the includer is a *campaign* one — benign shared
#: infrastructure (the metrics/widgets/fonts hosts on a fifth of all
#: sites) would otherwise merge every campaign into one component.
CLUSTER_EDGE_KINDS = frozenset({"includes", "attributed-to"})


def _is_cluster_edge(graph: Graph, kind: str, src: str) -> bool:
    if kind not in CLUSTER_EDGE_KINDS:
        return False
    if kind == "includes":
        node = graph.nodes.get(src)
        return node is not None and "benign" not in node[1].get("kind", ())
    return True


def neighbors(graph: Graph, nid: str) -> list:
    """Sorted ``(edge kind, direction, other node, edge attrs)`` rows."""
    if nid not in graph.nodes:
        raise KeyError(nid)
    rows = []
    for (kind, src, dst), attrs in graph.edges.items():
        if src == nid:
            rows.append((kind, "->", dst, _flat(attrs)))
        elif dst == nid:
            rows.append((kind, "<-", src, _flat(attrs)))
    rows.sort(key=lambda row: (row[0], row[1], row[2]))
    return rows


def _flat(attrs: dict) -> dict:
    return {name: ",".join(sorted(values)) for name, values in sorted(attrs.items())}


@dataclass
class PathStep:
    """One hop of an undirected path: the edge taken and the node reached."""

    edge_kind: str
    direction: str  # "->" traversed with the edge, "<-" against it
    node: str
    attrs: dict = field(default_factory=dict)


def _benign_includer(graph: Graph, nid: str) -> bool:
    node = graph.nodes.get(nid)
    return (
        node is not None
        and node[0] == "includer"
        and "benign" in node[1].get("kind", ())
    )


def find_path(graph: Graph, start: str, to: str) -> Optional[List[PathStep]]:
    """Shortest undirected path from ``start`` to ``to``.

    ``to`` is either a full node id (``includer:zamvorcdn.io``) or a node
    *kind* (``includer``) — the nearest node of that kind wins. The first
    step carries the start node with no edge; returns ``None`` when no
    path exists.

    ``includes`` edges from *benign* infrastructure includers are walked
    only when that includer is itself the named start or target: shared
    metrics/widgets hosts sit on a fifth of the population and would
    otherwise shortcut every pair of sites, so ``--to includer`` always
    resolves to the campaign includer that seeded the subject.
    """
    if start not in graph.nodes:
        raise KeyError(start)
    if ":" in to and to not in graph.nodes and node_kind(to) in NODE_KINDS:
        raise KeyError(to)
    want_kind = None if ":" in to else to
    named = {start, to}

    def is_goal(nid: str) -> bool:
        if want_kind is not None:
            return graph.nodes[nid][0] == want_kind
        return nid == to

    adjacency = graph.adjacency()
    parents: Dict[str, tuple] = {start: ()}
    queue = deque([start])
    goal = start if is_goal(start) else None
    while queue and goal is None:
        current = queue.popleft()
        for kind, direction, other in adjacency.get(current, ()):
            if other in parents:
                continue
            if kind == "includes":
                includer = current if direction == "out" else other
                if _benign_includer(graph, includer) and includer not in named:
                    continue
            parents[other] = (current, kind, direction)
            if is_goal(other):
                goal = other
                break
            queue.append(other)
    if goal is None:
        return None
    steps = [PathStep(edge_kind="", direction="", node=goal)]
    nid = goal
    while parents[nid]:
        prev, kind, direction = parents[nid]
        edge_key = (kind, prev, nid) if direction == "out" else (kind, nid, prev)
        steps[-1].edge_kind = kind
        steps[-1].direction = "->" if direction == "out" else "<-"
        steps[-1].attrs = _flat(graph.edges.get(edge_key, {}))
        steps.append(PathStep(edge_kind="", direction="", node=prev))
        nid = prev
    steps.reverse()
    return steps


# ---------------------------------------------------------------------------
# clusters


@dataclass
class Cluster:
    """One connected component over the campaign edges."""

    label: str
    nodes: List[str]
    domains: List[str]
    includers: List[str]
    families: List[str]
    miners: int
    wasm_hits: int
    blocked: int

    @property
    def size(self) -> int:
        return len(self.nodes)

    @property
    def miner_share(self) -> float:
        return self.miners / len(self.domains) if self.domains else 0.0

    @property
    def detection_factor(self) -> float:
        """Cluster-level Table-2 factor: wasm miners per NoCoin-blocked one."""
        if self.blocked:
            return self.wasm_hits / self.blocked
        return float("inf") if self.wasm_hits else 0.0


def _includer_label(graph: Graph, nid: str) -> str:
    """``<dataset>/<includer name>`` — the same family's seeder exists per
    dataset, so an unqualified name would collide across zones."""
    key = nid.split(":", 1)[1]
    name = ",".join(sorted(graph.nodes[nid][1].get("name", {key})))
    if "/" in key:
        return f"{key.split('/', 1)[0]}/{name}"
    return name


def clusters(graph: Graph) -> List[Cluster]:
    """Connected components over ``includes`` / ``attributed-to`` edges.

    Nodes not touched by a campaign edge (isolated clean domains, rule
    nodes, strata) do not form singleton clusters — the component list is
    the campaign structure, not the whole graph. Sorted by size
    descending, then label.
    """
    parent: Dict[str, str] = {}

    def find(x: str) -> str:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a: str, b: str) -> None:
        for n in (a, b):
            parent.setdefault(n, n)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for kind, src, dst in graph.edges:
        if _is_cluster_edge(graph, kind, src):
            union(src, dst)

    members: Dict[str, list] = {}
    for n in parent:
        members.setdefault(find(n), []).append(n)

    result = []
    for nodes in members.values():
        nodes.sort()
        domains = [n for n in nodes if graph.nodes.get(n, ("",))[0] == "domain"]
        includers = sorted(
            {
                _includer_label(graph, n)
                for n in nodes
                if graph.nodes.get(n, ("",))[0] == "includer"
            }
        )
        families = sorted(
            n.split(":", 1)[1]
            for n in nodes
            if graph.nodes.get(n, ("",))[0] == "family"
        )
        miners = wasm = blocked = 0
        for domain in domains:
            attrs = graph.nodes[domain][1]
            if "yes" in attrs.get("miner", ()):
                miners += 1
            if "blocked" in attrs:
                wasm += 1
                if "yes" in attrs["blocked"]:
                    blocked += 1
        label = (
            "+".join(includers)
            or "+".join(families)
            or (nodes[0] if nodes else "empty")
        )
        result.append(
            Cluster(
                label=label,
                nodes=nodes,
                domains=domains,
                includers=includers,
                families=families,
                miners=miners,
                wasm_hits=wasm,
                blocked=blocked,
            )
        )
    result.sort(key=lambda c: (-c.size, c.label))
    return result


# ---------------------------------------------------------------------------
# metrics


def graph_metrics(graph: Graph) -> dict:
    """Flat scalar namespace for ``--fail-on`` gates.

    Names avoid the ``stage.`` prefix (which the gate grammar reserves
    for span statistics).
    """
    metrics: dict = {"nodes.total": float(len(graph.nodes)), "edges.total": float(len(graph.edges))}
    for nid, (kind, _) in graph.nodes.items():
        metrics[f"nodes.{kind}"] = metrics.get(f"nodes.{kind}", 0.0) + 1.0
    for (kind, _, _), _attrs in graph.edges.items():
        metrics[f"edges.{kind}"] = metrics.get(f"edges.{kind}", 0.0) + 1.0
    parts = clusters(graph)
    metrics["clusters.count"] = float(len(parts))
    metrics["clusters.max_size"] = float(max((c.size for c in parts), default=0))
    metrics["clusters.max_miner_share"] = max(
        (c.miner_share for c in parts), default=0.0
    )
    with_wasm = [c.detection_factor for c in parts if c.wasm_hits]
    metrics["clusters.min_detection_factor"] = min(with_wasm, default=0.0)
    metrics["clusters.max_detection_factor"] = max(with_wasm, default=0.0)
    return metrics
