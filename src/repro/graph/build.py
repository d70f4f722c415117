"""Deriving attribution-graph nodes and edges from verdict evidence.

The builder maps each :class:`~repro.obs.evidence.VerdictRecord` — plus
the population's seeded includer edges — onto the typed graph:

- ``domain`` nodes for page subjects, ``block`` nodes for pool-attributed
  blocks, annotated with pipeline/status/detection flags
- ``includes`` edges from ``includer`` nodes (the seeded third-party
  script layer) to every domain carrying their tag
- ``matched`` edges from ``rule`` nodes (NoCoin rule, cited by source and
  line number) to the domains they fired on
- ``served`` edges from domains to ``sig`` (wasm signature) and
  ``bundle`` (service rule-bundle version) nodes
- ``attributed-to`` edges from domains and signatures to ``family`` nodes
- ``connects`` edges from domains and blocks to ``pool`` endpoint nodes
- ``in-stratum`` edges from domains to their rank stratum, and
  ``requested`` edges from service ``tenant`` nodes to domains

Everything is emitted inside the campaign's ``obs.enabled`` guard, so the
NULL_OBS path builds no graph at all.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.graph.model import Graph
from repro.obs.evidence import Evidence, VerdictRecord


def _pool_host(url: str) -> str:
    """The host part of a ws:// or https:// pool endpoint URL."""
    stripped = url.split("://", 1)[-1]
    return stripped.split("/", 1)[0] or url


def _scoped(record: VerdictRecord, key: str) -> str:
    """Dataset-qualify a population-local key (``alexa/shop.com``).

    Synthetic populations are independent universes: alexa's ``shop.com``
    and .com's ``shop.com`` are different sites that happen to share a
    name, and an unqualified node would falsely bridge their campaigns.
    Families, signatures, rules, and pool endpoints stay global — those
    model genuinely shared upstream infrastructure.
    """
    return f"{record.dataset}/{key}" if record.dataset else key


def evidence_node_id(evidence: Evidence) -> Optional[str]:
    """The graph node one evidence element anchors to (for ``obs explain``).

    Returns ``None`` for detectors whose facts are thresholds rather than
    shared infrastructure (instruction-mix, name-hint, dynamic).
    """
    details = dict(evidence.details)
    if evidence.detector == "nocoin":
        source = details.get("source") or "unsourced"
        return f"rule:{source}:{details.get('line_number', '?')}"
    if evidence.detector == "signature":
        signature = details.get("signature")
        return f"sig:{signature}" if signature else None
    if evidence.detector == "backend":
        url = details.get("backend_url")
        return f"pool:{_pool_host(url)}" if url else None
    if evidence.detector == "websocket":
        for key in details:
            if "://" in key:
                return f"pool:{_pool_host(key)}"
        return None
    if evidence.detector == "pool":
        cluster_id = details.get("cluster_id")
        return f"pool:cluster-{cluster_id[:16]}" if cluster_id else None
    if evidence.detector == "service":
        version = details.get("bundle_version")
        return f"bundle:{version}" if version else None
    return None


def add_verdict(
    graph: Graph,
    record: VerdictRecord,
    site=None,
    includers: Iterable = (),
) -> None:
    """Emit one verdict's nodes and edges into ``graph``."""
    if record.kind == "block":
        subject = graph.add_node("block", record.subject, dataset=record.dataset)
    else:
        key = _scoped(record, record.subject)
        subject = graph.add_node(
            "domain",
            key,
            dataset=record.dataset,
            pipeline=record.pipeline,
        )
        if record.status != "ok":
            graph.add_node("domain", key, status=record.status)
        if record.nocoin_hit:
            graph.add_node("domain", key, nocoin="hit")
        if record.is_miner:
            graph.add_node("domain", key, miner="yes")
            if record.pipeline == "chrome":
                graph.add_node(
                    "domain",
                    key,
                    blocked="yes" if record.nocoin_hit else "no",
                )
        if site is not None and site.role:
            graph.add_node("domain", key, role=site.role)

    if record.stratum:
        stratum = graph.add_node("stratum", _scoped(record, record.stratum))
        graph.add_edge("in-stratum", subject, stratum)

    for includer in includers:
        inc = graph.add_node(
            "includer",
            _scoped(record, includer.domain),
            name=includer.name,
            kind=includer.kind,
            family=includer.family,
        )
        graph.add_edge("includes", inc, subject, url=includer.url)

    if record.is_miner and record.family:
        family = graph.add_node("family", record.family)
        graph.add_edge(
            "attributed-to",
            subject,
            family,
            method=record.method,
            pipeline=record.pipeline,
        )

    for evidence in record.evidence:
        _add_evidence(graph, subject, record, evidence)


def _add_evidence(
    graph: Graph, subject: str, record: VerdictRecord, evidence: Evidence
) -> None:
    details = dict(evidence.details)
    if evidence.detector == "nocoin":
        source = details.get("source") or "unsourced"
        rule = graph.add_node(
            "rule",
            f"{source}:{details.get('line_number', '?')}",
            rule=details.get("rule", ""),
            label=details.get("label", ""),
        )
        graph.add_edge(
            "matched",
            rule,
            subject,
            where=details.get("where", ""),
            matched=details.get("matched", ""),
        )
    elif evidence.detector == "signature":
        signature = details.get("signature")
        if not signature:
            return
        sig = graph.add_node(
            "sig",
            signature,
            variant=details.get("db_variant", ""),
            miner=details.get("db_is_miner", ""),
        )
        graph.add_edge("served", subject, sig, verdict=evidence.verdict)
        db_family = details.get("db_family")
        if db_family:
            family = graph.add_node("family", db_family)
            graph.add_edge("attributed-to", sig, family, method="signature")
    elif evidence.detector == "backend":
        url = details.get("backend_url")
        if not url:
            return
        pool = graph.add_node("pool", _pool_host(url), url=url)
        graph.add_edge(
            "connects", subject, pool, needle=details.get("backend_needle", "")
        )
        if details.get("family"):
            family = graph.add_node("family", details["family"])
            graph.add_edge("attributed-to", pool, family, method="backend")
    elif evidence.detector == "websocket":
        for key, value in evidence.details:
            if "://" not in key:
                continue
            pool = graph.add_node("pool", _pool_host(key), url=key)
            graph.add_edge("connects", subject, pool, activity=value)
    elif evidence.detector == "pool":
        cluster_id = details.get("cluster_id", "")
        pool = graph.add_node(
            "pool", f"cluster-{cluster_id[:16]}", cluster_id=cluster_id
        )
        graph.add_edge(
            "connects",
            subject,
            pool,
            merkle_root=details.get("merkle_root", ""),
            height=details.get("height", ""),
        )
        if record.family:
            family = graph.add_node("family", record.family)
            graph.add_edge("attributed-to", pool, family, method=record.method)
    elif evidence.detector == "service":
        version = details.get("bundle_version")
        if version:
            bundle = graph.add_node("bundle", version)
            graph.add_edge(
                "served", subject, bundle, tier=details.get("tier", "")
            )
        tenant_name = details.get("tenant")
        if tenant_name:
            tenant = graph.add_node("tenant", tenant_name)
            graph.add_edge("requested", tenant, subject)


def graph_from_verdicts(records: Iterable[VerdictRecord]) -> Graph:
    """A graph from bare verdicts (service / loadgen runs: no population)."""
    graph = Graph()
    for record in records:
        add_verdict(graph, record)
    return graph
