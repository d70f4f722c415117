"""Ground-truth scorecards over persisted verdicts (``repro obs scorecard``).

The synthetic populations know exactly which sites mine (``SiteSpec.role ==
"miner"``), and every observed run persists its per-subject verdicts in
``verdicts.jsonl``. This module joins the two: rebuild the ground truth
from the run manifest's ``(dataset, seed, scale)`` — population builds are
pure functions of those — and score each detector's verdicts against it as
a confusion matrix with precision/recall, plus the paper's headline
detection factor (Table 2) recomputed from the verdicts themselves.

Scores are deterministic: same run directory → same scorecard, rendered
byte-identically. ``--fail-on 'detector.wasm.recall<0.95'`` gates
(:mod:`repro.obs.gates`, over :meth:`Scorecard.metrics`) make the
scorecard a CI gate on detection *quality*, alongside ``obs diff``'s
gates on cost.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


#: wasm cascade methods that get their own per-method recall row
CASCADE_METHODS = ("signature", "name-hint", "instruction-mix", "backend")


@dataclass(frozen=True)
class ConfusionMatrix:
    """One detector's verdicts against ground truth."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def precision(self) -> float:
        """TP/(TP+FP); 1.0 on an empty denominator.

        A detector that claimed nothing made no false claims — and a CI
        recall/precision gate must not trip on a dataset slice where the
        detector simply had nothing to do.
        """
        denominator = self.tp + self.fp
        return self.tp / denominator if denominator else 1.0

    @property
    def recall(self) -> float:
        """TP/(TP+FN); 1.0 on an empty denominator (no miners to find)."""
        denominator = self.tp + self.fn
        return self.tp / denominator if denominator else 1.0


@dataclass(frozen=True)
class ClusterScore:
    """Table-2 detection factor restricted to one includer campaign."""

    label: str
    domains: int
    miners: int
    miner_share: float
    wasm_hits: int
    blocked: int
    detection_factor: float


@dataclass
class Scorecard:
    """Per-detector scores for one run."""

    #: :meth:`~repro.obs.ledger.RunManifest.workload_id` of the scored run
    workload_id: str
    #: detector name → confusion matrix, in presentation order
    matrices: dict = field(default_factory=dict)
    #: Table 2's headline, recomputed from the chrome verdicts
    detection_factor: float = 0.0
    wasm_miner_hits: int = 0
    miners_blocked_by_nocoin: int = 0
    truth_miners: int = 0
    page_verdicts: int = 0
    block_verdicts: int = 0
    datasets: tuple = ()
    #: per-includer-cluster detection factors, from the run's graph.jsonl
    clusters: list = field(default_factory=list)

    def metrics(self) -> dict:
        """Flat ``detector.<name>.<stat>`` map for ``--fail-on`` gates."""
        values = {}
        for name, matrix in self.matrices.items():
            values[f"detector.{name}.precision"] = matrix.precision
            values[f"detector.{name}.recall"] = matrix.recall
        values["detection_factor"] = self.detection_factor
        for row in self.clusters:
            # labels can contain "+" (multi-includer components); fold to
            # "-" so the gate grammar [A-Za-z0-9_.-] can address every row
            key = re.sub(r"[^A-Za-z0-9_.\-]", "-", row.label)
            values[f"cluster.{key}.detection_factor"] = row.detection_factor
            values[f"cluster.{key}.miner_share"] = row.miner_share
        return values


class StreamingTruth:
    """Lazy miner-membership view over a streaming population.

    ``domain in truth`` decodes the site index embedded in the domain and
    re-derives that one site — O(1) per verdict, no zone-sized set build.
    ``lazy`` flags that the container has no meaningful ``len``.
    """

    lazy = True

    def __init__(self, population) -> None:
        self.population = population

    def __contains__(self, domain) -> bool:
        return self.population.is_true_miner(domain)


def _streaming_truth(dataset: str, params: dict):
    """Rebuild streaming ground truth from manifest params, or ``None``."""
    population_size = int(params.get("population_size", 0) or 0)
    if not population_size:
        return None
    from repro.internet.population import DATASETS
    from repro.internet.streaming import StreamingPopulation, parse_strata

    strata_text = str(params.get("strata", "") or "")
    strata = parse_strata(strata_text, DATASETS[dataset]) if strata_text else None
    return StreamingTruth(
        StreamingPopulation(
            dataset,
            seed=int(params["seed"]),
            size=population_size,
            strata=strata,
            sample_per_stratum=int(params.get("sample_per_stratum", 0) or 0),
        )
    )


def build_ground_truth(manifest) -> dict:
    """dataset → miner-domain membership, rebuilt from the manifest.

    Population builds are pure functions of ``(dataset, seed, scale)``
    (or, for streaming runs, ``(dataset, seed, population_size, strata)``),
    so the rebuilt ground truth is exactly what the crawl ran against.
    Materialized runs yield plain sets; streaming runs yield lazy
    :class:`StreamingTruth` membership views.
    """
    from repro.internet.population import build_population

    params = manifest.params
    if manifest.command == "crawl":
        recipes = [(params["dataset"], params["seed"], params.get("scale", 1.0))]
    elif manifest.command == "reproduce":
        recipes = [
            (dataset, params["seed"], params.get("crawl_scale", 1.0))
            for dataset in str(params.get("datasets", "")).split(",")
            if dataset
        ]
    else:
        raise ValueError(
            f"cannot rebuild ground truth for command {manifest.command!r} "
            f"(expected a crawl or reproduce run)"
        )
    truth = {}
    for dataset, seed, scale in recipes:
        streaming = _streaming_truth(dataset, params)
        if streaming is not None:
            truth[dataset] = streaming
            continue
        population = build_population(dataset, seed=int(seed), scale=float(scale))
        truth[dataset] = population.ground_truth_miners()
    return truth


def build_scorecard(artifacts) -> Scorecard:
    """Score a loaded run's verdicts against rebuilt ground truth.

    ``artifacts`` is the :class:`~repro.obs.ledger.RunArtifacts` of an
    observed run; it must carry verdicts (crawls always persist them when
    run with ``--run-dir``).
    """
    if not artifacts.verdicts:
        raise ValueError(
            f"{artifacts.path} has no verdicts.jsonl — scorecards need a run "
            f"written with --run-dir by this version (re-run the campaign)"
        )
    truth = build_ground_truth(artifacts.manifest)
    card = Scorecard(
        workload_id=artifacts.manifest.workload_id(),
        datasets=tuple(sorted(truth)),
        truth_miners=sum(
            len(domains)
            for domains in truth.values()
            if not getattr(domains, "lazy", False)
        ),
    )
    # lazy (streaming) truth has no len(); count the distinct true miners
    # that actually appeared among the verdicts instead
    lazy_true_subjects: set = set()

    counts: dict = {}  # detector name → [tp, fp, fn, tn]

    def score(name: str, predicted: bool, actual: bool) -> None:
        row = counts.setdefault(name, [0, 0, 0, 0])
        if predicted and actual:
            row[0] += 1
        elif predicted:
            row[1] += 1
        elif actual:
            row[2] += 1
        else:
            row[3] += 1

    # chrome truth miners actually visited, per method-recall denominators
    chrome_truth_seen = 0
    method_tp = {method: 0 for method in CASCADE_METHODS}
    method_fp = {method: 0 for method in CASCADE_METHODS}
    stratum_order: list = []  # strata in first-seen (rank) order

    for verdict in artifacts.verdicts:
        if verdict.kind != "page":
            card.block_verdicts += 1
            continue
        card.page_verdicts += 1
        dataset_truth = truth.get(verdict.dataset, set())
        actual = verdict.subject in dataset_truth
        if actual and getattr(dataset_truth, "lazy", False):
            lazy_true_subjects.add((verdict.dataset, verdict.subject))
        if verdict.pipeline.startswith("zgrab"):
            score("nocoin_static", verdict.nocoin_hit, actual)
            if verdict.stratum:
                if verdict.stratum not in stratum_order:
                    stratum_order.append(verdict.stratum)
                score(f"nocoin_static.{verdict.stratum}", verdict.nocoin_hit, actual)
            continue
        # chrome pipeline: both detectors saw the executed page
        score("nocoin", verdict.nocoin_hit, actual)
        score("wasm", verdict.is_miner, actual)
        if actual:
            chrome_truth_seen += 1
        if verdict.is_miner and verdict.method in method_tp:
            if actual:
                method_tp[verdict.method] += 1
            else:
                method_fp[verdict.method] += 1
        if verdict.is_miner:
            card.wasm_miner_hits += 1
            if verdict.nocoin_hit:
                card.miners_blocked_by_nocoin += 1

    card.truth_miners += len(lazy_true_subjects)

    order = ["nocoin_static"]
    # per-stratum rows directly under the detector they slice, rank order
    order.extend(f"nocoin_static.{stratum}" for stratum in stratum_order)
    order.extend(["nocoin", "wasm"])
    for name in order:
        if name in counts:
            tp, fp, fn, tn = counts[name]
            card.matrices[name] = ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)
    for method in CASCADE_METHODS:
        tp, fp = method_tp[method], method_fp[method]
        if tp or fp:
            # recall denominator: every true miner the chrome crawl saw —
            # "which share of all miners did this cascade branch catch"
            card.matrices[f"wasm.{method}"] = ConfusionMatrix(
                tp=tp, fp=fp, fn=chrome_truth_seen - tp
            )

    if card.miners_blocked_by_nocoin:
        card.detection_factor = card.wasm_miner_hits / card.miners_blocked_by_nocoin
    else:
        card.detection_factor = float("inf") if card.wasm_miner_hits else 0.0
    card.clusters = _cluster_scores(getattr(artifacts, "graph", None))
    return card


def _cluster_scores(graph) -> list:
    """Per-includer-cluster detection-factor rows from the run's graph.

    Only components anchored by a campaign includer get a row — the
    cluster slice answers "was the blocklist blind to this *campaign*",
    which only makes sense where an includer defines the campaign.
    Returns ``[]`` for runs written before graphs existed.
    """
    if graph is None:
        return []
    from repro.graph.query import clusters

    return [
        ClusterScore(
            label=component.label,
            domains=len(component.domains),
            miners=component.miners,
            miner_share=component.miner_share,
            wasm_hits=component.wasm_hits,
            blocked=component.blocked,
            detection_factor=component.detection_factor,
        )
        for component in clusters(graph)
        if component.includers
    ]


SCORECARD_HEADER = ["detector", "tp", "fp", "fn", "tn", "precision", "recall"]


def scorecard_rows(card: Scorecard) -> list:
    """Rows for the per-detector table (pair with ``SCORECARD_HEADER``)."""
    return [
        [
            name,
            matrix.tp,
            matrix.fp,
            matrix.fn,
            matrix.tn,
            f"{matrix.precision:.3f}",
            f"{matrix.recall:.3f}",
        ]
        for name, matrix in card.matrices.items()
    ]


CLUSTER_HEADER = [
    "includer cluster", "domains", "miners", "miner share", "wasm", "blocked", "factor",
]


def cluster_score_rows(card: Scorecard) -> list:
    """Rows for the per-includer-cluster table (pair with ``CLUSTER_HEADER``)."""
    return [
        [
            row.label,
            row.domains,
            row.miners,
            f"{row.miner_share:.1%}",
            row.wasm_hits,
            row.blocked,
            "-" if not row.wasm_hits else (
                "inf" if row.detection_factor == float("inf")
                else f"{row.detection_factor:.1f}x"
            ),
        ]
        for row in card.clusters
    ]


def render_scorecard_summary(card: Scorecard) -> str:
    """The one-line verdict summary above the table."""
    factor = (
        "inf" if card.detection_factor == float("inf")
        else f"{card.detection_factor:.1f}"
    )
    return (
        f"workload {card.workload_id} datasets={','.join(card.datasets)} "
        f"pages={card.page_verdicts} blocks={card.block_verdicts} "
        f"truth_miners={card.truth_miners}\n"
        f"wasm miners found: {card.wasm_miner_hits} "
        f"(blocked by NoCoin: {card.miners_blocked_by_nocoin}) -> "
        f"detection factor {factor}x"
    )
