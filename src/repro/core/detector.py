"""The combined page-level detection pipeline.

Ties the two detectors together the way the paper's evaluation does
(Table 2): for every visited page, record

- whether the NoCoin list matches the page's script tags (on static zgrab
  HTML and/or on the browser's post-execution HTML),
- whether any captured Wasm is classified as a miner (signature/feature
  cascade),

and expose the cross-tabulation (blocked-by / missed-by) plus per-family
tallies for Table 1 and Figure 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from repro.core.classifier import Classification, MinerClassifier
from repro.core.nocoin import FilterList, FilterMatch, default_nocoin_list
from repro.obs.evidence import Evidence
from repro.web.html import scan_scripts

# ---------------------------------------------------------------------------
# degradation tiers (the service's load-shedding ladder)
#
# Under overload the cascade sheds its expensive stages first: dynamic
# execution profiling, then the feature classifier (leaving exact
# signature-db lookups), then everything but the NoCoin filter match.
# Tiers are ordered cheapest-last; ``DEGRADATION_TIERS[i+1]`` is strictly
# cheaper (and blinder) than ``DEGRADATION_TIERS[i]``.

TIER_FULL = "full"
TIER_NO_DYNAMIC = "no-dynamic"
TIER_NO_CLASSIFIER = "no-classifier"
TIER_STATIC_ONLY = "static-only"
DEGRADATION_TIERS = (TIER_FULL, TIER_NO_DYNAMIC, TIER_NO_CLASSIFIER, TIER_STATIC_ONLY)


@dataclass
class DetectionReport:
    """Detection outcome for one page."""

    domain: str
    nocoin_hit: bool = False
    nocoin_rule_labels: tuple = ()
    wasm_present: bool = False
    miner: Optional[Classification] = None
    websocket_urls: tuple = ()
    status: str = "ok"
    #: provenance chain (populated only when the detector collects evidence);
    #: excluded from equality so evidence-collecting and bare detections of
    #: the same page compare equal
    evidence: tuple = field(default=(), compare=False)

    @property
    def is_miner(self) -> bool:
        return self.miner is not None and self.miner.is_miner

    @property
    def miner_family(self) -> Optional[str]:
        return self.miner.family if self.is_miner else None

    @property
    def nocoin_false_positive(self) -> bool:
        """NoCoin fired but no mining Wasm ran on the page."""
        return self.nocoin_hit and not self.is_miner

    @property
    def nocoin_false_negative(self) -> bool:
        """A miner ran but NoCoin stayed silent — the paper's headline gap."""
        return self.is_miner and not self.nocoin_hit


#: the page verdict a positive dynamic profile stands for
DYNAMIC_MINER = Classification(
    is_miner=True, family="unknown-miner", method="dynamic", confidence=0.8
)


@dataclass
class PageDetector:
    """Applies both detectors to crawl artifacts.

    Every entry point is one walk over the cascade's layers — NoCoin script
    scan → signature lookup → name hint / instruction mix / backend →
    dynamic profile — in which each layer decides once and returns its
    decision record (:class:`~repro.core.nocoin.FilterMatch`,
    :class:`~repro.core.classifier.Classification`,
    :class:`~repro.core.dynamic.DynamicDecision`). The report's fields are
    a projection of those records. With ``collect_evidence`` set
    (campaigns enable it when their ``Obs`` context is on), the same
    records are rendered into an :class:`Evidence` chain citing the exact
    rule/signature/threshold/backend behind the verdict. The default keeps
    detection evidence-free — the ``NULL_OBS`` hot path builds no
    :class:`Evidence` at all.
    """

    nocoin: FilterList = field(default_factory=default_nocoin_list)
    classifier: MinerClassifier = field(default_factory=MinerClassifier)
    collect_evidence: bool = False

    def detect_static(self, domain: str, html: str) -> DetectionReport:
        """NoCoin-only detection on zgrab HTML (the Section 3.1 pipeline)."""
        return self._walk(DetectionReport(domain=domain), html)

    def detect_page(self, domain: str, page_result) -> DetectionReport:
        """Full detection on a browser visit (the Section 3.2 pipeline)."""
        if page_result.status == "error":
            return DetectionReport(domain=domain, status="error")
        report = DetectionReport(
            domain=domain,
            status=page_result.status,
            wasm_present=page_result.has_wasm(),
            websocket_urls=tuple(sorted(page_result.websocket_urls())),
        )
        return self._walk(
            report,
            page_result.final_html,
            page_result.wasm_dumps,
            frames=page_result.websocket_frames,
        )

    def detect_request(
        self,
        domain: str,
        html: str,
        wasm_dumps=(),
        websocket_urls=(),
        tier: str = TIER_FULL,
        dynamic=None,
    ) -> DetectionReport:
        """Cascade entry point for request/response serving.

        Runs the detector cascade on a client capture (page HTML plus the
        wasm modules and WebSocket endpoints the client observed) at the
        requested degradation ``tier``:

        - ``full``: NoCoin → signature db → classifier → ``dynamic``
          (execution profiling, when a detector is supplied),
        - ``no-dynamic``: drops execution profiling,
        - ``no-classifier``: exact signature-db lookups only — no feature
          extraction, no instruction-mix heuristics,
        - ``static-only``: NoCoin filter match only; submitted wasm is not
          inspected at all (``wasm_present`` stays False).
        """
        if tier not in DEGRADATION_TIERS:
            raise ValueError(f"unknown degradation tier {tier!r}; expected one of {DEGRADATION_TIERS}")
        report = DetectionReport(domain=domain)
        if tier != TIER_STATIC_ONLY and wasm_dumps:
            report.wasm_present = True
            report.websocket_urls = tuple(sorted(websocket_urls))
        return self._walk(report, html, wasm_dumps, tier, dynamic)

    def _walk(
        self, report: DetectionReport, html: str, wasm_dumps=(),
        tier: str = TIER_FULL, dynamic=None, frames=(),
    ) -> DetectionReport:
        """Run each layer once, project the report, render the evidence."""
        decisions = self.nocoin.explain_scripts(scan_scripts(html))
        if report.wasm_present:
            decisions += self._wasm_layers(
                wasm_dumps, report.websocket_urls, tier, dynamic
            )
        labels = {}
        for decision in decisions:
            if isinstance(decision, FilterMatch):
                report.nocoin_hit = True
                labels.setdefault(decision.rule.label or decision.rule.raw)
            elif decision.is_miner and report.miner is None:
                report.miner = (
                    decision if isinstance(decision, Classification) else DYNAMIC_MINER
                )
        report.nocoin_rule_labels = tuple(labels)
        if self.collect_evidence:
            report.evidence = tuple(
                _render(decision, report.websocket_urls) for decision in decisions
            ) + ((_websocket_evidence(frames),) if frames else ())
        return report

    def _wasm_layers(self, wasm_dumps, websocket_urls, tier, dynamic) -> list:
        """Decision records of the wasm layers the ``tier`` keeps."""
        if tier == TIER_NO_CLASSIFIER:
            # exact signature-db lookups; unknown modules stay unclassified
            for dump in wasm_dumps:
                known = self.classifier.signature_match(dump)
                if known is not None and known.is_miner:
                    return [known]
            return []
        decision = self.classifier.page_decision(wasm_dumps, websocket_urls)
        if decision is None:
            return []
        decisions = [decision]
        if tier == TIER_FULL and dynamic is not None and not decision.is_miner:
            # execution-profile modules the static cascade left unclassified
            for dump in wasm_dumps:
                is_miner, profiled = dynamic.explain(dump)
                decisions.append(profiled)
                if is_miner:
                    break
        return decisions


def _render(decision, websocket_urls: tuple) -> Evidence:
    """The evidence for one layer's decision record."""
    if isinstance(decision, FilterMatch):
        return _nocoin_evidence(decision)
    if isinstance(decision, Classification):
        return _classifier_evidence(decision, websocket_urls)
    return _dynamic_evidence(decision)


def _cite(check) -> tuple:
    """``(name, "value (op threshold ok|FAIL)")`` for one threshold test."""
    shown = format(check.value, check.fmt)
    if check.op:
        shown += f" ({check.op} {check.threshold} {'ok' if check.ok else 'FAIL'})"
    return check.name, shown


def _nocoin_evidence(match) -> Evidence:
    """Cite the exact filter rule (source, line, text) and matched span."""
    rule = match.rule
    return Evidence(
        detector="nocoin",
        verdict="hit",
        summary=(
            f"rule {rule.raw!r} ({rule.source or 'unsourced'}:{rule.line_number}) "
            f"matched the page's script {match.where}"
        ),
        details=(
            ("rule", rule.raw),
            ("source", rule.source),
            ("line_number", str(rule.line_number)),
            ("label", rule.label),
            ("where", match.where),
            ("subject", match.subject),
            ("matched", match.matched),
        ),
    )


def _classifier_evidence(decision: Classification, websocket_urls: tuple) -> Evidence:
    """Cite the cascade branch that decided: the signature-db record (and
    how many function hashes fed the signature), the name hints found, or
    each instruction-mix feature value against its threshold."""
    verdict = "miner" if decision.is_miner else "benign"
    if decision.method == "signature":
        record = decision.record
        hashes = decision.function_hashes
        return Evidence(
            detector="signature",
            verdict=verdict,
            summary=(
                f"signature-db record {record.family!r} matched "
                f"({hashes} function hashes)"
            ),
            details=(
                ("signature", record.signature),
                ("db_family", record.family),
                ("db_is_miner", str(record.is_miner)),
                ("db_variant", str(record.variant)),
                ("function_hashes", str(hashes)),
            ),
        )
    if decision.method == "none":
        return Evidence(
            detector="signature",
            verdict="invalid",
            summary="module did not decode; no classification possible",
            details=(("decodable", "False"),),
        )
    if decision.method == "name-hint":
        hints = decision.features.name_hints
        return Evidence(
            detector="name-hint",
            verdict=verdict,
            summary=f"function names hint at PoW hashing: {', '.join(hints[:4])}",
            details=tuple(("name_hint", name) for name in hints[:8]),
        )
    thresholds = tuple(_cite(check) for check in decision.checks)
    if decision.method == "backend":
        needle, url = decision.backend
        return Evidence(
            detector="backend",
            verdict=verdict,
            summary=f"WebSocket backend {needle!r} identifies the family",
            details=(
                ("backend_needle", needle),
                ("backend_url", url),
                ("family", decision.family),
            ) + thresholds,
        )
    return Evidence(
        detector="instruction-mix",
        verdict=verdict,
        summary=(
            "instruction mix "
            + ("matches" if decision.is_miner else "does not match")
            + " the CryptoNight profile"
        ),
        details=thresholds + (("websocket_urls", ",".join(websocket_urls)),),
    )


def _dynamic_evidence(decision) -> Evidence:
    """Cite each executed-stream feature against its threshold."""
    if decision.error:
        return Evidence(
            detector="dynamic",
            verdict="invalid",
            summary=f"module failed to execute ({decision.error})",
            details=(("error", decision.error),),
        )
    return Evidence(
        detector="dynamic",
        verdict="miner" if decision.is_miner else "benign",
        summary=(
            "executed instruction stream "
            + ("matches" if decision.is_miner else "does not match")
            + " the CryptoNight profile"
        ),
        details=tuple(_cite(check) for check in decision.checks),
    )


def _websocket_evidence(frames) -> Evidence:
    """Cite backend endpoints and their job/submit message counts.

    Pool-protocol frames are JSON with a ``type`` field; received ``job``
    frames are the pool handing out work and sent ``submit`` frames are
    the page returning shares — the dynamic fingerprint of active mining.
    """
    per_endpoint: dict = {}
    for frame in frames:
        jobs, submits = per_endpoint.get(frame.url, (0, 0))
        try:
            kind = json.loads(frame.payload).get("type", "")
        except (ValueError, AttributeError):
            kind = ""
        if frame.direction == "received" and kind == "job":
            jobs += 1
        elif frame.direction == "sent" and kind == "submit":
            submits += 1
        per_endpoint[frame.url] = (jobs, submits)
    endpoints = sorted(per_endpoint)
    total_jobs = sum(jobs for jobs, _ in per_endpoint.values())
    total_submits = sum(submits for _, submits in per_endpoint.values())
    return Evidence(
        detector="websocket",
        verdict="active" if total_submits else "observed",
        summary=(
            f"{len(endpoints)} backend endpoint(s): {total_jobs} job / "
            f"{total_submits} submit message(s)"
        ),
        details=tuple(
            (url, f"jobs={per_endpoint[url][0]} submits={per_endpoint[url][1]}")
            for url in endpoints
        ),
    )


@dataclass
class CrossTabulation:
    """Table 2's numbers for one dataset."""

    nocoin_hits: int = 0
    nocoin_hits_with_miner_wasm: int = 0
    wasm_miner_hits: int = 0
    miners_blocked_by_nocoin: int = 0
    miners_missed_by_nocoin: int = 0

    @property
    def missed_fraction(self) -> float:
        if self.wasm_miner_hits == 0:
            return 0.0
        return self.miners_missed_by_nocoin / self.wasm_miner_hits

    @property
    def detection_factor(self) -> float:
        """How many × more miners the signature method finds than NoCoin∩Wasm.

        The paper's headline: "up to a factor of 5.7 more miners than
        publicly available block lists".
        """
        if self.miners_blocked_by_nocoin == 0:
            return float("inf") if self.wasm_miner_hits else 0.0
        return self.wasm_miner_hits / self.miners_blocked_by_nocoin


def cross_tabulate(reports) -> CrossTabulation:
    """Aggregate per-page reports into Table 2's cross-tabulation."""
    tab = CrossTabulation()
    for report in reports:
        if report.nocoin_hit:
            tab.nocoin_hits += 1
            if report.is_miner:
                tab.nocoin_hits_with_miner_wasm += 1
        if report.is_miner:
            tab.wasm_miner_hits += 1
            if report.nocoin_hit:
                tab.miners_blocked_by_nocoin += 1
            else:
                tab.miners_missed_by_nocoin += 1
    return tab
