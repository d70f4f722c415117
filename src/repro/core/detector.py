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
from repro.core.nocoin import FilterList, default_nocoin_list
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


@dataclass
class PageDetector:
    """Applies both detectors to crawl artifacts.

    With ``collect_evidence`` set (campaigns enable it when their ``Obs``
    context is on), every report carries an :class:`Evidence` chain citing
    the exact rule/signature/threshold/backend that produced its verdict.
    The default keeps detection evidence-free — the ``NULL_OBS`` hot path
    allocates nothing extra.
    """

    nocoin: FilterList = field(default_factory=default_nocoin_list)
    classifier: MinerClassifier = field(default_factory=MinerClassifier)
    collect_evidence: bool = False

    def detect_static(self, domain: str, html: str) -> DetectionReport:
        """NoCoin-only detection on zgrab HTML (the Section 3.1 pipeline)."""
        report = DetectionReport(domain=domain)
        self._apply_nocoin(report, html)
        return report

    def detect_page(self, domain: str, page_result) -> DetectionReport:
        """Full detection on a browser visit (the Section 3.2 pipeline)."""
        report = DetectionReport(domain=domain, status=page_result.status)
        if page_result.status == "error":
            report.status = "error"
            return report
        self._apply_nocoin(report, page_result.final_html)
        report.websocket_urls = tuple(sorted(page_result.websocket_urls()))
        report.wasm_present = page_result.has_wasm()
        if report.wasm_present:
            if self.collect_evidence:
                report.miner, wasm_evidence = self.classifier.explain_page(
                    page_result.wasm_dumps, report.websocket_urls
                )
                report.evidence = report.evidence + wasm_evidence
            else:
                report.miner = self.classifier.page_is_miner(
                    page_result.wasm_dumps, report.websocket_urls
                )
        if self.collect_evidence and page_result.websocket_frames:
            report.evidence = report.evidence + (
                _websocket_evidence(page_result.websocket_frames),
            )
        return report

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
        self._apply_nocoin(report, html)
        if tier == TIER_STATIC_ONLY or not wasm_dumps:
            return report
        report.websocket_urls = tuple(sorted(websocket_urls))
        report.wasm_present = True
        if tier == TIER_NO_CLASSIFIER:
            self._signature_only(report, wasm_dumps)
            return report
        if self.collect_evidence:
            report.miner, wasm_evidence = self.classifier.explain_page(
                wasm_dumps, report.websocket_urls
            )
            report.evidence = report.evidence + wasm_evidence
        else:
            report.miner = self.classifier.page_is_miner(
                wasm_dumps, report.websocket_urls
            )
        if tier == TIER_FULL and dynamic is not None and not report.is_miner:
            self._apply_dynamic(report, wasm_dumps, dynamic)
        return report

    def _signature_only(self, report: DetectionReport, wasm_dumps) -> None:
        """Exact signature-db lookups; unknown modules stay unclassified."""
        for dump in wasm_dumps:
            record = self.classifier.database.lookup(dump)
            if record is None or not record.is_miner:
                continue
            report.miner = Classification(
                is_miner=True,
                family=record.family,
                method="signature",
                confidence=1.0,
            )
            if self.collect_evidence:
                _, evidence = self.classifier.explain_wasm(dump, report.websocket_urls)
                report.evidence = report.evidence + (evidence,)
            return

    def _apply_dynamic(self, report: DetectionReport, wasm_dumps, dynamic) -> None:
        """Execution-profile modules the static cascade left unclassified."""
        for dump in wasm_dumps:
            if self.collect_evidence:
                is_miner, evidence = dynamic.explain(dump)
                report.evidence = report.evidence + (evidence,)
            else:
                is_miner = dynamic.is_miner(dump)
            if is_miner:
                report.miner = Classification(
                    is_miner=True,
                    family="unknown-miner",
                    method="dynamic",
                    confidence=0.8,
                )
                return

    def _apply_nocoin(self, report: DetectionReport, html: str) -> None:
        scripts = scan_scripts(html)
        if self.collect_evidence:
            matches = self.nocoin.explain_scripts(scripts)
            if matches:
                report.nocoin_hit = True
                report.nocoin_rule_labels = tuple(
                    dict.fromkeys(m.rule.label or m.rule.raw for m in matches)
                )
                report.evidence = report.evidence + tuple(
                    _nocoin_evidence(match) for match in matches
                )
            return
        hits = self.nocoin.match_scripts(scripts)
        if hits:
            report.nocoin_hit = True
            report.nocoin_rule_labels = tuple(
                dict.fromkeys(rule.label or rule.raw for rule in hits)
            )


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
