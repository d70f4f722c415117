"""Crawl campaigns (Sections 3.1 and 3.2).

:class:`ZgrabCampaign` reproduces Figure 2: TLS-only landing-page fetches
matched against the NoCoin list, with per-script-family shares, across two
scan dates (the second scan applies the population's churn flags).

:class:`ChromeCampaign` reproduces Tables 1–3: instrumented browser visits
of ``http://www.<domain>`` with Wasm-signature classification, NoCoin
re-matching on post-execution HTML, and RuleSpace categorization.

Both campaigns are written as *merge-friendly* pipelines: the per-site work
lives in ``scan_sites_indexed``/``run_sites``, which take ``(population
index, site)`` pairs and return additive partial results, and the final
report is assembled by a separate ``finalize_*`` step. Every crawl runs
through the sharded executor in :mod:`repro.analysis.parallel`, which
runs that per-site code on site subsets and merges the partials; the
one-partial-over-every-site loops it is checked against live in
``tests/oracles/crawl.py``.

Per-site outcomes (:class:`ZgrabSiteOutcome`, :class:`ChromeSiteOutcome`)
are the checkpoint unit: each has a ``to_dict``/``from_dict`` codec, so a
shard's journal (:mod:`repro.faults.checkpoint`) holds plain data.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterable, Optional

from repro.core.classifier import Classification
from repro.core.detector import CrossTabulation, DetectionReport, PageDetector, cross_tabulate
from repro.core.features import WasmFeatures
from repro.faults.checkpoint import CheckpointJournal
from repro.faults.ledger import FaultLedger
from repro.faults.plan import FaultKind
from repro.faults.resilience import ResiliencePolicy
from repro.faults.taxonomy import ErrorClass
from repro.graph.build import add_verdict
from repro.graph.model import Graph
from repro.internet.population import Population, SiteSpec, WebPopulation
from repro.obs.evidence import Evidence, VerdictRecord
from repro.obs.profile import NULL_OBS, Obs
from repro.rulespace.engine import RuleSpaceEngine
from repro.web.browser import BrowserConfig, HeadlessBrowser
from repro.web.zgrab import ZgrabFetcher


def _captured_stage_spans(spans: list, mark: int) -> tuple:
    """Snapshot the child spans a site visit finished since ``mark``.

    Stored on the checkpointed outcome as ``(name, tags)`` pairs so a
    resumed run can replay them — all per-site stages are flat children
    of the site span and finish before it does, so finish order equals
    open order and the slice is exactly this site's children.
    """
    return tuple((span.name, tuple(span.tags.items())) for span in spans[mark:])


def _replay_stage_spans(obs: Obs, stage_spans: tuple) -> None:
    """Re-open the recorded child spans of a checkpointed site.

    The replay makes the same ``span()`` calls (and therefore the same
    clock reads) the original visit made around its inner work, so a
    resumed run keeps the fresh run's span-id set and, under a
    ``TickClock``, its exact stage histograms.
    """
    for name, tags in stage_spans:
        with obs.span(name) as span:
            for key, value in tags:
                span.set_tag(key, value)


def _visit_journaled(
    obs: Obs,
    indexed_sites: Iterable[tuple[int, SiteSpec]],
    journal: Optional[CheckpointJournal],
    progress,
    ledger: FaultLedger,
    visit,
    settle,
    decode: Callable[[dict], object],
) -> None:
    """The per-site loop both campaigns share.

    Each ``(population index, site)`` pair runs in a ``site`` span: a site
    the ``journal`` already holds replays its recorded outcome (rebuilt by
    ``decode``) and stage spans, any other runs ``visit(site)`` and, with
    a journal, is recorded as it completes. ``settle(span, index, site,
    outcome)`` folds the outcome into the campaign's partial and says
    whether the site failed; ``progress`` then advances by the site.
    Checkpoint tallies land in ``ledger``.
    """
    record_spans = journal is not None and obs.enabled
    done = journal.load(decode) if journal is not None else {}
    for index, site in indexed_sites:
        with obs.span("site", domain=site.domain) as span:
            outcome = done.get(index)
            if outcome is not None:
                span.set_tag("resumed", 1)
                ledger.checkpoint_resumed += 1
                if obs.enabled:
                    _replay_stage_spans(obs, outcome.stage_spans)
            else:
                mark = len(obs.tracer.spans) if record_spans else 0
                outcome = visit(site)
                if journal is not None:
                    if record_spans:
                        outcome = replace(
                            outcome,
                            stage_spans=_captured_stage_spans(obs.tracer.spans, mark),
                        )
                    journal.record(index, outcome.to_dict())
                    ledger.checkpoint_recorded += 1
            failed = settle(span, index, site, outcome)
        if progress is not None:
            progress.advance(
                1,
                failed=1 if failed else 0,
                faults=outcome.ledger.total_injected,
                breakers_opened=outcome.ledger.breaker_opened,
                breakers_closed=outcome.ledger.breaker_closed,
            )


def _file_verdict(partial, index: int, population: Population, site: SiteSpec, record) -> None:
    """Add one site's verdict to ``partial`` and to its attribution graph."""
    partial.verdicts.append((index, record))
    add_verdict(
        partial.graph, record, site=site, includers=population.includer_layer.includers_for(site)
    )


def _population_order(pairs: list) -> tuple:
    """The values of ``(population index, value)`` pairs, in index order."""
    return tuple(value for _, value in sorted(pairs, key=lambda item: item[0]))


def _canonical_order(counter: Counter) -> Counter:
    """Re-insert entries by (count desc, label asc).

    Counter equality ignores insertion order, but ``most_common`` breaks
    ties by it — and merged partials insert in shard order while a
    sequential pass inserts in population order. Canonicalizing in the
    shared finalize step makes rendered tables (top-5 cuts, share
    listings) byte-identical across execution modes.
    """
    return Counter(dict(sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))))


def _stratum_rows(population: Population, partial: "ZgrabScanPartial") -> tuple:
    """Per-stratum prevalence rows, rank order; empty for unstratified builds.

    Prevalence is over *successful* probes, then extrapolated over the
    stratum's full rank range — the honest way to report a stratified
    sample against the whole population.
    """
    strata = population.strata
    if not strata or not partial.stratum_probed:
        return ()
    sizes = population.stratum_sizes()
    rows = []
    for stratum in strata:
        probed = partial.stratum_probed.get(stratum.name, 0)
        size = sizes.get(stratum.name, 0)
        if probed == 0 and size == 0:
            continue
        hits = partial.stratum_hits.get(stratum.name, 0)
        failures = partial.stratum_failures.get(stratum.name, 0)
        reached = probed - failures
        prevalence = hits / reached if reached else 0.0
        rows.append(
            StratumPrevalence(
                stratum=stratum.name,
                probed=probed,
                hits=hits,
                failures=failures,
                prevalence=prevalence,
                population_size=size,
                estimated_domains=round(prevalence * size),
            )
        )
    return tuple(rows)


@dataclass(frozen=True)
class StratumPrevalence:
    """Per-rank-stratum detection tallies of one zgrab pass.

    ``estimated_domains`` extrapolates the stratum's hit rate over its
    full rank range — how a stratified sample reports against the whole
    population (the paper's Table 2 Alexa-vs-zone-file shape).
    """

    stratum: str
    probed: int
    hits: int
    failures: int
    prevalence: float
    population_size: int
    estimated_domains: int


@dataclass
class ZgrabScanResult:
    """One Figure-2 bar: a dataset at one scan date."""

    dataset: str
    scan_date: str
    domains_probed: int
    nocoin_domains: int
    script_shares: dict[str, float]  # family label → share of detected domains
    paper_total_domains: int
    fetch_failures: int = 0  # DNS/TLS/timeout — the non-HTTPS web, mostly
    #: per-stratum prevalence rows (streaming populations; empty legacy)
    stratum_rows: tuple = ()
    #: per-site verdicts with evidence, population order; empty unless the
    #: campaign ran with observability enabled. Telemetry, not a result:
    #: excluded from equality so observed and bare runs stay comparable.
    verdicts: tuple = field(default=(), compare=False)
    #: attribution subgraph of this pass; ``None`` on unobserved runs
    graph: Optional[Graph] = field(default=None, compare=False)

    @property
    def prevalence(self) -> float:
        """Share of the paper's full zone this detection count represents."""
        return self.nocoin_domains / self.paper_total_domains


@dataclass
class ZgrabScanPartial:
    """Additive per-site tallies of one zgrab pass (or one shard of it).

    Partials from disjoint site subsets merge into exactly the totals a
    single pass over the union would produce: every field is a plain sum.
    """

    domains_probed: int = 0
    nocoin_domains: int = 0
    fetch_failures: int = 0
    label_hits: Counter = field(default_factory=Counter)
    #: per-stratum tallies, filled only for stratum-labelled (streaming)
    #: sites so legacy results stay byte-identical
    stratum_probed: Counter = field(default_factory=Counter)
    stratum_hits: Counter = field(default_factory=Counter)
    stratum_failures: Counter = field(default_factory=Counter)
    fault_ledger: FaultLedger = field(default_factory=FaultLedger)
    #: ``(population index, VerdictRecord)`` pairs, observed runs only
    verdicts: list = field(default_factory=list)
    #: attribution subgraph, observed runs only; merge is the graph union
    graph: Graph = field(default_factory=Graph)

    def merge(self, other: "ZgrabScanPartial") -> "ZgrabScanPartial":
        self.domains_probed += other.domains_probed
        self.nocoin_domains += other.nocoin_domains
        self.fetch_failures += other.fetch_failures
        self.label_hits.update(other.label_hits)
        self.stratum_probed.update(other.stratum_probed)
        self.stratum_hits.update(other.stratum_hits)
        self.stratum_failures.update(other.stratum_failures)
        self.fault_ledger.merge(other.fault_ledger)
        self.verdicts.extend(other.verdicts)
        self.graph.merge(other.graph)
        return self


# ---------------------------------------------------------------------------
# outcome codecs: what a checkpoint journal line holds


def _journaled(cls) -> list:
    """The fields a journal line carries: every field equality compares,
    plus the uncompared ``evidence`` chain.

    So a report's :class:`~repro.core.classifier.Classification` keeps
    ``is_miner``, ``family``, ``method``, ``confidence`` and ``features``;
    its decision-record fields (``record``, ``checks``, ``backend``,
    ``function_hashes``) are not journaled — they exist to render
    evidence, which the report already carries, and nothing reads them
    after detection.
    """
    return [f.name for f in fields(cls) if f.compare or f.name == "evidence"]


def _encode(value) -> dict:
    return {
        name: _CODECS.get(name, _PLAIN)[0](getattr(value, name))
        for name in _journaled(type(value))
    }


def _exact_keys(payload: dict, names, what: str) -> dict:
    """``payload`` when its keys are exactly ``names``; raises otherwise, so
    a malformed journal line reads as undecodable."""
    if set(payload) != set(names):
        raise ValueError(f"{what} keys {sorted(payload)} != {sorted(names)}")
    return payload


def _decode(cls, payload: dict):
    """Rebuilds a ``cls`` from :func:`_encode`'s dict."""
    names = _journaled(cls)
    _exact_keys(payload, names, cls.__name__)
    return cls(**{name: _CODECS.get(name, _PLAIN)[1](payload[name]) for name in names})


def _optional(encode: Callable, decode: Callable) -> tuple:
    return (
        lambda value: None if value is None else encode(value),
        lambda payload: None if payload is None else decode(payload),
    )


_PLAIN = (lambda value: value, lambda payload: payload)
_LISTED = (list, tuple)
#: field name → ``(encode, decode)``, across every journaled class, for
#: each field that is not a JSON scalar; the ledger and evidence reuse
#: their own codecs
_CODECS = {
    "labels": _LISTED,
    "nocoin_rule_labels": _LISTED,
    "websocket_urls": _LISTED,
    "name_hints": _LISTED,
    "ledger": (
        FaultLedger.to_dict,
        lambda payload: FaultLedger.from_dict(
            _exact_keys(payload, FaultLedger().to_dict(), "FaultLedger")
        ),
    ),
    "evidence": (
        lambda chain: [item.to_dict() for item in chain],
        lambda items: tuple(map(Evidence.from_dict, items)),
    ),
    "stage_spans": (
        lambda spans: [[name, list(map(list, tags))] for name, tags in spans],
        lambda spans: tuple((name, tuple(map(tuple, tags))) for name, tags in spans),
    ),
    "report": (_encode, functools.partial(_decode, DetectionReport)),
    "miner": _optional(_encode, functools.partial(_decode, Classification)),
    "features": _optional(_encode, functools.partial(_decode, WasmFeatures)),
}


class _JournalCodec:
    """``to_dict``/``from_dict`` of a per-site outcome, the checkpoint
    journal's payload."""

    def to_dict(self) -> dict:
        return _encode(self)

    @classmethod
    def from_dict(cls, payload: dict):
        return _decode(cls, payload)


@dataclass(frozen=True)
class ZgrabSiteOutcome(_JournalCodec):
    """One site's zgrab verdict plus its fault accounting.

    This is the checkpoint unit: order-independent and additive, so a
    resumed shard replaying recorded outcomes merges bit-identically.
    """

    failed: bool = False
    nocoin_hit: bool = False
    labels: tuple = ()
    ledger: FaultLedger = field(default_factory=FaultLedger)
    #: ``(name, tags)`` of the stage spans the visit opened, recorded only
    #: on observed journaled runs so a resume can replay the trace shape
    stage_spans: tuple = ()
    #: evidence chain from the detector, collected on observed runs only
    evidence: tuple = ()


@dataclass
class ZgrabCampaign:
    """Runs the Section 3.1 pipeline over a population."""

    population: Population
    detector: PageDetector = field(default_factory=PageDetector)
    #: retry/breaker/deadline settings for the fetcher; ``None`` keeps the
    #: legacy single-attempt behaviour
    resilience: Optional[ResiliencePolicy] = None
    #: observability hook (spans + stage histograms); defaults to disabled
    obs: Obs = field(default=NULL_OBS, repr=False)

    def scan_sites_indexed(
        self,
        indexed_sites: Iterable[tuple[int, SiteSpec]],
        scan_index: int = 0,
        journal: Optional[CheckpointJournal] = None,
        progress=None,
    ) -> ZgrabScanPartial:
        """Scan ``(population index, site)`` pairs, optionally journaled.

        With a ``journal``, sites already recorded are replayed instead of
        re-fetched, and every fresh site is recorded as it completes — a
        shard killed mid-run resumes from the journal and still merges to
        the exact uninterrupted result (fault decisions are keyed on
        domains, never on execution position). Resumed sites replay their
        recorded stage spans so the trace keeps the fresh run's shape.
        """
        fetcher = ZgrabFetcher(
            self.population.web, resilience=self.resilience, obs=self.obs
        )
        if self.obs.enabled:
            self.detector.collect_evidence = True
        partial = ZgrabScanPartial()

        def present(indexed_sites):
            for index, site in indexed_sites:
                if scan_index == 1 and not site.present_scan2:
                    if progress is not None:
                        progress.advance(1)  # churned between the scans
                    continue
                yield index, site

        def settle(span, index, site, outcome) -> bool:
            if outcome.failed:
                span.set_tag("failed", 1)
            self._apply_outcome(partial, index, site, outcome, scan_index)
            return outcome.failed

        _visit_journaled(
            self.obs, present(indexed_sites), journal, progress, partial.fault_ledger,
            lambda site: self._scan_site(fetcher, site), settle,
            ZgrabSiteOutcome.from_dict,
        )
        return partial

    def _scan_site(self, fetcher: ZgrabFetcher, site: SiteSpec) -> ZgrabSiteOutcome:
        ledger = FaultLedger()
        result = fetcher.fetch_domain(site.domain, ledger=ledger)
        if not result.ok:
            return ZgrabSiteOutcome(failed=True, ledger=ledger)
        with self.obs.span("detect"):
            report = self.detector.detect_static(site.domain, result.body)
        return ZgrabSiteOutcome(
            nocoin_hit=report.nocoin_hit,
            labels=tuple(report.nocoin_rule_labels),
            ledger=ledger,
            evidence=tuple(report.evidence),
        )

    def _apply_outcome(
        self,
        partial: ZgrabScanPartial,
        index: int,
        site: SiteSpec,
        outcome: ZgrabSiteOutcome,
        scan_index: int,
    ) -> None:
        partial.domains_probed += 1
        stratum = site.stratum
        if stratum:
            partial.stratum_probed[stratum] += 1
        if outcome.failed:
            partial.fetch_failures += 1
            if stratum:
                partial.stratum_failures[stratum] += 1
        elif outcome.nocoin_hit:
            partial.nocoin_domains += 1
            if stratum:
                partial.stratum_hits[stratum] += 1
            for label in outcome.labels:
                partial.label_hits[label] += 1
        partial.fault_ledger.merge(outcome.ledger)
        if self.obs.enabled:
            # verdict + counters live here so resumed sites (which also
            # flow through _apply_outcome) stay indistinguishable from
            # fresh ones in the ledger and the detector.* namespace
            if outcome.nocoin_hit:
                self.obs.inc("detector.nocoin.static_hits")
                if stratum:
                    self.obs.inc(f"detector.nocoin.stratum.{stratum}.hits")
            record = VerdictRecord(
                subject=site.domain,
                dataset=self.population.spec.name,
                pipeline=f"zgrab{scan_index}",
                status="error" if outcome.failed else "ok",
                nocoin_hit=outcome.nocoin_hit,
                stratum=stratum,
                evidence=outcome.evidence,
            )
            _file_verdict(partial, index, self.population, site, record)

    def finalize_scan(self, partial: ZgrabScanPartial, scan_index: int = 0) -> ZgrabScanResult:
        """Turn (possibly merged) tallies into the Figure-2 result row."""
        spec = self.population.spec
        shares = {
            label: count / partial.nocoin_domains
            for label, count in _canonical_order(partial.label_hits).items()
        } if partial.nocoin_domains else {}
        # scale the detected count back up by the churned share so both
        # scans report against the same nominal zone size
        return ZgrabScanResult(
            dataset=spec.name,
            scan_date=spec.scan_dates[scan_index],
            domains_probed=partial.domains_probed,
            nocoin_domains=partial.nocoin_domains,
            script_shares=shares,
            paper_total_domains=spec.paper_total_domains,
            fetch_failures=partial.fetch_failures,
            stratum_rows=_stratum_rows(self.population, partial),
            verdicts=_population_order(partial.verdicts),
            graph=partial.graph if partial.graph else None,
        )


@dataclass
class ChromeCampaignResult:
    """Everything Tables 1–3 need from one Chrome crawl."""

    dataset: str
    reports: list[DetectionReport]
    signature_counts: Counter       # family → #sites with that miner (Table 1)
    total_wasm_sites: int
    miner_wasm_sites: int
    cross_tab: CrossTabulation      # Table 2
    nocoin_categories: Counter      # Table 3 left columns
    nocoin_categorized_fraction: float
    signature_categories: Counter   # Table 3 right columns
    signature_categorized_fraction: float
    #: per-site verdicts with evidence, population order; empty unless the
    #: campaign ran with observability enabled. Telemetry, not a result:
    #: excluded from equality so observed and bare runs stay comparable.
    verdicts: tuple = field(default=(), compare=False)
    #: attribution subgraph of this crawl; ``None`` on unobserved runs
    graph: Optional[Graph] = field(default=None, compare=False)


@dataclass
class ChromeRunPartial:
    """Additive tallies of a Chrome crawl over a subset of sites.

    ``reports`` carries the original population index of every site so that
    merged partials reassemble the report list in population order — the
    cross-tabulation and downstream consumers then see exactly the
    sequential ordering.
    """

    reports: list[tuple[int, DetectionReport]] = field(default_factory=list)
    signature_counts: Counter = field(default_factory=Counter)
    total_wasm_sites: int = 0
    miner_wasm_sites: int = 0
    nocoin_categories: Counter = field(default_factory=Counter)
    nocoin_total: int = 0
    nocoin_categorized: int = 0
    signature_categories: Counter = field(default_factory=Counter)
    signature_total: int = 0
    signature_categorized: int = 0
    fault_ledger: FaultLedger = field(default_factory=FaultLedger)
    #: ``(population index, VerdictRecord)`` pairs, observed runs only
    verdicts: list = field(default_factory=list)
    #: attribution subgraph, observed runs only; merge is the graph union
    graph: Graph = field(default_factory=Graph)

    def merge(self, other: "ChromeRunPartial") -> "ChromeRunPartial":
        self.reports.extend(other.reports)
        self.verdicts.extend(other.verdicts)
        self.graph.merge(other.graph)
        self.signature_counts.update(other.signature_counts)
        self.total_wasm_sites += other.total_wasm_sites
        self.miner_wasm_sites += other.miner_wasm_sites
        self.nocoin_categories.update(other.nocoin_categories)
        self.nocoin_total += other.nocoin_total
        self.nocoin_categorized += other.nocoin_categorized
        self.signature_categories.update(other.signature_categories)
        self.signature_total += other.signature_total
        self.signature_categorized += other.signature_categorized
        self.fault_ledger.merge(other.fault_ledger)
        return self


@dataclass(frozen=True)
class ChromeSiteOutcome(_JournalCodec):
    """One site's Chrome-visit detection report plus fault accounting."""

    report: DetectionReport
    ledger: FaultLedger = field(default_factory=FaultLedger)
    #: ``(name, tags)`` of the stage spans the visit opened, recorded only
    #: on observed journaled runs so a resume can replay the trace shape
    stage_spans: tuple = ()


@dataclass
class ChromeCampaign:
    """Runs the Section 3.2 pipeline over a population."""

    population: WebPopulation
    #: the page detector ``run_sites`` applies; a campaign that only
    #: finalizes merged partials needs none
    detector: Optional[PageDetector] = None
    browser_config: BrowserConfig = field(default_factory=BrowserConfig)
    rulespace: RuleSpaceEngine = field(default_factory=RuleSpaceEngine)
    #: observability hook (spans + stage histograms); defaults to disabled
    obs: Obs = field(default=NULL_OBS, repr=False)

    def run_sites(
        self,
        indexed_sites: Iterable[tuple[int, SiteSpec]],
        journal: Optional[CheckpointJournal] = None,
        progress=None,
    ) -> ChromeRunPartial:
        """Visit a subset of ``(population index, site)`` pairs.

        A fresh browser drives the subset; page-level randomness is keyed
        by URL (not visit order), so the outcome per site is the same no
        matter how sites are grouped into subsets. With a ``journal``,
        already-recorded sites are replayed instead of re-visited (see
        :meth:`ZgrabCampaign.scan_sites_indexed`).
        """
        browser = HeadlessBrowser(
            self.population.web,
            config=self.browser_config,
            behavior_registry=self.population.behavior_registry,
            obs=self.obs,
        )
        if self.obs.enabled:
            self.detector.collect_evidence = True
        partial = ChromeRunPartial()

        def settle(span, index, site, outcome) -> bool:
            if outcome.report.status != "ok":
                span.set_tag("status", outcome.report.status)
            self._apply_outcome(partial, index, site, outcome)
            return outcome.report.status == "error"

        _visit_journaled(
            self.obs, indexed_sites, journal, progress, partial.fault_ledger,
            lambda site: self._visit_site(browser, site), settle,
            ChromeSiteOutcome.from_dict,
        )
        return partial

    def _visit_site(self, browser: HeadlessBrowser, site: SiteSpec) -> ChromeSiteOutcome:
        ledger = FaultLedger()
        page = browser.visit(f"http://www.{site.domain}/")
        with self.obs.span("detect"):
            report = self.detector.detect_page(site.domain, page)
        kinds = [FaultKind(value) for value in page.fault_events]
        for kind in kinds:
            ledger.record_injection(kind)
        # a page that still produced a capture recovered from its injected
        # faults (degraded is not failed); an error page did not
        ledger.settle(kinds, recovered=page.status != "error")
        if page.status == "error" and page.error_class:
            ledger.record_observed(ErrorClass(page.error_class))
        return ChromeSiteOutcome(report=report, ledger=ledger)

    def _apply_outcome(
        self,
        partial: ChromeRunPartial,
        index: int,
        site: SiteSpec,
        outcome: ChromeSiteOutcome,
    ) -> None:
        report = outcome.report
        partial.reports.append((index, report))
        if report.wasm_present:
            partial.total_wasm_sites += 1
        if report.is_miner:
            partial.miner_wasm_sites += 1
            partial.signature_counts[self._display_family(report.miner.family)] += 1
        if report.nocoin_hit:
            partial.nocoin_total += 1
            labels = self.rulespace.classify_domain(site.domain)
            if labels:
                partial.nocoin_categorized += 1
                partial.nocoin_categories.update(labels[:1])
        if report.is_miner:
            partial.signature_total += 1
            labels = self.rulespace.classify_domain(site.domain)
            if labels:
                partial.signature_categorized += 1
                partial.signature_categories.update(labels[:1])
        partial.fault_ledger.merge(outcome.ledger)
        if self.obs.enabled:
            # verdicts + detector.* counters placed here (not in the visit)
            # so resumed sites count identically to fresh ones
            if report.nocoin_hit:
                self.obs.inc("detector.nocoin.hits")
            if report.wasm_present:
                self.obs.inc("detector.wasm.sites")
            if report.is_miner:
                self.obs.inc("detector.wasm.miners")
                self.obs.inc(f"detector.wasm.method.{report.miner.method}")
            if report.nocoin_false_positive:
                self.obs.inc("detector.nocoin.false_positives")
            if report.nocoin_false_negative:
                self.obs.inc("detector.nocoin.false_negatives")
            record = VerdictRecord(
                subject=site.domain,
                dataset=self.population.spec.name,
                pipeline="chrome",
                status=report.status,
                nocoin_hit=report.nocoin_hit,
                wasm_present=report.wasm_present,
                is_miner=report.is_miner,
                family=report.miner.family if report.miner is not None else "",
                method=report.miner.method if report.miner is not None else "",
                confidence=(
                    report.miner.confidence if report.miner is not None else 0.0
                ),
                evidence=report.evidence,
            )
            _file_verdict(partial, index, self.population, site, record)

    def finalize_run(self, partial: ChromeRunPartial) -> ChromeCampaignResult:
        """Assemble Tables 1–3 from (possibly merged) tallies."""
        ordered = list(_population_order(partial.reports))
        return ChromeCampaignResult(
            dataset=self.population.spec.name,
            reports=ordered,
            signature_counts=_canonical_order(partial.signature_counts),
            total_wasm_sites=partial.total_wasm_sites,
            miner_wasm_sites=partial.miner_wasm_sites,
            cross_tab=cross_tabulate(ordered),
            nocoin_categories=_canonical_order(partial.nocoin_categories),
            nocoin_categorized_fraction=(
                partial.nocoin_categorized / partial.nocoin_total
                if partial.nocoin_total else 0.0
            ),
            signature_categories=_canonical_order(partial.signature_categories),
            signature_categorized_fraction=(
                partial.signature_categorized / partial.signature_total
                if partial.signature_total else 0.0
            ),
            verdicts=_population_order(partial.verdicts),
            graph=partial.graph if partial.graph else None,
        )

    @staticmethod
    def _display_family(family: str) -> str:
        """Paper naming: the WebSocket-only class prints as UnknownWSS."""
        return "UnknownWSS" if family in ("unknown-wss", "unknown-miner") else family
