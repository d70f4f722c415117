"""Reference implementations of the detection hot paths, kept as test oracles.

Production runs exactly one implementation per hot path: the combined
filter-list automaton, the content-hash wasm memo and the single-pass
script scanner (:mod:`repro.core.fastpath`, :func:`repro.web.html.scan_scripts`).
The straightforward versions they replaced live here, so the differential
tests and ``benchmarks/bench_perf_primitives.py`` can compare production
against an independent answer:

- :func:`match_url`, :func:`match_text`, :func:`explain_url` and
  :func:`explain_text` — the rule-by-rule :class:`~repro.core.nocoin.FilterList`
  loops, as functions of ``(filter_list, subject)``;
- :class:`UncachedWasm` — the :class:`~repro.core.fastpath.WasmCache`
  interface recomputed from scratch on every call;
- :func:`reference_paths` — swaps all of them (plus the DOM-building
  :func:`~repro.web.html.extract_scripts`, and the character-loop tag
  scans of :mod:`tests.oracles.web` under every DOM parse) into the
  running cascade for the duration of a ``with`` block.

Production also decides each cascade layer once and renders evidence from
that decision (:class:`~repro.core.detector.PageDetector`'s walk). The
detectors it replaced, each written twice — a bare answer and an explained
``(answer, Evidence)`` — live here too, as functions of the production
object whose thresholds they read:

- :func:`match_scripts` / :func:`explain_scripts` — the NoCoin script scan
  over the rule-by-rule matchers above;
- :func:`classify_wasm`, :func:`page_is_miner`, :func:`explain_wasm` and
  :func:`explain_page` — the classifier cascade, whose evidence repeats
  the signature lookup, the threshold tests and the backend match;
- :func:`dynamic_is_miner` / :func:`dynamic_explain` — the execution
  profile's threshold test, once per variant;
- :func:`attribute_explained` — block attribution walked a second time to
  build its Merkle-proof evidence;
- :class:`ReferencePageDetector` — the page detector with a bare and an
  explained branch per layer, built from all of the above.

``tests/test_cascade_differential.py`` checks the walk's verdict fields
and ``Evidence.to_dict()`` against them.

The wasm interpreter the dynamic detector used before it compiled function
bodies into handlers lives in :mod:`tests.oracles.wasm_interp`, checked by
``tests/test_wasm_compiled_differential.py``; the per-instruction
expression decoder the table-driven one replaced lives in
:mod:`tests.oracles.wasm_decoder`, checked by
``tests/test_wasm_decoder_differential.py``. The web registry's linear
host scan and the character-loop tag scans the HTML parser ran before its
regexes are :mod:`tests.oracles.web`, checked by
``tests/test_web_host_index.py`` and ``tests/test_web_html.py``; the
per-byte ``randbytes`` and the name-by-name ``derive_seed`` are
:mod:`tests.oracles.rng`, checked by ``tests/test_sim_rng.py``; and the
byte-at-a-time varint and transaction encoder is
:mod:`tests.oracles.blockchain`, checked by
``tests/test_blockchain_block.py``. The one-pass crawl loops every crawl
ran before the sharded executor became the only campaign API are
:mod:`tests.oracles.crawl` (``SequentialZgrabCampaign``,
``SequentialChromeCampaign``), checked against the executor by
``tests/test_parallel_executor.py``, ``tests/test_parallel_chrome.py``,
``tests/test_crawl_driver.py`` and the chaos suite.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Optional
from unittest import mock

from repro.core.classifier import KNOWN_BACKENDS, Classification
from repro.core.detector import (
    TIER_FULL,
    TIER_NO_CLASSIFIER,
    TIER_STATIC_ONLY,
    DetectionReport,
    _websocket_evidence,
)
from repro.core.dynamic import profile_execution
from repro.core.features import extract_features
from repro.core.nocoin import FilterMatch, FilterRule
from repro.core.pool_association import AttributedBlock
from repro.core.signatures import wasm_signature
from repro.obs.evidence import Evidence
from repro.wasm.decoder import WasmDecodeError, decode_module, function_body_bytes
from repro.wasm.interp import WasmTrap
from repro.web.html import HtmlParser
from tests.oracles.web import ReferenceParser, extract_scripts

# ---------------------------------------------------------------------------
# NoCoin filter list: rule-by-rule loops
# ---------------------------------------------------------------------------


def _matches_text(compiled, text: str, lowered: Optional[str] = None) -> bool:
    # inline text has no scheme; strip the URL anchor for text scans.
    # ``lowered`` lets list-level scans lower the document once
    # instead of once per rule.
    if compiled.rule.domain_anchor:
        if lowered is None:
            lowered = text.lower()
        return compiled.rule.pattern.split("^")[0].lower() in lowered
    return bool(compiled.matcher.search(text))


def match_url(filter_list, url: str) -> Optional[FilterRule]:
    for compiled in filter_list._compiled:
        if compiled.matches_url(url):
            if any(exc.matches_url(url) for exc in filter_list._exceptions):
                return None
            return compiled.rule
    return None


def match_text(filter_list, text: str) -> Optional[FilterRule]:
    if not text:
        return None
    lowered = text.lower()
    for compiled in filter_list._compiled:
        if _matches_text(compiled, text, lowered):
            return compiled.rule
    return None


def explain_url(filter_list, url: str) -> Optional[FilterMatch]:
    for compiled in filter_list._compiled:
        matched = compiled.find_url(url)
        if matched is not None:
            if any(exc.matches_url(url) for exc in filter_list._exceptions):
                return None
            return FilterMatch(
                rule=compiled.rule, where="url", subject=url, matched=matched
            )
    return None


def explain_text(filter_list, text: str) -> Optional[FilterMatch]:
    if not text:
        return None
    lowered = text.lower()
    for compiled in filter_list._compiled:
        matched = compiled.find_text(text, lowered)
        if matched is not None:
            subject = text if len(text) <= 120 else text[:117] + "..."
            return FilterMatch(
                rule=compiled.rule, where="text", subject=subject, matched=matched
            )
    return None


# ---------------------------------------------------------------------------
# Wasm: a cache that caches nothing
# ---------------------------------------------------------------------------


class UncachedWasm:
    """The :class:`~repro.core.fastpath.WasmCache` lookups the cascade
    uses, recomputed from the raw bytes on every call."""

    def module(self, wasm_bytes: bytes):
        return decode_module(wasm_bytes)

    def bodies(self, wasm_bytes: bytes) -> list:
        return function_body_bytes(wasm_bytes)

    def ordered_signature(self, wasm_bytes: bytes) -> str:
        return wasm_signature(wasm_bytes)

    def features(self, wasm_bytes: bytes):
        return extract_features(wasm_bytes)

    def profile(self, wasm_bytes: bytes):
        return profile_execution(wasm_bytes)


# ---------------------------------------------------------------------------
# Swapping the oracles into the cascade
# ---------------------------------------------------------------------------

_FILTER_LIST_ORACLES = {
    "match_url": match_url,
    "explain_url": explain_url,
    "explain_text": explain_text,
}


@contextmanager
def reference_paths():
    """Run the cascade on the reference implementations inside the block.

    Patches three :class:`~repro.core.nocoin.FilterList` matchers, the
    detector's script scanner (``scan_scripts`` → ``extract_scripts``),
    the tag scans of :class:`~repro.web.html.HtmlParser` (→ the character
    loops, so every DOM parse the browser and ``extract_scripts`` make
    shares no tag code with the scanner) and
    ``repro.core.fastpath.shared_cache`` (→ :class:`UncachedWasm`), and
    restores all of them on exit. Process-wide, like the state it
    replaces: run nothing concurrently with it.
    """
    with ExitStack() as stack:
        for name, oracle in _FILTER_LIST_ORACLES.items():
            stack.enter_context(
                mock.patch(f"repro.core.nocoin.FilterList.{name}", oracle)
            )
        for name in ("_find_tag_end", "_parse_tag_contents"):
            stack.enter_context(
                mock.patch.object(HtmlParser, name, getattr(ReferenceParser, name))
            )
        stack.enter_context(
            mock.patch("repro.core.detector.scan_scripts", extract_scripts)
        )
        stack.enter_context(
            mock.patch("repro.core.fastpath.shared_cache", UncachedWasm)
        )
        yield


# ---------------------------------------------------------------------------
# The cascade written twice: each detector's bare answer and its explained
# answer as separate code paths, the way PageDetector ran them before it
# became one walk over decision records. Signatures, features and bodies
# are recomputed from the raw bytes (no memo), so these share nothing with
# production beyond the data types, the threshold/backend constants and
# the execution profiler.
# ---------------------------------------------------------------------------


def match_scripts(filter_list, scripts) -> list:
    hits = []
    for src, inline in scripts:
        rule = None
        if src:
            rule = match_url(filter_list, src)
        if rule is None and inline:
            rule = match_text(filter_list, inline)
        if rule is not None:
            hits.append(rule)
    return hits


def explain_scripts(filter_list, scripts) -> list:
    matches = []
    for src, inline in scripts:
        match = None
        if src:
            match = explain_url(filter_list, src)
        if match is None and inline:
            match = explain_text(filter_list, inline)
        if match is not None:
            matches.append(match)
    return matches


def _lookup(classifier, wasm_bytes: bytes):
    try:
        return classifier.database.lookup_signature(wasm_signature(wasm_bytes))
    except WasmDecodeError:
        return None


def _mix_says_miner(classifier, features) -> bool:
    return (
        features.bitop_density >= classifier.min_bitop_density
        and features.float_density <= classifier.max_float_density
        and features.memory_pages >= classifier.min_memory_pages
        and features.rotate_count >= classifier.min_rotate_count
    )


def _family_from_backends(websocket_urls) -> Optional[str]:
    for url in websocket_urls:
        for needle, family in KNOWN_BACKENDS:
            if needle in url:
                return family
    return None


def _matched_backend(websocket_urls) -> tuple:
    for url in websocket_urls:
        for needle, _family in KNOWN_BACKENDS:
            if needle in url:
                return needle, url
    return None, None


def classify_wasm(classifier, wasm_bytes: bytes, websocket_urls: tuple = ()) -> Classification:
    record = _lookup(classifier, wasm_bytes)
    if record is not None:
        return Classification(
            is_miner=record.is_miner,
            family=record.family,
            method="signature",
            confidence=1.0,
        )
    try:
        features = extract_features(wasm_bytes)
    except WasmDecodeError:
        return Classification(False, "invalid", "none", 0.0)
    if features.has_hash_names():
        return Classification(
            True,
            _family_from_backends(websocket_urls) or "unknown-miner",
            "name-hint",
            0.9,
            features,
        )
    if _mix_says_miner(classifier, features):
        backend_family = _family_from_backends(websocket_urls)
        if backend_family is not None:
            return Classification(True, backend_family, "backend", 0.85, features)
        if websocket_urls:
            return Classification(True, "unknown-wss", "instruction-mix", 0.75, features)
        return Classification(True, "unknown-miner", "instruction-mix", 0.6, features)
    return Classification(False, "benign", "instruction-mix", 0.7, features)


def page_is_miner(classifier, wasm_dumps, websocket_urls: tuple = ()) -> Optional[Classification]:
    for dump in wasm_dumps:
        classification = classify_wasm(classifier, dump, websocket_urls)
        if classification.is_miner:
            return classification
    return None


def _threshold_details(classifier, features) -> tuple:
    return (
        (
            "bitop_density",
            f"{features.bitop_density:.4f} (>= {classifier.min_bitop_density} "
            f"{'ok' if features.bitop_density >= classifier.min_bitop_density else 'FAIL'})",
        ),
        (
            "float_density",
            f"{features.float_density:.4f} (<= {classifier.max_float_density} "
            f"{'ok' if features.float_density <= classifier.max_float_density else 'FAIL'})",
        ),
        (
            "memory_pages",
            f"{features.memory_pages} (>= {classifier.min_memory_pages} "
            f"{'ok' if features.memory_pages >= classifier.min_memory_pages else 'FAIL'})",
        ),
        (
            "rotate_count",
            f"{features.rotate_count} (>= {classifier.min_rotate_count} "
            f"{'ok' if features.rotate_count >= classifier.min_rotate_count else 'FAIL'})",
        ),
    )


def _evidence_for(classifier, classification, wasm_bytes: bytes, websocket_urls: tuple) -> Evidence:
    verdict = "miner" if classification.is_miner else "benign"
    if classification.method == "signature":
        record = _lookup(classifier, wasm_bytes)
        hashes = len(function_body_bytes(wasm_bytes))
        return Evidence(
            detector="signature",
            verdict=verdict,
            summary=(
                f"signature-db record {record.family!r} matched "
                f"({hashes} function hashes)"
            ),
            details=(
                ("signature", wasm_signature(wasm_bytes)),
                ("db_family", record.family),
                ("db_is_miner", str(record.is_miner)),
                ("db_variant", str(record.variant)),
                ("function_hashes", str(hashes)),
            ),
        )
    if classification.method == "none":
        return Evidence(
            detector="signature",
            verdict="invalid",
            summary="module did not decode; no classification possible",
            details=(("decodable", "False"),),
        )
    features = classification.features
    if classification.method == "name-hint":
        return Evidence(
            detector="name-hint",
            verdict=verdict,
            summary=(
                f"function names hint at PoW hashing: "
                f"{', '.join(features.name_hints[:4])}"
            ),
            details=tuple(("name_hint", name) for name in features.name_hints[:8]),
        )
    if classification.method == "backend":
        needle, url = _matched_backend(websocket_urls)
        return Evidence(
            detector="backend",
            verdict=verdict,
            summary=f"WebSocket backend {needle!r} identifies the family",
            details=(
                ("backend_needle", needle or ""),
                ("backend_url", url or ""),
                ("family", classification.family),
            ) + _threshold_details(classifier, features),
        )
    return Evidence(
        detector="instruction-mix",
        verdict=verdict,
        summary=(
            "instruction mix "
            + ("matches" if classification.is_miner else "does not match")
            + " the CryptoNight profile"
        ),
        details=_threshold_details(classifier, features)
        + (("websocket_urls", ",".join(websocket_urls)),),
    )


def explain_wasm(classifier, wasm_bytes: bytes, websocket_urls: tuple = ()) -> tuple:
    classification = classify_wasm(classifier, wasm_bytes, websocket_urls)
    return classification, _evidence_for(
        classifier, classification, wasm_bytes, websocket_urls
    )


def explain_page(classifier, wasm_dumps, websocket_urls: tuple = ()) -> tuple:
    first_benign = None
    for dump in wasm_dumps:
        classification, item = explain_wasm(classifier, dump, websocket_urls)
        if classification.is_miner:
            return classification, (item,)
        if first_benign is None:
            first_benign = (None, (item,))
    return first_benign if first_benign is not None else (None, ())


def _dynamic_verdict(detector, profile) -> bool:
    bitops = profile.xor_density + profile.shift_density
    return (
        profile.completed
        and profile.executed >= detector.min_executed
        and bitops >= detector.min_bitop_density
        and profile.float_density <= detector.max_float_density
        and profile.memory_pages >= detector.min_memory_pages
        and profile.rotate_count >= detector.min_rotate_count
    )


def dynamic_is_miner(detector, module_or_bytes) -> bool:
    try:
        profile = profile_execution(module_or_bytes)
    except (WasmDecodeError, WasmTrap):
        return False
    return _dynamic_verdict(detector, profile)


def dynamic_explain(detector, module_or_bytes) -> tuple:
    try:
        profile = profile_execution(module_or_bytes)
    except (WasmDecodeError, WasmTrap) as exc:
        return False, Evidence(
            detector="dynamic",
            verdict="invalid",
            summary=f"module failed to execute ({type(exc).__name__})",
            details=(("error", type(exc).__name__),),
        )
    bitops = profile.xor_density + profile.shift_density
    verdict = _dynamic_verdict(detector, profile)
    checks = (
        (
            "executed",
            f"{profile.executed} (>= {detector.min_executed} "
            f"{'ok' if profile.executed >= detector.min_executed else 'FAIL'})",
        ),
        ("completed", str(profile.completed)),
        (
            "executed_bitop_density",
            f"{bitops:.4f} (>= {detector.min_bitop_density} "
            f"{'ok' if bitops >= detector.min_bitop_density else 'FAIL'})",
        ),
        (
            "executed_float_density",
            f"{profile.float_density:.4f} (<= {detector.max_float_density} "
            f"{'ok' if profile.float_density <= detector.max_float_density else 'FAIL'})",
        ),
        (
            "memory_pages",
            f"{profile.memory_pages} (>= {detector.min_memory_pages} "
            f"{'ok' if profile.memory_pages >= detector.min_memory_pages else 'FAIL'})",
        ),
        (
            "executed_rotate_count",
            f"{profile.rotate_count} (>= {detector.min_rotate_count} "
            f"{'ok' if profile.rotate_count >= detector.min_rotate_count else 'FAIL'})",
        ),
    )
    return verdict, Evidence(
        detector="dynamic",
        verdict="miner" if verdict else "benign",
        summary=(
            "executed instruction stream "
            + ("matches" if verdict else "does not match")
            + " the CryptoNight profile"
        ),
        details=checks,
    )


def attribute_explained(chain, clusters: dict) -> list:
    """``(AttributedBlock, Evidence)`` pairs, sorted by height, from a
    second walk over the chain."""
    explained: list = []
    for prev_id, merkle_roots in clusters.items():
        block = chain.block_after(prev_id)
        if block is None:
            continue
        root = block.merkle_root()
        if root in merkle_roots:
            height = chain.height_of(block)
            attributed = AttributedBlock(
                height=height,
                timestamp=block.header.timestamp,
                reward_atomic=block.reward(),
                merkle_root=root,
                cluster_id=prev_id,
            )
            evidence = Evidence(
                detector="pool",
                verdict="attributed",
                summary=(
                    f"block {height}: mined Merkle root matches a PoW input "
                    f"observed for cluster {prev_id.hex()[:16]}"
                ),
                details=(
                    ("cluster_id", prev_id.hex()),
                    ("prev_block_pointer", prev_id.hex()),
                    ("merkle_root", root.hex()),
                    ("cluster_roots_observed", str(len(merkle_roots))),
                    ("height", str(height)),
                ),
            )
            explained.append((attributed, evidence))
    explained.sort(key=lambda pair: pair[0].height)
    return explained


@dataclass
class ReferencePageDetector:
    """:class:`~repro.core.detector.PageDetector` with a bare and an
    explained branch per layer, picked by ``collect_evidence``."""

    nocoin: object
    classifier: object
    collect_evidence: bool = False

    def detect_static(self, domain: str, html: str) -> DetectionReport:
        report = DetectionReport(domain=domain)
        self._apply_nocoin(report, html)
        return report

    def detect_page(self, domain: str, page_result) -> DetectionReport:
        report = DetectionReport(domain=domain, status=page_result.status)
        if page_result.status == "error":
            report.status = "error"
            return report
        self._apply_nocoin(report, page_result.final_html)
        report.websocket_urls = tuple(sorted(page_result.websocket_urls()))
        report.wasm_present = page_result.has_wasm()
        if report.wasm_present:
            if self.collect_evidence:
                report.miner, wasm_evidence = explain_page(
                    self.classifier, page_result.wasm_dumps, report.websocket_urls
                )
                report.evidence = report.evidence + wasm_evidence
            else:
                report.miner = page_is_miner(
                    self.classifier, page_result.wasm_dumps, report.websocket_urls
                )
        if self.collect_evidence and page_result.websocket_frames:
            report.evidence = report.evidence + (
                _websocket_evidence(page_result.websocket_frames),
            )
        return report

    def detect_request(
        self, domain: str, html: str, wasm_dumps=(), websocket_urls=(),
        tier: str = TIER_FULL, dynamic=None,
    ) -> DetectionReport:
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
            report.miner, wasm_evidence = explain_page(
                self.classifier, wasm_dumps, report.websocket_urls
            )
            report.evidence = report.evidence + wasm_evidence
        else:
            report.miner = page_is_miner(
                self.classifier, wasm_dumps, report.websocket_urls
            )
        if tier == TIER_FULL and dynamic is not None and not report.is_miner:
            self._apply_dynamic(report, wasm_dumps, dynamic)
        return report

    def _signature_only(self, report: DetectionReport, wasm_dumps) -> None:
        for dump in wasm_dumps:
            record = _lookup(self.classifier, dump)
            if record is None or not record.is_miner:
                continue
            report.miner = Classification(
                is_miner=True, family=record.family, method="signature", confidence=1.0
            )
            if self.collect_evidence:
                _, evidence = explain_wasm(self.classifier, dump, report.websocket_urls)
                report.evidence = report.evidence + (evidence,)
            return

    def _apply_dynamic(self, report: DetectionReport, wasm_dumps, dynamic) -> None:
        for dump in wasm_dumps:
            if self.collect_evidence:
                is_miner, evidence = dynamic_explain(dynamic, dump)
                report.evidence = report.evidence + (evidence,)
            else:
                is_miner = dynamic_is_miner(dynamic, dump)
            if is_miner:
                report.miner = Classification(
                    is_miner=True, family="unknown-miner", method="dynamic", confidence=0.8
                )
                return

    def _apply_nocoin(self, report: DetectionReport, html: str) -> None:
        scripts = extract_scripts(html)
        if self.collect_evidence:
            matches = explain_scripts(self.nocoin, scripts)
            if matches:
                report.nocoin_hit = True
                report.nocoin_rule_labels = tuple(
                    dict.fromkeys(m.rule.label or m.rule.raw for m in matches)
                )
                report.evidence = report.evidence + tuple(
                    _nocoin_evidence(match) for match in matches
                )
            return
        hits = match_scripts(self.nocoin, scripts)
        if hits:
            report.nocoin_hit = True
            report.nocoin_rule_labels = tuple(
                dict.fromkeys(rule.label or rule.raw for rule in hits)
            )


def _nocoin_evidence(match) -> Evidence:
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
