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
  :func:`~repro.web.html.extract_scripts`) into the running cascade for the
  duration of a ``with`` block.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Optional
from unittest import mock

from repro.core.features import extract_features
from repro.core.nocoin import FilterMatch, FilterRule
from repro.core.signatures import wasm_signature
from repro.wasm.decoder import decode_module, function_body_bytes
from repro.web.html import extract_scripts

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


# ---------------------------------------------------------------------------
# Swapping the oracles into the cascade
# ---------------------------------------------------------------------------

_FILTER_LIST_ORACLES = {
    "match_url": match_url,
    "match_text": match_text,
    "explain_url": explain_url,
    "explain_text": explain_text,
}


@contextmanager
def reference_paths():
    """Run the cascade on the reference implementations inside the block.

    Patches the four :class:`~repro.core.nocoin.FilterList` matchers, the
    detector's script scanner (``scan_scripts`` → ``extract_scripts``) and
    ``repro.core.fastpath.shared_cache`` (→ :class:`UncachedWasm`), and
    restores all of them on exit. Process-wide, like the state it
    replaces: run nothing concurrently with it.
    """
    with ExitStack() as stack:
        for name, oracle in _FILTER_LIST_ORACLES.items():
            stack.enter_context(
                mock.patch(f"repro.core.nocoin.FilterList.{name}", oracle)
            )
        stack.enter_context(
            mock.patch("repro.core.detector.scan_scripts", extract_scripts)
        )
        stack.enter_context(
            mock.patch("repro.core.fastpath.shared_cache", UncachedWasm)
        )
        yield
