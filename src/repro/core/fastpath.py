"""Batch/automaton hot paths for the detection cascade.

The straightforward detectors — rule-by-rule ``re.search`` loops, a fresh
wasm decode per lookup, a full DOM build per page — spend the entire wall
clock at paper scale (138M domains). This module provides the batched
implementations production runs:

- :class:`CompiledFilterSet` — a whole :class:`~repro.core.nocoin.FilterList`
  compiled into one alternation regex-set (plus an :class:`AhoCorasick`
  literal prefilter), matched once per URL/text instead of O(rules)
  searches, with match indices mapped back to the originating rule so
  evidence provenance (source, line number, matched span, exception
  handling) is unchanged;
- :class:`WasmCache` — a bounded content-hash LRU memoizing module
  decodes, function-body extraction, the three signature digests, the
  static features and the dynamic execution profile, one instance per
  process (shared by thread-mode shards).

Everything here is an *equivalence-preserving* rewrite: for any input it
must return byte-identical results to the straightforward reference
implementations, which live on as test oracles in ``tests/oracles/``.
``tests/test_fastpath_differential.py`` fuzzes production against them
with generated rules, URLs, inline text, and whole campaigns.

Correctness of the combined automaton rests on one observation: a
Python alternation match is found at the leftmost position ``p`` where
*any* alternative matches, taking the first alternative that matches at
``p``. The reference semantics is "first rule in *list order* matching
anywhere". So when alternative ``k`` wins the combined search, no rule
matches before position ``p``; rules ``j < k`` may still match at later
positions, so they are re-checked individually — but when the combined
search finds nothing, no automaton rule matches at all, which settles
the dominant (clean) case with a single C-speed scan.
"""

from __future__ import annotations

import hashlib
import re
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Optional

from repro.wasm.decoder import WasmDecodeError, decode_module, function_body_bytes
from repro.wasm.interp import InvalidCode, ResourceLimit

#: failures a :class:`WasmCache` field remembers: re-probing the same bytes
#: raises a fresh instance of the same class with the same message
_CACHED_ERRORS = (WasmDecodeError, InvalidCode, ResourceLimit)

# --------------------------------------------------------------------------
# Aho-Corasick literal automaton
# --------------------------------------------------------------------------


class AhoCorasick:
    """Multi-pattern literal matcher (the classic Aho–Corasick automaton).

    Built once over a set of needles; :meth:`occurring` reports which
    needles occur anywhere in a text with a single left-to-right pass,
    independent of needle count. Used as the prefilter that narrows the
    rule-candidate set for plain-pattern (literal) filter rules.
    """

    def __init__(self, needles) -> None:
        self._goto: list = [{}]
        out_sets: list = [set()]
        for needle_id, needle in enumerate(needles):
            node = 0
            for char in needle:
                nxt = self._goto[node].get(char)
                if nxt is None:
                    self._goto.append({})
                    out_sets.append(set())
                    nxt = len(self._goto) - 1
                    self._goto[node][char] = nxt
                node = nxt
            out_sets[node].add(needle_id)
        self._fail = [0] * len(self._goto)
        queue = deque(self._goto[0].values())
        while queue:
            node = queue.popleft()
            for char, nxt in self._goto[node].items():
                queue.append(nxt)
                fail = self._fail[node]
                while fail and char not in self._goto[fail]:
                    fail = self._fail[fail]
                target = self._goto[fail].get(char, 0)
                self._fail[nxt] = target if target != nxt else 0
                out_sets[nxt] |= out_sets[self._fail[nxt]]
        self._out = [frozenset(s) for s in out_sets]

    def occurring(self, text: str) -> set:
        """IDs of every needle occurring in ``text``, in one pass."""
        found: set = set()
        node = 0
        goto, fail, out = self._goto, self._fail, self._out
        for char in text:
            while node and char not in goto[node]:
                node = fail[node]
            node = goto[node].get(char, 0)
            if out[node]:
                found |= out[node]
        return found


# --------------------------------------------------------------------------
# Combined filter-list automaton
# --------------------------------------------------------------------------

#: ``(?`` constructs that are safe to embed in an alternation: they
#: introduce no capturing groups and no pattern-global flags. Anything
#: else (inline flags like ``(?i)``, named groups, conditionals) could
#: change the meaning of *other* alternatives and is kept residual.
_SAFE_PAREN = re.compile(r"\(\?(?![:=!<])")


def _embeddable(source: str, flags: int) -> bool:
    try:
        probe = re.compile(source, flags)
    except re.error:
        return False
    if probe.groups or probe.groupindex:
        return False
    return _SAFE_PAREN.search(source) is None


def _literal_needle(rule) -> Optional[str]:
    """A lowercase literal every URL matching ``rule`` must contain.

    Plain (non-``/regex/``) patterns are literal apart from ``*``
    (wildcard) and ``^`` (separator); the longest literal segment is
    therefore a necessary substring of any match. Returns ``None`` when
    no usable segment exists — such rules are always tested. Restricted
    to ASCII needles: for ASCII subjects, ``needle in url.lower()`` then
    coincides exactly with the matcher's ``re.IGNORECASE`` semantics.
    """
    if rule.regex is not None:
        return None
    segments = [s for s in re.split(r"[*^]", rule.pattern) if s]
    if not segments:
        return None
    needle = max(segments, key=len).lower()
    return needle if needle.isascii() else None


def _needle_index(compiled_rules):
    """Group rule indices under their required needle.

    Returns ``(needles, unfiltered)`` where ``needles`` is a tuple of
    ``(needle, rule_indices)`` pairs and ``unfiltered`` the indices with
    no extractable needle (they are tested on every subject).
    """
    by_needle: dict = {}
    unfiltered = []
    for index, compiled in enumerate(compiled_rules):
        needle = _literal_needle(compiled.rule)
        if needle is None:
            unfiltered.append(index)
        else:
            by_needle.setdefault(needle, []).append(index)
    return (
        tuple((needle, tuple(indices)) for needle, indices in by_needle.items()),
        tuple(unfiltered),
    )


def _combine_alternation(sources, flags):
    """Join regex sources into one named-group alternation.

    Returns ``(combined_pattern_or_None, group_name -> index, residual)``
    where ``residual`` holds indices of sources that could not be embedded
    safely — callers must keep matching those one-by-one.
    """
    residual = []
    safe = []
    for index, source in enumerate(sources):
        if _embeddable(source, flags):
            safe.append((index, source))
        else:
            residual.append(index)
    combined = None
    groups = {}
    if safe:
        alternation = "|".join(f"(?P<r{i}>{src})" for i, src in safe)
        try:
            combined = re.compile(alternation, flags)
            groups = {f"r{i}": i for i, _ in safe}
        except re.error:
            # A source that compiles alone but not embedded: admit
            # alternatives one at a time and residualize the failures.
            admitted = []
            for i, src in safe:
                candidate = admitted + [(i, src)]
                try:
                    re.compile(
                        "|".join(f"(?P<r{j}>{s})" for j, s in candidate), flags
                    )
                except re.error:
                    residual.append(i)
                    continue
                admitted = candidate
            if admitted:
                combined = re.compile(
                    "|".join(f"(?P<r{j}>{s})" for j, s in admitted), flags
                )
                groups = {f"r{j}": j for j, _ in admitted}
            residual.sort()
    return combined, groups, tuple(residual)


class CompiledFilterSet:
    """A whole filter list compiled for one-pass matching.

    Wraps the list's :class:`~repro.core.nocoin.CompiledRule` sequence
    (list order preserved) and answers the same three questions the
    reference loops answer — first URL match, any URL exception, first
    text match — returning ``(compiled_rule, matched_span)`` so the
    caller can build identical :class:`~repro.core.nocoin.FilterMatch`
    evidence.
    """

    def __init__(self, compiled_rules, compiled_exceptions) -> None:
        self._rules = list(compiled_rules)
        self._exceptions = list(compiled_exceptions)

        # URL plane, ASCII subjects (the overwhelming majority): a literal
        # prefilter. Each `needle in url.lower()` test is one C-speed
        # substring scan, and only rules whose needle occurs (plus the
        # needle-less few) pay an individual regex search — for a clean
        # URL that is zero regex work beyond the residue.
        self._url_needles, self._url_unfiltered = _needle_index(self._rules)
        self._exc_needles, self._exc_unfiltered = _needle_index(self._exceptions)

        # Non-ASCII subjects fall back to one combined named-group
        # alternation built from the exact regex source each rule's own
        # matcher compiled from (IGNORECASE on non-ASCII text does not
        # coincide with lowercase containment, so the prefilter is unsound
        # there).
        self._url_combined, self._url_groups, self._url_residual = (
            _combine_alternation(
                [c.matcher.pattern for c in self._rules], re.IGNORECASE
            )
        )
        self._exc_combined, _, exc_residual = _combine_alternation(
            [c.matcher.pattern for c in self._exceptions], re.IGNORECASE
        )
        self._exc_residual = exc_residual

        # Text plane. Domain-anchored rules match text by lowercase
        # substring containment of the pattern's pre-``^`` prefix; all
        # other rules reuse their URL matcher. Two prefilters cover the
        # clean case with one C-speed search each.
        anchor_alternatives = []
        plain_sources = []
        needle_by_rule = {}
        exact_needles = {}  # needle -> id, matched against text.lower()
        ascii_needles = {}  # literal plain rules; sound only for ASCII text
        for index, compiled in enumerate(self._rules):
            rule = compiled.rule
            if rule.regex is None and rule.domain_anchor:
                needle = rule.pattern.split("^")[0].lower()
                anchor_alternatives.append(re.escape(needle))
                if needle:
                    needle_by_rule[index] = ("exact", needle)
                    exact_needles.setdefault(needle, None)
            else:
                plain_sources.append(compiled.matcher.pattern)
                if (
                    rule.regex is None
                    and "*" not in rule.pattern
                    and "^" not in rule.pattern
                ):
                    needle = rule.pattern.lower()
                    if needle.isascii():
                        needle_by_rule[index] = ("ascii", needle)
                        ascii_needles.setdefault(needle, None)
        self._anchor_text_combined = (
            re.compile("|".join(anchor_alternatives)) if anchor_alternatives else None
        )
        self._plain_text_combined, _, plain_residual = _combine_alternation(
            plain_sources, re.IGNORECASE
        )
        # Map plain-plane residual positions back to rule indices.
        plain_rule_indices = [
            i
            for i, c in enumerate(self._rules)
            if not (c.rule.regex is None and c.rule.domain_anchor)
        ]
        self._text_residual = tuple(plain_rule_indices[p] for p in plain_residual)

        all_needles = list(exact_needles) + list(ascii_needles)
        self._needle_ids = {needle: i for i, needle in enumerate(all_needles)}
        self._ascii_gated = frozenset(
            self._needle_ids[n] for n in ascii_needles
        )
        self._rule_needle = {
            index: (self._needle_ids[needle], kind == "ascii")
            for index, (kind, needle) in needle_by_rule.items()
        }
        self._ac = AhoCorasick(all_needles) if all_needles else None

    # -- URL plane ---------------------------------------------------------

    def find_url(self, url: str) -> Optional[tuple]:
        """First rule (list order) matching ``url`` → ``(compiled, span)``.

        Exception rules are *not* consulted here — the caller applies
        them after, exactly like the reference loop does.
        """
        if url.isascii():
            lowered = url.lower()
            candidates = list(self._url_unfiltered)
            for needle, indices in self._url_needles:
                if needle in lowered:
                    candidates.extend(indices)
            if not candidates:
                return None
            candidates.sort()
            for j in candidates:
                span = self._rules[j].find_url(url)
                if span is not None:
                    return self._rules[j], span
            return None
        return self._find_url_combined(url)

    def _find_url_combined(self, url: str) -> Optional[tuple]:
        k = None
        k_span = None
        if self._url_combined is not None:
            found = self._url_combined.search(url)
            if found is not None:
                name = found.lastgroup
                if name is None:  # zero-width winner; locate it explicitly
                    name = next(
                        g for g, v in found.groupdict().items() if v is not None
                    )
                k = self._url_groups[name]
                k_span = found.group(0)
        if k is None:
            # No automaton rule matches anywhere; only residual rules can.
            for j in self._url_residual:
                span = self._rules[j].find_url(url)
                if span is not None:
                    return self._rules[j], span
            return None
        # Rules before the combined winner may match at later positions
        # and take precedence in list order.
        for j in range(k):
            span = self._rules[j].find_url(url)
            if span is not None:
                return self._rules[j], span
        return self._rules[k], k_span

    def any_exception_url(self, url: str) -> bool:
        if url.isascii():
            lowered = url.lower()
            if any(
                self._exceptions[j].matches_url(url)
                for j in self._exc_unfiltered
            ):
                return True
            for needle, indices in self._exc_needles:
                if needle in lowered and any(
                    self._exceptions[j].matches_url(url) for j in indices
                ):
                    return True
            return False
        if self._exc_combined is not None and self._exc_combined.search(url):
            return True
        return any(
            self._exceptions[j].matches_url(url) for j in self._exc_residual
        )

    # -- text plane --------------------------------------------------------

    def find_text(self, text: str) -> Optional[tuple]:
        """First rule (list order) matching inline text → ``(compiled, span)``."""
        lowered = None
        hit = False
        if self._anchor_text_combined is not None:
            lowered = text.lower()
            hit = self._anchor_text_combined.search(lowered) is not None
        if not hit and self._plain_text_combined is not None:
            hit = self._plain_text_combined.search(text) is not None
        if not hit:
            if not self._text_residual:
                return None
            candidates = self._text_residual
        else:
            candidates = self._text_candidates(text, lowered)
        if lowered is None:
            lowered = text.lower()
        for j in candidates:
            compiled = self._rules[j]
            span = compiled.find_text(text, lowered)
            if span is not None:
                return compiled, span
        return None

    def _text_candidates(self, text: str, lowered: Optional[str]):
        """Rule indices worth testing, narrowed by the literal prefilter.

        Anchored-rule needles are checked against ``text.lower()`` — the
        exact containment the rule itself tests, so skipping on absence
        is always sound. Plain literal rules match via ``re.IGNORECASE``
        on the original text, which coincides with lowercase containment
        only for ASCII text; non-ASCII text keeps every candidate.
        """
        if self._ac is None:
            return range(len(self._rules))
        if lowered is None:
            lowered = text.lower()
        present = self._ac.occurring(lowered)
        ascii_ok = text.isascii()
        candidates = []
        for j in range(len(self._rules)):
            gate = self._rule_needle.get(j)
            if gate is None:
                candidates.append(j)
                continue
            needle_id, needs_ascii = gate
            if needle_id in present or (needs_ascii and not ascii_ok):
                candidates.append(j)
        return candidates


# --------------------------------------------------------------------------
# Wasm decode/signature memo cache
# --------------------------------------------------------------------------

DEFAULT_CACHE_CAPACITY = 512


@dataclass
class CacheStats:
    """Hit/miss/eviction tallies with the registry merge law.

    Kept *off* the campaign's :class:`~repro.obs.metrics.MetricsRegistry`
    on purpose: hit counts depend on the executor and shard layout (one
    cache per process, shared by threads), so registering them would break
    ``metrics.json``'s byte-identity across executor modes. Cache
    telemetry lives beside the cache and merges across shards on its own.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def merge(self, other: "CacheStats") -> "CacheStats":
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        return self

    def as_registry(self):
        """The same tallies as ``fastpath.cache.*`` counters."""
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.inc("fastpath.cache.hits", self.hits)
        registry.inc("fastpath.cache.misses", self.misses)
        registry.inc("fastpath.cache.evictions", self.evictions)
        return registry


class WasmCache:
    """Bounded LRU memo for wasm decodes and signature digests.

    Keyed by content (SHA-256 of the raw bytes), so the many sites
    serving the *same* miner module — the paper's central observation —
    share one decode, one set of digests and one execution profile. The
    content hash doubles as the whole-module signature, making that digest
    free on every lookup. Failures are cached too, by class and message:
    garbage bytes fail fast on re-probe.
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: OrderedDict = OrderedDict()
        # Guards the LRU order and the stats: thread-mode shards share one
        # cache, and an eviction between get() and move_to_end() would
        # raise KeyError.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def _entry(self, wasm_bytes: bytes) -> tuple:
        digest = hashlib.sha256(wasm_bytes)
        key = digest.digest()
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry, True
        entry = {"whole": digest.hexdigest()}
        self._entries[key] = entry
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return entry, False

    def _field(self, wasm_bytes: bytes, name: str, compute):
        # The lock covers the bookkeeping only: ``compute`` may re-enter
        # the cache (a signature needs the bodies), and racing threads
        # that both miss just store the same deterministic value twice.
        with self._lock:
            entry, existed = self._entry(wasm_bytes)
            error = entry.get(name + "_error")
            hit = error is not None or (existed and name in entry)
            if hit:
                self.stats.hits += 1
            else:
                self.stats.misses += 1
        if error is not None:
            error_class, message = error
            raise error_class(message)
        if hit:
            return entry[name]
        if name not in entry:
            try:
                entry[name] = compute(entry)
            except _CACHED_ERRORS as exc:
                entry[name + "_error"] = (type(exc), str(exc))
                raise
        return entry[name]

    def module(self, wasm_bytes: bytes):
        """Decoded :class:`~repro.wasm.decoder.Module` (memoized)."""
        return self._field(
            wasm_bytes, "module", lambda entry: decode_module(wasm_bytes)
        )

    def bodies(self, wasm_bytes: bytes) -> list:
        """Raw function bodies in module order (memoized)."""
        return self._field(
            wasm_bytes, "bodies", lambda entry: function_body_bytes(wasm_bytes)
        )

    def ordered_signature(self, wasm_bytes: bytes) -> str:
        from repro.core.signatures import digest_bodies

        return self._field(
            wasm_bytes,
            "ordered",
            lambda entry: digest_bodies(self.bodies(wasm_bytes)),
        )

    def unordered_signature(self, wasm_bytes: bytes) -> str:
        from repro.core.signatures import digest_bodies

        return self._field(
            wasm_bytes,
            "unordered",
            lambda entry: digest_bodies(sorted(self.bodies(wasm_bytes))),
        )

    def whole_module_signature(self, wasm_bytes: bytes) -> str:
        return self._field(wasm_bytes, "whole", lambda entry: entry["whole"])

    def features(self, wasm_bytes: bytes):
        from repro.core.features import extract_features

        return self._field(
            wasm_bytes,
            "features",
            lambda entry: extract_features(self.module(wasm_bytes)),
        )

    def profile(self, wasm_bytes: bytes):
        """:func:`~repro.core.dynamic.profile_execution` of the decoded
        module at its default ``iterations`` and ``fuel`` (memoized).

        The profile, not a verdict, is what is kept: each detector applies
        its own thresholds to it. Running the module never writes to the
        shared :class:`~repro.wasm.types.Module`; the instance copies its
        memory and globals out.
        """
        from repro.core.dynamic import profile_execution

        return self._field(
            wasm_bytes,
            "profile",
            lambda entry: profile_execution(self.module(wasm_bytes)),
        )


#: One cache per process: thread-mode shards all share it (hence the lock
#: in :class:`WasmCache`); process-mode workers each get their own.
_shared_cache = WasmCache()


def shared_cache() -> WasmCache:
    return _shared_cache


def reset_shared_cache(capacity: int = DEFAULT_CACHE_CAPACITY) -> WasmCache:
    """Fresh shared cache (tests and long-lived services)."""
    global _shared_cache
    _shared_cache = WasmCache(capacity)
    return _shared_cache
