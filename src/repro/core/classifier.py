"""Miner classification.

Decision cascade, mirroring the paper's manual workflow made mechanical:

1. **Signature lookup** — a known assembly is classified by its database
   record (the common case once the catalogue is built).
2. **Name hints** — unknown modules exporting ``cryptonight``/``keccak``/
   …-flavoured names are miners of family "unknown" (the paper's
   "function name hinting at the hash function itself").
3. **Instruction-mix heuristic** — unknown, stripped modules: high
   XOR+shift+rotate density with near-zero float use and a scratchpad-sized
   memory is the CryptoNight profile.
4. **WebSocket-backend matching** — the paper categorized several
   assemblies "through their Websocket communication backend"; pages whose
   Wasm stays unknown but which talk to a known mining backend are
   classified by that backend (and genuinely unknown backends become the
   paper's ``UnknownWSS`` class).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core import fastpath
from repro.core.features import WasmFeatures, at_least, at_most
from repro.core.signatures import SignatureDatabase, SignatureRecord
from repro.wasm.decoder import WasmDecodeError

# Unused here; perfbench/tracing.py patches these names on this module.
from repro.core.features import extract_features  # noqa: F401
from repro.wasm.decoder import function_body_bytes  # noqa: F401

#: WebSocket URL substrings → family, the "communication backend" feature.
KNOWN_BACKENDS: tuple = (
    ("coinhive.com", "coinhive"),
    ("authedmine.com", "authedmine"),
    ("crypto-loot.com", "cryptoloot"),
    ("skencituer.com", "skencituer"),
    ("web.stati.bid", "web.stati.bid"),
    ("freecontent.date", "freecontent.date"),
    ("webminepool.com", "notgiven688"),
    ("wp-monero-miner.de", "wp-monero"),
    ("jsminer.example", "jsminer"),
)


@dataclass(frozen=True)
class Classification:
    """Outcome of classifying one Wasm dump (plus page context).

    This is the classifier layer's decision record: besides the verdict it
    keeps the values the deciding branch tested — the signature-db
    ``record`` and its ``function_hashes`` count, the instruction-mix
    ``checks`` and the matched ``backend`` ``(needle, url)`` — so evidence
    is rendered without re-running any of them. Those fields are excluded
    from equality.
    """

    is_miner: bool
    family: str
    method: str  # signature | name-hint | instruction-mix | backend | none
    confidence: float
    features: Optional[WasmFeatures] = None
    record: Optional[SignatureRecord] = field(default=None, compare=False)
    checks: tuple = field(default=(), compare=False)
    backend: tuple = field(default=(), compare=False)
    #: how many function hashes fed the matched signature
    function_hashes: int = field(default=0, compare=False)


@dataclass
class MinerClassifier:
    """The cascade classifier.

    Thresholds follow the CryptoNight workload profile: the real miner
    kernels are integer-only (float density ≈ 0), bit-operation dense, and
    need a multi-page scratchpad. ``compression``-style code is the hard
    negative: non-trivial XOR/shift density but small memory and no rotates.
    """

    database: SignatureDatabase = field(default_factory=SignatureDatabase)
    min_bitop_density: float = 0.09
    max_float_density: float = 0.02
    min_memory_pages: int = 16
    min_rotate_count: int = 4

    def classify_wasm(self, wasm_bytes: bytes, websocket_urls: tuple = ()) -> Classification:
        """Classify one captured module; ``websocket_urls`` give page context."""
        known = self.signature_match(wasm_bytes)
        if known is not None:
            return known
        try:
            features = fastpath.shared_cache().features(wasm_bytes)
        except WasmDecodeError:
            return Classification(False, "invalid", "none", 0.0)

        if features.has_hash_names():
            backend = self._backend(websocket_urls)
            family = backend[2] if backend else "unknown-miner"
            return Classification(True, family, "name-hint", 0.9, features)

        checks = self._mix_checks(features)
        if not all(check.ok for check in checks):
            return Classification(
                False, "benign", "instruction-mix", 0.7, features, checks=checks
            )
        backend = self._backend(websocket_urls)
        if backend:
            return Classification(
                True, backend[2], "backend", 0.85, features,
                checks=checks, backend=backend[:2],
            )
        if websocket_urls:
            return Classification(
                True, "unknown-wss", "instruction-mix", 0.75, features, checks=checks
            )
        return Classification(
            True, "unknown-miner", "instruction-mix", 0.6, features, checks=checks
        )

    def signature_match(self, wasm_bytes: bytes) -> Optional[Classification]:
        """The signature layer alone: the database record's decision, or
        None for a module the database does not know."""
        record = self.database.lookup(wasm_bytes)
        if record is None:
            return None
        return Classification(
            record.is_miner, record.family, "signature", 1.0,
            record=record,
            # memoized: lookup has just digested these bodies
            function_hashes=len(fastpath.shared_cache().bodies(wasm_bytes)),
        )

    def classify_page(self, wasm_dumps, websocket_urls: tuple = ()) -> list:
        """Classify every Wasm dump of one page visit."""
        return [self.classify_wasm(dump, websocket_urls) for dump in wasm_dumps]

    def page_decision(self, wasm_dumps, websocket_urls: tuple = ()) -> Optional[Classification]:
        """The classification that decides a page: its first miner, else
        its first dump's (so clean pages are explainable too); None for a
        page without dumps."""
        decisions = self.classify_page(wasm_dumps, websocket_urls)
        return next(
            (decision for decision in decisions if decision.is_miner),
            decisions[0] if decisions else None,
        )

    def _mix_checks(self, features: WasmFeatures) -> tuple:
        """The instruction-mix thresholds; a miner passes every one."""
        return (
            at_least("bitop_density", features.bitop_density, self.min_bitop_density, ".4f"),
            at_most("float_density", features.float_density, self.max_float_density, ".4f"),
            at_least("memory_pages", features.memory_pages, self.min_memory_pages),
            at_least("rotate_count", features.rotate_count, self.min_rotate_count),
        )

    @staticmethod
    def _backend(websocket_urls) -> tuple:
        """``(needle, url, family)`` of the first known backend, or ()."""
        for url in websocket_urls:
            for needle, family in KNOWN_BACKENDS:
                if needle in url:
                    return needle, url, family
        return ()
