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
from repro.core.features import WasmFeatures
from repro.core.signatures import SignatureDatabase
from repro.obs.evidence import Evidence
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
    """Outcome of classifying one Wasm dump (plus page context)."""

    is_miner: bool
    family: str
    method: str  # signature | name-hint | instruction-mix | backend | none
    confidence: float
    features: Optional[WasmFeatures] = None


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
        record = self.database.lookup(wasm_bytes)
        if record is not None:
            return Classification(
                is_miner=record.is_miner,
                family=record.family,
                method="signature",
                confidence=1.0,
            )
        try:
            features = fastpath.shared_cache().features(wasm_bytes)
        except WasmDecodeError:
            return Classification(False, "invalid", "none", 0.0)

        if features.has_hash_names():
            return Classification(
                True,
                self._family_from_backends(websocket_urls) or "unknown-miner",
                "name-hint",
                0.9,
                features,
            )

        if self._mix_says_miner(features):
            backend_family = self._family_from_backends(websocket_urls)
            if backend_family is not None:
                return Classification(True, backend_family, "backend", 0.85, features)
            if websocket_urls:
                return Classification(True, "unknown-wss", "instruction-mix", 0.75, features)
            return Classification(True, "unknown-miner", "instruction-mix", 0.6, features)

        return Classification(False, "benign", "instruction-mix", 0.7, features)

    def classify_page(self, wasm_dumps, websocket_urls: tuple = ()) -> list:
        """Classify every Wasm dump of one page visit."""
        return [self.classify_wasm(dump, websocket_urls) for dump in wasm_dumps]

    def page_is_miner(self, wasm_dumps, websocket_urls: tuple = ()) -> Optional[Classification]:
        """The first miner classification on a page, or None."""
        for classification in self.classify_page(wasm_dumps, websocket_urls):
            if classification.is_miner:
                return classification
        return None

    # -- explained classification (evidence provenance) ----------------------------

    def explain_wasm(
        self, wasm_bytes: bytes, websocket_urls: tuple = ()
    ) -> tuple:
        """``(classification, evidence)`` for one module.

        The evidence cites the concrete branch of the cascade that decided:
        the signature-db record (and how many function hashes fed the
        signature), the name hints found, or each instruction-mix feature
        value against the threshold it was tested on.
        """
        classification = self.classify_wasm(wasm_bytes, websocket_urls)
        return classification, self._evidence_for(
            classification, wasm_bytes, websocket_urls
        )

    def explain_page(
        self, wasm_dumps, websocket_urls: tuple = ()
    ) -> tuple:
        """``(first miner classification or None, evidence tuple)``.

        Mirrors :meth:`page_is_miner`: the verdict is the first miner hit,
        and the evidence explains that dump — or, on an all-benign page,
        the first dump's benign decision (so clean pages are explainable
        too).
        """
        first_benign = None
        for dump in wasm_dumps:
            classification, item = self.explain_wasm(dump, websocket_urls)
            if classification.is_miner:
                return classification, (item,)
            if first_benign is None:
                first_benign = (None, (item,))
        return first_benign if first_benign is not None else (None, ())

    def _evidence_for(
        self, classification: Classification, wasm_bytes: bytes, websocket_urls: tuple
    ) -> Evidence:
        verdict = "miner" if classification.is_miner else "benign"
        if classification.method == "signature":
            record = self.database.lookup(wasm_bytes)
            cache = fastpath.shared_cache()
            hashes = len(cache.bodies(wasm_bytes))
            signature = cache.ordered_signature(wasm_bytes)
            return Evidence(
                detector="signature",
                verdict=verdict,
                summary=(
                    f"signature-db record {record.family!r} matched "
                    f"({hashes} function hashes)"
                ),
                details=(
                    ("signature", signature),
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
                details=tuple(
                    ("name_hint", name) for name in features.name_hints[:8]
                ),
            )
        if classification.method == "backend":
            needle, url = self._matched_backend(websocket_urls)
            return Evidence(
                detector="backend",
                verdict=verdict,
                summary=f"WebSocket backend {needle!r} identifies the family",
                details=(
                    ("backend_needle", needle or ""),
                    ("backend_url", url or ""),
                    ("family", classification.family),
                ) + self._threshold_details(features),
            )
        # instruction-mix: cite each feature value against its threshold
        return Evidence(
            detector="instruction-mix",
            verdict=verdict,
            summary=(
                "instruction mix "
                + ("matches" if classification.is_miner else "does not match")
                + " the CryptoNight profile"
            ),
            details=self._threshold_details(features)
            + (("websocket_urls", ",".join(websocket_urls)),),
        )

    def _threshold_details(self, features: WasmFeatures) -> tuple:
        """Each feature value next to the threshold it was tested against."""
        return (
            (
                "bitop_density",
                f"{features.bitop_density:.4f} (>= {self.min_bitop_density} "
                f"{'ok' if features.bitop_density >= self.min_bitop_density else 'FAIL'})",
            ),
            (
                "float_density",
                f"{features.float_density:.4f} (<= {self.max_float_density} "
                f"{'ok' if features.float_density <= self.max_float_density else 'FAIL'})",
            ),
            (
                "memory_pages",
                f"{features.memory_pages} (>= {self.min_memory_pages} "
                f"{'ok' if features.memory_pages >= self.min_memory_pages else 'FAIL'})",
            ),
            (
                "rotate_count",
                f"{features.rotate_count} (>= {self.min_rotate_count} "
                f"{'ok' if features.rotate_count >= self.min_rotate_count else 'FAIL'})",
            ),
        )

    def _matched_backend(self, websocket_urls) -> tuple:
        for url in websocket_urls:
            for needle, _family in KNOWN_BACKENDS:
                if needle in url:
                    return needle, url
        return None, None

    # -- internals -----------------------------------------------------------------

    def _mix_says_miner(self, features: WasmFeatures) -> bool:
        return (
            features.bitop_density >= self.min_bitop_density
            and features.float_density <= self.max_float_density
            and features.memory_pages >= self.min_memory_pages
            and features.rotate_count >= self.min_rotate_count
        )

    @staticmethod
    def _family_from_backends(websocket_urls) -> Optional[str]:
        for url in websocket_urls:
            for needle, family in KNOWN_BACKENDS:
                if needle in url:
                    return family
        return None
