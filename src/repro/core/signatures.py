"""Wasm fingerprinting (the paper's detection contribution).

    "We build signatures from the Wasm code by combining (in a strict
    order) and then hashing the contained functions with SHA256."
    — Section 3.2

A signature is therefore order-sensitive over the raw function bodies of
the code section. The :class:`SignatureDatabase` plays the role of the
paper's hand-built collection of ~160 categorized assemblies: it maps
signatures to family labels and answers lookups during crawls.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

from repro.core import fastpath
from repro.wasm.decoder import WasmDecodeError, function_body_bytes


def digest_bodies(bodies) -> str:
    """SHA-256 over length-prefixed function bodies — the digest both the
    ordered and unordered signatures (and their memoized
    :class:`~repro.core.fastpath.WasmCache` variants) are defined in terms
    of."""
    digest = hashlib.sha256()
    for body in bodies:
        digest.update(len(body).to_bytes(4, "little"))
        digest.update(body)
    return digest.hexdigest()


def wasm_signature(wasm_bytes: bytes) -> str:
    """SHA-256 signature over the module's function bodies in strict order.

    Raises :class:`~repro.wasm.decoder.WasmDecodeError` for non-wasm input.
    """
    return digest_bodies(function_body_bytes(wasm_bytes))


def unordered_signature(wasm_bytes: bytes) -> str:
    """Ablation variant: hash the *sorted* set of function bodies.

    Robust to function reordering (a cheap obfuscation), at the cost of a
    coarser identity. Compared against the paper's ordered signature in
    ``benchmarks/bench_ablation_signatures.py``.
    """
    return digest_bodies(sorted(function_body_bytes(wasm_bytes)))


def whole_module_signature(wasm_bytes: bytes) -> str:
    """Ablation variant: hash the entire binary.

    Breaks on any metadata change (name section, exports) even when the
    code is identical — the failure mode that motivates function-body
    hashing.
    """
    return hashlib.sha256(wasm_bytes).hexdigest()


@dataclass(frozen=True)
class SignatureRecord:
    """One catalogued assembly."""

    signature: str
    family: str
    is_miner: bool
    variant: int = 0
    note: str = ""


@dataclass
class SignatureDatabase:
    """The curated signature → family catalogue.

    Mirrors the paper's workflow: Wasm dumps are inspected (here: generated
    with known ground truth), categorized, and recorded; crawls then look
    captured modules up by signature.
    """

    records: dict = field(default_factory=dict)

    def add(self, record: SignatureRecord) -> None:
        existing = self.records.get(record.signature)
        if existing is not None and existing.family != record.family:
            raise ValueError(
                f"signature collision: {record.signature[:12]} is both "
                f"{existing.family} and {record.family}"
            )
        self.records[record.signature] = record

    def add_module(self, wasm_bytes: bytes, family: str, is_miner: bool, variant: int = 0, note: str = "") -> SignatureRecord:
        record = SignatureRecord(
            signature=wasm_signature(wasm_bytes),
            family=family,
            is_miner=is_miner,
            variant=variant,
            note=note,
        )
        self.add(record)
        return record

    def lookup(self, wasm_bytes: bytes) -> Optional[SignatureRecord]:
        """Find the record for a captured module, or None if unknown."""
        try:
            signature = fastpath.shared_cache().ordered_signature(wasm_bytes)
        except WasmDecodeError:
            return None
        return self.records.get(signature)

    def lookup_signature(self, signature: str) -> Optional[SignatureRecord]:
        return self.records.get(signature)

    def families(self) -> set:
        return {record.family for record in self.records.values()}

    def miner_signatures(self) -> set:
        return {sig for sig, rec in self.records.items() if rec.is_miner}

    def __len__(self) -> int:
        return len(self.records)

    # -- persistence -------------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            [
                {
                    "signature": rec.signature,
                    "family": rec.family,
                    "is_miner": rec.is_miner,
                    "variant": rec.variant,
                    "note": rec.note,
                }
                for rec in sorted(self.records.values(), key=lambda r: r.signature)
            ],
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "SignatureDatabase":
        database = cls()
        for item in json.loads(text):
            database.add(SignatureRecord(**item))
        return database


def build_reference_database(corpus_builder=None) -> SignatureDatabase:
    """Catalogue the full synthetic corpus (the paper's ~160 assemblies)."""
    from repro.wasm.builder import WasmCorpusBuilder, all_blueprints

    builder = corpus_builder if corpus_builder is not None else WasmCorpusBuilder()
    database = SignatureDatabase()
    for blueprint in all_blueprints():
        profile = blueprint.profile()
        database.add_module(
            builder.build(blueprint),
            family=profile.name,
            is_miner=profile.is_miner,
            variant=blueprint.variant,
        )
    return database
