"""Block and header serialization (Monero layout).

The *hashing blob* is the PoW input the paper keeps dissecting (Figure 1):

    varint(major) ∥ varint(minor) ∥ varint(timestamp) ∥ prev_id(32)
    ∥ nonce(4, little-endian)  ← the miner's search space
    ∥ merkle_root(32) ∥ varint(num_transactions)

Pools distribute this blob to miners; miners only ever vary the 4-byte
nonce. For contemporary timestamps the varint lengths are fixed, putting the
nonce at byte offset 39 — which is why Coinhive's obfuscation ("a simple XOR
with a fixed value at a fixed offset", Section 4.1) works at all.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from repro.blockchain import varint
from repro.blockchain.hashing import CryptonightParams, DEFAULT_PARAMS, cryptonight
from repro.blockchain.merkle import tree_hash
from repro.blockchain.transactions import Transaction

#: Nonce offset in the hashing blob for contemporary (5-byte-varint)
#: timestamps — the "fixed offset" of Coinhive's countermeasure.
NONCE_OFFSET = 1 + 1 + 5 + 32

MAJOR_VERSION = 7  # Monero v7 (the CryptoNight-v1 era the paper measured)
MINOR_VERSION = 7


@dataclass(frozen=True)
class BlockHeader:
    """Immutable block header; ``nonce`` is the only PoW-variable field."""

    major: int
    minor: int
    timestamp: int
    prev_id: bytes
    nonce: int = 0

    def __post_init__(self) -> None:
        if len(self.prev_id) != 32:
            raise ValueError("prev_id must be 32 bytes")
        if not 0 <= self.nonce < 2**32:
            raise ValueError("nonce must fit 4 bytes")

    def serialize(self) -> bytes:
        out = bytearray()
        out += varint.encode(self.major)
        out += varint.encode(self.minor)
        out += varint.encode(self.timestamp)
        out += self.prev_id
        out += self.nonce.to_bytes(4, "little")
        return bytes(out)

    def with_nonce(self, nonce: int) -> "BlockHeader":
        # the constructor, not dataclasses.replace: the same header and the
        # same __post_init__ checks, without re-reading the field list
        return BlockHeader(self.major, self.minor, self.timestamp, self.prev_id, nonce)

    def nonce_offset(self) -> int:
        """Byte offset of the nonce in the serialized header/blob."""
        return (
            len(varint.encode(self.major))
            + len(varint.encode(self.minor))
            + len(varint.encode(self.timestamp))
            + 32
        )


def hashing_blob(header: BlockHeader, merkle_root: bytes, num_txs: int) -> bytes:
    """Assemble the PoW input for a block template."""
    if len(merkle_root) != 32:
        raise ValueError("merkle_root must be 32 bytes")
    if num_txs < 1:
        raise ValueError("a block contains at least the coinbase")
    return header.serialize() + merkle_root + varint.encode(num_txs)


def set_blob_nonce(blob: bytes, header: BlockHeader, nonce: int) -> bytes:
    """Return ``blob`` with its embedded nonce replaced (miner inner loop)."""
    offset = header.nonce_offset()
    return blob[:offset] + nonce.to_bytes(4, "little") + blob[offset + 4 :]


@dataclass(frozen=True)
class Block:
    """A full block: header plus ordered transactions (coinbase first).

    Immutable: ``transactions`` is stored as a tuple, and the Merkle root
    and block id are computed on first use and kept. The two caches are
    not ``__init__`` fields, so ``dataclasses.replace`` never carries a
    stale root or id into the new block.
    """

    header: BlockHeader
    transactions: tuple = ()
    _merkle_cache: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)
    _id_cache: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "transactions", tuple(self.transactions))
        if not self.transactions:
            raise ValueError("block must contain a coinbase transaction")
        if not self.transactions[0].is_coinbase:
            raise ValueError("first transaction must be the coinbase")

    @property
    def coinbase(self) -> Transaction:
        return self.transactions[0]

    def tx_hashes(self) -> list:
        return [tx.hash() for tx in self.transactions]

    def merkle_root(self) -> bytes:
        if self._merkle_cache is None:
            object.__setattr__(self, "_merkle_cache", tree_hash(self.tx_hashes()))
        return self._merkle_cache

    def hashing_blob(self) -> bytes:
        return hashing_blob(self.header, self.merkle_root(), len(self.transactions))

    def pow_hash(self, params: CryptonightParams = DEFAULT_PARAMS) -> bytes:
        """CryptoNight PoW hash of this block's hashing blob."""
        return cryptonight(self.hashing_blob(), params)

    def block_id(self) -> bytes:
        """Block identifier: fast hash of the hashing blob (Monero-style).

        Distinct from the PoW hash — the chain links blocks by id, while the
        difficulty test applies to the (slow) PoW hash.
        """
        if self._id_cache is None:
            object.__setattr__(
                self, "_id_cache", hashlib.sha3_256(b"blockid" + self.hashing_blob()).digest()
            )
        return self._id_cache

    def reward(self) -> int:
        return self.coinbase.total_output()

    def miner_address(self) -> str:
        return self.coinbase.outputs[0][1]
