"""Transactions and the coinbase.

The reproduction does not need Monero's ring signatures — what matters for
the pool-association method is that (a) every transaction has a stable
32-byte hash, (b) the coinbase transaction pays the block reward to a
specific address (the pool's), and (c) the coinbase is the first Merkle
leaf. Amounts are in atomic units (1 XMR = 10^12 atomic units), matching
Monero's piconero granularity.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from repro.blockchain import varint

ATOMIC_PER_XMR = 10**12


@dataclass(frozen=True)
class Transaction:
    """A transfer (or coinbase) transaction.

    ``extra`` carries arbitrary bytes — pools use it for their extra nonce,
    which is exactly why two pools (or two backends of one pool) never
    produce the same coinbase hash, and hence never the same Merkle root.

    The hash is computed on first use and kept: a transaction never changes
    after construction, and ``dataclasses.replace`` starts a fresh cache.
    """

    version: int
    unlock_time: int
    inputs: tuple            # for coinbase: ("gen", height)
    outputs: tuple           # ((amount_atomic, address), ...)
    extra: bytes = b""
    is_coinbase: bool = False
    _hash: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    def serialize(self) -> bytes:
        out = bytearray()
        out += varint.encode(self.version)
        out += varint.encode(self.unlock_time)
        out += varint.encode(len(self.inputs))
        for txin in self.inputs:
            if txin[0] == "gen":
                out += b"\xff"  # txin_gen tag
                out += varint.encode(txin[1])
            else:
                out += b"\x02"  # txin_to_key tag (simplified)
                key_image = txin[1]
                out += key_image if isinstance(key_image, bytes) else str(key_image).encode()
        out += varint.encode(len(self.outputs))
        for amount, address in self.outputs:
            out += varint.encode(amount)
            raw = address.encode("utf-8") if isinstance(address, str) else address
            out += varint.encode(len(raw)) + raw
        out += varint.encode(len(self.extra)) + self.extra
        return bytes(out)

    def hash(self) -> bytes:
        """32-byte transaction hash (SHA3-256 of the serialization)."""
        if self._hash is None:
            object.__setattr__(self, "_hash", hashlib.sha3_256(self.serialize()).digest())
        return self._hash

    def total_output(self) -> int:
        return sum(amount for amount, _ in self.outputs)


def coinbase_transaction(
    height: int, reward_atomic: int, miner_address: str, extra_nonce: bytes = b""
) -> Transaction:
    """Build the coinbase (miner reward) transaction for ``height``.

    ``extra_nonce`` differentiates pool backends: a pool stuffs its own
    bytes into ``tx.extra``, changing the coinbase hash and thereby the
    Merkle root of every block template it hands to miners.
    """
    if reward_atomic <= 0:
        raise ValueError("coinbase reward must be positive")
    return Transaction(
        version=2,
        unlock_time=height + 60,  # Monero: coinbase locked for 60 blocks
        inputs=(("gen", height),),
        outputs=((reward_atomic, miner_address),),
        extra=extra_nonce,
        is_coinbase=True,
    )


@dataclass
class TransferFactory:
    """Generates plausible pending transfers for the mempool.

    Addresses and key images are drawn from a seeded stream; a monotone
    counter guarantees distinct hashes even for identical parameters.
    """

    rng: object  # RngStream
    _counter: int = field(default=0)

    def make(self, amount_atomic: int | None = None) -> Transaction:
        self._counter += 1
        amount = amount_atomic if amount_atomic is not None else self.rng.randint(1, 500) * (ATOMIC_PER_XMR // 100)
        key_image = self.rng.randbytes(32)
        dest = f"moneroaddr{self.rng.getrandbits(48):012x}"
        return Transaction(
            version=2,
            unlock_time=0,
            inputs=(("key", key_image),),
            outputs=((amount, dest),),
            extra=self._counter.to_bytes(8, "little"),
        )
