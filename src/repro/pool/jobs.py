"""Block templates and mining jobs.

A *template* is the pool's candidate next block: its own coinbase (with a
backend-specific extra nonce) plus mempool transactions. A *job* is the
hashing blob of that template plus a share target. Because the coinbase is
the first Merkle leaf, every distinct extra nonce yields a distinct Merkle
root — the uniqueness property the paper's pool-association method exploits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.blockchain.block import Block, BlockHeader, hashing_blob
from repro.blockchain.merkle import tree_hash
from repro.blockchain.transactions import Transaction, coinbase_transaction


@dataclass(frozen=True)
class BlockTemplate:
    """One candidate block a pool backend is currently working on."""

    height: int
    header: BlockHeader
    transactions: tuple  # coinbase first
    network_difficulty: int

    @property
    def coinbase(self) -> Transaction:
        return self.transactions[0]

    def merkle_root(self) -> bytes:
        return tree_hash([tx.hash() for tx in self.transactions])

    def blob(self) -> bytes:
        """The PoW input distributed to miners (nonce field zeroed)."""
        return hashing_blob(self.header, self.merkle_root(), len(self.transactions))

    def to_block(self, nonce: int) -> Block:
        """Materialize the full block for a winning nonce."""
        return Block(
            header=self.header.with_nonce(nonce),
            transactions=self.transactions,
        )


def build_template(
    chain,
    pool_address: str,
    extra_nonce: bytes,
    timestamp: int,
    mempool=None,
    max_txs: int = 32,
) -> BlockTemplate:
    """Construct a template on top of the current chain tip."""
    height = chain.height + 1
    reward = chain.current_reward()
    coinbase = coinbase_transaction(height, reward, pool_address, extra_nonce)
    txs: list[Transaction] = [coinbase]
    if mempool is not None:
        txs.extend(mempool.take(max_txs))
    header = BlockHeader(
        major=chain.tip.header.major,
        minor=chain.tip.header.minor,
        timestamp=int(timestamp),
        prev_id=chain.tip.block_id(),
        nonce=0,
    )
    return BlockTemplate(
        height=height,
        header=header,
        transactions=tuple(txs),
        network_difficulty=chain.current_difficulty(),
    )


@dataclass(frozen=True)
class Job:
    """A unit of work handed to one miner connection."""

    job_id: str
    blob: bytes
    share_difficulty: int
    template: BlockTemplate = field(compare=False)

    @staticmethod
    def make_id(blob: bytes, counter: int) -> str:
        return hashlib.sha256(blob + counter.to_bytes(8, "little")).hexdigest()[:16]


def parse_blob(blob: bytes) -> tuple:
    """Split a hashing blob into ``(header_fields, prev_id, nonce, merkle_root, num_txs)``.

    This is what an outside observer can always do: the blob layout is fixed
    by consensus (see :mod:`repro.blockchain.block`).
    """
    from repro.blockchain import varint

    pos = 0
    major, pos = varint.decode(blob, pos)
    minor, pos = varint.decode(blob, pos)
    timestamp, pos = varint.decode(blob, pos)
    prev_id = blob[pos : pos + 32]
    pos += 32
    nonce = int.from_bytes(blob[pos : pos + 4], "little")
    pos += 4
    merkle_root = blob[pos : pos + 32]
    pos += 32
    num_txs, pos = varint.decode(blob, pos)
    if pos != len(blob):
        raise ValueError("trailing bytes in hashing blob")
    return (major, minor, timestamp), prev_id, nonce, merkle_root, num_txs
