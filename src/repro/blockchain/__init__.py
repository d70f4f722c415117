"""Monero-like blockchain substrate.

The paper's pool-association method (Section 4.2) needs a real chain to
verify against: PoW inputs reference the previous block and commit to the
pending transactions through a Merkle tree root, and the mined block's
coinbase pays the pool. This package reproduces the relevant mechanics of
Monero in miniature:

- :mod:`repro.blockchain.hashing` — a CryptoNight stand-in PoW hash
  (memory-touching, CPU-friendly, deterministic) and the Monero difficulty
  test ``hash × difficulty < 2^256``.
- :mod:`repro.blockchain.merkle` — Monero's exact tree-hash algorithm.
- :mod:`repro.blockchain.transactions` — transfers and coinbase payouts.
- :mod:`repro.blockchain.block` — header/hashing-blob serialization with
  Monero varints and the fixed-offset 4-byte nonce.
- :mod:`repro.blockchain.difficulty` — windowed difficulty retargeting for
  the 120-second block target.
- :mod:`repro.blockchain.chain` — chain state, validation, emission.
"""

from repro.blockchain.hashing import (
    CryptonightParams,
    cryptonight,
    hash_meets_difficulty,
)
from repro.blockchain.merkle import tree_hash
from repro.blockchain.transactions import Transaction, coinbase_transaction
from repro.blockchain.block import Block, BlockHeader, NONCE_OFFSET, hashing_blob
from repro.blockchain.difficulty import DifficultyAdjuster
from repro.blockchain.chain import Blockchain, BlockValidationError, Mempool

__all__ = [
    "CryptonightParams",
    "cryptonight",
    "hash_meets_difficulty",
    "tree_hash",
    "Transaction",
    "coinbase_transaction",
    "Block",
    "BlockHeader",
    "NONCE_OFFSET",
    "hashing_blob",
    "DifficultyAdjuster",
    "Blockchain",
    "BlockValidationError",
    "Mempool",
]
