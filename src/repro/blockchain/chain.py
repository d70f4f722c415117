"""Chain state: validation, emission, and the mempool.

The chain accepts blocks whose PoW hash meets the current difficulty,
tracks cumulative difficulty for retargeting, and implements Monero's
emission curve ``reward = (supply − generated) >> 19`` (for the 120 s
target), which put the block reward at ≈4.7 XMR in mid-2018 — the figure
behind the paper's "1271 XMR over four weeks" revenue estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.blockchain.block import Block, BlockHeader, MAJOR_VERSION, MINOR_VERSION
from repro.blockchain.difficulty import DifficultyAdjuster
from repro.blockchain.hashing import CryptonightParams, DEFAULT_PARAMS, hash_meets_difficulty
from repro.blockchain.transactions import Transaction, coinbase_transaction

GENESIS_PREV = bytes(32)

#: Monero's nominal atomic supply before the tail emission.
MONEY_SUPPLY = (1 << 64) - 1
#: Emission speed for the 120 s target (Monero: 20 − 1).
EMISSION_SPEED_FACTOR = 19
#: Atomic units already generated at simulation start, chosen so the block
#: reward is ≈4.70 XMR — Monero's actual reward level in May–July 2018.
GENERATED_AT_START = MONEY_SUPPLY - (4_700_000_000_000 << EMISSION_SPEED_FACTOR)
#: Tail emission floor (0.6 XMR), per Monero's design.
TAIL_REWARD = 600_000_000_000


class BlockValidationError(ValueError):
    """Raised when a submitted block violates consensus rules."""


def base_reward(generated_atomic: int) -> int:
    """Monero emission: ``max((supply − generated) >> 19, tail)``."""
    reward = (MONEY_SUPPLY - generated_atomic) >> EMISSION_SPEED_FACTOR
    return max(reward, TAIL_REWARD)


@dataclass
class Mempool:
    """Pending transactions waiting to be included in a block."""

    _txs: dict = field(default_factory=dict)

    def add(self, tx: Transaction) -> None:
        if tx.is_coinbase:
            raise ValueError("coinbase transactions are never in the mempool")
        self._txs[tx.hash()] = tx

    def take(self, limit: int) -> list:
        """Up to ``limit`` transactions in insertion order (not removed)."""
        out = []
        for tx in self._txs.values():
            if len(out) >= limit:
                break
            out.append(tx)
        return out

    def remove_included(self, block: Block) -> int:
        """Drop transactions included in ``block``; returns how many."""
        removed = 0
        for tx in block.transactions[1:]:
            if self._txs.pop(tx.hash(), None) is not None:
                removed += 1
        return removed

    def __len__(self) -> int:
        return len(self._txs)


@dataclass
class Blockchain:
    """An append-only validated chain.

    Parameters mirror the experiment knobs: PoW cost profile and the
    difficulty adjuster (tests use small windows for fast retargeting).
    """

    pow_params: CryptonightParams = DEFAULT_PARAMS
    adjuster: DifficultyAdjuster = field(default_factory=DifficultyAdjuster)
    genesis_timestamp: int = 0
    blocks: list = field(default_factory=list)
    generated_atomic: int = GENERATED_AT_START
    _timestamps: list = field(default_factory=list)
    _cumulative_difficulty: list = field(default_factory=list)
    _ids: set = field(default_factory=set)
    _by_prev: dict = field(default_factory=dict)
    _height_by_id: dict = field(default_factory=dict)
    _difficulty_cache: Optional[tuple] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.blocks:
            self._append_genesis()

    def _append_genesis(self) -> None:
        reward = base_reward(self.generated_atomic)
        coinbase = coinbase_transaction(0, reward, "genesis", b"genesis")
        header = BlockHeader(
            major=MAJOR_VERSION,
            minor=MINOR_VERSION,
            timestamp=self.genesis_timestamp,
            prev_id=GENESIS_PREV,
            nonce=0,
        )
        genesis = Block(header=header, transactions=[coinbase])
        self.blocks.append(genesis)
        self.generated_atomic += reward
        self._timestamps.append(header.timestamp)
        self._cumulative_difficulty.append(1)
        self._ids.add(genesis.block_id())
        self._by_prev[GENESIS_PREV] = genesis
        self._height_by_id[genesis.block_id()] = 0

    # -- read API -------------------------------------------------------------

    @property
    def height(self) -> int:
        """Height of the chain tip (genesis is height 0)."""
        return len(self.blocks) - 1

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    def current_difficulty(self) -> int:
        if self._difficulty_cache is not None and self._difficulty_cache[0] == self.height:
            return self._difficulty_cache[1]
        difficulty = self.adjuster.next_difficulty(self._timestamps, self._cumulative_difficulty)
        self._difficulty_cache = (self.height, difficulty)
        return difficulty

    def current_reward(self) -> int:
        return base_reward(self.generated_atomic)

    def block_after(self, prev_id: bytes) -> Optional[Block]:
        """The block whose header references ``prev_id`` — the lookup at the
        heart of the pool-association method."""
        return self._by_prev.get(prev_id)

    def height_of(self, block: Block) -> int:
        return self._height_by_id[block.block_id()]

    def contains(self, block_id: bytes) -> bool:
        return block_id in self._ids

    # -- write API ------------------------------------------------------------

    def submit(self, block: Block) -> None:
        """Validate and append ``block``; raises :class:`BlockValidationError`."""
        header = block.header
        if header.prev_id != self.tip.block_id():
            raise BlockValidationError("block does not extend the chain tip")
        difficulty = self.current_difficulty()
        if not hash_meets_difficulty(block.pow_hash(self.pow_params), difficulty):
            raise BlockValidationError(f"PoW does not meet difficulty {difficulty}")
        expected = base_reward(self.generated_atomic)
        if block.reward() != expected:
            raise BlockValidationError(
                f"coinbase pays {block.reward()} but emission allows {expected}"
            )
        gen_in = block.coinbase.inputs[0]
        if gen_in != ("gen", self.height + 1):
            raise BlockValidationError("coinbase height mismatch")
        self._append_validated(block, difficulty)

    def _append_validated(self, block: Block, difficulty: int) -> None:
        self.blocks.append(block)
        self.generated_atomic += block.reward()
        self._timestamps.append(block.header.timestamp)
        self._cumulative_difficulty.append(self._cumulative_difficulty[-1] + difficulty)
        self._ids.add(block.block_id())
        self._by_prev[block.header.prev_id] = block
        self._height_by_id[block.block_id()] = len(self.blocks) - 1

    def force_append(self, block: Block) -> None:
        """Append without the PoW check — used by the *network process*
        simulation, where block arrival times are drawn statistically
        instead of hashing through real nonce searches (see
        :mod:`repro.analysis.network`). All structural checks still apply.
        """
        if block.header.prev_id != self.tip.block_id():
            raise BlockValidationError("block does not extend the chain tip")
        self._append_validated(block, self.current_difficulty())

    # -- statistics ------------------------------------------------------------

    def median_difficulty(self, last: int = 0) -> int:
        diffs = [
            self._cumulative_difficulty[i] - self._cumulative_difficulty[i - 1]
            for i in range(1, len(self._cumulative_difficulty))
        ]
        if last:
            diffs = diffs[-last:]
        if not diffs:
            return self.adjuster.initial_difficulty
        diffs.sort()
        return diffs[len(diffs) // 2]

    def total_rewards_atomic(self, start_height: int = 1, end_height: Optional[int] = None) -> int:
        end = self.height if end_height is None else end_height
        return sum(self.blocks[h].reward() for h in range(start_height, end + 1))
