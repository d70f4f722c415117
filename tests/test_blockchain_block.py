"""Tests for transactions, headers, blocks, and the hashing blob."""

import dataclasses
import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.network import NetworkSimConfig, simulate_network
from repro.blockchain import varint
from repro.blockchain.block import (
    Block,
    BlockHeader,
    NONCE_OFFSET,
    hashing_blob,
    set_blob_nonce,
)
from repro.blockchain.transactions import (
    ATOMIC_PER_XMR,
    Transaction,
    TransferFactory,
    coinbase_transaction,
)
from repro.blockchain.merkle import tree_hash
from repro.pool.jobs import parse_blob
from repro.sim.rng import RngStream
from tests.oracles import blockchain as oracle


class TestVarint:
    def test_small_values(self):
        assert varint.encode(0) == b"\x00"
        assert varint.encode(127) == b"\x7f"
        assert varint.encode(128) == b"\x80\x01"

    def test_roundtrip(self):
        for value in (0, 1, 127, 128, 300, 2**20, 2**40):
            assert varint.decode(varint.encode(value))[0] == value

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            varint.encode(-5)

    def test_truncated(self):
        with pytest.raises(ValueError):
            varint.decode(b"\x80")


#: every integer field's range: one-byte values up to 70-bit amounts
WIDE_INT = st.integers(min_value=0, max_value=2**70)
GEN_INPUT = st.tuples(st.just("gen"), WIDE_INT)
KEY_INPUT = st.tuples(
    st.just("key"),
    st.one_of(st.binary(max_size=40), st.text(max_size=20), st.integers()),
)
OUTPUT = st.tuples(WIDE_INT, st.one_of(st.text(max_size=40), st.binary(max_size=40)))


class TestEncoderOracle:
    """The table/join encoder against the byte-at-a-time one it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(WIDE_INT)
    def test_varint_matches_oracle(self, value):
        assert varint.encode(value) == oracle.varint_encode(value)

    @given(st.integers(max_value=-1))
    def test_varint_negative_rejected_like_oracle(self, value):
        with pytest.raises(ValueError):
            oracle.varint_encode(value)
        with pytest.raises(ValueError):
            varint.encode(value)

    @settings(max_examples=300, deadline=None)
    @given(
        version=WIDE_INT,
        unlock_time=WIDE_INT,
        inputs=st.lists(st.one_of(GEN_INPUT, KEY_INPUT), max_size=3),
        outputs=st.lists(OUTPUT, max_size=3),
        extra=st.binary(max_size=300),
    )
    def test_serialize_matches_oracle(self, version, unlock_time, inputs, outputs, extra):
        tx = Transaction(
            version=version,
            unlock_time=unlock_time,
            inputs=tuple(inputs),
            outputs=tuple(outputs),
            extra=extra,
        )
        assert tx.serialize() == oracle.serialize(tx)

    def test_negative_amount_rejected_like_oracle(self):
        tx = Transaction(version=2, unlock_time=0, inputs=(), outputs=((-1, "a"),))
        with pytest.raises(ValueError):
            oracle.serialize(tx)
        with pytest.raises(ValueError):
            tx.serialize()


class TestTransactions:
    def test_coinbase_structure(self):
        tx = coinbase_transaction(10, 5 * ATOMIC_PER_XMR, "pool", b"extra")
        assert tx.is_coinbase
        assert tx.inputs == (("gen", 10),)
        assert tx.total_output() == 5 * ATOMIC_PER_XMR
        assert tx.unlock_time == 70  # height + 60

    def test_coinbase_rejects_zero_reward(self):
        with pytest.raises(ValueError):
            coinbase_transaction(1, 0, "pool")

    def test_hash_is_stable_and_32_bytes(self):
        tx = coinbase_transaction(1, 100, "pool")
        assert tx.hash() == tx.hash()
        assert len(tx.hash()) == 32

    def test_extra_nonce_changes_hash(self):
        a = coinbase_transaction(1, 100, "pool", b"nonce-a")
        b = coinbase_transaction(1, 100, "pool", b"nonce-b")
        assert a.hash() != b.hash()

    def test_transfer_factory_unique_hashes(self):
        factory = TransferFactory(rng=RngStream(1, "tx"))
        hashes = {factory.make().hash() for _ in range(50)}
        assert len(hashes) == 50


class TestBlockHeader:
    def header(self, **kwargs):
        defaults = dict(major=7, minor=7, timestamp=1_526_000_000, prev_id=b"\x11" * 32, nonce=0)
        defaults.update(kwargs)
        return BlockHeader(**defaults)

    def test_serialization_layout(self):
        header = self.header(nonce=0x01020304)
        raw = header.serialize()
        assert raw[0] == 7 and raw[1] == 7
        assert raw[-4:] == bytes([0x04, 0x03, 0x02, 0x01])  # little-endian nonce

    def test_nonce_offset_matches_constant_for_2018_timestamps(self):
        assert self.header().nonce_offset() == NONCE_OFFSET == 39

    def test_bad_prev_id_rejected(self):
        with pytest.raises(ValueError):
            self.header(prev_id=b"short")

    def test_nonce_range_checked(self):
        with pytest.raises(ValueError):
            self.header(nonce=2**32)

    def test_with_nonce_returns_new_header(self):
        header = self.header()
        other = header.with_nonce(99)
        assert other.nonce == 99 and header.nonce == 0

    @pytest.mark.parametrize("nonce", [0, 1, 99, 2**32 - 1])
    def test_with_nonce_equals_the_replace_built_header(self, nonce):
        header = self.header(nonce=5)
        assert header.with_nonce(nonce) == dataclasses.replace(header, nonce=nonce)

    @pytest.mark.parametrize("nonce", [2**32, -1])
    def test_with_nonce_still_range_checked(self, nonce):
        with pytest.raises(ValueError, match="nonce must fit 4 bytes"):
            self.header().with_nonce(nonce)


class TestHashingBlob:
    def header(self):
        return BlockHeader(7, 7, 1_526_000_000, b"\x22" * 32, nonce=7)

    def test_blob_parses_back(self):
        root = b"\x33" * 32
        blob = hashing_blob(self.header(), root, 5)
        fields, prev_id, nonce, merkle_root, num_txs = parse_blob(blob)
        assert fields == (7, 7, 1_526_000_000)
        assert prev_id == b"\x22" * 32
        assert nonce == 7
        assert merkle_root == root
        assert num_txs == 5

    def test_set_blob_nonce(self):
        header = self.header()
        blob = hashing_blob(header, b"\x33" * 32, 1)
        patched = set_blob_nonce(blob, header, 0xDEADBEEF)
        _, _, nonce, root, _ = parse_blob(patched)
        assert nonce == 0xDEADBEEF
        assert root == b"\x33" * 32

    def test_zero_txs_rejected(self):
        with pytest.raises(ValueError):
            hashing_blob(self.header(), b"\x33" * 32, 0)

    def test_bad_merkle_root_rejected(self):
        with pytest.raises(ValueError):
            hashing_blob(self.header(), b"short", 1)

    def test_trailing_bytes_rejected_by_parser(self):
        blob = hashing_blob(self.header(), b"\x33" * 32, 1) + b"\x00"
        with pytest.raises(ValueError):
            parse_blob(blob)


class TestBlock:
    def make_block(self, n_txs: int = 3) -> Block:
        factory = TransferFactory(rng=RngStream(5, "txs"))
        coinbase = coinbase_transaction(1, 100, "pool", b"en")
        txs = [coinbase] + [factory.make() for _ in range(n_txs - 1)]
        header = BlockHeader(7, 7, 1_526_000_000, b"\x01" * 32)
        return Block(header=header, transactions=txs)

    def test_requires_coinbase_first(self):
        factory = TransferFactory(rng=RngStream(6, "txs"))
        header = BlockHeader(7, 7, 1_526_000_000, b"\x01" * 32)
        with pytest.raises(ValueError):
            Block(header=header, transactions=[factory.make()])

    def test_requires_nonempty(self):
        header = BlockHeader(7, 7, 1_526_000_000, b"\x01" * 32)
        with pytest.raises(ValueError):
            Block(header=header, transactions=[])

    def test_merkle_root_commits_to_coinbase(self):
        a = self.make_block()
        b = self.make_block()
        object.__setattr__(a.transactions[0], "extra", b"different")
        assert a.merkle_root() != b.merkle_root() or a.transactions[0].extra == b.transactions[0].extra

    def test_block_id_differs_from_pow_hash_domain(self):
        block = self.make_block()
        assert block.block_id() != block.pow_hash()

    def test_reward_and_miner(self):
        block = self.make_block()
        assert block.reward() == 100
        assert block.miner_address() == "pool"

    def test_blob_num_txs(self):
        block = self.make_block(n_txs=4)
        *_, num_txs = parse_blob(block.hashing_blob())
        assert num_txs == 4


# -- computed once: cached ids against fresh recomputation ---------------------

_u64 = st.integers(min_value=0, max_value=2**64 - 1)
_address = st.text(min_size=1, max_size=12)
_transfer = st.builds(
    Transaction,
    version=st.integers(0, 3),
    unlock_time=_u64,
    inputs=st.lists(st.tuples(st.just("key"), st.binary(min_size=32, max_size=32)),
                    min_size=1, max_size=3).map(tuple),
    outputs=st.lists(st.tuples(_u64, _address), min_size=1, max_size=3).map(tuple),
    extra=st.binary(max_size=16),
)
_coinbase = st.builds(
    coinbase_transaction,
    height=st.integers(0, 2**40),
    reward_atomic=st.integers(1, 2**50),
    miner_address=_address,
    extra_nonce=st.binary(max_size=16),
)
_header = st.builds(
    BlockHeader,
    major=st.integers(0, 300),
    minor=st.integers(0, 300),
    timestamp=st.integers(0, 2**40),
    prev_id=st.binary(min_size=32, max_size=32),
    nonce=st.integers(0, 2**32 - 1),
)


def _fresh_tx_hash(tx: Transaction) -> bytes:
    return hashlib.sha3_256(tx.serialize()).digest()


def _fresh_block_id(block: Block) -> bytes:
    root = tree_hash([_fresh_tx_hash(tx) for tx in block.transactions])
    blob = hashing_blob(block.header, root, len(block.transactions))
    return hashlib.sha3_256(b"blockid" + blob).digest()


class TestComputedOnce:
    @settings(max_examples=150, deadline=None)
    @given(header=_header, coinbase=_coinbase, transfers=st.lists(_transfer, max_size=9))
    def test_cached_ids_equal_a_fresh_recomputation(self, header, coinbase, transfers):
        block = Block(header=header, transactions=[coinbase, *transfers])
        for tx in block.transactions:
            first = tx.hash()
            assert tx.hash() is first
            assert first == _fresh_tx_hash(tx)
        block_id = block.block_id()
        assert block.block_id() is block_id
        assert block_id == _fresh_block_id(block)
        assert block.merkle_root() == tree_hash([_fresh_tx_hash(tx) for tx in block.transactions])

    def test_replace_starts_fresh_caches(self):
        block = TestBlock().make_block(n_txs=3)
        old_id, old_root = block.block_id(), block.merkle_root()
        renonced = dataclasses.replace(block, header=block.header.with_nonce(5))
        assert renonced._id_cache is None and renonced._merkle_cache is None
        assert renonced.block_id() != old_id
        assert renonced.block_id() == _fresh_block_id(renonced)
        coinbase = block.coinbase
        retagged = dataclasses.replace(coinbase, extra=b"other")
        assert retagged._hash is None
        assert retagged.hash() != coinbase.hash() == _fresh_tx_hash(coinbase)
        rebuilt = dataclasses.replace(block, transactions=(retagged, *block.transactions[1:]))
        assert rebuilt.merkle_root() != old_root
        assert rebuilt.block_id() == _fresh_block_id(rebuilt)

    def test_block_is_frozen(self):
        block = TestBlock().make_block()
        assert isinstance(block.transactions, tuple)
        block.block_id()
        with pytest.raises(dataclasses.FrozenInstanceError):
            block.header = block.header.with_nonce(1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            block.transactions = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            block._id_cache = bytes(32)
        with pytest.raises(dataclasses.FrozenInstanceError):
            block.coinbase.extra = b"changed"

    def test_caches_stay_out_of_equality_and_repr(self):
        a, b = TestBlock().make_block(), TestBlock().make_block()
        a.block_id()
        assert a == b and hash(a) == hash(b)
        assert "_cache" not in repr(a) and "_hash" not in repr(a.coinbase)

    def test_simulation_serializes_each_tx_and_blob_once(self, monkeypatch):
        """N encodes for N transactions and N blobs for N blocks, however
        often templates, the mempool and the chain ask for the ids."""
        serialized, blobbed = [], []
        serialize, blob = Transaction.serialize, Block.hashing_blob

        def counted_serialize(tx):
            serialized.append(tx)
            return serialize(tx)

        def counted_blob(block):
            blobbed.append(block)
            return blob(block)

        monkeypatch.setattr(Transaction, "serialize", counted_serialize)
        monkeypatch.setattr(Block, "hashing_blob", counted_blob)
        config = NetworkSimConfig()
        config.end = config.start + 86400 / 2
        observation = simulate_network(config)

        blocks = observation.chain.blocks
        assert len(blocks) > 300
        assert Counter(map(id, blobbed)) == Counter(map(id, blocks))
        tx_counts = Counter(map(id, serialized))
        assert set(tx_counts.values()) == {1}
        in_chain = {id(tx) for block in blocks for tx in block.transactions}
        assert in_chain <= set(tx_counts)
