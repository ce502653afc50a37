"""Entity serialization, replica stores, and chain tracking."""
import hashlib
import pathlib
import random
import struct

import pytest
from hypothesis import given, strategies as st

from chainsim.identity import Identifier, ZERO_ID
from chainsim.storage import (
    Block,
    ChainTracker,
    ForkedChain,
    IdMismatch,
    ReplicaStore,
    Transaction,
    canonical_bytes,
    new_block,
    new_transaction,
    wire_size,
)

DATA_DIR = pathlib.Path(__file__).parent / "data"

# sha256 of the canonical bytes of the fixed sample block below,
# recomputed with an external hash tool when the layout was frozen
SAMPLE_BLOCK_DIGEST = "f1ec61a6cff331dbf1fe069ef60cdace41477d15f1410956de8aed9190fb2f4e"

identifiers = st.binary(min_size=32, max_size=32).map(Identifier)

transactions = st.builds(
    new_transaction,
    owner=st.integers(0, 2**32), recipient=st.integers(0, 2**32),
    amount=st.integers(0, 2**32), prev_block_id=identifiers,
    seq=st.integers(0, 2**32), created_at=st.integers(0, 2**40),
    attempt=st.integers(0, 5),
)

blocks = st.builds(
    new_block,
    owner=st.integers(0, 2**32), parent=identifiers,
    height=st.integers(0, 2**32), tx_ids=st.lists(identifiers, max_size=8),
    created_at=st.integers(0, 2**40), attempt=st.integers(0, 5),
)

# (validator, decision code, token); only validators that replied sign,
# so the decision is approve (1) or reject (2)
signatures = st.tuples(st.integers(0, 2**32), st.sampled_from([1, 2]),
                       st.binary(min_size=32, max_size=32))


def encode(entity, sigs) -> bytes:
    """The documented wire layout, written out here as an oracle for
    `wire_size`: canonical bytes, an 8-byte big-endian signature count, then
    per signature an 8-byte validator, a 1-byte decision and a 32-byte token."""
    out = canonical_bytes(entity) + struct.pack(">Q", len(sigs))
    for validator, decision, token in sigs:
        out += struct.pack(">QB", validator, decision) + token
    return out


def _sample_tx() -> Transaction:
    return new_transaction(owner=3, recipient=7, amount=1,
                           prev_block_id=Identifier(bytes(range(32))),
                           seq=5, created_at=1234)


def test_transaction_bytes_match_golden_file():
    golden = bytes.fromhex((DATA_DIR / "golden_transaction.hex").read_text().strip())
    assert canonical_bytes(_sample_tx()) == golden


def test_sample_block_digest_frozen():
    tx = _sample_tx()
    blk = new_block(owner=2, parent=Identifier(bytes(range(32))), height=4,
                    tx_ids=[tx.id, Identifier(b"\xff" * 32)], created_at=999)
    assert hashlib.sha256(canonical_bytes(blk)).hexdigest() == SAMPLE_BLOCK_DIGEST
    assert blk.id.hex() == SAMPLE_BLOCK_DIGEST


def test_amount_changes_bytes():
    base = _sample_tx()
    other = new_transaction(3, 7, 2, base.prev_block_id, 5, 1234)
    assert canonical_bytes(base) != canonical_bytes(other)
    assert base.id != other.id


@given(entity=st.one_of(transactions, blocks), sigs=st.lists(signatures, max_size=12))
def test_wire_size_matches_an_encoder_of_the_layout(entity, sigs):
    entity.signatures = len(sigs)
    assert wire_size(entity) == len(encode(entity, sigs))


def test_store_is_idempotent():
    store = ReplicaStore()
    tx = _sample_tx()
    store.store(tx)
    count = store.byte_count
    store.store(tx)
    assert store.byte_count == count
    assert len(store) == 1


def test_store_rejects_tampered_id():
    tx = _sample_tx()
    tx.id = Identifier(b"\x01" * 32)
    with pytest.raises(IdMismatch):
        ReplicaStore().store(tx)


def test_byte_count_is_sum_of_sizes():
    store = ReplicaStore()
    rng = random.Random(5)
    total = 0
    for i in range(10):
        tx = new_transaction(i, i + 1, 1, Identifier(rng.randbytes(32)), i, i * 10)
        sigs = [(v, 1, bytes(32)) for v in range(rng.randrange(3))]
        tx.signatures = len(sigs)
        total += len(encode(tx, sigs))
        store.store(tx)
    assert store.byte_count == total


def test_fetch_after_store():
    store = ReplicaStore()
    tx = _sample_tx()
    store.store(tx)
    assert store.fetch(tx.id) is tx
    assert store.fetch(Identifier(b"\x09" * 32)) is None


# -- chain tracking -------------------------------------------------------


def _block(label: str, parent: Block, tx_labels=()) -> Block:
    ident = Identifier(hashlib.sha256(label.encode()).digest())
    txs = tuple(Identifier(hashlib.sha256(t.encode()).digest()) for t in tx_labels)
    return Block(ident, 0, parent.id, parent.height + 1, txs)


GENESIS = Block(ZERO_ID, 0, ZERO_ID, 0)


def test_tail_follows_height():
    tracker = ChainTracker(GENESIS)
    a = _block("a", GENESIS, ["t1"])
    b = _block("b", a, ["t2"])
    tracker.add(a)
    tracker.add(b)
    assert tracker.tail == b
    assert len(tracker.chain_txs) == 2


def test_out_of_order_delivery_links_orphans():
    tracker = ChainTracker(GENESIS)
    a = _block("a", GENESIS)
    b = _block("b", a)
    c = _block("c", b)
    tracker.add(c)
    tracker.add(b)
    assert tracker.tail == GENESIS   # ancestors still unknown
    tracker.add(a)
    assert tracker.tail == c
    assert tracker.chain_ids() == [GENESIS.id, a.id, b.id, c.id]


def test_duplicate_add_is_ignored():
    tracker = ChainTracker(GENESIS)
    a = _block("a", GENESIS, ["t1"])
    tracker.add(a)
    tracker.add(a)
    assert len(tracker.blocks) == 2


def _tx_id(label: str) -> Identifier:
    return Identifier(hashlib.sha256(label.encode()).digest())


TX_POOL = [_tx_id(f"pool-{k}") for k in range(6)]
OWNERS = (0, 1)
TX_OWNER = {tx_id: OWNERS[k % len(OWNERS)] for k, tx_id in enumerate(TX_POOL)}


class OwnTxs:
    """A tracker listener standing for one owner's node: it holds the
    owner's txs and follows which of them are on the tracker's chain."""

    def __init__(self, owner: int):
        self.own_finalized = {tx_id: 0 for tx_id in TX_POOL if TX_OWNER[tx_id] == owner}
        self.on_chain = set()

    def chained(self, tx_ids) -> None:
        self.on_chain.update(tx_ids)


@st.composite
def chain_arrivals(draw):
    """A random chain over GENESIS, delivered in a random order that may
    repeat blocks.  A block holds any owner's txs, as a proposer's block
    does, and may repeat a tx of a block below it."""
    chain = [GENESIS]
    for i in range(draw(st.integers(1, 12))):
        owner = draw(st.sampled_from(OWNERS))
        tx_ids = draw(st.lists(st.sampled_from(TX_POOL), max_size=3))
        chain.append(Block(_tx_id(f"block-{i}"), owner, chain[-1].id, i + 1, tuple(tx_ids)))
    blocks = chain[1:]
    repeats = draw(st.lists(st.sampled_from(blocks), max_size=3))
    return draw(st.permutations(blocks + repeats))


def _oracle_chain(added: list[Block]) -> list[Block]:
    """Genesis to tail, from scratch: the blocks added so far that link to
    genesis through blocks added so far."""
    by_parent = {block.parent: block for block in added}
    chain = [GENESIS]
    while chain[-1].id in by_parent:
        chain.append(by_parent[chain[-1].id])
    return chain


def _oracle_txs(chain: list[Block], owner=None) -> dict:
    """The chain's txs, or one owner's, whoever built their blocks."""
    txs = {}
    for block in chain:
        for tx_id in block.tx_ids:
            if owner is None or TX_OWNER[tx_id] == owner:
                txs.setdefault(tx_id, block.height)
    return txs


@given(arrivals=chain_arrivals())
def test_incremental_index_matches_from_scratch_oracle(arrivals):
    full = ChainTracker(GENESIS)
    scoped = {owner: ChainTracker(GENESIS) for owner in OWNERS}
    for owner, tracker in scoped.items():
        tracker.listener = OwnTxs(owner)
    for step, block in enumerate(arrivals):
        for tracker in (full, *scoped.values()):
            tracker.add(block)
        chain = _oracle_chain(arrivals[:step + 1])
        assert full.tail == chain[-1]
        assert full.chain_ids() == [b.id for b in chain]
        assert full.chain_txs == _oracle_txs(chain)
        for owner, tracker in scoped.items():
            assert tracker.tail == chain[-1]
            assert tracker.chain_ids() == [b.id for b in chain]
            assert tracker.chain_txs == _oracle_txs(chain, owner)
            assert tracker.listener.on_chain == set(tracker.chain_txs)


def _trackers():
    """A registry tracker and a listener tracker."""
    scoped = ChainTracker(GENESIS)
    scoped.listener = OwnTxs(0)
    return ChainTracker(GENESIS), scoped


@pytest.mark.parametrize("late", [False, True], ids=["linked", "orphan"])
def test_block_off_the_tail_raises_forked_chain(late):
    a = _block("a", GENESIS, ["t1"])
    b = _block("b", a, ["t2"])
    rival = _block("rival", a, ["t3"])     # a's second child
    for tracker in _trackers():
        if late:
            # both children wait for a, and link once it arrives
            tracker.add(b)
            tracker.add(rival)
            assert not tracker.chain_txs
        else:
            tracker.add(a)
            tracker.add(b)
        with pytest.raises(ForkedChain):
            tracker.add(a if late else rival)
        assert tracker.chain_ids()[:2] == [GENESIS.id, a.id]
        assert tracker.chain[2] in (b, rival) and len(tracker.chain) == 3


def test_a_block_on_the_tail_with_a_wrong_height_raises_forked_chain():
    a = _block("a", GENESIS)
    tall = Block(_tx_id("tall"), 0, a.id, a.height + 2)
    for tracker in _trackers():
        tracker.add(a)
        with pytest.raises(ForkedChain):
            tracker.add(tall)
        assert tracker.tail == a


def test_bogus_parent_block_waits_off_the_chain():
    bogus = Block(_tx_id("bogus"), 0, _tx_id("no-such-block"), 1, (TX_POOL[0],))
    a = _block("a", GENESIS)
    for tracker in _trackers():
        tracker.add(bogus)
        tracker.add(a)
        assert tracker._orphans == {bogus.parent: [bogus]}
        assert tracker.chain_ids() == [GENESIS.id, a.id]
        assert bogus.id not in tracker.blocks
        assert TX_POOL[0] not in tracker.chain_txs
