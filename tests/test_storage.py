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


def test_height_tie_breaks_by_smaller_id():
    siblings = [_block(label, GENESIS) for label in ("x", "y", "z")]
    winner = min(siblings, key=lambda i: int.from_bytes(i.id, "big"))
    # the winner must not depend on arrival order
    for ordering in (siblings, list(reversed(siblings))):
        tracker = ChainTracker(GENESIS)
        for block in ordering:
            tracker.add(block)
        assert tracker.tail == winner


def test_reorg_rebuilds_chain_txs():
    tracker = ChainTracker(GENESIS)
    a = _block("a", GENESIS, ["t1"])
    tracker.add(a)
    b = _block("b", GENESIS, ["t2"])
    c = _block("c", b, ["t3"])
    tracker.add(b)
    tracker.add(c)
    assert tracker.tail == c
    labels = {Identifier(hashlib.sha256(t.encode()).digest()) for t in ("t2", "t3")}
    assert set(tracker.chain_txs) == labels


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

    def unchained(self, tx_ids) -> None:
        self.on_chain.difference_update(tx_ids)


@st.composite
def block_arrivals(draw):
    """A random block tree over GENESIS (each height its parent's plus one),
    delivered in a random order that may repeat blocks.  A block holds
    any owner's txs, as a proposer's block does."""
    count = draw(st.integers(1, 12))
    # the id order decides height ties, so let it vary independently of shape
    ranks = draw(st.permutations(range(count)))
    blocks: list[Block] = []
    for i in range(count):
        parent = draw(st.sampled_from([GENESIS] + blocks))
        owner = draw(st.sampled_from(OWNERS))
        tx_ids = draw(st.lists(st.sampled_from(TX_POOL), max_size=3))
        ident = bytes([ranks[i] + 1]) + _tx_id(f"block-{i}")[1:]
        blocks.append(Block(ident, owner, parent.id, parent.height + 1, tuple(tx_ids)))
    repeats = draw(st.lists(st.sampled_from(blocks), max_size=3))
    return draw(st.permutations(blocks + repeats))


def _oracle_chain(added: list[Block]) -> list[Block]:
    """Genesis to tail, from scratch: the best block reachable from genesis
    (greatest height, then smaller numeric id), walked back to genesis."""
    by_id = {GENESIS.id: GENESIS, **{block.id: block for block in added}}

    def linked(block):
        while block.id != GENESIS.id:
            if block.parent not in by_id:
                return False
            block = by_id[block.parent]
        return True

    tail = min((block for block in by_id.values() if linked(block)),
               key=lambda block: (-block.height, int.from_bytes(block.id, "big")))
    chain = [tail]
    while chain[-1].id != GENESIS.id:
        chain.append(by_id[chain[-1].parent])
    chain.reverse()
    return chain


def _oracle_txs(chain: list[Block], owner=None) -> dict:
    """The chain's txs, or one owner's, whoever built their blocks."""
    txs = {}
    for block in chain:
        for tx_id in block.tx_ids:
            if owner is None or TX_OWNER[tx_id] == owner:
                txs.setdefault(tx_id, block.height)
    return txs


def _naive_ancestry(tracker: ChainTracker, block_id: Identifier) -> set:
    txs = set()
    cur = tracker.blocks[block_id]
    while True:
        txs.update(cur.tx_ids)
        if cur.id == GENESIS.id:
            return txs
        cur = tracker.blocks[cur.parent]


@given(arrivals=block_arrivals())
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
        for block_id in full.blocks:
            ancestry = _naive_ancestry(full, block_id)
            for tx_id in TX_POOL:
                assert full.ancestry_holds_any(block_id, [tx_id]) == (tx_id in ancestry)


def test_ancestry_query_refused_by_owner_scoped_tracker():
    tracker = ChainTracker(GENESIS)
    tracker.listener = OwnTxs(0)
    with pytest.raises(AssertionError):
        tracker.ancestry_holds_any(GENESIS.id, [_tx_id("t1")])


def test_reorg_keeps_tx_shared_with_common_prefix():
    # t1 sits in both a (height 1, kept) and b (height 2, cut by the reorg)
    tracker = ChainTracker(GENESIS)
    a = _block("a", GENESIS, ["t1"])
    b = _block("b", a, ["t1", "t2"])
    tracker.add(a)
    tracker.add(b)
    rival = _block("rival-b", a, ["t3"])
    longer = _block("rival-c", rival, ["t4"])
    tracker.add(rival)
    tracker.add(longer)
    assert tracker.chain_ids() == [GENESIS.id, a.id, rival.id, longer.id]
    assert tracker.chain_txs == {_tx_id("t1"): 1, _tx_id("t3"): 2, _tx_id("t4"): 3}
