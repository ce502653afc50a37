"""Entity serialization, replica stores, the registry's chain and a node's
view of it."""
import hashlib
import pathlib
import random
import struct

import pytest
from hypothesis import given, strategies as st

from chainsim.controller import NodeState
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


# -- the registry's chain and a node's view of it ---------------------------


def _block(label: str, parent: Block, tx_labels=()) -> Block:
    ident = Identifier(hashlib.sha256(label.encode()).digest())
    txs = tuple(Identifier(hashlib.sha256(t.encode()).digest()) for t in tx_labels)
    return Block(ident, 0, parent.id, parent.height + 1, txs)


GENESIS = Block(ZERO_ID, 0, ZERO_ID, 0)


def _node() -> NodeState:
    """A node whose tail is GENESIS."""
    return NodeState(node_index=0, malicious=False, rng_recipient=random.Random(1),
                     rng_corrupt=random.Random(2), tail=GENESIS)


def test_tail_follows_height():
    tracker = ChainTracker(GENESIS)
    a = _block("a", GENESIS, ["t1"])
    b = _block("b", a, ["t2"])
    tracker.add(a)
    tracker.add(b)
    assert tracker.tail == b
    assert len(tracker.chain_txs) == 2


def test_out_of_order_delivery_links_orphans():
    # a notify can land before its parent's: the node takes the taller block
    # at once, without waiting for its ancestors
    node = _node()
    a = _block("a", GENESIS)
    b = _block("b", a)
    c = _block("c", b)
    node.hear(b)
    assert node.tail == b
    node.hear(c)
    assert node.tail == c
    for block in (a, b, c):
        node.hear(block)
        assert node.tail == c


def test_duplicate_add_is_ignored():
    tracker = ChainTracker(GENESIS)
    a = _block("a", GENESIS, ["t1"])
    tracker.add(a)
    tracker.add(a)
    assert len(tracker.blocks) == 2


def _tx_id(label: str) -> Identifier:
    return Identifier(hashlib.sha256(label.encode()).digest())


TX_POOL = [_tx_id(f"pool-{k}") for k in range(6)]


@st.composite
def chain_arrivals(draw):
    """A random chain over GENESIS, delivered in a random order that may
    repeat blocks.  A block may repeat a tx of a block below it."""
    chain = [GENESIS]
    for i in range(draw(st.integers(1, 12))):
        tx_ids = draw(st.lists(st.sampled_from(TX_POOL), max_size=3))
        chain.append(Block(_tx_id(f"block-{i}"), 0, chain[-1].id, i + 1, tuple(tx_ids)))
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


@given(arrivals=chain_arrivals())
def test_incremental_index_matches_from_scratch_oracle(arrivals):
    # a node hears the blocks in any order and ends each step on the tallest
    # heard; the registry gets them in chain order, as they finalize; either
    # may get a block twice
    node = _node()
    for step, block in enumerate(arrivals):
        node.hear(block)
        assert node.tail is max(arrivals[:step + 1], key=lambda b: b.height)
    registry = ChainTracker(GENESIS)
    in_order = sorted(arrivals, key=lambda b: b.height)
    for step, block in enumerate(in_order):
        registry.add(block)
        chain = _oracle_chain(in_order[:step + 1])
        assert registry.tail == chain[-1]
        assert registry.chain_ids() == [b.id for b in chain]
        assert registry.chain_txs == {tx_id for b in chain for tx_id in b.tx_ids}


def test_block_off_the_tail_raises_forked_chain():
    a = _block("a", GENESIS, ["t1"])
    b = _block("b", a, ["t2"])
    rival = _block("rival", a, ["t3"])     # a's second child
    tracker = ChainTracker(GENESIS)
    tracker.add(a)
    tracker.add(b)
    with pytest.raises(ForkedChain):
        tracker.add(rival)
    assert tracker.chain == [GENESIS, a, b]


def test_a_block_on_the_tail_with_a_wrong_height_raises_forked_chain():
    a = _block("a", GENESIS)
    tall = Block(_tx_id("tall"), 0, a.id, a.height + 2)
    tracker = ChainTracker(GENESIS)
    tracker.add(a)
    with pytest.raises(ForkedChain):
        tracker.add(tall)
    assert tracker.tail == a


BOGUS = Block(_tx_id("bogus"), 0, _tx_id("no-such-block"), 2, (TX_POOL[0],))


def test_bogus_parent_block_stays_off_the_chain():
    # the registry leaves a block whose parent it does not know off the chain
    a = _block("a", GENESIS)
    registry = ChainTracker(GENESIS)
    for block in (BOGUS, a):
        registry.add(block)
    assert registry.chain_ids() == [GENESIS.id, a.id]
    assert BOGUS.id not in registry.blocks
    assert TX_POOL[0] not in registry.chain_txs


def test_a_bogus_parent_block_is_dropped_once_the_tail_passes_its_height():
    # a block at or below the node's tail changes nothing, whatever its parent
    a = _block("a", GENESIS)
    b = _block("b", a)
    node = _node()
    node.hear(a)
    node.hear(b)
    node.hear(BOGUS)
    assert node.tail == b
