"""Entity serialization, replica stores, and chain tracking."""
import hashlib
import pathlib
import random

import pytest
from hypothesis import given, strategies as st

from chainsim.identity import Identifier, ZERO_ID
from chainsim.storage import (
    Block,
    BlockInfo,
    ChainTracker,
    IdMismatch,
    ReplicaStore,
    Signature,
    Transaction,
    canonical_bytes,
    decode_entity,
    full_bytes,
    new_block,
    new_transaction,
)

DATA_DIR = pathlib.Path(__file__).parent / "data"

# sha256 of the canonical bytes of the fixed sample block below,
# recomputed with an external hash tool when the layout was frozen
SAMPLE_BLOCK_DIGEST = "6e2188fa870dbf12112c04ac539df60d93cb85726baebb14e380e634c6fb9289"

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
    owner=st.integers(0, 2**32), prev_block_id=identifiers,
    height=st.integers(0, 2**32), tx_ids=st.lists(identifiers, max_size=8),
    created_at=st.integers(0, 2**40), attempt=st.integers(0, 5),
    drain=st.booleans(),
)

signatures = st.builds(
    Signature, validator=st.integers(0, 2**32),
    decision=st.sampled_from(["approve", "reject", "silent"]),
    token=st.binary(min_size=32, max_size=32),
)


def _sample_tx() -> Transaction:
    return new_transaction(owner=3, recipient=7, amount=1,
                           prev_block_id=Identifier(bytes(range(32))),
                           seq=5, created_at=1234)


def test_transaction_bytes_match_golden_file():
    golden = bytes.fromhex((DATA_DIR / "golden_transaction.hex").read_text().strip())
    assert canonical_bytes(_sample_tx()) == golden


def test_sample_block_digest_frozen():
    tx = _sample_tx()
    blk = new_block(owner=2, prev_block_id=Identifier(bytes(range(32))), height=4,
                    tx_ids=[tx.id, Identifier(b"\xff" * 32)], created_at=999)
    assert hashlib.sha256(canonical_bytes(blk)).hexdigest() == SAMPLE_BLOCK_DIGEST
    assert blk.id.hex() == SAMPLE_BLOCK_DIGEST


def test_amount_changes_bytes():
    base = _sample_tx()
    other = new_transaction(3, 7, 2, base.prev_block_id, 5, 1234)
    assert canonical_bytes(base) != canonical_bytes(other)
    assert base.id != other.id


@given(entity=st.one_of(transactions, blocks), sigs=st.lists(signatures, max_size=4))
def test_encode_decode_round_trip(entity, sigs):
    entity.signatures = sigs
    decoded = decode_entity(full_bytes(entity))
    assert decoded == entity


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
        tx.signatures = [Signature(0, "approve", bytes(32))] * rng.randrange(3)
        total += len(full_bytes(tx))
        store.store(tx)
    assert store.byte_count == total


def test_fetch_after_store():
    store = ReplicaStore()
    tx = _sample_tx()
    store.store(tx)
    assert store.fetch(tx.id) is tx
    assert store.fetch(Identifier(b"\x09" * 32)) is None


# -- chain tracking -------------------------------------------------------


def _info(label: str, parent: BlockInfo, tx_labels=()) -> BlockInfo:
    ident = Identifier(hashlib.sha256(label.encode()).digest())
    txs = tuple(Identifier(hashlib.sha256(t.encode()).digest()) for t in tx_labels)
    return BlockInfo(ident, parent.id, parent.height + 1, txs)


GENESIS = BlockInfo(ZERO_ID, ZERO_ID, 0, ())


def test_tail_follows_height():
    tracker = ChainTracker(GENESIS)
    a = _info("a", GENESIS, ["t1"])
    b = _info("b", a, ["t2"])
    tracker.add(a)
    tracker.add(b)
    assert tracker.tail == b
    assert len(tracker.chain_txs) == 2


def test_height_tie_breaks_by_smaller_id():
    siblings = [_info(label, GENESIS) for label in ("x", "y", "z")]
    winner = min(siblings, key=lambda i: int.from_bytes(i.id, "big"))
    # the winner must not depend on arrival order
    for ordering in (siblings, list(reversed(siblings))):
        tracker = ChainTracker(GENESIS)
        for info in ordering:
            tracker.add(info)
        assert tracker.tail == winner


def test_reorg_rebuilds_chain_txs():
    tracker = ChainTracker(GENESIS)
    a = _info("a", GENESIS, ["t1"])
    tracker.add(a)
    b = _info("b", GENESIS, ["t2"])
    c = _info("c", b, ["t3"])
    tracker.add(b)
    tracker.add(c)
    assert tracker.tail == c
    labels = {Identifier(hashlib.sha256(t.encode()).digest()) for t in ("t2", "t3")}
    assert tracker.chain_txs == labels


def test_out_of_order_delivery_links_orphans():
    tracker = ChainTracker(GENESIS)
    a = _info("a", GENESIS)
    b = _info("b", a)
    c = _info("c", b)
    tracker.add(c)
    tracker.add(b)
    assert tracker.tail == GENESIS   # ancestors still unknown
    tracker.add(a)
    assert tracker.tail == c
    assert tracker.chain_ids() == [GENESIS.id, a.id, b.id, c.id]


def test_duplicate_add_is_ignored():
    tracker = ChainTracker(GENESIS)
    a = _info("a", GENESIS, ["t1"])
    tracker.add(a)
    tracker.add(a)
    assert len(tracker.blocks) == 2
