"""Validator selection, entity validation, and the fee economy."""
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from chainsim.consensus import (
    PART_WAIT_MS,
    EconomyLedger,
    InsufficientDistinctValidators,
    ValidationTicket,
    apply_finalization_fees,
    decide,
    replica_holders,
    select_validators,
    validate_entity,
)
from chainsim.engine import Registry
from chainsim.identity import Identifier, ZERO_ID
from chainsim.overlay import KIND_CONTROLLER, SkipGraph
from chainsim.storage import Block, new_block, new_transaction
from conftest import make_cfg


def naive_ancestry(tracker, block_id):
    """Reference for the txs in `ChainTracker.chain_txs`: walk to genesis."""
    txs = set()
    cur = tracker.blocks[block_id]
    while cur.id != tracker.genesis.id:
        txs.update(cur.tx_ids)
        cur = tracker.blocks[cur.parent]
    return txs


GENESIS = Block(ZERO_ID, 0, ZERO_ID, 0)


def build_population(n: int, seed: int):
    rng = random.Random(seed)
    graph = SkipGraph(max_vertices=n)
    controllers = []
    for i in range(n):
        ident = Identifier(rng.randbytes(32))
        graph.announce(ident, i, KIND_CONTROLLER)
        controllers.append((ident, i))
    controllers.sort(key=lambda pair: pair[0])
    return graph, controllers


def test_two_nodes_pick_the_only_candidate():
    graph, controllers = build_population(2, seed=1)
    cfg = make_cfg(nodes=2, validators_per_entity=1, signature_threshold=1)
    for k in range(20):
        entity = Identifier(random.Random(k).randbytes(32))
        tickets = select_validators(entity, 0, controllers, graph, cfg)
        assert [t.validator for t in tickets] == [1]


def test_selection_is_deterministic():
    graph, controllers = build_population(16, seed=2)
    cfg = make_cfg(nodes=16, validators_per_entity=6, signature_threshold=4)
    entity = Identifier(b"\x31" * 32)
    first = select_validators(entity, 3, controllers, graph, cfg)
    second = select_validators(entity, 3, controllers, graph, cfg)
    assert [t.validator for t in first] == [t.validator for t in second]


def test_validators_distinct_and_exclude_owner():
    graph, controllers = build_population(16, seed=3)
    cfg = make_cfg(nodes=16, validators_per_entity=8, signature_threshold=4)
    for k in range(50):
        entity = Identifier(random.Random(1000 + k).randbytes(32))
        tickets = select_validators(entity, 5, controllers, graph, cfg)
        picked = [t.validator for t in tickets]
        assert len(set(picked)) == 8
        assert 5 not in picked


def test_too_few_nodes_raises():
    graph, controllers = build_population(4, seed=4)
    cfg = make_cfg(nodes=8, validators_per_entity=4, signature_threshold=2)
    with pytest.raises(InsufficientDistinctValidators):
        select_validators(Identifier(b"\x01" * 32), 0, controllers, graph, cfg)


def test_selection_frequency_is_uniform():
    graph, controllers = build_population(64, seed=5)
    cfg = make_cfg(nodes=64, validators_per_entity=12, signature_threshold=10)
    rng = random.Random(6)
    counts = Counter()
    entities = 2000
    for _ in range(entities):
        owner = rng.randrange(64)
        tickets = select_validators(Identifier(rng.randbytes(32)), owner,
                                    controllers, graph, cfg)
        counts.update(t.validator for t in tickets)
    expected = entities * 12 / 64
    for node in range(64):
        assert 0.5 * expected <= counts[node] <= 1.5 * expected


def test_replica_holders_deterministic_and_distinct():
    _, controllers = build_population(16, seed=7)
    entity = Identifier(b"\x2a" * 32)
    holders = replica_holders(entity, 3, controllers, 3)
    assert holders[0] == 3
    assert len(set(holders)) == 3
    assert holders == replica_holders(entity, 3, controllers, 3)
    assert len(replica_holders(entity, 0, controllers[:2], 3)) == 2


def test_decide_truth_table():
    assert decide(True, malicious=False) == "approve"
    assert decide(False, malicious=False) == "reject"
    assert decide(True, malicious=True) == "reject"
    assert decide(False, malicious=True) == "approve"


# -- entity validation ----------------------------------------------------


def test_transaction_against_genesis_approved():
    registry = Registry(GENESIS)
    cfg = make_cfg()
    tx = new_transaction(0, 1, 1, GENESIS.id, seq=0, created_at=0)
    assert validate_entity(registry, tx, cfg)


def test_transaction_rejections():
    registry = Registry(GENESIS)
    cfg = make_cfg()
    assert not validate_entity(registry, new_transaction(0, 0, 1, GENESIS.id, 0, 0), cfg)
    assert not validate_entity(registry, new_transaction(0, 1, 2, GENESIS.id, 0, 0), cfg)
    bogus = Identifier(b"\x13" * 32)
    assert not validate_entity(registry, new_transaction(0, 1, 1, bogus, 0, 0), cfg)
    registry.add_tx(Identifier(b"\x44" * 32), 0, 4, finalized_at=0)
    assert not validate_entity(registry, new_transaction(0, 1, 1, GENESIS.id, 4, 0), cfg)


def _finalized_txs(registry, count, start=0, finalized_at=0):
    ids = []
    for i in range(count):
        tx = new_transaction(1, 2, 1, GENESIS.id, seq=start + i, created_at=0)
        registry.add_tx(tx.id, 1, start + i, finalized_at)
        ids.append(tx.id)
    return ids


def test_block_of_exact_minimum_approved():
    registry = Registry(GENESIS)
    cfg = make_cfg(block_size_min=5)
    blk = new_block(1, GENESIS.id, 1, _finalized_txs(registry, 5), created_at=0)
    assert validate_entity(registry, blk, cfg)


def test_block_rejections():
    registry = Registry(GENESIS)
    cfg = make_cfg(block_size_min=5)
    txs = _finalized_txs(registry, 5)
    assert not validate_entity(registry, new_block(1, Identifier(b"\x09" * 32), 1, txs, 0), cfg)
    assert not validate_entity(registry, new_block(1, GENESIS.id, 2, txs, 0), cfg)
    assert not validate_entity(registry, new_block(1, GENESIS.id, 1, txs[:4] + txs[:1], 0), cfg)
    assert not validate_entity(registry, new_block(1, GENESIS.id, 1, txs[:4], 0), cfg)
    unknown = [Identifier(b"\x21" * 32)]
    assert not validate_entity(registry, new_block(1, GENESIS.id, 1, txs[:4] + unknown, 0), cfg)


def _chain_registry():
    """genesis <- a1 <- tail, each block holding one finalized tx."""
    registry = Registry(GENESIS)
    a1 = new_block(1, GENESIS.id, 1, _finalized_txs(registry, 1, start=100), created_at=0)
    tail = new_block(1, a1.id, 2, _finalized_txs(registry, 1, start=101), created_at=0)
    for block in (a1, tail):
        registry.tracker.add(block)
    return registry, a1, tail


@pytest.mark.parametrize("parent_label", ["genesis", "tail"])
def test_block_taller_than_the_tail_approved(parent_label):
    # a block on the tail, be it genesis or the tail of a longer chain
    if parent_label == "genesis":
        registry, tail = Registry(GENESIS), GENESIS
    else:
        registry, _, tail = _chain_registry()
    blk = new_block(1, tail.id, tail.height + 1, _finalized_txs(registry, 2), created_at=0)
    valid = validate_entity(registry, blk, make_cfg(block_size_min=2))
    assert valid
    assert decide(valid, malicious=False) == "approve"
    assert decide(valid, malicious=True) == "reject"


def test_block_below_the_tail_rejected():
    registry, a1, _ = _chain_registry()
    cfg = make_cfg(block_size_min=2)
    blk = new_block(1, a1.id, 2, _finalized_txs(registry, 2), created_at=0)
    valid = validate_entity(registry, blk, cfg)
    assert not valid
    assert decide(valid, malicious=False) == "reject"
    assert decide(valid, malicious=True) == "approve"
    # every other check passes: with the tail a level lower it is approved
    lower = Registry(GENESIS)
    lower.tracker.add(a1)
    _finalized_txs(lower, 2)
    assert validate_entity(lower, blk, cfg)


@pytest.mark.parametrize("height", [2, 4])
def test_block_on_the_tail_with_a_wrong_height_rejected(height):
    registry, _, tail = _chain_registry()
    blk = new_block(1, tail.id, height, _finalized_txs(registry, 2), created_at=0)
    valid = validate_entity(registry, blk, make_cfg(block_size_min=2))
    assert not valid
    assert decide(valid, malicious=False) == "reject"
    assert decide(valid, malicious=True) == "approve"


def test_block_repeating_ancestor_tx_rejected():
    # the parent is the tail, so its ancestry is the whole chain: a tx
    # several blocks below the tail is a repeat too
    registry = Registry(GENESIS)
    cfg = make_cfg(block_size_min=2)
    deep = _finalized_txs(registry, 2)
    tail = new_block(1, GENESIS.id, 1, deep, created_at=0)
    registry.tracker.add(tail)
    for height in range(2, 6):
        txs = _finalized_txs(registry, 1, start=10 * height)
        tail = new_block(1, tail.id, height, txs, created_at=0)
        registry.tracker.add(tail)
    fresh = _finalized_txs(registry, 2, start=100)
    assert validate_entity(registry, new_block(1, tail.id, 6, fresh, 0), cfg)
    for repeat in (*deep, tail.tx_ids[0]):
        again = new_block(1, tail.id, 6, [fresh[0], repeat], 0)
        assert not validate_entity(registry, again, cfg)


def test_ancestry_query_matches_naive_walk():
    # the repeat check asks `chain_txs`, the tail's whole ancestry; it must
    # agree with a walk from the tail to genesis after every add, also when
    # a block that came before its parent is left off the chain, and when
    # a block is added again
    registry = Registry(GENESIS)
    tracker = registry.tracker
    tx = {label: Identifier(bytes([k + 1]) * 32) for k, label in enumerate("abcdefgu")}
    blocks, parent = [], GENESIS
    for k, txs in enumerate(("a", "bc", "c", "d", "eb", "f")):
        parent = Block(Identifier(bytes([0xF0 + k]) * 32), 0, parent.id,
                       parent.height + 1, tuple(tx[t] for t in txs))
        blocks.append(parent)
    for k in (0, 2, 1, 1, 5, 2, 3, 4, 5):
        tracker.add(blocks[k])
        naive = naive_ancestry(tracker, tracker.tail.id)
        assert tracker.chain_txs == naive
        for label in tx:
            for probe in [tx[label]], [tx["u"], tx[label]]:
                assert any(t in tracker.chain_txs for t in probe) == any(t in naive for t in probe)
    assert tracker.tail == blocks[-1]
    assert tracker.chain_txs == {tx[label] for label in "abcdef"}


def test_short_block_is_due_once_its_oldest_tx_has_waited_w():
    # a block under BLK_SIZE is approved only if its oldest tx, wherever it
    # sits in the block, finalized at least W before the block's created_at
    registry = Registry(GENESIS)
    cfg = make_cfg(block_size_min=10)
    txs = (_finalized_txs(registry, 3, finalized_at=900)
           + _finalized_txs(registry, 4, start=3, finalized_at=100))
    for created_at, due in ((100, False), (100 + PART_WAIT_MS - 1, False),
                            (100 + PART_WAIT_MS, True), (900 + PART_WAIT_MS, True)):
        blk = new_block(1, GENESIS.id, 1, txs, created_at)
        assert validate_entity(registry, blk, cfg) == due, created_at


def test_full_block_is_approved_whatever_its_age():
    registry = Registry(GENESIS)
    cfg = make_cfg(block_size_min=5)
    txs = _finalized_txs(registry, 5, finalized_at=1000)
    for created_at in (1000, 1000 + PART_WAIT_MS - 1, 1000 + PART_WAIT_MS):
        assert validate_entity(registry, new_block(1, GENESIS.id, 1, txs, created_at), cfg)
    # one tx fewer, and the same block is not due yet
    assert not validate_entity(registry, new_block(1, GENESIS.id, 1, txs[:4], 1000), cfg)


def test_retry_of_a_short_block_keeps_its_first_tries_creation_time():
    # a retry adds the parts that arrived since, younger than W, and keeps
    # the first try's created_at, so it is as due as the first try was
    registry = Registry(GENESIS)
    cfg = make_cfg(block_size_min=10)
    held = _finalized_txs(registry, 3, finalized_at=0)
    first = new_block(1, GENESIS.id, 1, held, created_at=PART_WAIT_MS)
    assert validate_entity(registry, first, cfg)
    late = _finalized_txs(registry, 4, start=3, finalized_at=PART_WAIT_MS + 300)
    retry = new_block(1, GENESIS.id, 1, held + late, first.created_at, attempt=1)
    assert len(retry.tx_ids) < cfg.block_size_min
    assert validate_entity(registry, retry, cfg)
    # the late parts alone would not be due at that time
    assert not validate_entity(registry, new_block(1, GENESIS.id, 1, late, first.created_at), cfg)


# -- economy --------------------------------------------------------------


def _tickets(approvals, total):
    tickets = []
    for i in range(total):
        decision = "approve" if i < approvals else "reject"
        tickets.append(ValidationTicket(validator=i + 1, path=[], decision=decision))
    return tickets


def test_fee_flow_matches_arithmetic():
    cfg = make_cfg(nodes=30, validators_per_entity=12, signature_threshold=10)
    ledger = EconomyLedger.create(30, 20)
    tickets = _tickets(approvals=10, total=12)
    apply_finalization_fees(ledger, owner=0, tickets=tickets, cfg=cfg, is_block=False)
    assert ledger.balances[0] == 20 - (10 * 2 + 12 * 1)
    # every validator is paid for routing its search, and approvers also
    # for validating
    for i in range(12):
        assert ledger.balances[i + 1] == 20 + 1 + (2 if i < 10 else 0)
    assert ledger.minted_total == 0
    ledger.check_conservation()


def test_block_reward_minted():
    cfg = make_cfg(nodes=30, validators_per_entity=12, signature_threshold=10)
    ledger = EconomyLedger.create(30, 20)
    before = sum(ledger.balances)
    apply_finalization_fees(ledger, 0, _tickets(10, 12), cfg, is_block=True)
    assert sum(ledger.balances) == before + 3
    assert ledger.minted_total == 3
    ledger.check_conservation()


def test_negative_balances_counted_not_blocked():
    ledger = EconomyLedger.create(2, 1)
    ledger.transfer(0, 1, 5)
    assert ledger.balances[0] == -4
    assert ledger.negative_balance_events == 1
    ledger.check_conservation()


@given(ops=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                              st.integers(0, 100)), max_size=50),
       mints=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 50)), max_size=20))
def test_supply_conservation_property(ops, mints):
    ledger = EconomyLedger.create(5, 20)
    for src, dst, amount in ops:
        ledger.transfer(src, dst, amount)
    for dst, amount in mints:
        ledger.mint(dst, amount)
    ledger.check_conservation()
    assert sum(ledger.balances) == 5 * 20 + sum(a for _, a in mints)
