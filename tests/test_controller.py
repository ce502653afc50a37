"""Node-local pooling and scheduling behavior."""
import random

import pytest

from chainsim import controller
from chainsim.controller import NodeState, pending_pool
from chainsim.engine import Simulation
from chainsim.identity import Identifier, ZERO_ID, hash_bytes
from chainsim.storage import BlockInfo, ChainTracker, new_transaction
from conftest import bare_simulation, make_cfg

GENESIS = BlockInfo(ZERO_ID, ZERO_ID, 0, ())


def make_state(index=0) -> NodeState:
    return NodeState(
        node_index=index, malicious=False,
        rng_recipient=random.Random(1), rng_corrupt=random.Random(2),
        rng_backoff=random.Random(3), tracker=ChainTracker(GENESIS, owner=index),
    )


def test_pool_ordered_oldest_first_with_id_tiebreak():
    state = make_state()
    a, b, c = (Identifier(bytes([v]) * 32) for v in (9, 1, 5))
    for tx_id, finalized_at in ((a, 300), (b, 100), (c, 100)):
        state.add_finalized(tx_id, finalized_at)
    assert [tx for _, tx in pending_pool(state)] == [b, c, a]


def test_pool_excludes_chained_and_in_flight():
    state = make_state()
    a, b, c = (Identifier(bytes([v]) * 32) for v in (1, 2, 3))
    for tx_id, finalized_at in ((a, 10), (b, 20), (c, 30)):
        state.add_finalized(tx_id, finalized_at)
    block = BlockInfo(Identifier(b"\x07" * 32), GENESIS.id, 1, (a,), owner=0)
    state.tracker.add(block)
    assert state.tracker.chain_txs == {a: 1}
    state.take([b])
    assert state.in_flight_txs == {b}
    assert [tx for _, tx in pending_pool(state)] == [c]


def pool_txs(sim: Simulation, state: NodeState, count: int, first_seq=0) -> list:
    """Finalize and pool `count` new txs of `state`, finalized in an order
    other than their seqs; returns their ids, oldest first."""
    finalized = []
    for seq in range(first_seq, first_seq + count):
        tx = new_transaction(state.node_index, 1, 1, sim.genesis.id, seq, created_at=0)
        finalized_at = 1000 * first_seq + (7 * seq) % count
        sim.registry.add_tx(tx.id, state.node_index, seq)
        state.add_finalized(tx.id, finalized_at)
        finalized.append((finalized_at, tx.id))
    return [tx_id for _, tx_id in sorted(finalized)]


def test_block_takes_the_whole_pool_once_it_reaches_blk_size():
    sim = bare_simulation(block_size_min=10)
    owner = sim.nodes[0]
    oldest_first = pool_txs(sim, owner, 13)
    controller.maybe_schedule_block(sim, owner)
    assert owner.block_attempt_open and sim._heap
    controller.start_block_attempt(sim, owner, drain=False)
    block = owner.block_round.entity
    assert block.tx_ids == oldest_first
    assert not block.drain
    assert not owner.pool and owner.in_flight_txs == set(oldest_first)


def test_pool_below_blk_size_gives_no_block():
    sim = bare_simulation(block_size_min=10)
    owner = sim.nodes[0]
    pool_txs(sim, owner, 9)
    controller.maybe_schedule_block(sim, owner)
    assert not owner.block_attempt_open and not sim._heap
    # an attempt started anyway takes nothing and closes
    owner.block_attempt_open = True
    controller.start_block_attempt(sim, owner, drain=False)
    assert owner.block_round is None and not owner.block_attempt_open
    assert len(owner.pool) == 9 and not owner.in_flight_txs


def test_retry_after_an_abandoned_round_takes_the_txs_pooled_since():
    sim = bare_simulation(block_size_min=10)
    owner = sim.nodes[0]
    first_ten = pool_txs(sim, owner, 10)
    owner.block_attempt_open = True
    controller.start_block_attempt(sim, owner, drain=False)
    first = owner.block_round
    assert first.entity.tx_ids == first_ten
    pooled_since = pool_txs(sim, owner, 3, first_seq=10)
    # another owner's block takes height 1 first, and its notify lands
    rival = BlockInfo(hash_bytes(b"rival"), sim.genesis.id, 1, (), owner=1)
    sim.registry.add_block(rival)
    controller.on_block_notify(sim, owner, rival)
    assert first.done
    # the attempt's counters span all of its tries
    assert owner.block_round.context is first.context
    retry = owner.block_round.entity
    assert (retry.prev_block_id, retry.height) == (rival.id, 2)
    assert retry.tx_ids == first_ten + pooled_since
    assert not owner.pool


def oracle_pool(state: NodeState) -> list:
    """The pool built from scratch: own finalized, minus chained, minus in flight."""
    return sorted(
        (finalized_at, tx_id) for tx_id, finalized_at in state.own_finalized.items()
        if tx_id not in state.tracker.chain_txs and tx_id not in state.in_flight_txs
    )


# configs where a reorg still cuts an own block while one of its txs sits
# in a newer attempt, which validators that approve only blocks taller
# than the tail, owners that abandon rounds the tail has passed, and
# blocks that take the whole pool make rare
@pytest.mark.parametrize("overrides, seed", [
    (dict(nodes=5, transactions_per_node=7, block_size_min=3), 1),
    (dict(nodes=10, transactions_per_node=6, block_size_min=2, malicious_fraction=0.2), 3),
])
def test_pool_matches_from_scratch_oracle_after_every_event(monkeypatch, overrides, seed):
    schedule_at = Simulation.schedule_at

    def checked_schedule_at(sim, fire_time, fn):
        def checked():
            fn()
            for state in sim.nodes:
                assert pending_pool(state) == oracle_pool(state)
                # the round is the open attempt's only record
                round_ = state.block_round
                assert round_ is None or (
                    not round_.done and state.block_attempt_open
                    and set(round_.entity.tx_ids) == state.in_flight_txs)
        schedule_at(sim, fire_time, checked)

    cut_in_flight = []
    unchained = NodeState.unchained

    def watched_unchained(state, tx_ids):
        cut_in_flight.extend(tx_id for tx_id in tx_ids if tx_id in state.in_flight_txs)
        unchained(state, tx_ids)

    monkeypatch.setattr(Simulation, "schedule_at", checked_schedule_at)
    monkeypatch.setattr(NodeState, "unchained", watched_unchained)
    sim = Simulation(make_cfg(**overrides), seed=seed)
    sim.run()
    assert all(not state.pool for state in sim.nodes)
    # the run covers undersized drain blocks and reorgs that cut an own
    # block while one of its txs sits in a newer attempt
    assert any(info.drain for info in sim.registry.tracker.blocks.values())
    assert cut_in_flight
    if overrides.get("malicious_fraction"):
        assert sim.malicious_set


def test_first_transaction_timers_respect_delay():
    sim = Simulation(make_cfg(nodes=4, transactions_per_node=2), seed=3)
    sim.run()
    # DELAY = 1: consecutive transactions of a node are 1000 ms apart
    created = {}
    for rec in sim.records:
        if rec.event_type == "tx":
            created.setdefault(rec.owner, []).append(rec.created_at)
    for state in sim.nodes:
        first, second = sorted(created[state.node_index])
        assert second - first == 1000
        assert state.tx_generated == 2


def test_generation_stops_at_quota():
    sim = Simulation(make_cfg(nodes=4, transactions_per_node=3, block_size_min=3), seed=4)
    sim.run()
    assert all(s.tx_generated == 3 for s in sim.nodes)
    assert len(sim.registry.finalized_txs) == 12


def test_malicious_owner_retries_until_accepted():
    cfg = make_cfg(nodes=8, transactions_per_node=3, block_size_min=3,
                   malicious_fraction=0.25, validators_per_entity=5,
                   signature_threshold=4)
    sim = Simulation(cfg, seed=5)
    sim.run()
    assert len(sim.malicious_set) == 2
    assert len(sim.registry.finalized_txs) == 24
    retried = [r for r in sim.records if r.event_type == "tx"
               and r.owner in sim.malicious_set]
    assert retried   # malicious owners still land every transaction
