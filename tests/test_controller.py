"""Node-local pooling and scheduling behavior."""
import random

import pytest

from chainsim.controller import NodeState, pending_pool
from chainsim.engine import Simulation
from chainsim.identity import Identifier, ZERO_ID
from chainsim.storage import BlockInfo, ChainTracker
from conftest import make_cfg

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


def oracle_pool(state: NodeState) -> list:
    """The pool built from scratch: own finalized, minus chained, minus in flight."""
    return sorted(
        (finalized_at, tx_id) for tx_id, finalized_at in state.own_finalized.items()
        if tx_id not in state.tracker.chain_txs and tx_id not in state.in_flight_txs
    )


@pytest.mark.parametrize("overrides, seed", [
    (dict(nodes=10, transactions_per_node=7, block_size_min=2), 1),
    (dict(nodes=8, transactions_per_node=7, block_size_min=3, malicious_fraction=0.25), 3),
])
def test_pool_matches_from_scratch_oracle_after_every_event(monkeypatch, overrides, seed):
    schedule_at = Simulation.schedule_at

    def checked_schedule_at(sim, fire_time, fn):
        def checked():
            fn()
            for state in sim.nodes:
                assert pending_pool(state) == oracle_pool(state)
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
