"""Node-local pooling and scheduling behavior."""
import random

from chainsim.controller import NodeState, ROLE_HONEST, pending_pool
from chainsim.engine import Simulation
from chainsim.identity import Identifier, ZERO_ID, address_for
from chainsim.storage import BlockInfo, ChainTracker
from conftest import make_cfg

GENESIS = BlockInfo(ZERO_ID, ZERO_ID, 0, ())


def make_state(index=0) -> NodeState:
    return NodeState(
        node_index=index, address=address_for(index),
        identifier=Identifier(bytes([index]) * 32), role=ROLE_HONEST,
        rng_recipient=random.Random(1), rng_corrupt=random.Random(2),
        rng_backoff=random.Random(3), tracker=ChainTracker(GENESIS),
    )


def test_pool_ordered_oldest_first_with_id_tiebreak():
    state = make_state()
    a, b, c = (Identifier(bytes([v]) * 32) for v in (9, 1, 5))
    state.own_finalized = {a: 300, b: 100, c: 100}
    assert [tx for _, tx in pending_pool(state)] == [b, c, a]


def test_pool_excludes_chained_and_in_flight():
    state = make_state()
    a, b, c = (Identifier(bytes([v]) * 32) for v in (1, 2, 3))
    state.own_finalized = {a: 10, b: 20, c: 30}
    state.tracker.chain_txs.add(a)
    state.in_flight_txs.add(b)
    assert [tx for _, tx in pending_pool(state)] == [c]


def test_first_transaction_timers_respect_delay():
    sim = Simulation(make_cfg(nodes=4, transactions_per_node=2), seed=3)
    sim.run()
    # DELAY = 1: consecutive transactions of a node are 1000 ms apart
    for state in sim.nodes:
        assert state.next_tx_due >= 1000
        assert state.tx_generated == 2


def test_generation_stops_at_quota():
    sim = Simulation(make_cfg(nodes=4, transactions_per_node=3, block_size_min=3), seed=4)
    sim.run()
    assert all(s.tx_generated == 3 for s in sim.nodes)
    assert sim.generators_remaining == 0


def test_malicious_owner_retries_until_accepted():
    cfg = make_cfg(nodes=8, transactions_per_node=3, block_size_min=3,
                   malicious_fraction=0.25, validators_per_entity=5,
                   signature_threshold=4)
    sim = Simulation(cfg, seed=5)
    sim.run()
    assert len(sim.malicious_set) == 2
    assert sim.slots_finalized == 24
    retried = [r for r in sim.records if r.event_type == "tx"
               and r.owner in sim.malicious_set]
    assert retried   # malicious owners still land every transaction
