"""Node-local pooling and scheduling behavior."""
import random

import pytest

from chainsim import controller
from chainsim.controller import NodeState, pending_pool
from chainsim.engine import Simulation
from chainsim.identity import Identifier, ZERO_ID, hash_bytes
from chainsim.storage import Block, ChainTracker, new_transaction
from conftest import bare_simulation, make_cfg

GENESIS = Block(ZERO_ID, 0, ZERO_ID, 0)


def make_state(index=0) -> NodeState:
    return NodeState(
        node_index=index, malicious=False,
        rng_recipient=random.Random(1), rng_corrupt=random.Random(2),
        rng_backoff=random.Random(3), tracker=ChainTracker(GENESIS),
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
    block = Block(Identifier(b"\x07" * 32), 0, GENESIS.id, 1, (a,))
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
    controller.start_block_attempt(sim, owner)
    block = owner.block_round.entity
    assert block.tx_ids == tuple(oldest_first)
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
    controller.start_block_attempt(sim, owner)
    assert owner.block_round is None and not owner.block_attempt_open
    assert len(owner.pool) == 9 and not owner.in_flight_txs


def test_retry_after_an_abandoned_round_takes_the_txs_pooled_since():
    sim = bare_simulation(block_size_min=10)
    owner = sim.nodes[0]
    first_ten = pool_txs(sim, owner, 10)
    owner.block_attempt_open = True
    controller.start_block_attempt(sim, owner)
    first = owner.block_round
    assert first.entity.tx_ids == tuple(first_ten)
    pooled_since = pool_txs(sim, owner, 3, first_seq=10)
    # another owner's block takes height 1 first, and its notify lands
    rival = Block(hash_bytes(b"rival"), 1, sim.genesis.id, 1)
    sim.registry.tracker.add(rival)
    controller.on_block_notify(sim, owner, rival)
    assert first.done
    # the attempt's counters span all of its tries
    assert owner.block_round.context is first.context
    retry = owner.block_round.entity
    assert (retry.parent, retry.height) == (rival.id, 2)
    assert retry.tx_ids == tuple(first_ten + pooled_since)
    assert not owner.pool


def run_queued(sim: Simulation) -> None:
    """Run the events queued now, in their order, but none that they queue."""
    queued = sorted(sim._heap)
    sim._heap.clear()
    for fire_time, _, fn in queued:
        sim.now = fire_time
        fn()


def drain_builder(sim: Simulation) -> NodeState:
    """The one node with a block round open."""
    (builder,) = [state for state in sim.nodes if state.block_round is not None]
    return builder


def test_drain_try_sweeps_every_pool_and_no_second_one_starts_while_it_is_open():
    sim = bare_simulation(block_size_min=10)
    small = pool_txs(sim, sim.nodes[1], 3)
    big = pool_txs(sim, sim.nodes[2], 12)   # BLK_SIZE or more, swept all the same
    controller.enter_drain_mode(sim)
    # node 0, holding no pool, builds nothing; each owner of a pool schedules a try
    assert [state.block_attempt_open for state in sim.nodes[:3]] == [False, True, True]
    run_queued(sim)
    # the owner whose backoff ends first builds it, and the other finds it open
    builder = drain_builder(sim)
    assert builder in sim.nodes[1:3]
    first = builder.block_round.entity
    assert first.drain and first.tx_ids == tuple(small + big)
    assert sim.nodes[1].in_flight_txs == set(small) and not sim.nodes[1].pool
    assert sim.nodes[2].in_flight_txs == set(big) and not sim.nodes[2].pool
    late_owner = sim.nodes[3]
    late = pool_txs(sim, late_owner, 2)
    controller.maybe_schedule_block(sim, late_owner)
    assert not late_owner.block_attempt_open
    # a first try started anyway takes nothing and closes
    late_owner.block_attempt_open = True
    controller.start_block_attempt(sim, late_owner)
    assert not late_owner.block_attempt_open and late_owner.pool
    assert all(state.block_round is None for state in sim.nodes if state is not builder)
    # a rejected try hands every owner its part back, and the retry sweeps again
    controller.on_block_result(sim, builder, first, tickets=[], approved=False,
                               context=builder.block_round.context)
    retry = builder.block_round.entity
    assert retry.drain and retry.attempt == 1
    assert retry.tx_ids == tuple(small + big + late)
    assert late_owner.in_flight_txs == set(late) and not late_owner.pool


def test_drain_try_closed_at_max_retries_reschedules_every_pool():
    sim = bare_simulation(block_size_min=10)
    small = pool_txs(sim, sim.nodes[1], 3)
    big = pool_txs(sim, sim.nodes[2], 12)
    controller.enter_drain_mode(sim)
    run_queued(sim)
    builder = drain_builder(sim)
    for _ in range(controller.MAX_BLOCK_RETRIES):
        round_ = builder.block_round
        controller.on_block_result(sim, builder, round_.entity, tickets=[], approved=False,
                                   context=round_.context)
    last = builder.block_round.entity
    assert last.drain and last.attempt == controller.MAX_BLOCK_RETRIES
    # drop the rounds' messages, so only what the close schedules is queued
    sim._heap.clear()
    controller.on_block_result(sim, builder, last, tickets=[], approved=False,
                               context=builder.block_round.context)
    # every owner holds its part again and has scheduled a try; node 0 has none
    assert all(state.block_round is None for state in sim.nodes)
    assert [tx for _, tx in pending_pool(sim.nodes[1])] == small
    assert [tx for _, tx in pending_pool(sim.nodes[2])] == big
    assert [state.block_attempt_open for state in sim.nodes[:3]] == [False, True, True]
    run_queued(sim)
    second = drain_builder(sim).block_round.entity
    assert second.drain and second.attempt == 0
    assert second.tx_ids == tuple(small + big)


def oracle_pool(state: NodeState) -> list:
    """The pool built from scratch: own finalized, minus chained, minus in flight."""
    return sorted(
        (finalized_at, tx_id) for tx_id, finalized_at in state.own_finalized.items()
        if tx_id not in state.tracker.chain_txs and tx_id not in state.in_flight_txs
    )


# a drain-heavy run: 3 txs per node never reach BLK_SIZE 5 before drain mode
DRAIN_RETRY_CONFIG = dict(nodes=8, transactions_per_node=3, block_size_min=5,
                          malicious_fraction=0.25)
DRAIN_RETRY_SEED = 1


# configs where a reorg still cuts an own block while one of its txs sits
# in a newer attempt, which validators that approve only blocks taller
# than the tail, owners that abandon rounds the tail has passed, and
# blocks that take the whole pool make rare; the last one's drain block
# holds several owners' txs, and a drain try before it fails
@pytest.mark.parametrize("overrides, seed", [
    (dict(nodes=5, transactions_per_node=7, block_size_min=3), 467),
    (dict(nodes=9, transactions_per_node=4, block_size_min=2, malicious_fraction=0.15), 17),
    (DRAIN_RETRY_CONFIG, DRAIN_RETRY_SEED),
])
def test_pool_matches_from_scratch_oracle_after_every_event(monkeypatch, overrides, seed):
    schedule_at = Simulation.schedule_at
    # node -> txs of finalized drain blocks whose notify has not reached it
    unnotified: dict[int, dict[Identifier, set]] = {}

    def checked_schedule_at(sim, fire_time, fn):
        def checked():
            fn()
            rounds = [s.block_round for s in sim.nodes if s.block_round is not None]
            drain_rounds = [r for r in rounds if r.entity.drain]
            assert len(drain_rounds) <= 1
            held = [tx_id for r in rounds for tx_id in r.entity.tx_ids]
            assert len(held) == len(set(held))   # no tx in two open rounds
            owner_of = {tx_id: s for s in sim.nodes for tx_id in s.own_finalized}
            drain_held = {tx_id for r in drain_rounds for tx_id in r.entity.tx_ids}
            assert all(tx_id in owner_of[tx_id].in_flight_txs for tx_id in drain_held)
            for state in sim.nodes:
                assert pending_pool(state) == oracle_pool(state)
                # the round is the open attempt's only record
                round_ = state.block_round
                assert round_ is None or (not round_.done and state.block_attempt_open)
                own_round = (set() if round_ is None or round_.entity.drain
                             else set(round_.entity.tx_ids))
                held_elsewhere = drain_held.union(
                    *unnotified.get(state.node_index, {}).values())
                assert own_round == state.in_flight_txs - held_elsewhere
        schedule_at(sim, fire_time, checked)

    finalize = Simulation.finalize

    def watched_finalize(sim, entity, tickets, context):
        finalize(sim, entity, tickets, context)
        if isinstance(entity, Block) and entity.drain:
            for other in sim.nodes:
                if other.node_index != entity.owner:
                    unnotified.setdefault(other.node_index, {})[entity.id] = {
                        tx_id for tx_id in entity.tx_ids if tx_id in other.own_finalized}

    on_block_notify = controller.on_block_notify

    def watched_on_block_notify(sim, state, block):
        unnotified.get(state.node_index, {}).pop(block.id, None)
        on_block_notify(sim, state, block)

    cut_in_flight = []
    unchained = NodeState.unchained

    def watched_unchained(state, tx_ids):
        cut_in_flight.extend(tx_id for tx_id in tx_ids if tx_id in state.in_flight_txs)
        unchained(state, tx_ids)

    failed_drain_tries = []
    retry_block = controller._retry_block

    def watched_retry_block(sim, state, block):
        if block.drain:
            failed_drain_tries.append(block)
        retry_block(sim, state, block)

    monkeypatch.setattr(Simulation, "schedule_at", checked_schedule_at)
    monkeypatch.setattr(Simulation, "finalize", watched_finalize)
    monkeypatch.setattr(controller, "on_block_notify", watched_on_block_notify)
    monkeypatch.setattr(controller, "_retry_block", watched_retry_block)
    monkeypatch.setattr(NodeState, "unchained", watched_unchained)
    sim = Simulation(make_cfg(**overrides), seed=seed)
    sim.run()
    assert all(not state.pool and not state.in_flight_txs for state in sim.nodes)
    assert not any(unnotified.values())
    # the run covers drain blocks and reorgs that cut an own block while
    # one of its txs sits in a newer attempt
    drain_blocks = [block for block in sim.registry.tracker.blocks.values() if block.drain]
    assert drain_blocks
    if overrides is DRAIN_RETRY_CONFIG:
        owner_of = {tx_id: s.node_index for s in sim.nodes for tx_id in s.own_finalized}
        assert any(len({owner_of[tx_id] for tx_id in block.tx_ids}) > 1
                   for block in drain_blocks)
        # a drain try rejected or abandoned handed its parts back
        assert failed_drain_tries
    else:
        assert cut_in_flight
    if overrides.get("malicious_fraction"):
        assert any(s.malicious for s in sim.nodes)


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
    malicious = {s.node_index for s in sim.nodes if s.malicious}
    assert len(malicious) == 2
    assert len(sim.registry.finalized_txs) == 24
    retried = [r for r in sim.records if r.event_type == "tx"
               and r.owner in malicious]
    assert retried   # malicious owners still land every transaction
