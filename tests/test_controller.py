"""Node-local parts, proposers and block building."""
import random
from collections import Counter
from heapq import heappop

import pytest

from chainsim import controller
from chainsim.consensus import PART_WAIT_MS, validate_entity
from chainsim.controller import NodeState, pending_pool
from chainsim.engine import Simulation
from chainsim.identity import Identifier, ZERO_ID, hash_bytes
from chainsim.simnet import TAG_PART
from chainsim.storage import Block, new_block, new_transaction
from conftest import bare_simulation, make_cfg

GENESIS = Block(ZERO_ID, 0, ZERO_ID, 0)


def make_state(index=0) -> NodeState:
    return NodeState(
        node_index=index, malicious=False,
        rng_recipient=random.Random(1), rng_corrupt=random.Random(2),
        tail=GENESIS,
    )


def test_pool_ordered_oldest_first_with_id_tiebreak():
    state = make_state()
    a, b, c = (Identifier(bytes([v]) * 32) for v in (9, 1, 5))
    for tx_id, finalized_at in ((a, 300), (b, 100), (c, 100)):
        state.add_finalized(tx_id, finalized_at)
    assert [tx for _, tx in pending_pool(state)] == [b, c, a]


def proposer_state(sim: Simulation) -> NodeState:
    """The proposer of the genesis tail, which every node starts on."""
    return sim.nodes[controller.proposer_of(sim, sim.genesis)]


def pool_txs(sim: Simulation, state: NodeState, count: int, first_seq=0,
             holder: NodeState | None = None) -> list:
    """Finalize `count` new txs of `state`, finalized in an order other than
    their seqs, as parts held by `holder` (the owner itself by default);
    returns their ids, oldest first."""
    holder = holder or state
    finalized = []
    for seq in range(first_seq, first_seq + count):
        tx = new_transaction(state.node_index, 1, 1, sim.genesis.id, seq, created_at=0)
        finalized_at = 1000 * first_seq + (7 * seq) % count
        sim.registry.add_tx(tx.id, state.node_index, seq, finalized_at)
        state.own_finalized[tx.id] = finalized_at
        holder.parts[tx.id] = finalized_at
        finalized.append((finalized_at, tx.id))
    return [tx_id for _, tx_id in sorted(finalized)]


def test_pool_excludes_chained_and_in_flight():
    sim = bare_simulation(block_size_min=1)
    proposer = proposer_state(sim)
    a, b, c = pool_txs(sim, proposer, 3)
    # a block try takes every part, which are then in flight in its round
    controller.start_block_attempt(sim, proposer)
    round_ = proposer.block_round
    block = round_.entity
    assert block.tx_ids == (a, b, c)
    assert proposer.taken.keys() == {a, b, c} and pending_pool(proposer) == []
    # once the block is on the chain, its txs are neither parts nor in flight
    controller.on_block_result(sim, proposer, block, tickets=[], approved=True,
                               context=round_.context)
    assert sim.registry.tracker.chain_txs == {a, b, c} and proposer.tail is block
    assert not proposer.taken and pending_pool(proposer) == []


def test_block_takes_the_whole_pool_once_it_reaches_blk_size():
    sim = bare_simulation(block_size_min=10)
    proposer = proposer_state(sim)
    # parts of two owners, the proposer's own and another node's
    other = sim.nodes[(proposer.node_index + 1) % len(sim.nodes)]
    held = pool_txs(sim, proposer, 6) + pool_txs(sim, other, 7, holder=proposer)
    controller._settle(sim, proposer)
    block = proposer.block_round.entity
    assert block.tx_ids == tuple(tx for _, tx in sorted(
        (proposer.taken[tx], tx) for tx in held))
    assert (block.owner, block.parent, block.height) == (proposer.node_index, sim.genesis.id, 1)
    assert len(block.tx_ids) == 13
    assert not proposer.parts and proposer.taken.keys() == set(held)


def test_pool_below_blk_size_gives_no_block():
    sim = bare_simulation(block_size_min=10)
    proposer = proposer_state(sim)
    pool_txs(sim, proposer, 9)
    controller._settle(sim, proposer)
    controller._settle(sim, proposer)
    # no block, and one wake-up at the oldest part's deadline
    assert proposer.block_round is None and len(proposer.parts) == 9
    assert [fire_time for fire_time, _, _ in sim._heap] == [PART_WAIT_MS]


def test_a_proposer_builds_a_short_block_once_its_oldest_part_has_waited_w():
    sim = bare_simulation(block_size_min=10)
    proposer = proposer_state(sim)
    held = pool_txs(sim, proposer, 3)
    controller._settle(sim, proposer)
    # parts that land later neither build nor schedule a second wake-up
    owner = sim.nodes[(proposer.node_index + 1) % len(sim.nodes)]
    late = pool_txs(sim, owner, 2, first_seq=1, holder=make_state(owner.node_index))
    sim.now = PART_WAIT_MS - 1
    controller.on_parts(sim, proposer, {tx: owner.own_finalized[tx] for tx in late},
                         tail=sim.genesis)
    assert proposer.block_round is None and len(sim._heap) == 1
    sim.now, _, wake = heappop(sim._heap)
    wake()
    block = proposer.block_round.entity
    assert sim.now == PART_WAIT_MS == block.created_at
    assert set(block.tx_ids) == set(held + late)
    # its validators approve it, and would have refused it a millisecond earlier
    assert validate_entity(sim.registry, block, sim.cfg)
    early = new_block(block.owner, block.parent, block.height, block.tx_ids,
                      created_at=block.created_at - 1)
    assert not validate_entity(sim.registry, early, sim.cfg)


def test_retry_after_a_rejected_round_takes_the_parts_held_since():
    sim = bare_simulation(block_size_min=10)
    proposer = proposer_state(sim)
    first_ten = pool_txs(sim, proposer, 10)
    controller._settle(sim, proposer)
    first = proposer.block_round
    assert first.entity.tx_ids == tuple(first_ten)
    # three more parts land while the round is open, and wait
    arrived = {}
    held_since = pool_txs(sim, sim.nodes[3], 3, first_seq=10, holder=make_state(3))
    for tx_id in held_since:
        arrived[tx_id] = sim.nodes[3].own_finalized[tx_id]
    controller.on_parts(sim, proposer, arrived, tail=sim.genesis)
    assert proposer.block_round is first and len(proposer.parts) == 3
    controller.on_block_result(sim, proposer, first.entity, tickets=[], approved=False,
                               context=first.context)
    retry = proposer.block_round
    # the attempt's counters span all of its tries
    assert retry.context is first.context
    assert (retry.entity.parent, retry.entity.height, retry.entity.attempt) == (
        sim.genesis.id, 1, 1)
    assert set(retry.entity.tx_ids) == set(first_ten + held_since)
    assert not proposer.parts


def test_a_proposer_retries_its_attempt_until_the_tail_moves_on(monkeypatch):
    sent = count_part_sends(monkeypatch)
    sim = bare_simulation(block_size_min=10)
    proposer = proposer_state(sim)
    held = pool_txs(sim, proposer, 12)
    controller._settle(sim, proposer)
    first = proposer.block_round
    for attempt in range(1, 6):
        round_ = proposer.block_round
        controller.on_block_result(sim, proposer, round_.entity, tickets=[], approved=False,
                                   context=round_.context)
        # every retry is the same attempt, rebuilt from the same parts
        retry = proposer.block_round
        assert retry.entity.attempt == attempt and retry.context is first.context
        assert retry.entity.tx_ids == tuple(held) and proposer.block_ctx_counter == 1
    # another block takes the tail's height, and its proposer is another node
    other = next(block for block in (
        Block(hash_bytes(b"other", bytes([i])), 5, sim.genesis.id, 1) for i in range(256))
        if controller.proposer_of(sim, block) != proposer.node_index)
    controller.on_block_notify(sim, proposer, other)
    round_ = proposer.block_round
    controller.on_block_result(sim, proposer, round_.entity, tickets=[], approved=False,
                               context=round_.context)
    # the attempt ends, and its parts go to the new tail's proposer
    assert proposer.block_round is None and not proposer.parts and not proposer.taken
    assert sent == [(proposer.node_index, controller.proposer_of(sim, other), set(held))]


def test_a_block_on_a_bogus_parent_gives_its_parts_back():
    # malicious approvals can finalize a malicious proposer's first try on
    # a bogus parent; it links nowhere, so its builder builds its parts again
    sim = bare_simulation(block_size_min=5)
    proposer = proposer_state(sim)
    held = pool_txs(sim, proposer, 5)
    controller._settle(sim, proposer)
    honest = proposer.block_round.entity
    bogus = new_block(proposer.node_index, hash_bytes(b"nowhere"), 1, honest.tx_ids,
                      created_at=0)
    controller.on_block_result(sim, proposer, bogus, tickets=[], approved=True,
                               context=proposer.block_round.context)
    assert bogus.id not in sim.registry.tracker.blocks
    again = proposer.block_round.entity
    assert again.parent == sim.genesis.id and again.tx_ids == tuple(held)


def run_queued(sim: Simulation, until: int) -> None:
    """Run every queued event due before `until`, and the ones they queue, in order."""
    while sim._heap and sim._heap[0][0] < until:
        sim.now, _, fn = heappop(sim._heap)
        fn()


def count_part_sends(monkeypatch) -> list:
    """Record (sender, receiver, tx ids) of every part message."""
    sent = []
    send_parts = Simulation.send_parts

    def watched(sim, state, dst, parts):
        sent.append((state.node_index, dst, set(parts)))
        send_parts(sim, state, dst, parts)

    monkeypatch.setattr(Simulation, "send_parts", watched)
    return sent


def test_a_node_that_is_not_the_proposer_forwards_its_parts(monkeypatch):
    sent = count_part_sends(monkeypatch)
    sim = bare_simulation(block_size_min=10)
    proposer = proposer_state(sim)
    owner = sim.nodes[(proposer.node_index + 5) % len(sim.nodes)]
    first = pool_txs(sim, owner, 2)
    controller._settle(sim, owner)
    # the first part to a node not yet found rides a routed search
    routed = sim.net.traffic_by_tag[TAG_PART][0]
    assert routed >= 1 and not owner.parts and proposer.node_index in owner.known
    second = pool_txs(sim, owner, 1, first_seq=2)
    controller._settle(sim, owner)
    # later ones go direct
    assert sim.net.traffic_by_tag[TAG_PART][0] == routed + 1
    run_queued(sim, until=PART_WAIT_MS)
    assert proposer.parts.keys() == set(first + second)
    # the proposer holds them until the oldest one's deadline; the direct
    # message overtook the routed one, so a wake-up for the younger part
    # waits too, and finds nothing due
    assert proposer.wake_at == PART_WAIT_MS
    assert sorted(fire_time for fire_time, _, _ in sim._heap) == [PART_WAIT_MS, 2 * PART_WAIT_MS]
    assert sent == [(owner.node_index, proposer.node_index, set(first)),
                    (owner.node_index, proposer.node_index, set(second))]


def test_the_old_proposer_forwards_its_parts_when_the_tail_moves(monkeypatch):
    sent = count_part_sends(monkeypatch)
    sim = bare_simulation(block_size_min=10)
    proposer = proposer_state(sim)
    pool_txs(sim, proposer, 10)
    controller._settle(sim, proposer)
    round_ = proposer.block_round
    # two parts land while the block is under validation
    late = pool_txs(sim, proposer, 2, first_seq=10)
    block = round_.entity
    next_proposer = controller.proposer_of(sim, block)
    assert next_proposer != proposer.node_index
    controller.on_block_result(sim, proposer, block, tickets=[], approved=True,
                               context=round_.context)
    # one message hands the new proposer every part the old one still held
    assert sent == [(proposer.node_index, next_proposer, set(late))]
    assert not proposer.parts and proposer.block_round is None
    run_queued(sim, until=min(proposer.own_finalized[tx] for tx in late) + PART_WAIT_MS)
    # it waits for the new tail before acting on them, so nothing bounces back,
    # and then for the oldest one's deadline
    new = sim.nodes[next_proposer]
    assert new.tail is block and new.parts.keys() == set(late)
    assert [fire_time for fire_time, _, _ in sim._heap] == [new.wake_at]
    assert len(sent) == 1


def test_a_block_with_two_owners_parts_came_by_part_messages(monkeypatch):
    sent = count_part_sends(monkeypatch)
    sim = Simulation(make_cfg(nodes=8, transactions_per_node=5, block_size_min=5), seed=3)
    report = sim.run()
    assert report.messages_by_tag[TAG_PART] > 0
    carried = set().union(*(tx_ids for _, _, tx_ids in sent))
    owner_of = {tx_id: s.node_index for s in sim.nodes for tx_id in s.own_finalized}
    mixed = [block for block in sim.registry.tracker.chain[1:]
             if len({owner_of[tx_id] for tx_id in block.tx_ids}) > 1]
    assert mixed
    for block in mixed:
        # every tx of another owner reached the block's builder by a part message
        assert all(tx_id in carried for tx_id in block.tx_ids
                   if owner_of[tx_id] != block.owner)


# 3 txs per node and BLK_SIZE 5: the leftovers end in a short block
SHORT_RETRY_CONFIG = dict(nodes=8, transactions_per_node=3, block_size_min=5,
                          malicious_fraction=0.25)
SHORT_RETRY_SEED = 2


# runs whose parts follow several tail moves, held and forwarded; the last
# one ends in a short block, and a malicious proposer's try fails and is
# rebuilt
@pytest.mark.parametrize("overrides, seed", [
    (dict(nodes=5, transactions_per_node=7, block_size_min=3), 467),
    (dict(nodes=9, transactions_per_node=4, block_size_min=2, malicious_fraction=0.15), 17),
    (SHORT_RETRY_CONFIG, SHORT_RETRY_SEED),
])
def test_pool_matches_from_scratch_oracle_after_every_event(monkeypatch, overrides, seed):
    # between events every finalized tx is in exactly one place: on the
    # registry chain, in one node's parts, in one open block try, or in one
    # part message on its way; and every node has acted on its parts
    in_transit: list[dict] = []
    forwarded = []
    send_parts = Simulation.send_parts

    def watched_send_parts(sim, state, dst, parts):
        if any(tx_id not in state.own_finalized for tx_id in parts):
            forwarded.append(parts)
        in_transit.append(parts)
        send_parts(sim, state, dst, parts)

    on_parts = controller.on_parts

    def watched_on_parts(sim, state, parts, tail):
        in_transit.remove(parts)
        on_parts(sim, state, parts, tail)

    schedule_at = Simulation.schedule_at

    def checked_schedule_at(sim, fire_time, fn):
        def checked():
            fn()
            places = Counter(sim.registry.tracker.chain_txs)
            for state in sim.nodes:
                assert pending_pool(state) == sorted(
                    (t, tx_id) for tx_id, t in state.parts.items())
                places.update(state.parts.keys())
                round_ = state.block_round
                if round_ is None:
                    assert not state.taken
                else:
                    assert not round_.done and set(round_.entity.tx_ids) == state.taken.keys()
                    places.update(state.taken.keys())
                if state.parts:
                    # a node holds parts only as its tail's proposer, below what is
                    # due or while its own try is open: fewer than BLK_SIZE, the
                    # oldest finalized less than W ago
                    assert controller.proposer_of(sim, state.tail) == state.node_index
                    assert round_ is not None or (
                        len(state.parts) < sim.cfg.block_size_min
                        and sim.now - min(state.parts.values()) < PART_WAIT_MS)
            for parts in in_transit:
                places.update(parts.keys())
            assert places.keys() == sim.registry.finalized_txs.keys()
            assert set(places.values()) <= {1}
        schedule_at(sim, fire_time, checked)

    monkeypatch.setattr(Simulation, "send_parts", watched_send_parts)
    monkeypatch.setattr(controller, "on_parts", watched_on_parts)
    monkeypatch.setattr(Simulation, "schedule_at", checked_schedule_at)
    sim = Simulation(make_cfg(**overrides), seed=seed)
    report = sim.run()
    assert not in_transit
    assert all(not state.parts and not state.taken for state in sim.nodes)
    assert forwarded and report.fork_waste == 0
    # every short block was built once its oldest tx had waited W
    finalized_at = sim.registry.finalized_txs
    short = [block for block in sim.registry.tracker.chain[1:]
             if len(block.tx_ids) < sim.cfg.block_size_min]
    assert all(block.created_at - min(finalized_at[tx_id] for tx_id in block.tx_ids)
               >= PART_WAIT_MS for block in short)
    if overrides is SHORT_RETRY_CONFIG:
        assert short and report.block_retries
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
