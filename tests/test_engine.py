"""End-to-end runs, metrics, and CSV output."""
from collections import Counter
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import Phase, given, settings, strategies as st

from chainsim import controller
from chainsim.config import ValueOutOfRange, malicious_count
from chainsim.consensus import PART_WAIT_MS, replica_holders
from chainsim.engine import (
    CSV_HEADER,
    REPLICATION_FACTOR,
    MetricRecord,
    Simulation,
    StalledSimulation,
    ValidationRound,
    run_simulation,
    summarize,
    write_csv,
)
from chainsim.overlay import SkipGraph
from chainsim.simnet import (
    TAG_ANNOUNCE,
    TAG_NOTIFY,
    TAG_PART,
    TAG_ROUTE,
    TAG_VALIDATE_REPLY,
    TAG_VALIDATE_REQUEST,
    BadSampleFile,
    ContextCounters,
    Network,
)
from chainsim.storage import DECISION_SILENT, Block, Transaction, new_transaction
from conftest import bare_simulation, make_cfg


def test_small_run_finalizes_every_transaction():
    sim = Simulation(make_cfg(nodes=4, transactions_per_node=5, block_size_min=5), seed=1)
    report = sim.run()
    assert report.finalized_tx_count == 20
    assert len(sim.registry.tracker.chain_txs) == 20
    assert report.repeated_chain_txs == 0
    sim.check_invariants()


def test_invariants_are_checked_at_the_end_of_a_short_run(monkeypatch):
    # a run shorter than the check interval still has its end state checked
    checked_at = []
    check = Simulation.check_invariants

    def watched(sim):
        checked_at.append(sim.now)
        check(sim)

    monkeypatch.setattr(Simulation, "check_invariants", watched)
    sim = Simulation(make_cfg(nodes=4, transactions_per_node=5, block_size_min=5), seed=1,
                     check_invariants_every=10**6)
    sim.run()
    assert sim.events_processed < 10**6
    assert checked_at == [sim.now]


def test_same_seed_reproduces_csv_bytes():
    cfg = make_cfg(nodes=4, transactions_per_node=5, block_size_min=5)
    first, _ = run_simulation(cfg, seed=2)
    second, _ = run_simulation(cfg, seed=2)
    assert first == second
    different, _ = run_simulation(cfg, seed=3)
    assert first != different


def test_zero_transactions_rejected():
    with pytest.raises(ValueOutOfRange):
        Simulation(make_cfg(transactions_per_node=0), seed=1)


def built_once_due(sim: Simulation, block: Block) -> bool:
    """Whether `block` was created once its oldest tx had waited W."""
    finalized_at = sim.registry.finalized_txs
    return block.created_at - min(finalized_at[tx_id] for tx_id in block.tx_ids) >= PART_WAIT_MS


def test_short_blocks_flush_small_pools():
    # 12 txs over blocks of at least 5 leave some under BLK_SIZE at the end
    sim = Simulation(make_cfg(nodes=4, transactions_per_node=3, block_size_min=5), seed=4)
    report = sim.run()
    assert report.finalized_tx_count == 12
    # the leftovers of several owners land in a short block once the oldest has waited W
    owner_of = sim.registry.owner_of
    short = [block for block in sim.registry.tracker.chain[1:] if len(block.tx_ids) < 5]
    assert short and all(built_once_due(sim, block) for block in short)
    assert any(len({owner_of[tx_id] for tx_id in block.tx_ids}) > 1 for block in short)
    assert len(sim.registry.tracker.chain_txs) == 12 and report.repeated_chain_txs == 0


@st.composite
def honest_majority_configs(draw):
    """Small valid configs in which the honest validators of any entity
    can reach SIG_THR on their own.

    Left out, because of a known defect: a livelocked run takes up to
    millions of events to end in StalledSimulation (the stall window is
    STALL_TIMEOUTS validation timeouts), far past this test's budget with
    the invariants checked after every event.  That covers MALICIOUS of
    0.38 and more (0.24M-2.3M events to stall) and any config whose
    malicious nodes outnumber VALID_THR - SIG_THR.  Only the configs with
    fewer honest validators than SIG_THR fail at once; one between the
    two bounds is pinned below.
    """
    nodes = draw(st.integers(3, 12))
    base = make_cfg(nodes=nodes, transactions_per_node=draw(st.integers(1, 5)),
                    block_size_min=draw(st.integers(1, 12)),
                    malicious_fraction=draw(st.floats(0.0, 0.3)))
    validators = draw(st.integers(malicious_count(base) + 1, nodes - 1))
    threshold = draw(st.integers(1, validators - malicious_count(base)))
    return replace(base, validators_per_entity=validators,
                   signature_threshold=threshold).validate()


# no shrinking: each shrink step reruns a whole run with the invariants
# checked after every event, so a failure would take minutes to report
@settings(max_examples=15, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
@given(cfg=honest_majority_configs(), seed=st.integers(0, 2**16))
def test_drain_leaves_every_finalized_tx_in_exactly_one_chain_block(cfg, seed):
    sim = Simulation(cfg, seed=seed, check_invariants_every=1)
    try:
        report = sim.run()
    except StalledSimulation:
        return
    assert report.finalized_tx_count == cfg.nodes * cfg.transactions_per_node
    assert sim.registry.tracker.chain_txs == sim.registry.finalized_txs.keys()
    assert report.repeated_chain_txs == 0
    assert all(not s.parts and not s.taken for s in sim.nodes)
    # the run ends only when its event queue is empty
    assert sim._heap == []


def test_stall_window_ends_a_livelock_at_a_pinned_point():
    # 5 of 11 nodes malicious leave an honest node exactly SIG_THR = 5 honest
    # validators, so the run starts; a tx finalizes only on a try whose five
    # validators are all honest and all reply within the 50 ms timeout, and
    # the last tx retries through a whole stall window without one
    cfg = make_cfg(nodes=11, transactions_per_node=5, inter_tx_delay_s=0, block_size_min=3,
                   malicious_fraction=0.447, validators_per_entity=5, signature_threshold=5)
    assert malicious_count(cfg) == 5
    sim = Simulation(cfg, seed=208060, latency_samples=[5.0] * 249 + [300.0])
    with pytest.raises(StalledSimulation) as exc:
        sim.run()
    assert str(exc.value) == "nothing generated or finalized since t=142205 (now t=192250)"
    assert sim.events_processed == 148979
    assert len(sim.registry.finalized_txs) == 54


def test_replica_holders_resolvable_through_overlay():
    sim = Simulation(make_cfg(nodes=8, transactions_per_node=3, block_size_min=4), seed=5)
    sim.run()
    blocks = [r for r in sim.records if r.event_type == "block"]
    assert blocks
    from chainsim.identity import Identifier
    for rec in blocks:
        ident = Identifier(bytes.fromhex(rec.entity_id))
        assert sim.overlay.search_num_id(0, ident).identifier == ident
        holder_indexes = set(sim.overlay.by_id[ident].announcers)
        storing = {s.node_index for s in sim.nodes if s.store.fetch(ident) is not None}
        assert holder_indexes == storing
        assert len(holder_indexes) == 3


def test_every_view_of_a_finalized_block_is_the_one_block(monkeypatch):
    # the skewed run's slow messages deliver some block notifies before
    # their parent's, and a node takes such a block as its tail at once
    ahead = []   # notifies of a block taller than the node's tail and not on it
    notify = controller.on_block_notify

    def watched(sim, state, blk):
        taller = blk.height > state.tail.height
        if taller and blk.parent != state.tail.id:
            ahead.append(blk)
        notify(sim, state, blk)
        assert (state.tail is blk) == taller

    monkeypatch.setattr(controller, "on_block_notify", watched)
    plain = Simulation(make_cfg(nodes=8, transactions_per_node=4, block_size_min=3), seed=5)
    plain.run()
    skewed = skewed_latency_run(malicious_fraction=0.25, seed=9)
    assert ahead
    for sim in (plain, skewed):
        registry = sim.registry.tracker
        blocks = [b for b in registry.blocks.values() if b is not sim.genesis]
        assert len(blocks) == sum(1 for r in sim.records if r.event_type == "block")
        for block in blocks:
            assert isinstance(block, Block) and isinstance(block.tx_ids, tuple)
            holders = replica_holders(block.id, block.owner, sim.controllers,
                                      REPLICATION_FACTOR)
            assert all(sim.nodes[h].store.fetch(block.id) is block for h in holders)
        # every node ends on the registry's tail
        for state in sim.nodes:
            assert state.tail is registry.tail


def test_invariant_check_covers_every_nodes_view_of_the_chain():
    # each node's tail must be the registry's chain block at its height
    sim = Simulation(make_cfg(nodes=4, transactions_per_node=5, block_size_min=5), seed=1)
    sim.run()
    state, chain = sim.nodes[1], sim.registry.tracker.chain
    assert state.tail is chain[-1] and len(chain) > 2
    state.tail = replace(chain[1])   # an equal copy is not the chain's block
    with pytest.raises(AssertionError, match="tail at height 1 is off the chain"):
        sim.check_invariants()
    state.tail = chain[1]
    sim.check_invariants()   # a node may lag the registry


def test_each_call_is_followed_by_its_checks_and_its_owners_settle(monkeypatch):
    # events at one time run in schedule order, and the invariant check
    # follows every 2nd call; the on_tx_result that finalizes a tx settles
    # its owner's parts before the next event at the same time
    sim = bare_simulation()
    sim._bootstrap = lambda: None   # no tx timers: only the events queued here
    sim.check_invariants_every = 2
    owner = sim.nodes[3]
    txs = [new_transaction(owner.node_index, 0, 1, sim.genesis.id, seq, created_at=0)
           for seq in range(2)]
    log = []
    # finalization is covered elsewhere; here it only counts the tx
    sim.finalize = lambda tx, tickets, context: sim.registry.add_tx(
        tx.id, tx.owner, tx.seq, sim.now)
    sim.check_invariants = lambda: log.append(("check", sim.now))
    monkeypatch.setattr(controller, "_settle", lambda sim, state: log.append(
        ("settle", state.node_index, len(sim.registry.finalized_txs))))

    def finalize(tx):
        log.append(("finalize", tx.seq, sim.now))
        controller.on_tx_result(sim, owner, tx, [], True, ContextCounters())

    sim.schedule_at(20, lambda: log.append(("later", sim.now)))
    sim.schedule_at(10, lambda: log.append(("first", sim.now)))
    sim.schedule_at(10, partial(finalize, txs[-2]))
    sim.schedule_at(10, partial(finalize, txs[-1]))
    sim.schedule_at(10, lambda: log.append(("fourth", sim.now)))
    # no finalized tx is on the chain, so the end check refuses the run
    with pytest.raises(StalledSimulation) as exc:
        sim.run()
    assert str(exc.value) == "event queue empty at t=20 before termination"
    assert log == [("first", 10), ("finalize", 0, 10), ("settle", 3, 1),
                   ("check", 10), ("finalize", 1, 10), ("settle", 3, 2),
                   ("fourth", 10), ("check", 10), ("later", 20)]
    assert sim.events_processed == 5 and sim._heap == []


def test_schedule_into_the_past_is_refused():
    sim = bare_simulation()
    sim.now = 10
    with pytest.raises(ValueError, match="cannot schedule into the past"):
        sim.schedule_at(9, lambda: None)
    sim.schedule_at(10, lambda: None)
    assert len(sim._heap) == 1


@pytest.mark.parametrize("samples, message", [
    ([], "no latency samples"),
    ([5.0, float("nan")], "must be positive and finite: nan"),
    ([0.0], "must be positive and finite: 0.0"),
    ([5.0, -3.0], "must be positive and finite: -3.0"),
    ([float("inf")], "must be positive and finite: inf"),
], ids=["empty", "nan", "zero", "negative", "inf"])
def test_unusable_latency_samples_are_refused(samples, message):
    with pytest.raises(BadSampleFile, match=message):
        Simulation(make_cfg(), seed=1, latency_samples=samples)


def test_negative_invariant_interval_is_refused():
    with pytest.raises(ValueError, match="check_invariants_every must be >= 0: -1"):
        Simulation(make_cfg(), seed=1, check_invariants_every=-1)


def test_seed_changes_latency_matrix():
    cfg = make_cfg(nodes=4, transactions_per_node=1, block_size_min=1)
    a = Simulation(cfg, seed=1)
    b = Simulation(cfg, seed=2)
    assert a.matrix.values != b.matrix.values


def test_csv_header_only_for_no_records():
    assert write_csv([]) == CSV_HEADER + "\n"


def _record(event_type, entity_id, finalized_at, **kw):
    base = dict(event_type=event_type, entity_id=entity_id, owner=0,
                created_at=0, finalized_at=finalized_at, messages=1, bytes=1,
                memory_bytes=1, validators_contacted=4, approvals=3)
    base.update(kw)
    return MetricRecord(**base)


def test_tx_rows_have_empty_height_and_size():
    text = write_csv([_record("tx", "ab", 10)])
    assert text.splitlines()[1].endswith(",,")


def test_rows_sorted_by_time_then_id():
    records = [_record("tx", "bb", 20), _record("tx", "aa", 20), _record("tx", "cc", 10)]
    ids = [line.split(",")[1] for line in write_csv(records).splitlines()[1:]]
    assert ids == ["cc", "aa", "bb"]


def test_row_count_matches_finalized_entities():
    csv_text, report = run_simulation(
        make_cfg(nodes=4, transactions_per_node=5, block_size_min=5), seed=6)
    rows = csv_text.strip().splitlines()[1:]
    assert len(rows) == report.finalized_tx_count + report.finalized_block_count


def test_summarize_average_times():
    records = [_record("tx", "aa", 100), _record("tx", "bb", 300)]
    assert summarize(records).avg_tx_time_ms == 200.0


def test_summarize_block_size_with_drain():
    records = [_record("block", f"{i:02x}", i, height=i + 1, size=10) for i in range(9)]
    records.append(_record("block", "ff", 99, height=10, size=7))
    assert summarize(records).avg_block_size == pytest.approx(9.7)


def test_report_totals_passed_through():
    report = summarize([], total_messages=5, total_bytes=9, total_minted=3,
                       chain_block_count=2, per_node_stored=[1, 2])
    assert (report.total_messages, report.total_bytes) == (5, 9)
    assert report.total_minted == 3
    assert report.chain_block_count == 2
    assert report.per_node_stored == [1, 2]
    assert report.fork_waste == 0.0   # no finalized blocks, no waste


def test_report_fork_waste_and_counters():
    records = [_record("block", f"{i:02x}", i, height=1, size=5) for i in range(4)]
    report = summarize(records, chain_block_count=1, tx_retries=3, block_retries=4)
    assert report.fork_waste == 0.75
    assert (report.tx_retries, report.block_retries) == (3, 4)


def record_timeouts(monkeypatch) -> list[tuple[ValidationRound, bool]]:
    """Record each round timeout as it fires: its round, and whether the
    round was still open."""
    fired = []
    timeout = ValidationRound._timeout

    def recording(round_):
        fired.append((round_, not round_.done))
        timeout(round_)

    monkeypatch.setattr(ValidationRound, "_timeout", recording)
    return fired


def skewed_latency_run(malicious_fraction: float, seed: int = 6) -> Simulation:
    # one 300 ms sample in 250 puts the p99 latency at 5 ms, so the 50 ms
    # validation timeout fires while slow replies are still in flight; no
    # reply lands exactly at a deadline
    cfg = make_cfg(nodes=32, transactions_per_node=5, block_size_min=5,
                   validators_per_entity=12, signature_threshold=10,
                   malicious_fraction=malicious_fraction)
    sim = Simulation(cfg, seed=seed, latency_samples=[5.0] * 249 + [300.0])
    sim.run()
    return sim


def test_validation_timeout_leaves_silent_validators_unsigned(monkeypatch):
    # a round that reaches its threshold is decided at once, so only a round
    # held short of it by malicious rejections is still open at its timeout
    fired = record_timeouts(monkeypatch)
    sim = skewed_latency_run(malicious_fraction=0.25)
    assert len(sim.registry.finalized_txs) == 160
    assert len(sim.registry.tracker.chain_txs) == 160
    assert sim.report().repeated_chain_txs == 0
    sim.ledger.check_conservation()
    timed_out = [round_ for round_, was_open in fired if was_open]
    assert timed_out
    for round_ in timed_out:
        silent = sum(1 for t in round_.tickets if t.decision == DECISION_SILENT)
        assert silent > 0
        assert round_.entity.signatures == len(round_.tickets) - silent


@pytest.mark.parametrize("malicious_fraction", [0.0, 0.25])
def test_default_latency_schedules_no_round_timeout(monkeypatch, malicious_fraction):
    # 10 x the p99 latency outlasts every round trip, so no timeout could
    # find a round open; the queue is empty at the end, so none was scheduled
    fired = record_timeouts(monkeypatch)
    sim = Simulation(make_cfg(nodes=16, transactions_per_node=10,
                              malicious_fraction=malicious_fraction), seed=7)
    sim.run()
    assert fired == [] and sim._heap == []


@pytest.mark.parametrize("malicious_fraction", [0.0, 0.25])
def test_round_timeouts_fire_only_with_a_reply_out(monkeypatch, malicious_fraction):
    # a timeout is scheduled only for a round with a reply still out when
    # it fires.  The round may have ended early by then, decided at its
    # threshold approval or, for a tx, at the rejection that leaves it short
    # of the threshold; nothing else ends a round.  An ended round's state
    # is frozen, so it can be read after the run.
    fired = record_timeouts(monkeypatch)
    skewed_latency_run(malicious_fraction)
    found = set()
    for round_, was_open in fired:
        assert round_.pending_replies > 0
        if was_open:
            found.add("open")
        else:
            assert round_.approvals_missing == 0 or (
                isinstance(round_.entity, Transaction)
                and round_.approvals_missing > round_.pending_replies)
            found.add("decided")
    assert found
    if malicious_fraction:
        # rejections keep some rounds short of the threshold until the timeout
        assert "open" in found


def test_chain_indexes_match_the_chains_under_malice():
    cfg = make_cfg(nodes=8, transactions_per_node=6, block_size_min=3,
                   malicious_fraction=0.25)
    sim = Simulation(cfg, seed=9)
    sim.run()
    assert any(s.malicious for s in sim.nodes)
    registry = sim.registry.tracker
    chain_txs = {tx for b in registry.chain_ids() for tx in registry.blocks[b].tx_ids}
    assert registry.chain_txs == chain_txs == set(sim.registry.finalized_txs)
    for state in sim.nodes:
        # the chain below each node's tail holds every tx the node finalized
        on_chain = set()
        cur = state.tail
        while cur.id != sim.genesis.id:
            on_chain.update(cur.tx_ids)
            cur = registry.blocks[cur.parent]
        own = {tx for tx in on_chain if tx in state.own_finalized}
        assert own
        assert own == state.own_finalized.keys()


def test_traffic_by_tag_sums_to_the_totals_and_matches_every_send(monkeypatch):
    counted = Counter()   # (tag, "messages" or "bytes") as the callers send them
    send, send_path = Network.send, Network.send_path

    def counted_send(net, src, dst, tag, size, context, handler, payload=None):
        counted[tag, "messages"] += 1
        counted[tag, "bytes"] += size
        send(net, src, dst, tag, size, context, handler, payload)

    def counted_send_path(net, path, tag, size, context, on_done=None):
        hops = max(0, len(path) - 1)
        counted[tag, "messages"] += hops
        counted[tag, "bytes"] += size * hops
        send_path(net, path, tag, size, context, on_done)

    monkeypatch.setattr(Network, "send", counted_send)
    monkeypatch.setattr(Network, "send_path", counted_send_path)
    sim = Simulation(make_cfg(nodes=16, transactions_per_node=10, block_size_min=5,
                              malicious_fraction=0.25), seed=7)
    report = sim.run()
    assert any(s.malicious for s in sim.nodes)
    assert sum(report.messages_by_tag.values()) == report.total_messages
    assert sum(report.bytes_by_tag.values()) == report.total_bytes
    assert set(report.messages_by_tag) == set(report.bytes_by_tag) == {
        TAG_ROUTE, TAG_ANNOUNCE, TAG_VALIDATE_REQUEST, TAG_VALIDATE_REPLY, TAG_NOTIFY, TAG_PART}
    for tag, messages in report.messages_by_tag.items():
        assert messages == counted[tag, "messages"]
        assert report.bytes_by_tag[tag] == counted[tag, "bytes"]


@pytest.mark.parametrize("overrides", [{}, {"malicious_fraction": 0.25}],
                         ids=["golden-seed7", "malicious-seed7"])
def test_nodes_read_only_what_a_block_notify_carries(monkeypatch, overrides):
    # a block's notify carries the header and the ids of the block's txs
    # the receiver owns; a node handed a copy holding only those runs the same
    cfg = make_cfg(nodes=16, transactions_per_node=10, block_size_min=5, **overrides)

    def run():
        sim = Simulation(cfg, seed=7)
        report = sim.run()
        return sim.csv_text(), sim.events_processed, replace(report, wall_clock_s=0.0)

    plain = run()
    notify = controller.on_block_notify
    trimmed = []   # notifies whose copy left out another owner's ids

    def own_ids_only(sim, state, block):
        owner_of = sim.registry.owner_of
        own = tuple(tx_id for tx_id in block.tx_ids if owner_of[tx_id] == state.node_index)
        if len(own) < len(block.tx_ids):
            trimmed.append(block)
        notify(sim, state, replace(block, tx_ids=own))

    monkeypatch.setattr(controller, "on_block_notify", own_ids_only)
    assert run() == plain
    assert trimmed


def test_notify_and_announce_traffic_is_what_nodes_read(monkeypatch):
    # a replica goes whole to each holder but the owner; a block's notify
    # goes to every other node with the 72-byte header, plus 32 bytes for
    # each of its txs that the receiver owns; a holder joins its replica's
    # vertex with one message to the host; an insert is one 72-byte message
    # per hop of its chain, then a reply from the chain's last owner to the
    # inserter, unless that is the inserter itself, of 72 bytes plus 40 (an
    # id and an 8-byte index) for each distinct neighbour of the new vertex
    finalized, inserts, replies, joins = [], [], [], []
    finalize, announce, join = Simulation.finalize, SkipGraph.announce, SkipGraph.join

    def watched_finalize(sim, entity, tickets, context):
        finalized.append(entity)
        finalize(sim, entity, tickets, context)

    def watched_announce(graph, identifier, owner, kind):
        path = announce(graph, identifier, owner, kind)
        inserts.append(path)
        if path and path[-1] != owner:
            vertex = graph.by_id[identifier]
            neighbours = {v.identifier for v in vertex.left + vertex.right if v is not None}
            replies.append(72 + 40 * len(neighbours))
        return path

    def watched_join(graph, identifier, holder):
        path = join(graph, identifier, holder)
        joins.append((path, [holder, graph.by_id[identifier].owner]))
        return path

    monkeypatch.setattr(Simulation, "finalize", watched_finalize)
    monkeypatch.setattr(SkipGraph, "announce", watched_announce)
    monkeypatch.setattr(SkipGraph, "join", watched_join)
    cfg = make_cfg(nodes=16, transactions_per_node=10, block_size_min=5,
                   malicious_fraction=0.25)
    sim = Simulation(cfg, seed=7)
    report = sim.run()
    n, holders = cfg.nodes, REPLICATION_FACTOR
    owner_of = sim.registry.owner_of
    blocks = [entity for entity in finalized if isinstance(entity, Block)]
    assert len(blocks) == report.finalized_block_count
    replicas = sum((holders - 1) * r.memory_bytes for r in sim.records)
    chain = sim.registry.tracker.blocks
    headers = sum((n - 1) * 72 + 32 * sum(owner_of[tx_id] != blk.owner for tx_id in blk.tx_ids)
                  for blk in blocks if blk.id in chain)
    assert report.bytes_by_tag[TAG_NOTIFY] == replicas + headers
    assert len(joins) == (holders - 1) * len(sim.records)
    assert all(path == holder_to_host for path, holder_to_host in joins)
    # one insert per node's controller, the genesis block and every record
    assert len(inserts) == n + 1 + len(sim.records)
    assert 0 < len(replies) < len(inserts)
    hops = len(joins) + sum(max(0, len(path) - 1) for path in inserts)
    assert report.messages_by_tag[TAG_ANNOUNCE] == hops + len(replies)
    assert report.bytes_by_tag[TAG_ANNOUNCE] == 72 * hops + sum(replies)


def test_an_off_chain_block_is_announced_to_nobody():
    # SIG_THR 1 of 3 malicious nodes finalizes some bogus-parent blocks; each
    # finalized entity goes to its two other replica holders, and only a
    # chain block's notify goes to the n - 1 other nodes
    cfg = make_cfg(nodes=10, transactions_per_node=4, block_size_min=2,
                   malicious_fraction=0.3, validators_per_entity=2, signature_threshold=1)
    sim = Simulation(cfg, seed=11)
    report = sim.run()
    assert report.chain_block_count < report.finalized_block_count
    assert report.messages_by_tag[TAG_NOTIFY] == (
        (REPLICATION_FACTOR - 1) * len(sim.records)
        + (cfg.nodes - 1) * report.chain_block_count)
    assert all(state.tail is sim.registry.tracker.tail for state in sim.nodes)


@pytest.mark.parametrize("overrides, deadline_only", [
    (dict(nodes=16, transactions_per_node=10, block_size_min=5), False),
    (dict(nodes=16, transactions_per_node=10, block_size_min=5, malicious_fraction=0.25), False),
    # BLK_SIZE 100 over 3 tx per node: every block is short, built at its deadline
    (dict(nodes=32, transactions_per_node=3, block_size_min=100), True),
], ids=["golden", "golden-malicious", "deadline-only"])
def test_block_rounds_counts_every_block_validation_started(monkeypatch, overrides,
                                                            deadline_only):
    started = []
    begin_block = Simulation.begin_block_validation

    def counted(sim, state, block, retries):
        started.append(block)
        begin_block(sim, state, block, retries)

    monkeypatch.setattr(Simulation, "begin_block_validation", counted)
    sim = Simulation(make_cfg(**overrides), seed=7)
    report = sim.run()
    assert report.block_rounds == len(started)
    if deadline_only:
        assert all(len(block.tx_ids) < 100 and built_once_due(sim, block) for block in started)
        assert report.block_rounds == 2
