"""End-to-end runs, metrics, and CSV output."""
from collections import Counter

import pytest

from chainsim.config import ValueOutOfRange
from chainsim.engine import (
    CSV_HEADER,
    MetricRecord,
    Simulation,
    ValidationRound,
    run_simulation,
    summarize,
    write_csv,
)
from conftest import make_cfg


def chain_tx_multiset(sim: Simulation) -> Counter:
    chain = [sim.registry.tracker.blocks[b] for b in sim.registry.tracker.chain_ids()]
    return Counter(tx for blk in chain for tx in blk.tx_ids)


def test_small_run_finalizes_every_transaction():
    sim = Simulation(make_cfg(nodes=4, transactions_per_node=5, block_size_min=5), seed=1)
    report = sim.run()
    assert report.finalized_tx_count == 20
    counts = chain_tx_multiset(sim)
    assert len(counts) == 20
    assert set(counts.values()) == {1}
    sim.check_invariants()


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


def test_drain_mode_flushes_small_pools():
    # 3 txs per node can never reach the block minimum of 5 without draining
    sim = Simulation(make_cfg(nodes=4, transactions_per_node=3, block_size_min=5), seed=4)
    report = sim.run()
    assert report.finalized_tx_count == 12
    drain_blocks = [r for r in sim.records if r.event_type == "block" and r.size < 5]
    assert drain_blocks
    counts = chain_tx_multiset(sim)
    assert len(counts) == 12 and set(counts.values()) == {1}


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


def test_validation_timeout_leaves_silent_validators_unsigned():
    # one 300 ms sample in 250 puts the p99 latency at 5 ms, so the 50 ms
    # validation timeout fires while slow replies are still in flight
    cfg = make_cfg(nodes=32, transactions_per_node=5, block_size_min=5,
                   validators_per_entity=12, signature_threshold=10)
    sim = Simulation(cfg, seed=4, latency_samples=[5.0] * 249 + [300.0])
    report = sim.run()
    assert report.finalized_tx_count == 160
    counts = chain_tx_multiset(sim)
    assert len(counts) == 160 and set(counts.values()) == {1}
    sim.ledger.check_conservation()
    # with no malicious nodes only a timeout leaves a validator without a reply
    assert any(r.approvals < r.validators_contacted
               for r in sim.records if r.event_type == "tx")


def record_timeouts(monkeypatch) -> list[bool]:
    """Record, for each round timeout as it fires, whether its round was open."""
    fired = []
    timeout = ValidationRound._timeout

    def recording(round_):
        fired.append(not round_.done)
        timeout(round_)

    monkeypatch.setattr(ValidationRound, "_timeout", recording)
    return fired


@pytest.mark.parametrize("malicious_fraction", [0.0, 0.25])
def test_default_latency_schedules_no_round_timeout(monkeypatch, malicious_fraction):
    # 10 x the p99 latency outlasts every round trip, so no timeout could
    # find a round open; the queue is empty at the end, so none was scheduled
    fired = record_timeouts(monkeypatch)
    sim = Simulation(make_cfg(nodes=16, transactions_per_node=10,
                              malicious_fraction=malicious_fraction), seed=7)
    sim.run()
    assert fired == [] and sim._heap == []


def test_round_timeouts_fire_only_on_open_rounds(monkeypatch):
    # the skewed latencies of the test above; no reply lands exactly at a deadline
    fired = record_timeouts(monkeypatch)
    cfg = make_cfg(nodes=32, transactions_per_node=5, block_size_min=5,
                   validators_per_entity=12, signature_threshold=10)
    Simulation(cfg, seed=4, latency_samples=[5.0] * 249 + [300.0]).run()
    assert fired and all(fired)


def test_chain_indexes_match_the_chains_under_malice():
    cfg = make_cfg(nodes=8, transactions_per_node=6, block_size_min=3,
                   malicious_fraction=0.25)
    sim = Simulation(cfg, seed=9)
    sim.run()
    assert sim.malicious_set
    registry = sim.registry.tracker
    chain_txs = {tx for b in registry.chain_ids() for tx in registry.blocks[b].tx_ids}
    assert set(registry.chain_txs) == chain_txs == set(sim.registry.finalized_txs)
    for state in sim.nodes:
        tracker = state.tracker
        on_chain = set()
        cur = tracker.tail
        while cur.id != sim.genesis.id:
            on_chain.update(cur.tx_ids)
            cur = tracker.blocks[cur.parent]
        own = {tx for tx in on_chain
               if sim.registry.finalized_txs[tx][0] == state.node_index}
        assert own
        assert set(tracker.chain_txs) == own
