"""Pinned CSV digests: a change that claims the same behaviour must keep these bytes.

A change that alters behaviour on purpose updates them and says so.
"""
import hashlib

import pytest

from chainsim.engine import Simulation, ValidationRound, run_simulation
from conftest import make_cfg

GOLDEN = [
    ({}, 7, "df35389bc696dbf7764cedd3b36c08497e6ee26c254083b723895401bd688bfa"),
    ({}, 8, "ccb4a552a1a27960f41780f11c0d8ab9619726eb6dff537dacaf41cd924b677b"),
    ({"malicious_fraction": 0.25}, 7,
     "ba4b35c72e12fd50cca39dc916866283dda995587647708b03486b1272877fae"),
]


# the ids name the run, not its digest, so a re-pinned digest keeps the test's name
@pytest.mark.parametrize("overrides, seed, digest", GOLDEN,
                         ids=["seed7", "seed8", "malicious-seed7"])
def test_csv_digest_is_pinned(overrides, seed, digest):
    cfg = make_cfg(nodes=16, transactions_per_node=10, block_size_min=5, **overrides)
    csv_text, _ = run_simulation(cfg, seed=seed)
    assert hashlib.sha256(csv_text.encode()).hexdigest() == digest


def test_golden_run_ends_at_a_pinned_event_and_time():
    # every message is one event, whether or not a handler waits for it
    sim = Simulation(make_cfg(nodes=16, transactions_per_node=10, block_size_min=5), seed=7)
    sim.run()
    assert (sim.events_processed, sim.now) == (4584, 13592)


def test_csv_digest_is_pinned_when_timeouts_fire(monkeypatch):
    # one 300 ms sample in 250 makes the validation timeout (10 x p99 = 50 ms)
    # shorter than the slowest round trips, and malicious rejections hold
    # some rounds short of the threshold until their timeout ends them
    ended_by_timeout = []
    timeout = ValidationRound._timeout

    def watched(round_):
        if not round_.done:
            ended_by_timeout.append(round_)
        timeout(round_)

    monkeypatch.setattr(ValidationRound, "_timeout", watched)
    cfg = make_cfg(nodes=32, transactions_per_node=5, block_size_min=5,
                   validators_per_entity=12, signature_threshold=10,
                   malicious_fraction=0.25)
    csv_text, _ = run_simulation(cfg, seed=4, latency_samples=[5.0] * 249 + [300.0])
    assert ended_by_timeout
    assert hashlib.sha256(csv_text.encode()).hexdigest() == (
        "ee54139bcc36534fc41a2a7e72ff56811f3c4f3aab55996615378810a6d64ec2")


@pytest.mark.parametrize("overrides, counters", [
    # finalized blocks, chain blocks, reorgs, tx retries, block retries,
    # abandoned block rounds, most blocks in one node's tracker
    ({}, (29, 19, 9, 0, 87, 103, 30)),
    ({"malicious_fraction": 0.25}, (31, 20, 10, 84, 91, 102, 32)),
], ids=["seed7", "malicious-seed7"])
def test_report_counters_are_pinned(overrides, counters):
    cfg = make_cfg(nodes=16, transactions_per_node=10, block_size_min=5, **overrides)
    _, report = run_simulation(cfg, seed=7)
    finalized, chain = counters[:2]
    assert (report.finalized_block_count, report.chain_block_count, report.reorgs,
            report.tx_retries, report.block_retries, report.abandoned_rounds,
            report.max_node_tracked_blocks) == counters
    assert report.fork_waste == pytest.approx((finalized - chain) / finalized)


def test_drain_only_run_is_pinned():
    # BLK_SIZE 100 over 3 tx per node: no pool ever reaches BLK_SIZE, so
    # the one block is a drain block built after the last tx finalizes, by
    # the owner whose backoff ends first, and it sweeps every node's pool
    sim = Simulation(make_cfg(nodes=32, transactions_per_node=3, block_size_min=100,
                              validators_per_entity=12, signature_threshold=10,
                              malicious_fraction=0.16), seed=7)
    report = sim.run()
    assert hashlib.sha256(sim.csv_text().encode()).hexdigest() == (
        "c55aac6156f480600a5acffee3c26e1d67ecca6b7f6f7edfc53b8591f4b3f06b")
    assert (sim.events_processed, sim.now) == (5303, 7926)
    assert (report.finalized_block_count, report.chain_block_count, report.reorgs,
            report.tx_retries, report.block_retries, report.abandoned_rounds,
            report.max_node_tracked_blocks) == (1, 1, 0, 37, 0, 0, 2)
    finalized = [info for info in sim.registry.tracker.blocks.values()
                 if info.id != sim.genesis.id]
    assert len(finalized) == 1 and finalized[0].drain and finalized[0].owner == 8
    # the one block holds the leftovers of every owner
    assert len(finalized[0].tx_ids) == 96
    owner_of = {tx_id: s.node_index for s in sim.nodes for tx_id in s.own_finalized}
    assert {owner_of[tx_id] for tx_id in finalized[0].tx_ids} == set(range(32))
