"""Pinned CSV digests: a change that claims the same behaviour must keep these bytes.

A change that alters behaviour on purpose updates them and says so.
"""
import hashlib

import pytest

from chainsim.engine import Simulation, ValidationRound, run_simulation
from conftest import make_cfg

GOLDEN = [
    ({}, 7, "ff5b612ba53190fd408738e1d1934f2eca26e2ad0e103387837590887b6563f7"),
    ({}, 8, "ad5921cd492fb967de2be5aaf8f7d8b2ff75c93bd319947d4dc14aefa375af3b"),
    ({"malicious_fraction": 0.25}, 7,
     "1d835aa3b24cbbe1be2a6df0234a1b1f7b519c5253842e714a771b20e6682736"),
]

# the skewed-latency run below; CI compares the installed script's CSV with it
SKEWED_SEED_4_CSV_SHA256 = "54d9f40285bcd85e6ab826a0c45e0b2109e8661fd8ee4e71e77b5928a1e98eb6"


# the ids name the run, not its digest, so a re-pinned digest keeps the test's name
@pytest.mark.parametrize("overrides, seed, digest", GOLDEN,
                         ids=["seed7", "seed8", "malicious-seed7"])
def test_csv_digest_is_pinned(overrides, seed, digest):
    cfg = make_cfg(nodes=16, transactions_per_node=10, block_size_min=5, **overrides)
    csv_text, _ = run_simulation(cfg, seed=seed)
    assert hashlib.sha256(csv_text.encode()).hexdigest() == digest


def test_golden_run_ends_at_a_pinned_event_and_time():
    # an event is one handler call: a message nobody waits for is no event,
    # so the run ends at its last handler call
    sim = Simulation(make_cfg(nodes=16, transactions_per_node=10, block_size_min=5), seed=7)
    sim.run()
    assert (sim.events_processed, sim.now) == (3968, 11133)


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
    sim = Simulation(cfg, seed=4, latency_samples=[5.0] * 249 + [300.0])
    sim.run()
    assert ended_by_timeout
    assert hashlib.sha256(sim.csv_text().encode()).hexdigest() == SKEWED_SEED_4_CSV_SHA256
    # the run ends once its queue is empty, so every timeout has fired
    assert sim._heap == []


@pytest.mark.parametrize("overrides, counters", [
    # finalized blocks, chain blocks, reorgs, tx retries, block retries,
    # abandoned block rounds, most blocks in one node's tracker
    ({}, (32, 21, 9, 0, 68, 78, 33)),
    ({"malicious_fraction": 0.25}, (31, 21, 10, 89, 69, 68, 32)),
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
        "7c0fab5ffb82a25c59695c50c15106ab00d2a0ea6fad7defc0eafddb407122bb")
    assert (sim.events_processed, sim.now) == (5028, 5505)
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
