"""Pinned CSV digests: a change that claims the same behaviour must keep these bytes.

A change that alters behaviour on purpose updates them and says so.
"""
import hashlib

import pytest

from chainsim.engine import Simulation, ValidationRound, run_simulation
from conftest import make_cfg

GOLDEN = [
    ({}, 7, "173d840331e4c3572f0a92d9fce008bd3c04941f6e8f6df091dc565926f72965"),
    ({}, 8, "be0b1082b361f9f95b004d49cc4e0c9c6feed26db0d4b2e8f33d714d26ee6170"),
    ({"malicious_fraction": 0.25}, 7,
     "506a425d196dfb1fad432e5bf67b1a6e7cc34480a568b107fb35a62163e5cc2f"),
]


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
    assert (sim.events_processed, sim.now) == (3980, 11744)


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
    assert hashlib.sha256(sim.csv_text().encode()).hexdigest() == (
        "c77fe3a197138c6da52b30ade568870fc0b3ce450dd1a25df7ce89adf4e7307c")
    # the run ends once its queue is empty, so every timeout has fired
    assert sim._heap == []


@pytest.mark.parametrize("overrides, counters", [
    # finalized blocks, chain blocks, reorgs, tx retries, block retries,
    # abandoned block rounds, most blocks in one node's tracker
    ({}, (34, 21, 7, 0, 68, 76, 35)),
    ({"malicious_fraction": 0.25}, (26, 21, 1, 82, 86, 87, 27)),
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
        "a973d296de35d16266baf267fa99a27e57a8a74820ba4447c54e96096af05434")
    assert (sim.events_processed, sim.now) == (5038, 5953)
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
