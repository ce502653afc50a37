"""Pinned CSV digests: a change that claims the same behaviour must keep these bytes.

A change that alters behaviour on purpose updates them and says so.
"""
import hashlib

import pytest

from chainsim.engine import Simulation, ValidationRound, run_simulation
from conftest import make_cfg

GOLDEN = [
    ({}, 7, "c956bd4cda2fb1fce0768e8849271a9396a91529630845da96a549ef1fbb5c0d"),
    ({}, 8, "fd4564fbc794ac2924c77ce84cdeaf5b90944c676894f61bc23e63d8ed2b5945"),
    ({"malicious_fraction": 0.25}, 7,
     "281228697e7ef39017528ed14853489470e8a51b7a573f06772bfd94b6d9fb58"),
]

# the skewed-latency run below; CI compares the installed script's CSV with it
SKEWED_SEED_4_CSV_SHA256 = "abe9ad64b682fca37a42b806c7dd124403de5a4b268db820e5fc34ecd18d07ed"


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
    assert (sim.events_processed, sim.now) == (3295, 10751)


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
    # most blocks in one node's tracker
    ({}, (27, 27, 0, 0, 0, 28)),
    ({"malicious_fraction": 0.25}, (19, 19, 0, 67, 6, 20)),
], ids=["seed7", "malicious-seed7"])
def test_report_counters_are_pinned(overrides, counters):
    cfg = make_cfg(nodes=16, transactions_per_node=10, block_size_min=5, **overrides)
    _, report = run_simulation(cfg, seed=7)
    finalized, chain = counters[:2]
    assert (report.finalized_block_count, report.chain_block_count, report.reorgs,
            report.tx_retries, report.block_retries,
            report.max_node_tracked_blocks) == counters
    assert report.fork_waste == pytest.approx((finalized - chain) / finalized)


def test_drain_only_run_is_pinned():
    # BLK_SIZE 100 over 3 tx per node: the parts never reach BLK_SIZE, so
    # the one block is a drain block that the genesis tail's proposer
    # builds after the last tx finalizes, from every node's parts; its
    # first try falls short of SIG_THR, and the retry finalizes
    sim = Simulation(make_cfg(nodes=32, transactions_per_node=3, block_size_min=100,
                              validators_per_entity=12, signature_threshold=10,
                              malicious_fraction=0.16), seed=7)
    report = sim.run()
    assert hashlib.sha256(sim.csv_text().encode()).hexdigest() == (
        "ba91f16244fb9a50d19257d791a205f532362b7f4a022b19e4f79eb3070c15ed")
    assert (sim.events_processed, sim.now) == (5123, 5832)
    assert (report.finalized_block_count, report.chain_block_count, report.reorgs,
            report.tx_retries, report.block_retries,
            report.max_node_tracked_blocks) == (1, 1, 0, 37, 1, 2)
    finalized = [info for info in sim.registry.tracker.blocks.values()
                 if info.id != sim.genesis.id]
    assert len(finalized) == 1 and finalized[0].drain and finalized[0].owner == 7
    # the one block holds the leftovers of every owner
    assert len(finalized[0].tx_ids) == 96
    owner_of = {tx_id: s.node_index for s in sim.nodes for tx_id in s.own_finalized}
    assert {owner_of[tx_id] for tx_id in finalized[0].tx_ids} == set(range(32))
