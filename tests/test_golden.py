"""Pinned CSV digests: a change that claims the same behaviour must keep these bytes.

A change that alters behaviour on purpose updates them and says so.
"""
import hashlib

import pytest

from chainsim.engine import Simulation, ValidationRound, run_simulation
from conftest import make_cfg

GOLDEN = [
    ({}, 7, "2b9129787e92f656403a5a97c564dde5a907e583c6cd114af79ea1c7be400656"),
    ({}, 8, "2c60e3b17073f57c3064208242acf89c94294f6dd9af52934b3323ef6a129649"),
    ({"malicious_fraction": 0.25}, 7,
     "4a37b66fbb536448d540e7f397d37d8d06af62e09f8a202855ceaffeba9e9352"),
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
    assert (sim.events_processed, sim.now) == (4925, 20730)


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
        "ef1e51dc025d25b250789ca162ed56210b35df47d32e44664539978e51bcce1f")


@pytest.mark.parametrize("overrides, counters", [
    # finalized blocks, chain blocks, reorgs, tx retries, block retries,
    # abandoned block rounds, most blocks in one node's tracker
    ({}, (37, 29, 8, 0, 96, 115, 38)),
    ({"malicious_fraction": 0.25}, (41, 29, 11, 84, 104, 111, 42)),
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
    # every try, first or retry, is a drain block built after the last tx
    # finalizes, and malicious rejections and contended heights retry them
    sim = Simulation(make_cfg(nodes=32, transactions_per_node=3, block_size_min=100,
                              validators_per_entity=12, signature_threshold=10,
                              malicious_fraction=0.16), seed=7)
    report = sim.run()
    assert hashlib.sha256(sim.csv_text().encode()).hexdigest() == (
        "e0e74bac064149cce9ccea91b0c20fcc7fbb1c11315562d5784f52399b2c1ed5")
    assert (sim.events_processed, sim.now) == (8286, 39855)
    assert (report.finalized_block_count, report.chain_block_count, report.reorgs,
            report.tx_retries, report.block_retries, report.abandoned_rounds,
            report.max_node_tracked_blocks) == (33, 32, 1, 37, 26, 19, 34)
    finalized = [info for info in sim.registry.tracker.blocks.values()
                 if info.id != sim.genesis.id]
    assert len(finalized) == 33 and all(info.drain for info in finalized)
