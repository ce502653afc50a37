"""Pinned CSV digests: a change that claims the same behaviour must keep these bytes.

A change that alters behaviour on purpose updates them and says so.
"""
import hashlib

import pytest

from chainsim.engine import Simulation, run_simulation
from conftest import make_cfg

GOLDEN = [
    ({}, 7, "352e17dde99820267a8dfe508f8588f8b46b8f9a45aebbbbe00b6234885bfa9c"),
    ({}, 8, "a65c2c3a467cb6b6d36043f2c85d989774906caedbb2cf0832e50ec6d4594d03"),
    ({"malicious_fraction": 0.25}, 7,
     "c0af18673b3bd00b2cc22d56e394fec2743f128aa24ae98f9f2cfea01001a0fd"),
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
    assert (sim.events_processed, sim.now) == (6233, 19726)


def test_csv_digest_is_pinned_when_timeouts_fire():
    # one 300 ms sample in 250 makes the validation timeout (10 x p99 = 50 ms)
    # shorter than the slowest round trips; with honest validators each
    # timeout that fires finds its round already decided at the threshold
    cfg = make_cfg(nodes=32, transactions_per_node=5, block_size_min=5,
                   validators_per_entity=12, signature_threshold=10)
    csv_text, _ = run_simulation(cfg, seed=4, latency_samples=[5.0] * 249 + [300.0])
    assert hashlib.sha256(csv_text.encode()).hexdigest() == (
        "61e080549ece47dec03e935282fce2af5036545f8b477a5b5c505232be66da38")


@pytest.mark.parametrize("overrides, counters", [
    # finalized blocks, chain blocks, reorgs, tx retries, block retries,
    # abandoned block rounds, most blocks in one node's tracker
    ({}, (59, 32, 18, 0, 170, 198, 60)),
    ({"malicious_fraction": 0.25}, (49, 32, 14, 78, 175, 198, 50)),
], ids=["seed7", "malicious-seed7"])
def test_report_counters_are_pinned(overrides, counters):
    cfg = make_cfg(nodes=16, transactions_per_node=10, block_size_min=5, **overrides)
    _, report = run_simulation(cfg, seed=7)
    finalized, chain = counters[:2]
    assert (report.finalized_block_count, report.chain_block_count, report.reorgs,
            report.tx_retries, report.block_retries, report.abandoned_rounds,
            report.max_node_tracked_blocks) == counters
    assert report.fork_waste == pytest.approx((finalized - chain) / finalized)
