"""Pinned CSV digests: a change that claims the same behaviour must keep these bytes.

A change that alters behaviour on purpose updates them and says so.
"""
import hashlib

import pytest

from chainsim.engine import Simulation, run_simulation
from conftest import make_cfg

GOLDEN = [
    ({}, 7, "0e6b5423844ea76279ef9fe3aa97733cf1415aab8ba9695873a384d4bcc0a31c"),
    ({}, 8, "dc4169840da91b30f8e7f3d471514b70673cb9f5f94cb18246e173c605daa965"),
    ({"malicious_fraction": 0.25}, 7,
     "7749950928f0c0301e7848d9387de3ffa43ce0b6e94e1a7d395708d7e04dccbd"),
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
    assert (sim.events_processed, sim.now) == (7640, 29565)


def test_csv_digest_is_pinned_when_timeouts_fire():
    # one 300 ms sample in 250 makes the validation timeout (10 x p99 = 50 ms)
    # shorter than the slowest round trips, so some rounds end on a timeout
    cfg = make_cfg(nodes=32, transactions_per_node=5, block_size_min=5,
                   validators_per_entity=12, signature_threshold=10)
    csv_text, _ = run_simulation(cfg, seed=4, latency_samples=[5.0] * 249 + [300.0])
    assert hashlib.sha256(csv_text.encode()).hexdigest() == (
        "acb8e67c89b0c25c457a12563e3ff87969d42f6e25e26ddd041dbfaba3d06219")


@pytest.mark.parametrize("overrides, counters", [
    # finalized blocks, chain blocks, reorgs, tx retries, block retries
    ({}, (86, 32, 29, 0, 128)),
    ({"malicious_fraction": 0.25}, (65, 32, 27, 80, 172)),
], ids=["seed7", "malicious-seed7"])
def test_report_counters_are_pinned(overrides, counters):
    cfg = make_cfg(nodes=16, transactions_per_node=10, block_size_min=5, **overrides)
    _, report = run_simulation(cfg, seed=7)
    finalized, chain = counters[:2]
    assert (report.finalized_block_count, report.chain_block_count, report.reorgs,
            report.tx_retries, report.block_retries) == counters
    assert report.fork_waste == pytest.approx((finalized - chain) / finalized)
