"""Pinned CSV digests: a change that claims the same behaviour must keep these bytes.

A change that alters behaviour on purpose updates them and says so.
"""
import hashlib

import pytest

from chainsim import controller
from chainsim.consensus import PART_WAIT_MS
from chainsim.engine import Simulation, ValidationRound, run_simulation
from conftest import make_cfg

GOLDEN = [
    ({}, 7, "ecee05ce1da265298a10da77d12e88c240808bbc2dd84cd51c19ebdd3bde2808"),
    ({}, 8, "db320b1a2ee9c8eec2fc8ca8bd16aeed895185e9e962c898eb0f58c9eeb0cfa3"),
    ({"malicious_fraction": 0.25}, 7,
     "f33537639aa1da8405f112d7911cdf6fbf3b2d0eb0d5a00f80b18a47f960d28f"),
]

# the skewed-latency run below; CI compares the installed script's CSV with it
SKEWED_SEED_4_CSV_SHA256 = "d65672d41c7352bba6508c72bf2c451c4cc5f02ed57f60e67d18eed73638634c"


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
    assert (sim.events_processed, sim.now) == (3484, 12727)


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
    # finalized blocks, chain blocks, tx retries, block retries
    ({}, (31, 31, 0, 0)),
    ({"malicious_fraction": 0.25}, (18, 18, 70, 11)),
], ids=["seed7", "malicious-seed7"])
def test_report_counters_are_pinned(overrides, counters):
    cfg = make_cfg(nodes=16, transactions_per_node=10, block_size_min=5, **overrides)
    _, report = run_simulation(cfg, seed=7)
    finalized, chain = counters[:2]
    assert (report.finalized_block_count, report.chain_block_count,
            report.tx_retries, report.block_retries) == counters
    assert report.fork_waste == pytest.approx((finalized - chain) / finalized)


def test_deadline_only_run_is_pinned():
    # BLK_SIZE 100 over 3 tx per node: the parts never reach BLK_SIZE, so
    # every block is short, built by its parent's proposer from the parts
    # it holds once the oldest has waited W
    sim = Simulation(make_cfg(nodes=32, transactions_per_node=3, block_size_min=100,
                              validators_per_entity=12, signature_threshold=10,
                              malicious_fraction=0.16), seed=7)
    report = sim.run()
    assert hashlib.sha256(sim.csv_text().encode()).hexdigest() == (
        "9758f602878f547096b19fa842a868c29cf70c811fd50abb574af7ef36af7146")
    assert (sim.events_processed, sim.now) == (5262, 5973)
    assert (report.finalized_block_count, report.chain_block_count,
            report.tx_retries, report.block_retries) == (2, 2, 36, 2)
    tracker, finalized_at = sim.registry.tracker, sim.registry.finalized_txs
    blocks = tracker.chain[1:]
    assert [len(block.tx_ids) for block in blocks] == [71, 25]
    for block in blocks:
        assert block.owner == controller.proposer_of(sim, tracker.blocks[block.parent])
        assert block.created_at - min(finalized_at[tx_id] for tx_id in block.tx_ids) == (
            PART_WAIT_MS)
    # the first block holds the parts of all 32 owners
    owner_of = sim.registry.owner_of
    assert len({owner_of[tx_id] for tx_id in blocks[0].tx_ids}) == 32
