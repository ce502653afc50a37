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
    ({}, 7, "3ea075927980c58dab4026d18c6ca11ff502af4bbd34f5db1da7aaa24042406e"),
    ({}, 8, "890f4019050163008f1c4cab7386b5f2c0dbc07c35e5ac60b895e4981b24b84e"),
    ({"malicious_fraction": 0.25}, 7,
     "72886e32b15a08f3403c93c38c7176f0ac3b858793bd788365f6636bdee0d9df"),
]

# the skewed-latency run below; CI compares the installed script's CSV with it
SKEWED_SEED_4_CSV_SHA256 = "d7a272405ce1261790ee1a0ff6ff1b1c07c02d8cf2b9b4c0b7b90a15dc19b51c"


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
    assert (sim.events_processed, sim.now) == (3350, 12816)


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
    ({}, (28, 28, 0, 0)),
    ({"malicious_fraction": 0.25}, (20, 20, 72, 7)),
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
        "d6112318bc6bf126189291e179c0e4099723c535f415c120f0b1aa11778ca920")
    assert (sim.events_processed, sim.now) == (5418, 7614)
    assert (report.finalized_block_count, report.chain_block_count,
            report.tx_retries, report.block_retries) == (3, 3, 42, 0)
    tracker, finalized_at = sim.registry.tracker, sim.registry.finalized_txs
    blocks = tracker.chain[1:]
    assert [len(block.tx_ids) for block in blocks] == [52, 42, 2]
    for block in blocks:
        assert block.owner == controller.proposer_of(sim, tracker.blocks[block.parent])
        assert block.created_at - min(finalized_at[tx_id] for tx_id in block.tx_ids) == (
            PART_WAIT_MS)
    # the first block holds the parts of 31 owners
    owner_of = sim.registry.owner_of
    assert len({owner_of[tx_id] for tx_id in blocks[0].tx_ids}) == 31
