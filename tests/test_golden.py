"""Pinned CSV digests: a change that claims the same behaviour must keep these bytes.

The first three digests were taken from the code as it stood before
slotted records, flat skip-graph links and operation-owned accounting,
the fourth before signature counts, the incremental pool and the
skipping of round timeouts that cannot fire on an open round; all of
these leave the output unchanged.  A change that alters behaviour on
purpose updates them and says so.
"""
import hashlib

import pytest

from chainsim.engine import Simulation, run_simulation
from conftest import make_cfg

GOLDEN = [
    ({}, 7, "5c7e1fe650bb3da1467ad972fd605a2af6daf94dd5bc56092cf77e0ce41656c2"),
    ({}, 8, "98785a4d102ecf4f686121600b3b130c6411078324cafb7b83c6f1e98495afe3"),
    ({"malicious_fraction": 0.25}, 7,
     "2cda6361eb1c043385399bb2ecaf3c22d900952f1832249df754fea26a301652"),
]


@pytest.mark.parametrize("overrides, seed, digest", GOLDEN)
def test_csv_digest_is_pinned(overrides, seed, digest):
    cfg = make_cfg(nodes=16, transactions_per_node=10, block_size_min=5, **overrides)
    csv_text, _ = run_simulation(cfg, seed=seed)
    assert hashlib.sha256(csv_text.encode()).hexdigest() == digest


def test_golden_run_ends_at_a_pinned_event_and_time():
    # taken before handler-less messages were scheduled as a shared no-op and
    # in-flight traffic was read from the latest arrival: every message is
    # still one event, and the run still ends at the same virtual time
    sim = Simulation(make_cfg(nodes=16, transactions_per_node=10, block_size_min=5), seed=7)
    sim.run()
    assert (sim.events_processed, sim.now) == (11076, 32461)


def test_csv_digest_is_pinned_when_timeouts_fire():
    # one 300 ms sample in 250 makes the validation timeout (10 x p99 = 50 ms)
    # shorter than the slowest round trips, so some rounds end on a timeout
    cfg = make_cfg(nodes=32, transactions_per_node=5, block_size_min=5,
                   validators_per_entity=12, signature_threshold=10)
    csv_text, _ = run_simulation(cfg, seed=4, latency_samples=[5.0] * 249 + [300.0])
    assert hashlib.sha256(csv_text.encode()).hexdigest() == (
        "d9c8da2ba49a77fc041194d7f4376c6e2b294634f515472a93d6aa231988d9fb")
