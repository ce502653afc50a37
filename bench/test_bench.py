"""Self-tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest -q bench
"""
from pathlib import Path

import pytest

import chainsim
from chainsim import SimulationConfig, engine, simnet
from simrun import (check_run, confirm_times, finality_times, percentile,
                    samples_beyond, tail_percentile)
from tracing import Tracer, instrument, traced_messages
from workloads import WORKLOADS, config_text

ROOT = Path(__file__).resolve().parent.parent

# 8 nodes x 5 tx with the published fees, as tests/conftest.py::make_cfg builds it
TINY = SimulationConfig(nodes=8, transactions_per_node=5, inter_tx_delay_s=1,
                        block_size_min=5, initial_balance=20, malicious_fraction=0.0,
                        validators_per_entity=4, signature_threshold=3,
                        validation_fee=2, routing_fee=1, block_reward=3)


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50), (100, 90), (999, 90), (1000, 99),
    (1600, 99), (3600, 99), (9999, 99), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([7], 99) == 7


def test_confirm_is_never_before_finality():
    sim = chainsim.Simulation(TINY, seed=7)
    sim.run()
    assert check_run(sim) == []
    finality = finality_times(sim.records)
    confirm = confirm_times(sim.records, sim.registry.tracker)
    assert len(finality) == TINY.nodes * TINY.transactions_per_node
    assert confirm.keys() == finality.keys()
    assert all(confirm[tx] >= finality[tx] for tx in finality)


def test_self_time_subtracts_direct_children():
    ticks = iter([0, 1, 4, 5, 6, 8, 9, 10])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.enter("a")          # 0
    tracer.enter("b")          # 1
    tracer.exit()              # 4: b = 3
    tracer.enter("c")          # 5
    tracer.enter("b")          # 6
    tracer.exit()              # 8: b = 2
    tracer.exit()              # 9: c = 4, self 2
    tracer.exit()              # 10: a = 10, self 10 - 3 - 4
    assert dict(tracer.total_s) == {"a": 10, "b": 5, "c": 4}
    assert dict(tracer.self_s) == {"a": 3, "b": 5, "c": 2}
    assert dict(tracer.calls) == {"a": 1, "b": 2, "c": 1}


def test_reset_refuses_open_span():
    tracer = Tracer()
    tracer.enter("a")
    with pytest.raises(RuntimeError):
        tracer.reset()


def test_tracing_leaves_csv_unchanged_and_restores():
    plain = chainsim.Simulation(TINY, seed=3)
    plain.run()
    originals = (engine.Simulation.schedule_at, simnet.Network.send, engine.hash_bytes)
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        traced = chainsim.Simulation(TINY, seed=3)
        report = traced.run()
    finally:
        restore()
    assert traced.csv_text() == plain.csv_text()
    assert traced_messages(tracer) == report.total_messages
    assert tracer.calls["engine.handler"] == traced.events_processed
    assert (engine.Simulation.schedule_at, simnet.Network.send, engine.hash_bytes) == originals


def test_desk_is_the_shipped_config():
    shipped = chainsim.parse_config((ROOT / "simulation.config").read_text())
    assert chainsim.parse_config(config_text(WORKLOADS["desk"])) == shipped
