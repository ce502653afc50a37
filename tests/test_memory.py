"""Per-entity memory: slotted records, and accounting that ends with its operation."""
import gc

import pytest

from chainsim import controller, engine
from chainsim.consensus import ValidationTicket, select_validators
from chainsim.engine import MetricRecord, Simulation
from chainsim.identity import ZERO_ID
from chainsim.overlay import KIND_DATA, SearchResult, Vertex
from chainsim.simnet import TAG_ANNOUNCE, TAG_PART, ContextCounters
from chainsim.storage import new_block, new_transaction
from conftest import make_cfg


def live_counters() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, ContextCounters))


@pytest.mark.parametrize("instance", [
    Vertex(ZERO_ID, 0, KIND_DATA, levels=3),
    new_transaction(0, 1, 1, ZERO_ID, seq=0, created_at=0),
    new_block(0, ZERO_ID, 1, [bytes(32)], created_at=0),
    MetricRecord("tx", "00", 0, 0, 0, 0, 0, 0, 0, 0),
    ContextCounters(),
    SearchResult(ZERO_ID, 0, [0]),
    ValidationTicket(1, [0, 1]),
], ids=lambda obj: type(obj).__name__)
def test_per_entity_objects_have_no_dict(instance):
    assert not hasattr(instance, "__dict__")


def assert_nothing_outlives_the_run(cfg, seed):
    before = live_counters()
    sim = Simulation(cfg, seed=seed)
    sim.run()
    # no event is left queued to hold an operation, and no operation is left
    assert sim._heap == []
    assert live_counters() == before


def test_operation_counters_do_not_outlive_the_run():
    assert_nothing_outlives_the_run(make_cfg(nodes=16, transactions_per_node=10), seed=7)


def test_operation_counters_do_not_outlive_a_hostile_run():
    assert_nothing_outlives_the_run(
        make_cfg(nodes=16, transactions_per_node=10, malicious_fraction=0.25), seed=7)


def test_every_message_counted_once_against_an_operation_or_uncontexted(monkeypatch):
    made = []
    selected = []   # the tickets of every round, in selection order

    def recording_counters():
        made.append(ContextCounters())
        return made[-1]

    def recording_select(*args):
        tickets = select_validators(*args)
        selected.extend(tickets)
        return tickets

    # tx slots get their counters in the controller, block attempts in the engine
    monkeypatch.setattr(controller, "ContextCounters", recording_counters)
    monkeypatch.setattr(engine, "ContextCounters", recording_counters)
    monkeypatch.setattr(engine, "select_validators", recording_select)
    bootstrap_traffic = {}
    bootstrap = Simulation._bootstrap

    def recording_bootstrap(sim):
        bootstrap(sim)
        bootstrap_traffic.update((tag, tuple(traffic))
                                 for tag, traffic in sim.net.traffic_by_tag.items())

    monkeypatch.setattr(Simulation, "_bootstrap", recording_bootstrap)
    sim = Simulation(make_cfg(nodes=8, transactions_per_node=6, malicious_fraction=0.25),
                     seed=3)
    report = sim.run()
    net = sim.net
    assert sum(op.messages for op in made) + net.uncontexted_messages == net.total_messages
    # the bootstrap announces and the part messages are the only traffic
    # outside an operation
    (bootstrap_messages, bootstrap_bytes), = bootstrap_traffic.values()
    assert list(bootstrap_traffic) == [TAG_ANNOUNCE]
    part_messages, part_bytes = net.traffic_by_tag[TAG_PART]
    assert part_messages > 0
    assert net.uncontexted_messages == bootstrap_messages + part_messages
    assert net.total_bytes - sum(op.bytes for op in made) == bootstrap_bytes + part_bytes
    # one operation per tx slot, and one per block attempt, finalized or not
    assert len(made) >= report.finalized_tx_count + report.finalized_block_count
    # a row counts its operation up to finalization, never more
    assert sum(r.messages for r in sim.records) <= sum(op.messages for op in made)
    # a row counts the validators its operation's rounds selected, never more
    assert sum(r.validators_contacted for r in sim.records) <= len(selected)
    net.check_accounting()
