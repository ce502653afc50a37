"""Acceptance suite: one test per published claim, at the stated tolerances.

Each test prints a single PASS line once its assertions hold, so a
verbose run reads as a checklist.  The desk-scale run (32 nodes x 50
transactions, seed 7) is executed once and shared by the criteria that
inspect it.
"""
import random
import statistics
from collections import Counter

import pytest

from chainsim.config import SimulationConfig, parse_config
from chainsim.engine import Simulation, run_simulation
from chainsim.identity import Identifier, address_for
from chainsim.overlay import KIND_CONTROLLER, SkipGraph
from conftest import SAMPLE_CONFIG_TEXT

DESK_SEED = 7


def desk_cfg(malicious=0.16) -> SimulationConfig:
    return SimulationConfig(
        nodes=32, transactions_per_node=50, inter_tx_delay_s=1,
        block_size_min=10, initial_balance=20, malicious_fraction=malicious,
        validators_per_entity=12, signature_threshold=10,
        validation_fee=2, routing_fee=1, block_reward=3,
    )


@pytest.fixture(scope="module")
def desk():
    sim = Simulation(desk_cfg(), seed=DESK_SEED)
    report = sim.run()
    return {"sim": sim, "csv": sim.csv_text(), "report": report}


def chain_tx_counts(sim: Simulation) -> Counter:
    chain = [sim.registry.tracker.blocks[b] for b in sim.registry.tracker.chain_ids()]
    return Counter(tx for blk in chain for tx in blk.tx_ids)


def test_criterion_1_config_fidelity():
    cfg = parse_config(SAMPLE_CONFIG_TEXT)
    assert cfg.nodes == 120
    assert cfg.transactions_per_node == 1000
    assert cfg.inter_tx_delay_s == 1
    assert cfg.block_size_min == 100
    assert cfg.initial_balance == 20
    assert cfg.malicious_fraction == 0.16
    assert cfg.validators_per_entity == 12
    assert cfg.signature_threshold == 10
    assert cfg.validation_fee == 2
    assert cfg.routing_fee == 1
    assert cfg.block_reward == 3
    print("ACCEPTANCE 1 config fidelity: PASS")


def test_criterion_2_desk_scale_end_to_end(desk):
    report = desk["report"]
    sim = desk["sim"]
    assert report.finalized_tx_count == 32 * 50
    counts = chain_tx_counts(sim)
    assert len(counts) == 1600, "every transaction must reach the chain"
    assert set(counts.values()) == {1}, "no transaction may repeat across chain blocks"
    blocks = [r for r in sim.records if r.event_type == "block"]
    non_drain = [r.size for r in blocks if not sim.registry.tracker.blocks[
        Identifier(bytes.fromhex(r.entity_id))].drain]
    assert min(non_drain) >= 10
    average = statistics.mean(r.size for r in blocks)
    assert average >= 10
    assert report.wall_clock_s < 60.0
    print(f"ACCEPTANCE 2 desk-scale run: PASS "
          f"(avg block size {average:.2f}, {report.wall_clock_s:.1f}s)")


def test_criterion_3_logarithmic_search_scaling():
    rng = random.Random(0)
    means = []
    for size in (64, 128, 256, 512):
        graph = SkipGraph(max_vertices=size)
        for i in range(size):
            graph.announce(Identifier(rng.randbytes(32)), address_for(i),
                           KIND_CONTROLLER)
        hops = [
            graph.search_num_id(address_for(rng.randrange(size)),
                                Identifier(rng.randbytes(32))).hop_count
            for _ in range(500)
        ]
        means.append(statistics.mean(hops))
    deltas = [b - a for a, b in zip(means, means[1:])]
    assert all(d > 0 for d in deltas)
    assert max(deltas) / min(deltas) <= 2.0
    assert means[-1] <= 4 * means[0]
    print(f"ACCEPTANCE 3 logarithmic scaling: PASS "
          f"(means {['%.2f' % m for m in means]})")


def test_criterion_4_search_oracle_equivalence():
    rng = random.Random(11)
    value = lambda i: int.from_bytes(i, "big")
    checked = 0
    for trial in range(200):
        size = rng.randrange(2, 129)
        graph = SkipGraph(max_vertices=size)
        ids = []
        for i in range(size):
            ident = Identifier(rng.randbytes(32))
            graph.announce(ident, address_for(i), KIND_CONTROLLER)
            ids.append(ident)
        for _ in range(50):
            target = Identifier(rng.randbytes(32))
            below = [i for i in ids if value(i) <= value(target)]
            expected = max(below, key=value) if below else min(ids, key=value)
            start = address_for(rng.randrange(size))
            assert graph.search_num_id(start, target).identifier == expected
            checked += 1
    assert checked == 200 * 50
    print("ACCEPTANCE 4 search oracle equivalence: PASS (10000/10000)")


def test_criterion_5_memory_distribution(desk):
    report = desk["report"]
    entities = report.finalized_tx_count + report.finalized_block_count
    stored = report.per_node_stored
    bound = 3 * 3 * entities / 32
    assert max(stored) <= bound
    assert max(stored) <= 0.15 * entities
    print(f"ACCEPTANCE 5 memory distribution: PASS "
          f"(max {max(stored)} <= {bound:.0f})")


def test_criterion_6_conservation(desk):
    sim = desk["sim"]
    report = desk["report"]
    total = sum(sim.ledger.balances)
    assert total == 32 * 20 + 3 * report.finalized_block_count
    print(f"ACCEPTANCE 6 conservation: PASS (supply {total})")


def test_criterion_7_determinism(desk):
    repeat_csv, _ = run_simulation(desk_cfg(), seed=DESK_SEED)
    assert repeat_csv == desk["csv"]
    other = Simulation(desk_cfg(), seed=DESK_SEED + 1)
    assert other.matrix.values != desk["sim"].matrix.values
    other.run()
    assert other.csv_text() != desk["csv"]
    print("ACCEPTANCE 7 determinism: PASS (byte-identical CSV)")


def test_criterion_8_uniform_chance_selection():
    from chainsim.consensus import select_validators

    nodes = 64
    cfg = SimulationConfig(
        nodes=nodes, transactions_per_node=1, inter_tx_delay_s=1,
        block_size_min=1, initial_balance=20, malicious_fraction=0.0,
        validators_per_entity=12, signature_threshold=10,
        validation_fee=2, routing_fee=1, block_reward=3,
    )
    rng = random.Random(123)
    graph = SkipGraph(max_vertices=nodes)
    controllers = []
    for i in range(nodes):
        ident = Identifier(rng.randbytes(32))
        graph.announce(ident, address_for(i), KIND_CONTROLLER)
        controllers.append((ident, address_for(i)))
    controllers.sort(key=lambda pair: pair[0])
    counts = Counter()
    slots = 0
    while slots < 20000:
        owner = rng.randrange(nodes)
        tickets = select_validators(Identifier(rng.randbytes(32)), owner,
                                    controllers, graph, address_for(owner), cfg)
        counts.update(t.validator for t in tickets)
        slots += len(tickets)
    expected = slots / nodes
    low, high = min(counts.values()), max(counts.values())
    assert low >= 0.5 * expected
    assert high <= 2.0 * expected
    print(f"ACCEPTANCE 8 uniform selection: PASS "
          f"({slots} slots, spread {low / expected:.2f}x-{high / expected:.2f}x)")


def test_criterion_9_malicious_resilience():
    sim = Simulation(desk_cfg(malicious=0.25), seed=DESK_SEED)
    report = sim.run()
    assert report.finalized_tx_count == 1600
    counts = chain_tx_counts(sim)
    assert len(counts) == 1600 and set(counts.values()) == {1}
    assert all(r.approvals >= 10 for r in sim.records)
    print(f"ACCEPTANCE 9 malicious resilience: PASS "
          f"(min approvals {min(r.approvals for r in sim.records)})")
