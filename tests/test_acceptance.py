"""Acceptance suite: one test per published claim, at the stated tolerances.

Each test prints a single PASS line once its assertions hold, so a
verbose run reads as a checklist.  The desk-scale run (32 nodes x 50
transactions, seed 7) is executed once and shared by the criteria that
inspect it.
"""
import hashlib
import math
import random
import statistics
from collections import Counter
from dataclasses import replace

import pytest

from chainsim.config import SimulationConfig, parse_config
from chainsim.consensus import PART_WAIT_MS
from chainsim.engine import Simulation
from chainsim.identity import Identifier
from chainsim.overlay import KIND_CONTROLLER, SkipGraph
from chainsim.storage import new_block, new_transaction
from conftest import SAMPLE_CONFIG_TEXT

DESK_SEED = 7
DESK_SEED_7_CSV_SHA256 = "6b37633975913f6f0c26fce768007e7d267c4db8ac4421429760026efe9284de"
DESK_SEED_8_CSV_SHA256 = "65856b5547f96f4eb3edfab2b0c2462cb7fc045923ce6d7efdb82f78654d52e6"


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
    assert len(sim.registry.tracker.chain_txs) == 1600, "every transaction must reach the chain"
    assert report.repeated_chain_txs == 0, "no transaction may repeat across chain blocks"
    blocks = [sim.registry.tracker.blocks[Identifier(bytes.fromhex(r.entity_id))]
              for r in sim.records if r.event_type == "block"]
    finalized_at = sim.registry.finalized_txs
    # a block under BLK_SIZE only once its oldest tx had waited W
    short = [blk for blk in blocks if len(blk.tx_ids) < 10]
    assert all(blk.created_at - min(finalized_at[tx_id] for tx_id in blk.tx_ids)
               >= PART_WAIT_MS for blk in short)
    sizes = [len(blk.tx_ids) for blk in blocks]
    # a block takes the proposer's whole pool once it holds BLK_SIZE txs
    assert max(sizes) > 10
    average = statistics.mean(sizes)
    assert average >= 10
    assert report.wall_clock_s < 60.0
    print(f"ACCEPTANCE 2 desk-scale run: PASS "
          f"(avg block size {average:.2f}, largest {max(sizes)}, {len(short)} short, "
          f"{report.wall_clock_s:.1f}s)")


def test_criterion_3_logarithmic_search_scaling():
    rng = random.Random(0)
    means = []
    for size in (64, 128, 256, 512):
        graph = SkipGraph(max_vertices=size)
        for i in range(size):
            graph.announce(Identifier(rng.randbytes(32)), i, KIND_CONTROLLER)
        hops = [
            graph.search_num_id(rng.randrange(size),
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


SWEEP_NODES = (16, 32, 64)


@pytest.fixture(scope="module")
def sweep():
    """Desk parameters at 30 tx per node, seed 7, for each of SWEEP_NODES:
    the report and the number of validator searches of each run."""
    runs = {}
    for nodes in SWEEP_NODES:
        searches = Counter()
        in_part = []
        search = SkipGraph.search_num_id
        send_parts = Simulation.send_parts

        def counted_search(graph, start, target):
            searches["part" if in_part else "validator"] += 1
            return search(graph, start, target)

        def marked_send_parts(sim, state, dst, parts):
            in_part.append(dst)
            try:
                send_parts(sim, state, dst, parts)
            finally:
                in_part.pop()

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SkipGraph, "search_num_id", counted_search)
            patch.setattr(Simulation, "send_parts", marked_send_parts)
            cfg = replace(desk_cfg(), nodes=nodes, transactions_per_node=30)
            report = Simulation(cfg, seed=DESK_SEED).run()
        runs[nodes] = (cfg, report, searches)
    return runs


@pytest.mark.parametrize("nodes", SWEEP_NODES)
def test_whole_run_search_hops_stay_below_log2_nodes(sweep, nodes):
    # a search starts at the searcher's own vertex nearest below the target,
    # and each owner it reaches hops on over every link its vertices hold,
    # so hops follow log2 of the nodes, not of the ~33 vertices per node;
    # they are 1.84 / 2.34 / 2.98 at seed 7, and were 5.73 / 7.13 / 8.49
    # from the controller vertex, 3.63 / 4.48 / 5.36 from the searcher's
    # start alone, and 2.61 / 3.67 / 4.34 with each owner resuming at its
    # own vertex but reading one vertex's links per level
    cfg, report, searches = sweep[nodes]
    # every try of a tx or block round searches once per validator slot
    rounds = nodes * cfg.transactions_per_node + report.tx_retries + report.block_rounds
    assert searches["validator"] == cfg.validators_per_entity * rounds
    hops = report.messages_by_tag["overlay-route"] / searches["validator"]
    assert hops < math.log2(nodes) - 1
    print(f"ACCEPTANCE whole-run hops at n={nodes}: PASS ({hops:.2f} per search)")


@pytest.mark.parametrize("nodes", SWEEP_NODES)
def test_one_proposer_per_tail_keeps_blocks_from_contending(sweep, nodes):
    # only the tail's proposer builds on it, so block rounds per chain block
    # stay flat in n and finalized blocks are not wasted on forks; with
    # every owner building they were 5.9 / 14.5 / 40.9 rounds per chain
    # block and 0.18 / 0.48 / 0.59 fork waste at seed 7
    _, report, searches = sweep[nodes]
    rounds_per_block = report.block_rounds / report.chain_block_count
    assert rounds_per_block <= 3
    assert report.fork_waste < 0.1
    # parts reach proposers not yet found by a routed search
    assert report.messages_by_tag["part"] > 0 and searches["part"] > 0
    print(f"ACCEPTANCE no block contention at n={nodes}: PASS ({rounds_per_block:.2f} "
          f"rounds per chain block, fork waste {report.fork_waste:.2f})")


def test_notify_bytes_per_entity_stay_flat_in_nodes(sweep):
    # a block's notify carries the header to every node but only each tx
    # id to its owner, so its ids cost the same at any n, and the headers
    # are spread over the larger blocks of more nodes; when every node got
    # every id they were 1,702 / 2,211 / 3,210 bytes per entity at seed 7
    per_entity = {}
    for nodes in SWEEP_NODES:
        _, report, _ = sweep[nodes]
        entities = report.finalized_tx_count + report.finalized_block_count
        per_entity[nodes] = report.bytes_by_tag["notify"] / entities
    assert per_entity[64] <= 1.1 * per_entity[16]
    print("ACCEPTANCE flat notify bytes: PASS (" + " / ".join(
        f"{per_entity[nodes]:.0f}" for nodes in SWEEP_NODES) + " bytes per entity)")


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
            graph.announce(ident, i, KIND_CONTROLLER)
            ids.append(ident)
        for _ in range(50):
            target = Identifier(rng.randbytes(32))
            below = [i for i in ids if value(i) <= value(target)]
            expected = max(below, key=value) if below else min(ids, key=value)
            start = rng.randrange(size)
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


def csv_sha256(csv: str) -> str:
    return hashlib.sha256(csv.encode()).hexdigest()


def test_criterion_7_determinism(desk):
    # the CSV bytes are pinned across processes and commits; an in-process
    # repeat is tests/test_engine.py::test_same_seed_reproduces_csv_bytes
    assert csv_sha256(desk["csv"]) == DESK_SEED_7_CSV_SHA256
    other = Simulation(desk_cfg(), seed=DESK_SEED + 1)
    assert other.matrix.values != desk["sim"].matrix.values
    other.run()
    assert other.csv_text() != desk["csv"]
    assert csv_sha256(other.csv_text()) == DESK_SEED_8_CSV_SHA256
    print("ACCEPTANCE 7 determinism: PASS (byte-identical CSV)")


def test_desk_inserts_cost_logarithmic_messages_after_their_search(monkeypatch):
    # after its search, an insert walks each side's levels once, left then
    # right, and its last owner sends one reply to the inserter: on the
    # desk run those messages average under 2 log2(vertices)
    searches, after_search = [], []
    search, announce = SkipGraph._search, SkipGraph.announce

    def recording_search(graph, start, target):
        floor, path = search(graph, start, target)
        searches.append((path[0], len(path)))
        return floor, path

    def watched_announce(graph, identifier, owner, kind):
        searches.clear()
        path = announce(graph, identifier, owner, kind)
        if searches:   # every insert but the first vertex's has one search
            (first, length), = searches
            walks = len(path) - length - (first != owner)
            after_search.append(walks + (path[-1] != owner))
        return path

    monkeypatch.setattr(SkipGraph, "_search", recording_search)
    monkeypatch.setattr(SkipGraph, "announce", watched_announce)
    sim = Simulation(desk_cfg(), seed=DESK_SEED)
    sim.run()
    vertices = len(sim.overlay)
    assert len(after_search) == vertices - 1
    mean, bound = statistics.mean(after_search), 2 * math.log2(vertices)
    assert mean < bound
    print(f"ACCEPTANCE logarithmic insert: PASS ({mean:.1f} messages after the search "
          f"< {bound:.1f})")


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
        graph.announce(ident, i, KIND_CONTROLLER)
        controllers.append((ident, i))
    controllers.sort(key=lambda pair: pair[0])
    counts = Counter()
    slots = 0
    while slots < 20000:
        owner = rng.randrange(nodes)
        tickets = select_validators(Identifier(rng.randbytes(32)), owner,
                                    controllers, graph, cfg)
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
    assert len(sim.registry.tracker.chain_txs) == 1600 and report.repeated_chain_txs == 0
    assert all(r.approvals >= 10 for r in sim.records)
    print(f"ACCEPTANCE 9 malicious resilience: PASS "
          f"(min approvals {min(r.approvals for r in sim.records)})")


def test_malicious_approvals_at_sig_thr_repeat_no_chain_tx():
    # 3 of 6 nodes are malicious and SIG_THR is 2, so malicious approvals
    # alone finalize a malicious proposer's block on a bogus parent; it
    # links nowhere, its builder builds its parts again, and no tx is held
    # twice, so none sits in two chain blocks
    cfg = replace(desk_cfg(malicious=0.44), nodes=6, transactions_per_node=1,
                  block_size_min=1, validators_per_entity=4, signature_threshold=2)
    sim = Simulation(cfg, seed=6)
    report = sim.run()
    assert report.finalized_tx_count == 6
    assert sim.registry.tracker.chain_txs == sim.registry.finalized_txs.keys()
    off_chain = [r for r in sim.records if r.event_type == "block"
                 and Identifier(bytes.fromhex(r.entity_id)) not in sim.registry.tracker.blocks]
    assert report.fork_waste > 0 and len(off_chain) == 1
    assert report.repeated_chain_txs == 0
    print("ACCEPTANCE no repeated chain txs at SIG_THR <= m: PASS "
          f"(fork waste {report.fork_waste:.2f}, one bogus-parent block)")


def test_end_check_counts_a_tx_in_two_chain_blocks():
    # the end check counts a tx that sits in more than one chain block
    # rather than refusing the run
    cfg = replace(desk_cfg(), nodes=4, transactions_per_node=1, block_size_min=1,
                  validators_per_entity=3, signature_threshold=2)
    sim = Simulation(cfg, seed=0)
    txs = [new_transaction(i, (i + 1) % 4, 1, sim.genesis.id, 0, created_at=0)
           for i in range(4)]
    for tx in txs:
        sim.registry.add_tx(tx.id, tx.owner, tx.seq, finalized_at=0)
    first = new_block(0, sim.genesis.id, 1, [tx.id for tx in txs[:3]], created_at=0)
    second = new_block(1, first.id, 2, [txs[2].id, txs[3].id], created_at=0)
    sim.registry.tracker.add(first)
    sim.registry.tracker.add(second)
    sim._check_outcome()
    assert sim.repeated_chain_txs == 1
