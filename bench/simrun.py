"""One benchmark run of one workload, in this process.

    PYTHONPATH=src python3 bench/simrun.py --workload desk --seed 7 --trace 0

Sets the simulation up several times (timing each set-up), runs the last
one through the public API, checks its outputs outside the timed region,
times a second window of set-ups, and prints one JSON object with the
run's figures.  The host's speed drifts over seconds, so set-up is timed
in two windows, apart in time, rather than one.  bench/run.py starts
this script in a fresh process for every run.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import sys
import time
from collections import Counter
from fractions import Fraction

import chainsim
from tracing import Tracer, instrument, layer_metrics, traced_messages
from workloads import WORKLOADS, config_text

SETUP_MIN_REPEATS = 11
SETUP_BUDGET_S = 0.4
# percentiles a timing may be reported at, lowest first
PERCENTILE_LADDER = (50, 90, 99, 99.9, 99.99)
MIN_BEYOND = 10


def samples_beyond(n: int, q) -> int:
    """Samples ranked above the nearest-rank q-th percentile of n samples."""
    return n - math.ceil(Fraction(str(q)) * n / 100)


def tail_percentile(n: int):
    """The highest ladder percentile with at least MIN_BEYOND samples beyond it."""
    supported = [q for q in PERCENTILE_LADDER if samples_beyond(n, q) >= MIN_BEYOND]
    return supported[-1] if supported else None


def percentile(values: list[int], q) -> int:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(Fraction(str(q)) * len(ordered) / 100) - 1)]


def finality_times(records) -> dict[str, int]:
    """tx id (hex) -> ms from creation to the tx's own finalization."""
    return {r.entity_id: r.finalized_at - r.created_at for r in records if r.event_type == "tx"}


def confirm_times(records, tracker) -> dict[str, int]:
    """tx id (hex) -> ms from creation to finalization of the chain block holding it."""
    block_final = {r.entity_id: r.finalized_at for r in records if r.event_type == "block"}
    created = {r.entity_id: r.created_at for r in records if r.event_type == "tx"}
    out = {}
    for block_id in tracker.chain_ids():
        if block_id == tracker.genesis.id:
            continue
        finalized_at = block_final[block_id.hex()]
        for tx_id in tracker.blocks[block_id].tx_ids:
            out[tx_id.hex()] = finalized_at - created[tx_id.hex()]
    return out


def check_run(sim) -> list[str]:
    """Correctness problems of a finished run; empty when it is correct."""
    problems = []
    for name, check in (("overlay invariants", sim.overlay.check_invariants),
                        ("supply conservation", sim.ledger.check_conservation),
                        ("message accounting", sim.net.check_accounting)):
        try:
            check()
        except AssertionError as exc:
            problems.append(f"{name}: {exc}")
    cfg = sim.cfg
    expected = cfg.nodes * cfg.transactions_per_node
    tracker = sim.registry.tracker
    placed = Counter(tx_id for block_id in tracker.chain_ids()
                     for tx_id in tracker.blocks[block_id].tx_ids)
    if len(sim.registry.finalized_txs) != expected:
        problems.append(f"{len(sim.registry.finalized_txs)} tx finalized, expected {expected}")
    if set(placed) != set(sim.registry.finalized_txs):
        problems.append("chain tx set differs from the finalized tx set")
    repeated = sum(1 for n in placed.values() if n > 1)
    if repeated:
        problems.append(f"{repeated} tx sit in more than one chain block")
    return problems


def time_setups(text: str, seed: int):
    """Set the simulation up repeatedly: the set-up times, and the last simulation."""
    times = []
    sim = None
    deadline = time.perf_counter() + SETUP_BUDGET_S
    while len(times) < SETUP_MIN_REPEATS or time.perf_counter() < deadline:
        sim = None   # free the previous set-up before timing the next
        start = time.perf_counter()
        sim = chainsim.Simulation(chainsim.parse_config(text), seed)
        times.append(time.perf_counter() - start)
    return times, sim


def run_once(workload: str, seed: int, trace: bool) -> dict:
    text = config_text(WORKLOADS[workload])
    tracer = Tracer() if trace else None
    if tracer:
        instrument(tracer)

    before, sim = time_setups(text, seed)
    result = {"setup_s": [before]}
    if tracer:
        setup_layers = {
            "config.parse_s": tracer.total_s["config.parse"] / tracer.calls["config.parse"],
            "simnet.latency_matrix_s": (tracer.total_s["simnet.latency_matrix"]
                                        / tracer.calls["simnet.latency_matrix"]),
        }
        tracer.reset()   # the run's per-layer figures cover run() only
    gc.collect()

    start = time.perf_counter()
    try:
        report = sim.run()
    except chainsim.StalledSimulation as exc:
        result.update(ok=False, problems=[f"stalled: {exc}"])
        return result
    csv = sim.csv_text()
    result["run_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = check_run(sim)
    finality = list(finality_times(sim.records).values())
    confirm = list(confirm_times(sim.records, sim.registry.tracker).values())
    tail = tail_percentile(len(finality))
    if tail is None or tail < 99:
        problems.append(f"{len(finality)} tx samples do not support a p99")
    if tracer and traced_messages(tracer) != report.total_messages:
        problems.append("traced message count differs from the network's total")
    result.update(
        ok=not problems,
        problems=problems,
        digest=hashlib.sha256(csv.encode()).hexdigest(),
        events=sim.events_processed,
        tx_samples=len(finality),
        tail_percentile=tail,
        tx_finality_p50_ms=percentile(finality, 50),
        tx_finality_p99_ms=percentile(finality, 99),
        tx_confirm_p50_ms=percentile(confirm, 50),
        tx_confirm_p99_ms=percentile(confirm, 99),
        msgs_per_tx=report.total_messages / report.finalized_tx_count,
        bytes_per_tx=report.total_bytes / report.finalized_tx_count,
    )
    if tracer:
        result["layers"] = {**layer_metrics(tracer, sim, report), **setup_layers}
    sim = report = None
    gc.collect()
    result["setup_s"].append(time_setups(text, seed)[0])
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not __debug__:
        print("the output checks use assert; run without -O", file=sys.stderr)
        return 2
    print(json.dumps(run_once(args.workload, args.seed, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
