"""One run of the published config (120 nodes x 1000 tx, BLK_SIZE 100) under a wall budget.

    PYTHONPATH=src python3 bench/published_full.py

Not a workload: at the time this script was added the run does not finish
in any budget the benchmark could afford.  When the budget runs out the
run is interrupted and the script prints how far it got, so the result
reads "did not finish in N s" with the events processed, tx finalized and
peak RSS at that point.
"""
from __future__ import annotations

import json
import resource
import signal
import sys
import time

import chainsim
from workloads import PUBLISHED_FULL, config_text

SEED = 7
BUDGET_S = 600


class BudgetExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def main() -> int:
    sim = chainsim.Simulation(chainsim.parse_config(config_text(PUBLISHED_FULL)), SEED)
    signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        sim.run()
        finished = True
    except BudgetExceeded:
        finished = False
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall_s = time.perf_counter() - start
    print(json.dumps({
        "finished": finished,
        "budget_s": BUDGET_S,
        "wall_s": round(wall_s, 1),
        "events": sim.events_processed,
        "tx_finalized": len(sim.registry.finalized_txs),
        "tx_total": PUBLISHED_FULL["NODES"] * PUBLISHED_FULL["TRANSACTIONS"],
        "virtual_time_s": sim.now / 1000,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
