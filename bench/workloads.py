"""The benchmark's workloads, as `simulation.config` texts.

Every workload keeps the published consensus and fee parameters; they
differ in population, malicious share and block size.  The reasons for
each choice are in README.md next to this file.
"""
from __future__ import annotations

# Published consensus and fee parameters, shared by every workload.
PUBLISHED = {
    "DELAY": 1,
    "INIT_BALANCE": 20,
    "VALID_THR": 12,
    "SIG_THR": 10,
    "VALID_FEE": 2,
    "ROUTE_FEE": 1,
    "REWARD": 3,
}

# The shipped simulation.config.
DESK = {"NODES": 32, "TRANSACTIONS": 50, "BLK_SIZE": 10, "MALICIOUS": 0.16, **PUBLISHED}

WORKLOADS = {
    # small blocks, many of them: chain reorgs and the notify broadcast
    "desk": DESK,
    # most validation rounds fail and retry
    "hostile": {**DESK, "MALICIOUS": 0.25},
    # the published population and block size, cut to 30 tx per node
    "published-short": {**DESK, "NODES": 120, "TRANSACTIONS": 30, "BLK_SIZE": 100},
}

# The published config itself: too slow to be a workload (see published_full.py).
PUBLISHED_FULL = {**DESK, "NODES": 120, "TRANSACTIONS": 1000, "BLK_SIZE": 100}


def config_text(values: dict) -> str:
    """Render config values as `simulation.config` text."""
    return "".join(f"{key} = {value}\n" for key, value in values.items())
