"""Shared fixtures and the sample configuration text."""
import pytest

from chainsim.config import SimulationConfig
from chainsim.engine import Simulation
from chainsim.overlay import KIND_CONTROLLER

# Full sample configuration file, preserving the published whitespace
# quirks (trailing space on the DELAY line, double spaces before two of
# the comments) to exercise parser whitespace handling.
SAMPLE_CONFIG_TEXT = (
    "NODES = 120 // total nodes\n"
    "TRANSACTIONS = 1000 // Total transactions per node\n"
    "DELAY = 1 // delay between transactions of a node \n"
    "BLK_SIZE = 100 // size of a block\n"
    "INIT_BALANCE = 20 // initial balance of a node\n"
    "MALICIOUS = 0.16 // fraction of malicious nodes\n"
    "\n"
    "// consensus parameters\n"
    "VALID_THR = 12 // signatures threshold\n"
    "SIG_THR = 10 // validation threshold\n"
    "VALID_FEE = 2  // validation fee\n"
    "ROUTE_FEE = 1  // routing fee\n"
    "REWARD = 3 // block generation reward\n"
)

SAMPLE_CONFIG_VALUES = dict(
    nodes=120,
    transactions_per_node=1000,
    inter_tx_delay_s=1,
    block_size_min=100,
    initial_balance=20,
    malicious_fraction=0.16,
    validators_per_entity=12,
    signature_threshold=10,
    validation_fee=2,
    routing_fee=1,
    block_reward=3,
)


def make_cfg(**overrides) -> SimulationConfig:
    """Small, fast configuration with the published fees and thresholds."""
    values = dict(
        nodes=8,
        transactions_per_node=5,
        inter_tx_delay_s=1,
        block_size_min=5,
        initial_balance=20,
        malicious_fraction=0.0,
        validators_per_entity=4,
        signature_threshold=3,
        validation_fee=2,
        routing_fee=1,
        block_reward=3,
    )
    values.update(overrides)
    if "validators_per_entity" not in overrides:
        values["validators_per_entity"] = min(4, values["nodes"] - 1)
    if "signature_threshold" not in overrides:
        values["signature_threshold"] = min(3, values["validators_per_entity"])
    return SimulationConfig(**values)


# validators per entity and signature threshold of bare_simulation
BARE_VALIDATORS, BARE_THRESHOLD = 12, 10


def bare_simulation(seed=1, **overrides) -> Simulation:
    """A 32-node simulation (BARE_VALIDATORS validators, BARE_THRESHOLD
    threshold) whose overlay knows every node and whose queue is empty."""
    values = dict(nodes=32, validators_per_entity=BARE_VALIDATORS,
                  signature_threshold=BARE_THRESHOLD)
    values.update(overrides)
    sim = Simulation(make_cfg(**values), seed=seed)
    for i, identifier in enumerate(sim.identifiers):
        sim.overlay.announce(identifier, i, KIND_CONTROLLER)
    return sim


@pytest.fixture
def sample_config_text() -> str:
    return SAMPLE_CONFIG_TEXT
