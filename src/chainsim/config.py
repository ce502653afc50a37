"""Parser for the `simulation.config` input file.

Format: UTF-8 text, one `KEY = VALUE` per line, `//` starts a comment
anywhere on a line, blank lines ignored.  Keys are case-sensitive and the
full key set is mandatory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields


class ConfigError(Exception):
    pass


class MissingKey(ConfigError):
    def __init__(self, name: str):
        super().__init__(f"missing required key {name}")
        self.name = name


class DuplicateKey(ConfigError):
    def __init__(self, name: str):
        super().__init__(f"duplicate key {name}")
        self.name = name


class UnknownKey(ConfigError):
    def __init__(self, name: str):
        super().__init__(f"unknown key {name}")
        self.name = name


class MalformedLine(ConfigError):
    def __init__(self, line_no: int, line: str):
        super().__init__(f"malformed line {line_no}: {line!r}")
        self.line_no = line_no


class ValueOutOfRange(ConfigError):
    def __init__(self, name: str, detail: str):
        super().__init__(f"{name} out of range: {detail}")
        self.name = name


@dataclass(frozen=True)
class SimulationConfig:
    nodes: int
    transactions_per_node: int
    inter_tx_delay_s: int
    block_size_min: int
    initial_balance: int
    malicious_fraction: float
    validators_per_entity: int
    signature_threshold: int
    validation_fee: int
    routing_fee: int
    block_reward: int

    def validate(self) -> "SimulationConfig":
        if self.nodes < 2:
            raise ValueOutOfRange("NODES", "must be >= 2")
        if self.transactions_per_node < 1:
            raise ValueOutOfRange("TRANSACTIONS", "must be >= 1")
        if self.inter_tx_delay_s < 0:
            raise ValueOutOfRange("DELAY", "must be >= 0")
        if self.block_size_min < 1:
            raise ValueOutOfRange("BLK_SIZE", "must be >= 1")
        if not (0.0 <= self.malicious_fraction < 1.0):
            raise ValueOutOfRange("MALICIOUS", "must lie in [0, 1)")
        if self.validators_per_entity > self.nodes - 1:
            raise ValueOutOfRange("VALID_THR", "must be <= NODES - 1")
        if self.signature_threshold > self.validators_per_entity:
            raise ValueOutOfRange("SIG_THR", "must be <= VALID_THR")
        if self.signature_threshold < 1:
            raise ValueOutOfRange("SIG_THR", "must be >= 1")
        for key, value in (
            ("INIT_BALANCE", self.initial_balance),
            ("VALID_FEE", self.validation_fee),
            ("ROUTE_FEE", self.routing_fee),
            ("REWARD", self.block_reward),
        ):
            if value < 0:
                raise ValueOutOfRange(key, "must be >= 0")
        return self


# file key -> (config field, value parser)
KEYS = {
    "NODES": ("nodes", int),
    "TRANSACTIONS": ("transactions_per_node", int),
    "DELAY": ("inter_tx_delay_s", int),
    "BLK_SIZE": ("block_size_min", int),
    "INIT_BALANCE": ("initial_balance", int),
    "MALICIOUS": ("malicious_fraction", float),
    "VALID_THR": ("validators_per_entity", int),
    "SIG_THR": ("signature_threshold", int),
    "VALID_FEE": ("validation_fee", int),
    "ROUTE_FEE": ("routing_fee", int),
    "REWARD": ("block_reward", int),
}

_FIELD_TO_KEY = {field: key for key, (field, _) in KEYS.items()}


def parse_config(text: str) -> SimulationConfig:
    values: dict[str, object] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("//", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MalformedLine(line_no, raw_line)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise MalformedLine(line_no, raw_line)
        if key not in KEYS:
            raise UnknownKey(key)
        field, parser = KEYS[key]
        if field in values:
            raise DuplicateKey(key)
        try:
            values[field] = parser(value)
        except ValueError:
            raise MalformedLine(line_no, raw_line) from None
    for key, (field, _) in KEYS.items():
        if field not in values:
            raise MissingKey(key)
    return SimulationConfig(**values).validate()


def to_config_text(cfg: SimulationConfig) -> str:
    lines = []
    for field in fields(SimulationConfig):
        lines.append(f"{_FIELD_TO_KEY[field.name]} = {getattr(cfg, field.name)}")
    return "\n".join(lines) + "\n"


def malicious_count(cfg: SimulationConfig) -> int:
    """Number of malicious nodes: round-half-up of fraction x nodes."""
    return math.floor(cfg.malicious_fraction * cfg.nodes + 0.5)
