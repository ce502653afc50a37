"""Validation-threshold consensus: validator selection, decisions, fees.

Each entity gets `validators_per_entity` slots.  A slot's probe hash maps
to a uniformly chosen rank over the sorted controller list; the probe is
re-hashed until the pick is distinct from the entity owner and from
earlier slots.  Resolution routes a real overlay search to the chosen
controller, from the owner's own hosted vertex nearest below it, so hops,
latency, and message counts stay consistent.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

from .config import SimulationConfig
from .identity import Identifier, hash_bytes
from .overlay import OverlayError, SkipGraph
from .storage import (
    DECISION_APPROVE,
    DECISION_REJECT,
    DECISION_SILENT,
    Block,
    Entity,
    Transaction,
)

# W: a block under BLK_SIZE is due from this long after its oldest tx finalized
PART_WAIT_MS = 2000


class InsufficientDistinctValidators(Exception):
    def __init__(self, nodes: int, wanted: int):
        super().__init__(f"{nodes} nodes cannot supply {wanted} distinct validators")


@dataclass(slots=True)
class ValidationTicket:
    validator: int
    path: list[int]
    decision: str = DECISION_SILENT


def slot_target(entity_id: Identifier, slot: int) -> Identifier:
    return hash_bytes(entity_id, struct.pack(">Q", slot))


def select_validators(entity_id: Identifier, owner: int,
                      controllers: list[tuple[Identifier, int]],
                      overlay: SkipGraph,
                      cfg: SimulationConfig) -> list[ValidationTicket]:
    """Resolve one ticket per slot; pure in (entity_id, overlay snapshot, cfg).

    Each slot's search starts at the owner's hosted vertex nearest below
    the chosen controller's identifier; the pick comes before the search,
    so where it starts moves only the path, never the validator.

    `controllers` is the controller population sorted by identifier; the
    probe hash picks a rank uniformly, giving every node the same chance
    regardless of how its identifier happens to partition the hash space.
    """
    n = len(controllers)
    if n - 1 < cfg.validators_per_entity:
        raise InsufficientDistinctValidators(n, cfg.validators_per_entity)
    tickets: list[ValidationTicket] = []
    chosen: set[int] = set()
    for slot in range(cfg.validators_per_entity):
        target = slot_target(entity_id, slot)
        while True:
            identifier, validator = controllers[int.from_bytes(target, "big") % n]
            if validator != owner and validator not in chosen:
                break
            target = hash_bytes(target)
        chosen.add(validator)
        result = overlay.search_num_id(owner, identifier)
        if result.identifier != identifier:
            raise OverlayError(f"search for {identifier.hex()[:12]} ended at "
                               f"{result.identifier.hex()[:12]}, not at validator {validator}")
        tickets.append(ValidationTicket(validator, result.path))
    return tickets


def replica_holders(entity_id: Identifier, owner: int,
                    controllers: list[tuple[Identifier, int]],
                    factor: int) -> list[int]:
    """Owner plus deterministically re-hash-placed holders, `factor` total."""
    n = len(controllers)
    factor = min(factor, n)
    holders = [owner]
    k = 0
    while len(holders) < factor:
        probe = hash_bytes(entity_id, b"rep", struct.pack(">Q", k))
        candidate = controllers[int.from_bytes(probe, "big") % n][1]
        if candidate not in holders:
            holders.append(candidate)
        k += 1
    return holders


def decide(entity_valid: bool, malicious: bool) -> str:
    """Honest validators report the predicate; malicious ones invert it."""
    honest = DECISION_APPROVE if entity_valid else DECISION_REJECT
    if not malicious:
        return honest
    return DECISION_REJECT if entity_valid else DECISION_APPROVE


def validate_entity(registry, entity: Entity, cfg: SimulationConfig) -> bool:
    """Whether an honest validator approves `entity`; `registry` is the engine's."""
    if isinstance(entity, Transaction):
        return _validate_transaction(registry, entity)
    return _validate_block(registry, entity, cfg)


def _validate_transaction(registry, tx: Transaction) -> bool:
    if tx.owner == tx.recipient:
        return False
    if tx.amount != 1:
        return False
    if tx.prev_block_id not in registry.tracker.blocks:
        return False
    if (tx.owner, tx.seq) in registry.finalized_seqs:
        return False
    return True


def _validate_block(registry, blk: Block, cfg: SimulationConfig) -> bool:
    tracker = registry.tracker
    tail = tracker.tail
    # the chain is append-only: a block must extend the tail, the one
    # block its proposer builds on
    if blk.parent != tail.id or blk.height != tail.height + 1:
        return False
    if len(set(blk.tx_ids)) != len(blk.tx_ids):
        return False
    finalized = registry.finalized_txs
    if not all(tx_id in finalized for tx_id in blk.tx_ids):
        return False
    # a block under BLK_SIZE must be due (an empty one never is)
    oldest = min((finalized[tx_id] for tx_id in blk.tx_ids), default=blk.created_at)
    if len(blk.tx_ids) < cfg.block_size_min and blk.created_at - oldest < PART_WAIT_MS:
        return False
    # the parent is the tail, so its ancestry is the whole chain
    chain_txs = tracker.chain_txs
    if any(tx_id in chain_txs for tx_id in blk.tx_ids):
        return False
    return True


@dataclass
class EconomyLedger:
    """Per-node balances; rewards are minted, fees only move value around.

    Balances may go negative (counted, never blocking), so the supply
    invariant stays exact: sum(balances) = nodes x initial + minted.
    """
    balances: list[int]
    initial_balance: int
    minted_total: int = 0
    negative_balance_events: int = 0

    @classmethod
    def create(cls, nodes: int, initial_balance: int) -> "EconomyLedger":
        return cls(balances=[initial_balance] * nodes, initial_balance=initial_balance)

    def transfer(self, src: int, dst: int, amount: int) -> None:
        self.balances[src] -= amount
        self.balances[dst] += amount
        if self.balances[src] < 0 and self.balances[src] + amount >= 0:
            self.negative_balance_events += 1

    def mint(self, dst: int, amount: int) -> None:
        self.balances[dst] += amount
        self.minted_total += amount

    def check_conservation(self) -> None:
        expected = len(self.balances) * self.initial_balance + self.minted_total
        assert sum(self.balances) == expected, (
            f"supply broken: {sum(self.balances)} != {expected}"
        )


def apply_finalization_fees(ledger: EconomyLedger, owner: int,
                            tickets: list[ValidationTicket],
                            cfg: SimulationConfig, is_block: bool) -> None:
    """Fee movement, atomic with finalization."""
    for ticket in tickets:
        if ticket.decision == DECISION_APPROVE:
            ledger.transfer(owner, ticket.validator, cfg.validation_fee)
        ledger.transfer(owner, ticket.validator, cfg.routing_fee)
    if is_block:
        ledger.mint(owner, cfg.block_reward)
