"""Validation-threshold consensus: validator selection, decisions, fees.

Each entity gets `validators_per_entity` slots.  A slot's probe hash maps
to a uniformly chosen rank over the sorted controller list; the probe is
re-hashed until the pick is distinct from the entity owner and from
earlier slots.  Resolution routes a real overlay search to the chosen
controller, so hops, latency, and message counts stay consistent.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

from .config import SimulationConfig
from .identity import Address, Identifier, hash_bytes
from .overlay import SkipGraph
from .storage import (
    DECISION_APPROVE,
    DECISION_REJECT,
    Block,
    Entity,
    Transaction,
)


class InsufficientDistinctValidators(Exception):
    def __init__(self, nodes: int, wanted: int):
        super().__init__(f"{nodes} nodes cannot supply {wanted} distinct validators")


@dataclass
class ValidationTicket:
    slot: int
    target: Identifier
    validator: int
    terminal: Address
    path: list[Address]
    decision: str = "silent"
    token: bytes | None = None


def slot_target(entity_id: Identifier, slot: int) -> Identifier:
    return hash_bytes(entity_id, struct.pack(">Q", slot))


def make_token(entity_id: Identifier, validator: int, decision: str) -> bytes:
    return hash_bytes(entity_id, struct.pack(">Q", validator), decision.encode())


def select_validators(entity_id: Identifier, owner: int,
                      controllers: list[tuple[Identifier, Address]],
                      overlay: SkipGraph, start: Address,
                      cfg: SimulationConfig) -> list[ValidationTicket]:
    """Resolve one ticket per slot; pure in (entity_id, overlay snapshot, cfg).

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
            identifier, address = controllers[int.from_bytes(target, "big") % n]
            if address.node_index != owner and address.node_index not in chosen:
                break
            target = hash_bytes(target)
        chosen.add(address.node_index)
        result = overlay.search_num_id(start, identifier)
        tickets.append(ValidationTicket(
            slot=slot, target=target, validator=address.node_index,
            terminal=result.terminal, path=result.path,
        ))
    return tickets


def replica_holders(entity_id: Identifier, owner: int,
                    controllers: list[tuple[Identifier, Address]],
                    factor: int) -> list[int]:
    """Owner plus deterministically re-hash-placed holders, `factor` total."""
    n = len(controllers)
    factor = min(factor, n)
    holders = [owner]
    k = 0
    while len(holders) < factor:
        probe = hash_bytes(entity_id, b"rep", struct.pack(">Q", k))
        candidate = controllers[int.from_bytes(probe, "big") % n][1].node_index
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


def validate_entity(view, entity: Entity, cfg: SimulationConfig) -> bool:
    if isinstance(entity, Transaction):
        return _validate_transaction(view, entity)
    if isinstance(entity, Block):
        return _validate_block(view, entity, cfg)
    return False


def _validate_transaction(view, tx: Transaction) -> bool:
    if tx.owner == tx.recipient:
        return False
    if tx.amount != 1:
        return False
    if not view.has_block(tx.prev_block_id):
        return False
    if view.seq_finalized(tx.owner, tx.seq):
        return False
    return True


def _validate_block(view, blk: Block, cfg: SimulationConfig) -> bool:
    parent = view.block(blk.prev_block_id)
    if parent is None:
        return False
    if blk.height != parent.height + 1:
        return False
    if len(set(blk.tx_ids)) != len(blk.tx_ids):
        return False
    if len(blk.tx_ids) < cfg.block_size_min and not (blk.drain and view.drain_allowed()):
        return False
    if not all(view.tx_finalized(tx_id) for tx_id in blk.tx_ids):
        return False
    ancestor_txs = view.ancestor_tx_ids(blk.prev_block_id)
    if any(tx_id in ancestor_txs for tx_id in blk.tx_ids):
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
        ledger.transfer(owner, ticket.terminal.node_index, cfg.routing_fee)
    if is_block:
        ledger.mint(owner, cfg.block_reward)
