"""Per-node behavior: transaction generation, pooling, and block assembly.

Handlers never block; every wait is a scheduled future event on the
engine timeline.  A node pools only its own finalized transactions, so
two nodes can never race the same transaction into different blocks;
parent contention between blocks is resolved by the fork rule.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from random import Random

from .config import SimulationConfig
from .identity import Address, Identifier, hash_bytes
from .storage import (
    DECISION_APPROVE,
    Block,
    BlockInfo,
    ChainTracker,
    ReplicaStore,
    Signature,
    Transaction,
    new_block,
    new_transaction,
)

ROLE_HONEST = "honest"
ROLE_MALICIOUS = "malicious"

CORRUPTION_PROBABILITY = 0.5
RETRY_DELAY_MS = 200
BACKOFF_WINDOW_MS = 500
MAX_BLOCK_RETRIES = 3


@dataclass
class NodeState:
    node_index: int
    address: Address
    identifier: Identifier
    role: str
    rng_recipient: Random
    rng_corrupt: Random
    rng_backoff: Random
    tracker: ChainTracker
    store: ReplicaStore = field(default_factory=ReplicaStore)
    tx_generated: int = 0
    next_seq: int = 0
    next_tx_due: int = 0
    own_finalized: dict[Identifier, int] = field(default_factory=dict)
    in_flight_txs: set[Identifier] = field(default_factory=set)
    block_attempt_open: bool = False
    block_ctx_counter: int = 0

    @property
    def malicious(self) -> bool:
        return self.role == ROLE_MALICIOUS


def pending_pool(state: NodeState) -> list[tuple[int, Identifier]]:
    """Finalized-but-unblocked own transactions, oldest first (ties by id)."""
    pool = [
        (finalized_at, tx_id)
        for tx_id, finalized_at in state.own_finalized.items()
        if tx_id not in state.tracker.chain_txs and tx_id not in state.in_flight_txs
    ]
    pool.sort()
    return pool


def _bogus_block_id(state: NodeState, seq: int, attempt: int) -> Identifier:
    # deterministic garbage reference that resolves to no finalized block
    return hash_bytes(b"bogus-parent", struct.pack(">QQQ", state.node_index, seq, attempt))


def approvals_of(tickets) -> int:
    return sum(1 for t in tickets if t.decision == DECISION_APPROVE)


def signatures_of(tickets) -> list[Signature]:
    # a silent validator (no reply before the timeout) has no signature
    return [Signature(t.validator, t.decision, t.token) for t in tickets if t.token is not None]


# -- transaction lifecycle ----------------------------------------------


def on_tx_timer(sim, state: NodeState) -> None:
    cfg: SimulationConfig = sim.cfg
    now = sim.now
    recipient = state.rng_recipient.randrange(cfg.nodes - 1)
    if recipient >= state.node_index:
        recipient += 1
    seq = state.next_seq
    state.next_seq += 1
    state.tx_generated += 1
    prev = state.tracker.tail.id
    if state.malicious and state.rng_corrupt.random() < CORRUPTION_PROBABILITY:
        prev = _bogus_block_id(state, seq, attempt=0)
    tx = new_transaction(state.node_index, recipient, 1, prev, seq, created_at=now)
    sim.begin_tx_validation(state, tx)
    if state.tx_generated < cfg.transactions_per_node:
        state.next_tx_due = now + cfg.inter_tx_delay_s * 1000
        sim.schedule_at(state.next_tx_due, lambda: on_tx_timer(sim, state))
    else:
        sim.note_generator_done()


def on_tx_result(sim, state: NodeState, tx: Transaction, tickets) -> None:
    tx.signatures = signatures_of(tickets)
    if approvals_of(tickets) >= sim.cfg.signature_threshold:
        sim.finalize_transaction(state, tx, tickets)
        on_own_tx_finalized(sim, state, tx)
    else:
        # rebuild with honest fields against the current tail and retry
        retry = new_transaction(
            state.node_index, tx.recipient, 1, state.tracker.tail.id,
            tx.seq, tx.created_at, attempt=tx.attempt + 1,
        )
        sim.schedule_in(RETRY_DELAY_MS, lambda: sim.begin_tx_validation(state, retry, retry=True))


def on_own_tx_finalized(sim, state: NodeState, tx: Transaction) -> None:
    state.own_finalized[tx.id] = sim.now
    maybe_schedule_block(sim, state)


# -- block lifecycle -----------------------------------------------------


def maybe_schedule_block(sim, state: NodeState) -> None:
    if state.block_attempt_open:
        return
    if len(pending_pool(state)) < sim.cfg.block_size_min:
        return
    state.block_attempt_open = True
    backoff = state.rng_backoff.randrange(BACKOFF_WINDOW_MS)
    sim.schedule_in(backoff, lambda: start_block_attempt(sim, state, drain=False))


def start_block_attempt(sim, state: NodeState, drain: bool) -> None:
    cfg: SimulationConfig = sim.cfg
    pool = pending_pool(state)
    if len(pool) < cfg.block_size_min and not (drain and pool):
        state.block_attempt_open = False
        return
    take = pool[: cfg.block_size_min]
    tx_ids = [tx_id for _, tx_id in take]
    drain_flag = drain and len(tx_ids) < cfg.block_size_min
    state.in_flight_txs.update(tx_ids)
    state.block_ctx_counter += 1
    prev = state.tracker.tail.id
    height = state.tracker.tail.height + 1
    if state.malicious and state.rng_corrupt.random() < CORRUPTION_PROBABILITY:
        prev = _bogus_block_id(state, state.block_ctx_counter, attempt=0)
    block = new_block(state.node_index, prev, height, tx_ids,
                      created_at=sim.now, drain=drain_flag)
    sim.open_block_ops += 1
    sim.begin_block_validation(state, block, retries=0)


def on_block_result(sim, state: NodeState, block: Block, tickets, retries: int) -> None:
    block.signatures = signatures_of(tickets)
    if approvals_of(tickets) >= sim.cfg.signature_threshold:
        sim.finalize_block(state, block, tickets)
        info = BlockInfo(block.id, block.prev_block_id, block.height,
                         tuple(block.tx_ids), block.drain)
        state.tracker.add(info)
        state.in_flight_txs.difference_update(block.tx_ids)
        _close_block_attempt(sim, state)
        return
    state.in_flight_txs.difference_update(block.tx_ids)
    if retries >= MAX_BLOCK_RETRIES:
        _close_block_attempt(sim, state)
        return
    # refresh the tail and re-assemble honestly from the current pool
    cfg = sim.cfg
    pool = pending_pool(state)
    if len(pool) < cfg.block_size_min and not (block.drain and pool):
        _close_block_attempt(sim, state)
        return
    take = pool[: cfg.block_size_min]
    tx_ids = [tx_id for _, tx_id in take]
    drain_flag = block.drain and len(tx_ids) < cfg.block_size_min
    state.in_flight_txs.update(tx_ids)
    rebuilt = new_block(state.node_index, state.tracker.tail.id,
                        state.tracker.tail.height + 1, tx_ids,
                        created_at=block.created_at, attempt=block.attempt + 1,
                        drain=drain_flag)
    sim.begin_block_validation(state, rebuilt, retries=retries + 1)


def _close_block_attempt(sim, state: NodeState) -> None:
    state.block_attempt_open = False
    sim.open_block_ops -= 1
    maybe_schedule_block(sim, state)


def on_block_notify(sim, state: NodeState, info: BlockInfo) -> None:
    state.tracker.add(info)
    maybe_schedule_block(sim, state)
    sim.poke_drain()
