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
from .identity import Identifier, hash_bytes
from .simnet import ContextCounters
from .storage import (
    DECISION_APPROVE,
    DECISION_SILENT,
    Block,
    BlockInfo,
    ChainTracker,
    ReplicaStore,
    Transaction,
    new_block,
    new_transaction,
)

CORRUPTION_PROBABILITY = 0.5
RETRY_DELAY_MS = 200
BACKOFF_WINDOW_MS = 500
MAX_BLOCK_RETRIES = 3


@dataclass
class NodeState:
    node_index: int
    malicious: bool
    rng_recipient: Random
    rng_corrupt: Random
    rng_backoff: Random
    tracker: ChainTracker
    store: ReplicaStore = field(default_factory=ReplicaStore)
    tx_generated: int = 0   # also the seq of the node's next tx
    own_finalized: dict[Identifier, int] = field(default_factory=dict)
    in_flight_txs: set[Identifier] = field(default_factory=set)
    # own finalized txs neither on the chain nor in flight -> finalized_at,
    # kept as they change rather than rebuilt
    pool: dict[Identifier, int] = field(default_factory=dict)
    block_attempt_open: bool = False
    block_ctx_counter: int = 0
    # counters of the block attempt under validation, None between attempts
    block_context: ContextCounters | None = None

    def __post_init__(self):
        # the owner-scoped tracker reports the node's txs entering and
        # leaving its chain through `chained` and `unchained`
        self.tracker.listener = self

    def add_finalized(self, tx_id: Identifier, finalized_at: int) -> None:
        self.own_finalized[tx_id] = finalized_at
        self.pool[tx_id] = finalized_at

    def take(self, tx_ids) -> None:
        """Move pooled txs into the block attempt under validation."""
        self.in_flight_txs.update(tx_ids)
        for tx_id in tx_ids:
            del self.pool[tx_id]

    def release(self, tx_ids) -> None:
        """End the attempt holding `tx_ids`; those not on the chain go back to the pool."""
        self.in_flight_txs.difference_update(tx_ids)
        chain_txs = self.tracker.chain_txs
        for tx_id in tx_ids:
            if tx_id not in chain_txs:
                self.pool[tx_id] = self.own_finalized[tx_id]

    def chained(self, tx_ids) -> None:
        for tx_id in tx_ids:
            self.pool.pop(tx_id, None)

    def unchained(self, tx_ids) -> None:
        for tx_id in tx_ids:
            if tx_id not in self.in_flight_txs:
                self.pool[tx_id] = self.own_finalized[tx_id]


def pending_pool(state: NodeState) -> list[tuple[int, Identifier]]:
    """The node's pool as (finalized_at, tx id), oldest first (ties by id)."""
    return sorted((finalized_at, tx_id) for tx_id, finalized_at in state.pool.items())


def _bogus_block_id(state: NodeState, seq: int, attempt: int) -> Identifier:
    # deterministic garbage reference that resolves to no finalized block
    return hash_bytes(b"bogus-parent", struct.pack(">QQQ", state.node_index, seq, attempt))


def approvals_of(tickets) -> int:
    return sum(1 for t in tickets if t.decision == DECISION_APPROVE)


def signatures_of(tickets) -> int:
    # a silent validator (no reply before the timeout) has no signature
    return sum(1 for t in tickets if t.decision != DECISION_SILENT)


# -- transaction lifecycle ----------------------------------------------


def on_tx_timer(sim, state: NodeState) -> None:
    cfg: SimulationConfig = sim.cfg
    recipient = state.rng_recipient.randrange(cfg.nodes - 1)
    if recipient >= state.node_index:
        recipient += 1
    seq = state.tx_generated
    state.tx_generated += 1
    prev = state.tracker.tail.id
    if state.malicious and state.rng_corrupt.random() < CORRUPTION_PROBABILITY:
        prev = _bogus_block_id(state, seq, attempt=0)
    tx = new_transaction(state.node_index, recipient, 1, prev, seq, created_at=sim.now)
    sim.begin_tx_validation(state, tx, ContextCounters())
    if state.tx_generated < cfg.transactions_per_node:
        sim.schedule_in(cfg.inter_tx_delay_s * 1000, lambda: on_tx_timer(sim, state))


def on_tx_result(sim, state: NodeState, tx: Transaction, tickets,
                 context: ContextCounters) -> None:
    tx.signatures = signatures_of(tickets)
    if approvals_of(tickets) >= sim.cfg.signature_threshold:
        sim.finalize_transaction(state, tx, tickets, context)
        on_own_tx_finalized(sim, state, tx)
    else:
        # rebuild with honest fields against the current tail and retry
        retry = new_transaction(
            state.node_index, tx.recipient, 1, state.tracker.tail.id,
            tx.seq, tx.created_at, attempt=tx.attempt + 1,
        )
        sim.schedule_in(RETRY_DELAY_MS, lambda: sim.begin_tx_validation(state, retry, context))


def on_own_tx_finalized(sim, state: NodeState, tx: Transaction) -> None:
    state.add_finalized(tx.id, sim.now)
    maybe_schedule_block(sim, state)


# -- block lifecycle -----------------------------------------------------


def maybe_schedule_block(sim, state: NodeState) -> None:
    if state.block_attempt_open:
        return
    if len(state.pool) < sim.cfg.block_size_min:
        return
    state.block_attempt_open = True
    backoff = state.rng_backoff.randrange(BACKOFF_WINDOW_MS)
    sim.schedule_in(backoff, lambda: start_block_attempt(sim, state, drain=False))


def _take_for_block(sim, state: NodeState, drain: bool) -> list[Identifier] | None:
    """Take the oldest pooled txs for a block, or None when the pool cannot
    fill one; a drain block takes whatever is left."""
    size = sim.cfg.block_size_min
    if len(state.pool) < size and not (drain and state.pool):
        return None
    tx_ids = [tx_id for _, tx_id in pending_pool(state)[:size]]
    state.take(tx_ids)
    return tx_ids


def start_block_attempt(sim, state: NodeState, drain: bool) -> None:
    tx_ids = _take_for_block(sim, state, drain)
    if tx_ids is None:
        state.block_attempt_open = False
        return
    drain_flag = drain and len(tx_ids) < sim.cfg.block_size_min
    state.block_ctx_counter += 1
    state.block_context = ContextCounters()
    prev = state.tracker.tail.id
    height = state.tracker.tail.height + 1
    if state.malicious and state.rng_corrupt.random() < CORRUPTION_PROBABILITY:
        prev = _bogus_block_id(state, state.block_ctx_counter, attempt=0)
    block = new_block(state.node_index, prev, height, tx_ids,
                      created_at=sim.now, drain=drain_flag)
    sim.begin_block_validation(state, block, retries=0)


def on_block_result(sim, state: NodeState, block: Block, tickets, retries: int) -> None:
    block.signatures = signatures_of(tickets)
    if approvals_of(tickets) >= sim.cfg.signature_threshold:
        state.tracker.add(sim.finalize_block(state, block, tickets))
        state.release(block.tx_ids)
        _close_block_attempt(sim, state)
        return
    state.release(block.tx_ids)
    if retries >= MAX_BLOCK_RETRIES:
        _close_block_attempt(sim, state)
        return
    # refresh the tail and re-assemble honestly from the current pool
    tx_ids = _take_for_block(sim, state, block.drain)
    if tx_ids is None:
        _close_block_attempt(sim, state)
        return
    drain_flag = block.drain and len(tx_ids) < sim.cfg.block_size_min
    rebuilt = new_block(state.node_index, state.tracker.tail.id,
                        state.tracker.tail.height + 1, tx_ids,
                        created_at=block.created_at, attempt=block.attempt + 1,
                        drain=drain_flag)
    sim.begin_block_validation(state, rebuilt, retries=retries + 1)


def _close_block_attempt(sim, state: NodeState) -> None:
    state.block_attempt_open = False
    state.block_context = None
    maybe_schedule_block(sim, state)


def on_block_notify(sim, state: NodeState, info: BlockInfo) -> None:
    state.tracker.add(info)
    maybe_schedule_block(sim, state)
    sim.poke_drain()
