"""Per-node behavior: transaction generation, pooling, and block assembly.

Handlers never block; every wait is a scheduled future event on the
engine timeline.  A node pools only its own finalized transactions.
`BLK_SIZE` is a minimum: once the pool holds that many, the node's next
block takes the whole pool, oldest first, so one won height carries the
node's whole backlog.  Once every transaction has finalized (drain mode)
every pool is final, so any pool is due, and a drain block sweeps every
node's pool at once: the leftovers cost one chain height rather than one
per node.  Drain blocks go through the same scheduler as the rest, so
the owner whose backoff ends first builds one, and no owner starts a
drain try while another node's is open.  Every part a block takes goes
through its owner's `take`, so each swept tx is in flight at its owner
until the owner learns where it went, and no owner's own attempt can
take it: a drain block never races an owner's own attempt for the same
transaction.  Validators approve only blocks taller than the current
tail, so blocks contend only for the tail's height; the fork rule picks
among the ones that finalize, and an owner whose block is turned away
retries on the new tail.  An owner does not wait for a round whose block
the tail has already reached: when a notify brings its own tail up to
the height of the block under validation, every honest validator yet to
vote would turn it away, so the owner abandons the round and retries at
once.  An attempt's only record is its current try's validation round;
`start_block_attempt` builds every try, the first and each retry.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from random import Random
from typing import TYPE_CHECKING

from .config import SimulationConfig
from .identity import Identifier, hash_bytes
from .simnet import ContextCounters
from .storage import (
    Block,
    ChainTracker,
    ReplicaStore,
    Transaction,
    new_block,
    new_transaction,
)

if TYPE_CHECKING:
    from .engine import ValidationRound

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
    own_finalized: dict[Identifier, int] = field(default_factory=dict)   # -> finalized_at
    in_flight_txs: set[Identifier] = field(default_factory=set)
    # own finalized txs neither on the chain nor in flight, kept as they
    # change rather than rebuilt
    pool: set[Identifier] = field(default_factory=set)
    block_attempt_open: bool = False
    block_ctx_counter: int = 0   # first tries that built a block
    # the open attempt's record: its current try's round, whose counters
    # span all of its tries; None between attempts and during the backoff
    block_round: ValidationRound | None = None

    def __post_init__(self):
        # the tracker indexes only the node's own txs, and reports them
        # entering and leaving its chain through `chained` and `unchained`
        self.tracker.listener = self

    def add_finalized(self, tx_id: Identifier, finalized_at: int) -> None:
        self.own_finalized[tx_id] = finalized_at
        self.pool.add(tx_id)

    def take(self, tx_ids) -> None:
        """Move pooled txs into the block attempt under validation."""
        self.in_flight_txs.update(tx_ids)
        self.pool.difference_update(tx_ids)

    def release(self, tx_ids) -> None:
        """End this node's part (its txs in flight) of the attempt holding
        `tx_ids`; the ones not on the chain go back to the pool."""
        part = self.in_flight_txs.intersection(tx_ids)
        self.in_flight_txs -= part
        self.pool |= part.difference(self.tracker.chain_txs)

    def chained(self, tx_ids) -> None:
        self.pool.difference_update(tx_ids)

    def unchained(self, tx_ids) -> None:
        self.pool.update(set(tx_ids) - self.in_flight_txs)


def pending_pool(state: NodeState) -> list[tuple[int, Identifier]]:
    """The node's pool as (finalized_at, tx id), oldest first (ties by id)."""
    own = state.own_finalized
    return sorted((own[tx_id], tx_id) for tx_id in state.pool)


def _bogus_block_id(state: NodeState, seq: int) -> Identifier:
    # deterministic garbage reference that resolves to no finalized block;
    # the zero third word keeps the pinned run digests
    return hash_bytes(b"bogus-parent", struct.pack(">QQQ", state.node_index, seq, 0))


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
        prev = _bogus_block_id(state, seq)
    tx = new_transaction(state.node_index, recipient, 1, prev, seq, created_at=sim.now)
    sim.begin_tx_validation(state, tx, ContextCounters())
    if state.tx_generated < cfg.transactions_per_node:
        sim.schedule_in(cfg.inter_tx_delay_s * 1000, lambda: on_tx_timer(sim, state))


def on_tx_result(sim, state: NodeState, tx: Transaction, tickets, approved: bool,
                 context: ContextCounters) -> None:
    if approved:
        sim.finalize(tx, tickets, context)
        state.add_finalized(tx.id, sim.now)
        maybe_schedule_block(sim, state)
        if len(sim.registry.finalized_txs) == sim.expected_txs:
            enter_drain_mode(sim)
    else:
        # rebuild with honest fields against the current tail and retry
        retry = new_transaction(
            state.node_index, tx.recipient, 1, state.tracker.tail.id,
            tx.seq, tx.created_at, attempt=tx.attempt + 1,
        )
        sim.schedule_in(RETRY_DELAY_MS, lambda: sim.begin_tx_validation(state, retry, context))


# -- block lifecycle -----------------------------------------------------


def enter_drain_mode(sim) -> None:
    """Pools are final once the last tx finalizes: every owner holding one
    schedules a drain try, and the first whose backoff ends sweeps every pool."""
    sim.registry.drain_mode = True
    for state in sim.nodes:
        maybe_schedule_block(sim, state)


def _due(sim, state: NodeState, drain: bool) -> bool:
    """Whether the node's pool is due for a block: at BLK_SIZE txs, or, for
    a drain try, while no other node has a drain try open."""
    if drain:
        return not any(other.block_round is not None and other.block_round.entity.drain
                       for other in sim.nodes if other is not state)
    return len(state.pool) >= sim.cfg.block_size_min


def maybe_schedule_block(sim, state: NodeState) -> None:
    """Open an attempt, started after a random backoff, once the pool is
    due; in drain mode any non-empty pool may be."""
    if (state.block_attempt_open or not state.pool
            or not _due(sim, state, sim.registry.drain_mode)):
        return
    state.block_attempt_open = True
    backoff = state.rng_backoff.randrange(BACKOFF_WINDOW_MS)
    sim.schedule_in(backoff, lambda: start_block_attempt(sim, state))


def _take_for_block(sim, state: NodeState, drain: bool) -> list[Identifier] | None:
    """Take the txs of a block, or None when there are none to take.

    A node's own block takes its whole pool, oldest first, once the pool
    is due.  A drain block takes every node's whole pool, in node order,
    each part oldest first and through its owner's `take`.
    """
    if not _due(sim, state, drain):
        return None
    tx_ids = []
    for owner in sim.nodes if drain else (state,):
        if owner.pool:
            part = [tx_id for _, tx_id in pending_pool(owner)]
            owner.take(part)
            tx_ids += part
    return tx_ids or None


def start_block_attempt(sim, state: NodeState, failed: Block | None = None) -> None:
    """Build and validate a try of the node's open attempt: the first, or
    an honest rebuild of `failed` on the current tail.  A first try in
    drain mode is a drain try; a rebuild keeps the kind of `failed`.
    Closes the attempt if the pools give no block."""
    drain = sim.registry.drain_mode if failed is None else failed.drain
    tx_ids = _take_for_block(sim, state, drain)
    if tx_ids is None:
        _close_block_attempt(sim, state)
        return
    tail = state.tracker.tail
    prev = tail.id
    if failed is None:
        state.block_ctx_counter += 1
        if state.malicious and state.rng_corrupt.random() < CORRUPTION_PROBABILITY:
            prev = _bogus_block_id(state, state.block_ctx_counter)
        created_at, attempt = sim.now, 0
    else:
        created_at, attempt = failed.created_at, failed.attempt + 1
    block = new_block(state.node_index, prev, tail.height + 1, tx_ids,
                      created_at=created_at, attempt=attempt,
                      drain=drain)
    # a block's attempt number is its retry count
    sim.begin_block_validation(state, block, retries=attempt)


def on_block_result(sim, state: NodeState, block: Block, tickets, approved: bool,
                    context: ContextCounters) -> None:
    if approved:
        sim.finalize(block, tickets, context)
        state.block_attempt_open = False
        state.block_round = None
        # the owner learns its block the way every other node does
        on_block_notify(sim, state, block)
        return
    _retry_block(sim, state, block)


def _retry_block(sim, state: NodeState, block: Block) -> None:
    """End a try that put `block` nowhere, handing each owner its part
    back: rebuild it on the current tail, or close the attempt after
    MAX_BLOCK_RETRIES retries.  Then each of those owners, every node for
    a drain block, schedules its pool, so a closed drain try leaves no
    pool waiting."""
    owners = sim.nodes if block.drain else (state,)
    for owner in owners:
        owner.release(block.tx_ids)
    if block.attempt >= MAX_BLOCK_RETRIES:
        _close_block_attempt(sim, state)
    else:
        start_block_attempt(sim, state, failed=block)
    for owner in owners:
        maybe_schedule_block(sim, owner)


def _close_block_attempt(sim, state: NodeState) -> None:
    state.block_attempt_open = False
    state.block_round = None
    maybe_schedule_block(sim, state)


def on_block_notify(sim, state: NodeState, block: Block) -> None:
    state.tracker.add(block)
    # the node now knows where its part of the block, if any, went
    state.release(block.tx_ids)
    round_ = state.block_round
    if round_ is not None and state.tracker.tail.height >= round_.entity.height:
        # the registry tail is at least as tall, so every honest validator
        # yet to vote rejects the block: stop waiting for the round
        round_.done = True
        sim.abandoned_rounds += 1
        _retry_block(sim, state, round_.entity)
    maybe_schedule_block(sim, state)
