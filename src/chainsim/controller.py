"""Per-node behavior: transaction generation, parts, and block building.

Handlers never block; every wait is a scheduled future event on the
engine timeline.  Each chain tail has one proposer, a node picked from the
tail's id alone (`proposer_of`), so every node names the same one without
a message, and only that node builds on that tail.  An owner hands each
transaction it finalizes (its part) to the proposer of its own tail; any
node that holds parts but is not its tail's proposer forwards them all to
that proposer in one message, so parts follow the tail as it moves.  A
part message carries its sender's tail, which a receiver hears as it would
a notify, so parts do not bounce between a proposer and a node that has
not heard of it.

The proposer builds one block from every part it holds once they reach
`BLK_SIZE`, or once the oldest finalized `W` (`PART_WAIT_MS`) ago, and
otherwise wakes up at that deadline; it reads only the parts it holds,
with the finalize times their part messages carry.  A rejected try
rejoins the parts that arrived since and is rebuilt on the current tail,
with its first try's creation time, for as long as the node is still its
proposer; then the attempt ends and the parts are settled like any
others.  A malicious proposer puts a bogus parent on an attempt's first
try, and the honest retries absorb it.  With one builder per tail and
validators that approve only a block on the tail, blocks do not contend
for a height, and the chain is append-only.

Each part is in one place at a time, so with one builder per tail no tx
reaches two blocks.  A finalized block whose parent never resolves (a
bogus parent that malicious approvals let through) links nowhere: its
builder announces it to no node and takes its parts back.

A node keeps one block of the chain, its tail: the tallest chain block it
has heard of (`NodeState.hear`).  The registry holds the one full chain.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from random import Random
from typing import TYPE_CHECKING

from .config import SimulationConfig
from .consensus import PART_WAIT_MS
from .identity import Identifier, hash_bytes
from .simnet import ContextCounters
from .storage import (
    Block,
    ReplicaStore,
    Transaction,
    new_block,
    new_transaction,
)

if TYPE_CHECKING:
    from .engine import ValidationRound

CORRUPTION_PROBABILITY = 0.5
RETRY_DELAY_MS = 200


@dataclass
class NodeState:
    node_index: int
    malicious: bool
    rng_recipient: Random
    rng_corrupt: Random
    tail: Block   # the tallest chain block the node has heard of
    store: ReplicaStore = field(default_factory=ReplicaStore)
    tx_generated: int = 0   # also the seq of the node's next tx
    # the node's finalized txs -> finalized_at; nothing here reads it, only
    # bench/tracing.py's pool-scan count
    own_finalized: dict[Identifier, int] = field(default_factory=dict)
    # parts held, any owner's, as tx id -> finalized_at
    parts: dict[Identifier, int] = field(default_factory=dict)
    # the parts the open block try took
    taken: dict[Identifier, int] = field(default_factory=dict)
    # nodes this node has found by a routed search, so it sends to them directly
    known: set[int] = field(default_factory=set)
    # when the next wake-up to settle the parts fires; once past, none waits
    wake_at: int = 0
    block_ctx_counter: int = 0   # first tries that built a block
    # the open attempt's record: its current try's round, whose counters
    # span all of its tries; None between attempts
    block_round: ValidationRound | None = None

    def add_finalized(self, tx_id: Identifier, finalized_at: int) -> None:
        self.own_finalized[tx_id] = finalized_at
        self.parts[tx_id] = finalized_at

    def hear(self, block: Block) -> None:
        """Learn of a chain block: the node's tail is the tallest it has heard of."""
        if block.height > self.tail.height:
            self.tail = block

def pending_pool(state: NodeState) -> list[tuple[int, Identifier]]:
    """The parts the node holds as (finalized_at, tx id), oldest first (ties by id)."""
    return sorted((finalized_at, tx_id) for tx_id, finalized_at in state.parts.items())


def proposer_of(sim, tail: Block) -> int:
    """The one node that builds on `tail`: a hash of the tail's id picks a
    rank over the sorted controllers, as `replica_holders` places replicas."""
    controllers = sim.controllers
    rank = int.from_bytes(hash_bytes(tail.id, b"proposer"), "big") % len(controllers)
    return controllers[rank][1]


def _bogus_block_id(state: NodeState, seq: int) -> Identifier:
    # deterministic garbage reference that resolves to no finalized block
    return hash_bytes(b"bogus-parent", struct.pack(">QQQ", state.node_index, seq, 0))


# -- transaction lifecycle ----------------------------------------------


def on_tx_timer(sim, state: NodeState) -> None:
    cfg: SimulationConfig = sim.cfg
    recipient = state.rng_recipient.randrange(cfg.nodes - 1)
    if recipient >= state.node_index:
        recipient += 1
    seq = state.tx_generated
    state.tx_generated += 1
    prev = state.tail.id
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
        _settle(sim, state)
    else:
        # rebuild with honest fields against the current tail and retry
        retry = new_transaction(
            state.node_index, tx.recipient, 1, state.tail.id,
            tx.seq, tx.created_at, attempt=tx.attempt + 1,
        )
        sim.schedule_in(RETRY_DELAY_MS, lambda: sim.begin_tx_validation(state, retry, context))


# -- parts and blocks ----------------------------------------------------


def on_parts(sim, state: NodeState, parts: dict[Identifier, int], tail: Block) -> None:
    """A part message lands: hold its parts, and hear its sender's tail."""
    state.parts.update(parts)
    state.hear(tail)
    _settle(sim, state)


def _settle(sim, state: NodeState) -> None:
    """Act on the parts the node holds: a node that is not its tail's
    proposer forwards them all to that proposer; the proposer, with no
    block try open, builds once they reach `BLK_SIZE` or the oldest has
    waited `W`, and otherwise wakes up at that deadline."""
    if not state.parts:
        return
    proposer = proposer_of(sim, state.tail)
    if proposer != state.node_index:
        parts, state.parts = state.parts, {}
        sim.send_parts(state, proposer, parts)
    elif state.block_round is None:
        due = min(state.parts.values()) + PART_WAIT_MS
        if len(state.parts) >= sim.cfg.block_size_min or sim.now >= due:
            start_block_attempt(sim, state)
        elif not sim.now < state.wake_at <= due:
            # no wake-up waits at or before the deadline
            state.wake_at = due
            sim.schedule_at(due, lambda: _settle(sim, state))


def start_block_attempt(sim, state: NodeState, failed: Block | None = None) -> None:
    """Build and validate a try from every part the node holds, on its
    current tail: an attempt's first try, or an honest rebuild of `failed`
    that keeps its creation time, so a short block stays due."""
    tx_ids = [tx_id for _, tx_id in pending_pool(state)]
    state.taken, state.parts = state.parts, {}
    tail = state.tail
    prev = tail.id
    if failed is None:
        state.block_ctx_counter += 1
        if state.malicious and state.rng_corrupt.random() < CORRUPTION_PROBABILITY:
            prev = _bogus_block_id(state, state.block_ctx_counter)
        created_at, attempt = sim.now, 0
    else:
        created_at, attempt = failed.created_at, failed.attempt + 1
    block = new_block(state.node_index, prev, tail.height + 1, tx_ids,
                      created_at=created_at, attempt=attempt)
    # a block's attempt number is its retry count
    sim.begin_block_validation(state, block, retries=attempt)


def on_block_result(sim, state: NodeState, block: Block, tickets, approved: bool,
                    context: ContextCounters) -> None:
    if approved:
        sim.finalize(block, tickets, context)
        state.block_round = None
        taken, state.taken = state.taken, {}
        if block.parent == state.tail.id:
            # the builder learns its block the way every other node does
            on_block_notify(sim, state, block)
        else:
            # a bogus parent: the block links nowhere, so its parts need another
            state.parts.update(taken)
            _settle(sim, state)
        return
    _retry_block(sim, state, block)


def _retry_block(sim, state: NodeState, block: Block) -> None:
    """End a try that put `block` nowhere: its parts rejoin the ones held
    since, and the node rebuilds them on its current tail while it is that
    tail's proposer; otherwise the attempt ends and the parts are settled."""
    state.parts.update(state.taken)
    state.taken = {}
    if proposer_of(sim, state.tail) == state.node_index:
        start_block_attempt(sim, state, failed=block)
        return
    state.block_round = None
    _settle(sim, state)


def on_block_notify(sim, state: NodeState, block: Block) -> None:
    state.hear(block)
    _settle(sim, state)
