"""Virtual-clock event engine: bootstrap, event loop, metrics, end check.

An event is one handler call; handlers communicate only by scheduling
events, so a (config, seed, latency source) triple fully determines the
run, down to the output CSV bytes.  A run ends when its event queue is
empty, since then no handler waits for anything.  One end check then
requires every tx to be finalized and on the registry chain, and counts
the txs in more than one chain block.
"""
from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from heapq import heappop, heappush
from typing import Callable

from . import controller
from .config import SimulationConfig, malicious_count
from .consensus import (
    EconomyLedger,
    ValidationTicket,
    apply_finalization_fees,
    decide,
    replica_holders,
    select_validators,
    validate_entity,
)
# `pending_pool` is not called here; bench/tracing.py patches it in this module
from .controller import NodeState, pending_pool
from .identity import ID_BYTES, Identifier, ZERO_ID, derive_node_identifier, hash_bytes
from .overlay import KIND_CONTROLLER, KIND_DATA, SkipGraph
from .rng import substream
from .simnet import (
    ContextCounters,
    Network,
    TAG_ANNOUNCE,
    TAG_NOTIFY,
    TAG_PART,
    TAG_ROUTE,
    TAG_VALIDATE_REPLY,
    TAG_VALIDATE_REQUEST,
    build_latency_matrix,
)
from .storage import (
    DECISION_APPROVE,
    Block,
    ChainTracker,
    Entity,
    Transaction,
    wire_size,
)

REPLICATION_FACTOR = 3
ROUTE_MSG_BYTES = 72
REPLY_MSG_BYTES = 41
# an insert reply's entry for each neighbour: its id and its host's 8-byte index
LINK_BYTES = ID_BYTES + 8
# a part message: an 8-byte count and the sender's tail (its id and 8-byte
# height), then each tx id with its 8-byte finalize time and its owner's
# 8-byte index
PART_HEADER_BYTES = 8 + ID_BYTES + 8
PART_TX_BYTES = ID_BYTES + 8 + 8
# a block notify's header: the id, the parent and an 8-byte height
NOTIFY_HEADER_BYTES = 2 * ID_BYTES + 8
# a run that neither generates nor finalizes anything for this many
# validation timeouts (plus one tx interval) is livelocked
STALL_TIMEOUTS = 1000

CSV_HEADER = ("event_type,entity_id,owner,created_at_ms,finalized_at_ms,"
              "messages,bytes,memory_bytes,validators_contacted,approvals,height,size")


class StalledSimulation(Exception):
    pass


@dataclass(frozen=True, slots=True)
class MetricRecord:
    event_type: str           # "tx" or "block"
    entity_id: str            # lowercase hex
    owner: int
    created_at: int
    finalized_at: int
    messages: int
    bytes: int
    memory_bytes: int
    validators_contacted: int
    approvals: int
    height: int | None = None
    size: int | None = None


@dataclass(frozen=True)
class SimulationReport:
    avg_tx_time_ms: float = 0.0
    avg_block_time_ms: float = 0.0
    avg_block_size: float = 0.0
    finalized_tx_count: int = 0
    finalized_block_count: int = 0
    chain_block_count: int = 0
    total_messages: int = 0
    total_bytes: int = 0
    total_minted: int = 0
    negative_balance_events: int = 0
    per_node_stored: list[int] = field(default_factory=list)
    wall_clock_s: float = 0.0
    # finalized blocks that are not on the chain, as a share of all finalized blocks
    fork_waste: float = 0.0
    tx_retries: int = 0
    block_retries: int = 0
    # block validation rounds started: first tries that built a block, and retries
    block_rounds: int = 0
    # txs that sit in more than one canonical-chain block
    repeated_chain_txs: int = 0
    # messages and bytes sent, by message tag
    messages_by_tag: dict[str, int] = field(default_factory=dict)
    bytes_by_tag: dict[str, int] = field(default_factory=dict)


def write_csv(records: list[MetricRecord]) -> str:
    lines = [CSV_HEADER]
    for rec in sorted(records, key=lambda r: (r.finalized_at, r.entity_id)):
        lines.append(",".join([
            rec.event_type,
            rec.entity_id,
            str(rec.owner),
            str(rec.created_at),
            str(rec.finalized_at),
            str(rec.messages),
            str(rec.bytes),
            str(rec.memory_bytes),
            str(rec.validators_contacted),
            str(rec.approvals),
            "" if rec.height is None else str(rec.height),
            "" if rec.size is None else str(rec.size),
        ]))
    return "\n".join(lines) + "\n"


def summarize(records: list[MetricRecord], **counts) -> SimulationReport:
    """The report of `records`, with the run-wide `counts` passed through
    as the report fields they name."""
    tx_rows = [r for r in records if r.event_type == "tx"]
    block_rows = [r for r in records if r.event_type == "block"]

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    chain_block_count = counts.get("chain_block_count", 0)
    return SimulationReport(
        avg_tx_time_ms=mean([r.finalized_at - r.created_at for r in tx_rows]),
        avg_block_time_ms=mean([r.finalized_at - r.created_at for r in block_rows]),
        avg_block_size=mean([r.size for r in block_rows]),
        finalized_tx_count=len(tx_rows),
        finalized_block_count=len(block_rows),
        fork_waste=(1 - chain_block_count / len(block_rows)) if block_rows else 0.0,
        **counts,
    )


class Registry:
    """Ground-truth finality: all finalized entities and the canonical chain.

    Validators read its fields directly; per-validator knowledge
    propagation is not modeled below the notification layer.  Its
    tracker's `tail` backs the rule that a validator approves only a block
    on the tail, which keeps the chain append-only, and each tx's finalize
    time the rule that a block under `BLK_SIZE` waits for its oldest tx to
    age `W`.
    """

    def __init__(self, genesis: Block):
        self.tracker = ChainTracker(genesis)
        self.finalized_txs: dict[Identifier, int] = {}   # tx id -> finalized_at
        self.finalized_seqs: set[tuple[int, int]] = set()
        # tx id -> owner; stands in for the owner field of a part message
        self.owner_of: dict[Identifier, int] = {}

    def add_tx(self, tx_id: Identifier, owner: int, seq: int, finalized_at: int) -> None:
        self.finalized_txs[tx_id] = finalized_at
        self.finalized_seqs.add((owner, seq))
        self.owner_of[tx_id] = owner


class ValidationRound:
    """One entity's validator resolution, request fan-out, and collection.

    The round is decided at its `signature_threshold`-th approving reply,
    at its last reply, or at its timeout, whichever comes first.  It then
    sets the entity's signature count and hands its tickets, and whether
    the threshold was reached, to `on_result` once; nothing else counts
    its votes.  A tx round is also decided, as failed, at the rejection
    that leaves it unable to reach the threshold.
    A ticket whose reply has not landed by then stays silent: it has no
    signature and earns no validation fee.  `done` marks a decided round,
    which sends no more requests and reports nothing more.  A block round
    outlives its decision as its attempt's record until the next try
    replaces it or the attempt ends.
    """

    def __init__(self, sim: "Simulation", entity: Entity, context: ContextCounters,
                 on_result: Callable[[list[ValidationTicket], bool], None]):
        self.sim = sim
        self.entity = entity
        self.context = context
        self.on_result = on_result
        self.tickets: list[ValidationTicket] = []
        self.unresolved = 0
        self.pending_replies = 0
        self.approvals_missing = sim.cfg.signature_threshold
        self.request_bytes = 0
        # when the latest reply of a resolved ticket lands back at the owner
        self.last_reply_at = 0
        self.done = False

    def start(self) -> None:
        sim = self.sim
        self.tickets = select_validators(
            self.entity.id, self.entity.owner, sim.controllers, sim.overlay, sim.cfg,
        )
        self.unresolved = self.pending_replies = len(self.tickets)
        self.request_bytes = wire_size(self.entity)
        # the owner finds each validator, and may send to it directly later
        found = sim.nodes[self.entity.owner].known.add
        for ticket in self.tickets:
            found(ticket.validator)
            sim.net.send_path(ticket.path, TAG_ROUTE, ROUTE_MSG_BYTES, self.context,
                              partial(self._resolved, ticket))

    def _resolved(self, ticket: ValidationTicket) -> None:
        if self.done:   # decided: a request would change nothing
            return
        sim = self.sim
        owner, validator = self.entity.owner, ticket.validator
        sim.net.send(
            owner, validator, TAG_VALIDATE_REQUEST, self.request_bytes, self.context,
            handler=partial(self._at_validator, ticket),
        )
        # the validator replies on arrival, so its reply lands one round trip from now
        self.last_reply_at = max(self.last_reply_at,
                                 sim.now + sim.net.round_trip(owner, validator))
        self.unresolved -= 1
        if (self.unresolved == 0
                and self.last_reply_at >= sim.now + sim.validation_timeout_ms):
            # a reply may still be out when the timeout fires; otherwise
            # every reply lands first and the timeout would find the round done
            sim.schedule_in(sim.validation_timeout_ms, self._timeout)

    def _at_validator(self, ticket: ValidationTicket) -> None:
        sim = self.sim
        valid = validate_entity(sim.registry, self.entity, sim.cfg)
        decision = decide(valid, sim.nodes[ticket.validator].malicious)
        sim.net.send(
            ticket.validator, self.entity.owner, TAG_VALIDATE_REPLY,
            REPLY_MSG_BYTES, self.context,
            handler=partial(self._reply, ticket, decision),
        )

    def _reply(self, ticket: ValidationTicket, decision: str) -> None:
        if self.done:
            return
        ticket.decision = decision
        self.pending_replies -= 1
        if decision == DECISION_APPROVE:
            self.approvals_missing -= 1
        # a tx round fails once the replies still out cannot make up the
        # approvals it lacks; a block round waits for every reply, since
        # failing it early only hastens futile block retries
        if (self.approvals_missing == 0 or self.pending_replies == 0
                or (self.approvals_missing > self.pending_replies
                    and isinstance(self.entity, Transaction))):
            self._complete()

    def _timeout(self) -> None:
        if not self.done:   # a reply landing at the deadline may run first
            self._complete()  # outstanding tickets stay "silent"

    def _complete(self) -> None:
        self.done = True
        # a silent validator (no reply before the decision) has no signature
        self.entity.signatures = len(self.tickets) - self.pending_replies
        self.on_result(self.tickets, self.approvals_missing == 0)


class Simulation:
    def __init__(self, cfg: SimulationConfig, seed: int = 42,
                 latency_samples: list[float] | None = None,
                 check_invariants_every: int = 0):
        self.cfg = cfg.validate()
        self.seed = seed
        self.now = 0
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._event_seq = 0
        self.events_processed = 0
        if check_invariants_every < 0:
            raise ValueError(f"check_invariants_every must be >= 0: {check_invariants_every}")
        self.check_invariants_every = check_invariants_every

        n = cfg.nodes
        self.identifiers = [derive_node_identifier(i) for i in range(n)]
        if len(set(self.identifiers)) != n:
            raise ValueError("node identifier collision; change node labels")

        shuffled = list(range(n))
        substream(seed, "malice").shuffle(shuffled)
        malicious = set(shuffled[:malicious_count(cfg)])

        self.matrix = build_latency_matrix(n, seed, samples=latency_samples)
        self.validation_timeout_ms = 10 * self.matrix.percentile(0.99)
        self._stall_window = (STALL_TIMEOUTS * self.validation_timeout_ms
                              + cfg.inter_tx_delay_s * 1000)
        self._stall_deadline = self._stall_window
        self.net = Network(self.matrix, clock=self)

        expected_entities = n + n * cfg.transactions_per_node * 2 + 64
        self.overlay = SkipGraph(max_vertices=expected_entities)
        self.controllers = sorted(zip(self.identifiers, range(n)))

        genesis_id = hash_bytes(b"genesis", str(seed).encode())
        self.genesis = Block(genesis_id, 0, ZERO_ID, 0)
        self.registry = Registry(self.genesis)
        self.ledger = EconomyLedger.create(n, cfg.initial_balance)

        self.nodes = [
            NodeState(
                node_index=i,
                malicious=i in malicious,
                rng_recipient=substream(seed, "recipient", i),
                rng_corrupt=substream(seed, "corrupt", i),
                tail=self.genesis,
            )
            for i in range(n)
        ]

        self.records: list[MetricRecord] = []
        # each tx slot finalizes once, so reaching this is "all generated, none open"
        self.expected_txs = n * cfg.transactions_per_node
        self._wall_clock_s = 0.0
        self.tx_retries = 0
        self.block_retries = 0
        self.repeated_chain_txs = 0   # set by the end check

    # -- scheduling -----------------------------------------------------

    def schedule_at(self, fire_time: int, fn: Callable[[], None]) -> None:
        if fire_time < self.now:
            raise ValueError("cannot schedule into the past")
        self._event_seq += 1
        heappush(self._heap, (fire_time, self._event_seq, fn))

    def schedule_in(self, delay: int, fn: Callable[[], None]) -> None:
        self.schedule_at(self.now + delay, fn)

    # -- bootstrap ------------------------------------------------------

    def _bootstrap(self) -> None:
        for i, identifier in enumerate(self.identifiers):
            self._insert_vertex(identifier, i, KIND_CONTROLLER, None)
        self._insert_vertex(self.genesis.id, 0, KIND_DATA, None)
        delay_ms = max(1, self.cfg.inter_tx_delay_s * 1000)
        for i, state in enumerate(self.nodes):
            offset = substream(self.seed, "offset", i).randrange(delay_ms)
            self.schedule_at(offset, lambda s=state: controller.on_tx_timer(self, s))

    # -- validation entry points ---------------------------------------

    def begin_tx_validation(self, state: NodeState, tx: Transaction,
                            context: ContextCounters) -> None:
        """Validate one attempt of a tx slot; `context` spans the slot's attempts."""
        if tx.attempt == 0:
            self._note_progress()
        else:
            self.tx_retries += 1
        round_ = ValidationRound(
            self, tx, context,
            on_result=lambda tickets, approved: controller.on_tx_result(
                self, state, tx, tickets, approved, context),
        )
        round_.start()

    def begin_block_validation(self, state: NodeState, block: Block,
                               retries: int) -> None:
        """Validate one try of the node's open block attempt.

        The round is the attempt's only record, kept in `state.block_round`
        until the next try or the attempt's end.  Its counters, fresh on a
        first try and taken over from the predecessor on a retry, go to the
        result.
        """
        if retries:
            self.block_retries += 1
            context = state.block_round.context
        else:
            context = ContextCounters()
        state.block_round = ValidationRound(
            self, block, context,
            on_result=lambda tickets, approved: controller.on_block_result(
                self, state, block, tickets, approved, context),
        )
        state.block_round.start()

    # -- parts ----------------------------------------------------------

    def send_parts(self, state: NodeState, dst: int, parts: dict[Identifier, int]) -> None:
        """Send the `parts` node `state` holds to node `dst` in one message,
        with the sender's tail.  A node that has not yet found `dst`
        by a routed search (a validator search counts) sends it along one
        for dst's controller vertex, charged per hop like a validator search
        plus the parts; otherwise it sends it direct."""
        src = state.node_index
        size = PART_HEADER_BYTES + PART_TX_BYTES * len(parts)
        handler = partial(controller.on_parts, self, self.nodes[dst], parts, state.tail)
        if dst in state.known:
            self.net.send(src, dst, TAG_PART, size, None, handler)
            return
        state.known.add(dst)
        path = self.overlay.search_num_id(src, self.identifiers[dst]).path
        self.net.send_path(path, TAG_PART, ROUTE_MSG_BYTES + size, None, handler)

    # -- finalization ---------------------------------------------------

    def _note_progress(self) -> None:
        self._stall_deadline = self.now + self._stall_window

    def _insert_vertex(self, identifier: Identifier, owner: int, kind: str,
                       context: ContextCounters | None) -> None:
        """Insert `owner`'s vertex: the chain goes hop by hop through the
        search and both sides' level walks, and its last owner replies to
        `owner` with the new vertex's neighbours."""
        path = self.overlay.announce(identifier, owner, kind)
        self.net.send_path(path, TAG_ANNOUNCE, ROUTE_MSG_BYTES, context, None)
        if path and path[-1] != owner:
            size = ROUTE_MSG_BYTES + LINK_BYTES * self.overlay.neighbour_count(identifier)
            self.net.send(path[-1], owner, TAG_ANNOUNCE, size, context, None)

    def _store_replica(self, holder: int, entity: Entity,
                       context: ContextCounters) -> None:
        """Store `entity` at `holder`: its owner inserts its vertex, and
        every other holder joins that vertex."""
        self.nodes[holder].store.store(entity)
        if holder == entity.owner:
            self._insert_vertex(entity.id, holder, KIND_DATA, context)
        else:
            path = self.overlay.join(entity.id, holder)
            self.net.send_path(path, TAG_ANNOUNCE, ROUTE_MSG_BYTES, context, None)

    def _record(self, entity: Entity, context: ContextCounters) -> None:
        # every try contacts VALID_THR validators, and a round is decided at
        # its SIG_THR-th approval, so a finalized entity has exactly SIG_THR
        common = dict(
            entity_id=entity.id.hex(),
            owner=entity.owner,
            created_at=entity.created_at,
            finalized_at=self.now,
            messages=context.messages,
            bytes=context.bytes,
            memory_bytes=wire_size(entity),
            validators_contacted=self.cfg.validators_per_entity * (entity.attempt + 1),
            approvals=self.cfg.signature_threshold,
        )
        if isinstance(entity, Transaction):
            self.records.append(MetricRecord(event_type="tx", **common))
        else:
            self.records.append(MetricRecord(
                event_type="block", height=entity.height,
                size=len(entity.tx_ids), **common))

    def finalize(self, entity: Entity, tickets: list[ValidationTicket],
                 context: ContextCounters) -> None:
        """Finalize an approved entity on `context`, the counters of its
        tx slot or block attempt.  A chain block's notify to each other node
        is charged for the header and the ids of the block's txs that node
        owns, all it reads; the handler hands over the block itself.  A block
        on a bogus parent is announced to no node."""
        self._note_progress()
        owner, is_block = entity.owner, isinstance(entity, Block)
        apply_finalization_fees(self.ledger, owner, tickets, self.cfg, is_block=is_block)
        if is_block:
            self.registry.tracker.add(entity)
        else:
            self.registry.add_tx(entity.id, owner, entity.seq, self.now)
        self._store_replica(owner, entity, context)
        holders = replica_holders(entity.id, owner, self.controllers, REPLICATION_FACTOR)
        payload_size = wire_size(entity)
        for holder in holders[1:]:
            self.net.send(owner, holder, TAG_NOTIFY, payload_size, context,
                          handler=partial(self._store_replica, holder, entity, context))
        if is_block and entity.parent == self.nodes[owner].tail.id:
            # only a chain block is announced: its builder knows that a bogus
            # parent is not its tail, and each part's owner from its part message
            owner_of = self.registry.owner_of
            owned = Counter(owner_of[tx_id] for tx_id in entity.tx_ids)
            for other in self.nodes:
                i = other.node_index
                if i != owner:
                    self.net.send(
                        owner, i, TAG_NOTIFY, NOTIFY_HEADER_BYTES + ID_BYTES * owned[i],
                        context,
                        handler=lambda o=other: controller.on_block_notify(self, o, entity),
                    )
        self._record(entity, context)

    # -- the end check --------------------------------------------------

    def _check_outcome(self) -> None:
        """The end check, run once the queue is empty: every tx slot is
        finalized and every finalized tx is on the registry chain.  A tx in
        more than one chain block is counted, not refused: m malicious
        approvals finalize such a block when SIG_THR <= m."""
        registry = self.registry
        if not (len(registry.finalized_txs) == self.expected_txs
                and registry.finalized_txs.keys() <= registry.tracker.chain_txs):
            raise StalledSimulation(f"event queue empty at t={self.now} before termination")
        placed = Counter(tx_id for blk in registry.tracker.chain for tx_id in blk.tx_ids)
        self.repeated_chain_txs = sum(1 for n in placed.values() if n > 1)

    def check_invariants(self) -> None:
        self.overlay.check_invariants()
        self.ledger.check_conservation()
        self.net.check_accounting()
        # each node's tail is on the registry chain
        chain = self.registry.tracker.chain
        for state in self.nodes:
            tail = state.tail
            assert tail.height < len(chain) and chain[tail.height] is tail, (
                f"node {state.node_index}'s tail at height {tail.height} is off the chain")

    # -- main loop -------------------------------------------------------

    def run(self) -> SimulationReport:
        n, m = self.cfg.nodes, malicious_count(self.cfg)
        if m == n:
            # malicious validators reject every valid entity
            raise StalledSimulation(
                f"every node is malicious (NODES={n}), so no block on a real parent can finalize")
        if n - 1 - m < self.cfg.signature_threshold:
            # an honest owner's validators are drawn from the other n - 1
            # nodes, and only the honest ones approve its valid entities
            raise StalledSimulation(
                f"an honest node has {n - 1 - m} honest validators "
                f"(NODES={n}, {m} malicious), fewer than SIG_THR={self.cfg.signature_threshold}")
        start = time.perf_counter()
        self._bootstrap()
        heap, every = self._heap, self.check_invariants_every
        while heap:
            now, _, fn = heappop(heap)
            self.now = now
            fn()
            self.events_processed += 1
            if now > self._stall_deadline:
                last = self._stall_deadline - self._stall_window
                raise StalledSimulation(
                    f"nothing generated or finalized since t={last} (now t={now})")
            if every and self.events_processed % every == 0:
                self.check_invariants()
        self._check_outcome()
        if every:
            # the end state is checked too, even in a run shorter than N events
            self.check_invariants()
        self._wall_clock_s = time.perf_counter() - start
        return self.report()

    def csv_text(self) -> str:
        return write_csv(self.records)

    def report(self) -> SimulationReport:
        traffic = sorted(self.net.traffic_by_tag.items())
        return summarize(
            self.records,
            total_messages=self.net.total_messages,
            total_bytes=self.net.total_bytes,
            total_minted=self.ledger.minted_total,
            negative_balance_events=self.ledger.negative_balance_events,
            chain_block_count=len(self.registry.tracker.chain_ids()) - 1,
            per_node_stored=[len(s.store) for s in self.nodes],
            wall_clock_s=self._wall_clock_s,
            tx_retries=self.tx_retries,
            block_retries=self.block_retries,
            block_rounds=sum(s.block_ctx_counter for s in self.nodes) + self.block_retries,
            repeated_chain_txs=self.repeated_chain_txs,
            messages_by_tag={tag: m for tag, (m, _) in traffic},
            bytes_by_tag={tag: b for tag, (_, b) in traffic},
        )


def run_simulation(cfg: SimulationConfig, seed: int = 42,
                   **kwargs) -> tuple[str, SimulationReport]:
    """Run one simulation and return (CSV text, report)."""
    sim = Simulation(cfg, seed, **kwargs)
    report = sim.run()
    return sim.csv_text(), report
