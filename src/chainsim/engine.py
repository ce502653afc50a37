"""Virtual-clock event engine: bootstrap, event loop, metrics, termination.

One handler runs at a time; handlers communicate only by scheduling
events, so a (config, seed, latency source) triple fully determines the
run, down to the output CSV bytes.
"""
from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
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
from .controller import NodeState, approvals_of, pending_pool
from .identity import Identifier, ZERO_ID, derive_node_identifier, hash_bytes
from .overlay import KIND_CONTROLLER, KIND_DATA, SkipGraph
from .rng import substream
from .simnet import (
    ContextCounters,
    Network,
    TAG_ANNOUNCE,
    TAG_NOTIFY,
    TAG_ROUTE,
    TAG_VALIDATE_REPLY,
    TAG_VALIDATE_REQUEST,
    build_latency_matrix,
)
from .storage import Block, BlockInfo, ChainTracker, Entity, Transaction, wire_size

REPLICATION_FACTOR = 3
ROUTE_MSG_BYTES = 72
REPLY_MSG_BYTES = 41
DRAIN_TICK_MS = 1000
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
    avg_tx_time_ms: float
    avg_block_time_ms: float
    avg_block_size: float
    finalized_tx_count: int
    finalized_block_count: int
    chain_block_count: int
    total_messages: int
    total_bytes: int
    total_minted: int
    negative_balance_events: int
    per_node_stored: list[int]
    wall_clock_s: float


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


def summarize(records: list[MetricRecord], *, total_messages: int = 0,
              total_bytes: int = 0, total_minted: int = 0,
              negative_balance_events: int = 0,
              chain_block_count: int = 0,
              per_node_stored: list[int] | None = None,
              wall_clock_s: float = 0.0) -> SimulationReport:
    tx_rows = [r for r in records if r.event_type == "tx"]
    block_rows = [r for r in records if r.event_type == "block"]

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    return SimulationReport(
        avg_tx_time_ms=mean([r.finalized_at - r.created_at for r in tx_rows]),
        avg_block_time_ms=mean([r.finalized_at - r.created_at for r in block_rows]),
        avg_block_size=mean([r.size for r in block_rows]),
        finalized_tx_count=len(tx_rows),
        finalized_block_count=len(block_rows),
        chain_block_count=chain_block_count,
        total_messages=total_messages,
        total_bytes=total_bytes,
        total_minted=total_minted,
        negative_balance_events=negative_balance_events,
        per_node_stored=per_node_stored or [],
        wall_clock_s=wall_clock_s,
    )


class Registry:
    """Ground-truth finality: all finalized entities and the canonical chain.

    Doubles as the chain view validators consult; per-validator knowledge
    propagation is not modeled below the notification layer.
    """

    def __init__(self, genesis: BlockInfo):
        self.tracker = ChainTracker(genesis)
        self.finalized_txs: dict[Identifier, tuple[int, int, int]] = {}
        self._finalized_seqs: set[tuple[int, int]] = set()
        self.drain_mode = False

    def add_tx(self, tx_id: Identifier, owner: int, seq: int, now: int) -> None:
        self.finalized_txs[tx_id] = (owner, seq, now)
        self._finalized_seqs.add((owner, seq))

    def add_block(self, info: BlockInfo) -> None:
        self.tracker.add(info)

    # chain-view interface used by validate_entity
    def has_block(self, block_id: Identifier) -> bool:
        return block_id in self.tracker.blocks

    def block(self, block_id: Identifier) -> BlockInfo | None:
        return self.tracker.blocks.get(block_id)

    def tx_finalized(self, tx_id: Identifier) -> bool:
        return tx_id in self.finalized_txs

    def seq_finalized(self, owner: int, seq: int) -> bool:
        return (owner, seq) in self._finalized_seqs

    def drain_allowed(self) -> bool:
        return self.drain_mode

    def ancestry_holds_any(self, block_id: Identifier, tx_ids) -> bool:
        return self.tracker.ancestry_holds_any(block_id, tx_ids)


class ValidationRound:
    """One entity's validator resolution, request fan-out, and collection."""

    def __init__(self, sim: "Simulation", entity: Entity, context: ContextCounters,
                 on_result: Callable[[list[ValidationTicket]], None]):
        self.sim = sim
        self.entity = entity
        self.context = context
        self.on_result = on_result
        self.tickets: list[ValidationTicket] = []
        self.unresolved = 0
        self.pending_replies = 0
        self.request_bytes = 0
        # when the latest reply of a resolved ticket lands back at the owner
        self.last_reply_at = 0
        self.done = False

    def start(self) -> None:
        sim = self.sim
        self.tickets = select_validators(
            self.entity.id, self.entity.owner, sim.controllers, sim.overlay, sim.cfg,
        )
        self.context.validators += len(self.tickets)
        self.unresolved = self.pending_replies = len(self.tickets)
        self.request_bytes = wire_size(self.entity)
        for ticket in self.tickets:
            sim.net.send_path(ticket.path, TAG_ROUTE, ROUTE_MSG_BYTES, self.context,
                              lambda t=ticket: self._resolved(t))

    def _resolved(self, ticket: ValidationTicket) -> None:
        sim = self.sim
        owner, validator = self.entity.owner, ticket.validator
        sim.net.send(
            owner, validator, TAG_VALIDATE_REQUEST, self.request_bytes, self.context,
            handler=lambda t=ticket: self._at_validator(t),
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
            handler=lambda t=ticket, d=decision: self._reply(t, d),
        )

    def _reply(self, ticket: ValidationTicket, decision: str) -> None:
        if self.done:
            return
        ticket.decision = decision
        self.pending_replies -= 1
        if self.pending_replies == 0:
            self._complete()

    def _timeout(self) -> None:
        if not self.done:   # a reply landing at the deadline may run first
            self._complete()  # outstanding tickets stay "silent"

    def _complete(self) -> None:
        self.done = True
        self.on_result(self.tickets)


class Simulation:
    def __init__(self, cfg: SimulationConfig, seed: int = 42,
                 latency_samples: list[float] | None = None,
                 latency_median_ms: float = 50.0, latency_sigma: float = 0.5,
                 check_invariants_every: int = 0):
        self.cfg = cfg.validate()
        self.seed = seed
        self.now = 0
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._event_seq = 0
        self.events_processed = 0
        self.check_invariants_every = check_invariants_every

        n = cfg.nodes
        self.identifiers = [derive_node_identifier(i) for i in range(n)]
        if len(set(self.identifiers)) != n:
            raise ValueError("node identifier collision; change node labels")

        shuffled = list(range(n))
        substream(seed, "malice").shuffle(shuffled)
        self.malicious_set = set(shuffled[:malicious_count(cfg)])

        self.matrix = build_latency_matrix(
            n, seed, samples=latency_samples,
            median_ms=latency_median_ms, sigma=latency_sigma,
        )
        self.validation_timeout_ms = 10 * self.matrix.percentile(0.99)
        self._stall_window = (STALL_TIMEOUTS * self.validation_timeout_ms
                              + cfg.inter_tx_delay_s * 1000)
        self._stall_deadline = self._stall_window
        self.net = Network(self.matrix, clock=lambda: self.now,
                           schedule_at=self.schedule_at)

        expected_entities = n + n * cfg.transactions_per_node * 2 + 64
        self.overlay = SkipGraph(max_vertices=expected_entities)
        self.controllers = sorted(zip(self.identifiers, range(n)))

        genesis_id = hash_bytes(b"genesis", str(seed).encode())
        self.genesis = BlockInfo(genesis_id, ZERO_ID, 0, ())
        self.registry = Registry(self.genesis)
        self.ledger = EconomyLedger.create(n, cfg.initial_balance)

        self.nodes = [
            NodeState(
                node_index=i,
                malicious=i in self.malicious_set,
                rng_recipient=substream(seed, "recipient", i),
                rng_corrupt=substream(seed, "corrupt", i),
                rng_backoff=substream(seed, "backoff", i),
                tracker=ChainTracker(self.genesis, owner=i),
            )
            for i in range(n)
        ]

        self.slots_total = n * cfg.transactions_per_node
        self.records: list[MetricRecord] = []
        self._wall_clock_s = 0.0
        self._last_check = 0
        self._drain_tick_pending = False

    # -- scheduling -----------------------------------------------------

    def schedule_at(self, fire_time: int, fn: Callable[[], None]) -> None:
        if fire_time < self.now:
            raise ValueError("cannot schedule into the past")
        self._event_seq += 1
        heapq.heappush(self._heap, (fire_time, self._event_seq, fn))

    def schedule_in(self, delay: int, fn: Callable[[], None]) -> None:
        self.schedule_at(self.now + delay, fn)

    # -- bootstrap ------------------------------------------------------

    def _bootstrap(self) -> None:
        for i, identifier in enumerate(self.identifiers):
            path = self.overlay.announce(identifier, i, KIND_CONTROLLER)
            self.net.send_path(path, TAG_ANNOUNCE, ROUTE_MSG_BYTES, None, None)
        path = self.overlay.announce(self.genesis.id, 0, KIND_DATA)
        self.net.send_path(path, TAG_ANNOUNCE, ROUTE_MSG_BYTES, None, None)
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
        round_ = ValidationRound(
            self, tx, context,
            on_result=lambda tickets: controller.on_tx_result(
                self, state, tx, tickets, context),
        )
        round_.start()

    def begin_block_validation(self, state: NodeState, block: Block,
                               retries: int) -> None:
        """Validate one try of the node's open block attempt."""
        round_ = ValidationRound(
            self, block, state.block_context,
            on_result=lambda tickets: controller.on_block_result(
                self, state, block, tickets, retries),
        )
        round_.start()

    # -- finalization ---------------------------------------------------

    def _note_progress(self) -> None:
        self._stall_deadline = self.now + self._stall_window

    def _announce_and_replicate(self, state: NodeState, entity: Entity,
                                context: ContextCounters) -> None:
        state.store.store(entity)
        path = self.overlay.announce(entity.id, state.node_index, KIND_DATA)
        self.net.send_path(path, TAG_ANNOUNCE, ROUTE_MSG_BYTES, context, None)
        holders = replica_holders(entity.id, entity.owner, self.controllers,
                                  REPLICATION_FACTOR)
        payload_size = wire_size(entity)
        for holder in holders[1:]:
            self.net.send(
                state.node_index, holder, TAG_NOTIFY, payload_size,
                context, handler=lambda h=holder: self._store_replica(h, entity, context),
            )

    def _store_replica(self, holder: int, entity: Entity,
                       context: ContextCounters) -> None:
        self.nodes[holder].store.store(entity)
        path = self.overlay.announce(entity.id, holder, KIND_DATA)
        self.net.send_path(path, TAG_ANNOUNCE, ROUTE_MSG_BYTES, context, None)

    def _record(self, entity: Entity, context: ContextCounters,
                tickets: list[ValidationTicket]) -> None:
        common = dict(
            entity_id=entity.id.hex(),
            owner=entity.owner,
            created_at=entity.created_at,
            finalized_at=self.now,
            messages=context.messages,
            bytes=context.bytes,
            memory_bytes=wire_size(entity),
            validators_contacted=context.validators,
            approvals=approvals_of(tickets),
        )
        if isinstance(entity, Transaction):
            self.records.append(MetricRecord(event_type="tx", **common))
        else:
            self.records.append(MetricRecord(
                event_type="block", height=entity.height,
                size=len(entity.tx_ids), **common))

    def finalize_transaction(self, state: NodeState, tx: Transaction,
                             tickets: list[ValidationTicket],
                             context: ContextCounters) -> None:
        self._note_progress()
        apply_finalization_fees(self.ledger, tx.owner, tickets, self.cfg,
                                is_block=False)
        self.registry.add_tx(tx.id, tx.owner, tx.seq, self.now)
        self._announce_and_replicate(state, tx, context)
        self._record(tx, context, tickets)

    def finalize_block(self, state: NodeState, block: Block,
                       tickets: list[ValidationTicket]) -> BlockInfo:
        """Finalize the node's open block attempt; returns the block's one `BlockInfo`."""
        self._note_progress()
        context = state.block_context
        apply_finalization_fees(self.ledger, block.owner, tickets, self.cfg,
                                is_block=True)
        info = BlockInfo(block.id, block.prev_block_id, block.height,
                         tuple(block.tx_ids), block.drain, block.owner)
        self.registry.add_block(info)
        self._announce_and_replicate(state, block, context)
        notify_size = 73 + 32 * len(block.tx_ids)
        for other in self.nodes:
            if other.node_index == state.node_index:
                continue
            self.net.send(
                state.node_index, other.node_index, TAG_NOTIFY, notify_size, context,
                handler=lambda o=other: controller.on_block_notify(self, o, info),
            )
        self._record(block, context, tickets)
        return info

    # -- drain and termination ------------------------------------------

    def _enter_drain_mode(self) -> None:
        self.registry.drain_mode = True
        self._schedule_drain_tick(0)

    def _schedule_drain_tick(self, delay: int) -> None:
        if self._drain_tick_pending:
            return
        self._drain_tick_pending = True
        self.schedule_in(delay, self._drain_tick)

    def poke_drain(self) -> None:
        """Re-arm draining after a late chain update refills a pool."""
        if self.registry.drain_mode:
            self._schedule_drain_tick(0)

    def _drain_tick(self) -> None:
        self._drain_tick_pending = False
        for state in self.nodes:
            if not state.block_attempt_open and state.pool:
                state.block_attempt_open = True
                controller.start_block_attempt(self, state, drain=True)
                break
        # every tx slot is finalized by now, so only block attempts and
        # pools can still hold work
        if any(s.block_context is not None or s.pool for s in self.nodes):
            self._schedule_drain_tick(DRAIN_TICK_MS)

    def _all_txs_finalized(self) -> bool:
        # each tx slot finalizes once, so this is "all generated, none open"
        return len(self.registry.finalized_txs) == self.slots_total

    def _check_termination(self) -> bool:
        if not self._all_txs_finalized():
            return False
        if self.net.delivered_messages != self.net.total_messages:
            return False   # replication or notify traffic still in flight
        if any(s.block_context is not None or s.pool for s in self.nodes):
            return False
        chain_txs = self.registry.tracker.chain_txs
        return all(tx_id in chain_txs for tx_id in self.registry.finalized_txs)

    def check_invariants(self) -> None:
        self.overlay.check_invariants()
        self.ledger.check_conservation()
        self.net.check_accounting()

    # -- main loop -------------------------------------------------------

    def run(self) -> SimulationReport:
        start = time.perf_counter()
        self._bootstrap()
        while True:
            if not self._heap:
                raise StalledSimulation(
                    f"event queue empty at t={self.now} before termination")
            current_time = self._heap[0][0]
            self.now = current_time
            while self._heap and self._heap[0][0] == current_time:
                _, _, fn = heapq.heappop(self._heap)
                fn()
                self.events_processed += 1
            # quiescent point
            if current_time > self._stall_deadline:
                last = self._stall_deadline - self._stall_window
                raise StalledSimulation(
                    f"nothing generated or finalized since t={last} (now t={current_time})")
            if (self.check_invariants_every
                    and self.events_processed - self._last_check
                    >= self.check_invariants_every):
                self.check_invariants()
                self._last_check = self.events_processed
            if not self.registry.drain_mode and self._all_txs_finalized():
                # every transaction is generated and finalized: pools are
                # final, so leftover (possibly undersized) blocks may drain
                self._enter_drain_mode()
            if self._check_termination():
                break
        self._wall_clock_s = time.perf_counter() - start
        return self.report()

    def csv_text(self) -> str:
        return write_csv(self.records)

    def report(self) -> SimulationReport:
        return summarize(
            self.records,
            total_messages=self.net.total_messages,
            total_bytes=self.net.total_bytes,
            total_minted=self.ledger.minted_total,
            negative_balance_events=self.ledger.negative_balance_events,
            chain_block_count=len(self.registry.tracker.chain_ids()) - 1,
            per_node_stored=[len(s.store) for s in self.nodes],
            wall_clock_s=self._wall_clock_s,
        )


def run_simulation(cfg: SimulationConfig, seed: int = 42,
                   **kwargs) -> tuple[str, SimulationReport]:
    """Run one simulation and return (CSV text, report)."""
    sim = Simulation(cfg, seed, **kwargs)
    report = sim.run()
    return sim.csv_text(), report
