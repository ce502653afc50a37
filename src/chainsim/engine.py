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
    make_token,
    replica_holders,
    select_validators,
    validate_entity,
)
from .controller import NodeState, approvals_of, pending_pool
from .identity import (
    Address,
    Identifier,
    ZERO_ID,
    address_for,
    derive_node_identifier,
    hash_bytes,
    node_key_for,
)
from .overlay import KIND_CONTROLLER, KIND_DATA, SkipGraph
from .rng import substream
from .simnet import (
    Network,
    TAG_ANNOUNCE,
    TAG_NOTIFY,
    TAG_ROUTE,
    TAG_VALIDATE_REPLY,
    TAG_VALIDATE_REQUEST,
    build_latency_matrix,
)
from .storage import Block, BlockInfo, ChainTracker, Entity, Transaction, full_bytes

REPLICATION_FACTOR = 3
ROUTE_MSG_BYTES = 72
REPLY_MSG_BYTES = 41
DRAIN_TICK_MS = 1000

CSV_HEADER = ("event_type,entity_id,owner,created_at_ms,finalized_at_ms,"
              "messages,bytes,memory_bytes,validators_contacted,approvals,height,size")


class StalledSimulation(Exception):
    pass


@dataclass(frozen=True)
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
        self._ancestor_cache: dict[Identifier, frozenset] = {
            genesis.id: frozenset(genesis.tx_ids)
        }

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

    def ancestor_tx_ids(self, block_id: Identifier) -> frozenset:
        cached = self._ancestor_cache.get(block_id)
        if cached is not None:
            return cached
        info = self.tracker.blocks[block_id]
        ancestors = self.ancestor_tx_ids(info.parent) | frozenset(info.tx_ids)
        self._ancestor_cache[block_id] = ancestors
        return ancestors


class ValidationRound:
    """One entity's validator resolution, request fan-out, and collection."""

    def __init__(self, sim: "Simulation", state: NodeState, entity: Entity,
                 context: str, on_result: Callable[[list[ValidationTicket]], None]):
        self.sim = sim
        self.state = state
        self.entity = entity
        self.context = context
        self.on_result = on_result
        self.tickets: list[ValidationTicket] = []
        self.unresolved = 0
        self.pending_replies = 0
        self.done = False

    def start(self) -> None:
        sim = self.sim
        self.tickets = select_validators(
            self.entity.id, self.entity.owner, sim.controllers, sim.overlay,
            self.state.address, sim.cfg,
        )
        sim.ctx_validators[self.context] = (
            sim.ctx_validators.get(self.context, 0) + len(self.tickets)
        )
        self.unresolved = self.pending_replies = len(self.tickets)
        for ticket in self.tickets:
            sim.net.send_path(ticket.path, TAG_ROUTE, ROUTE_MSG_BYTES, self.context,
                              lambda t=ticket: self._resolved(t))

    def _resolved(self, ticket: ValidationTicket) -> None:
        sim = self.sim
        sim.net.send(
            self.state.address, sim.addresses[ticket.validator],
            TAG_VALIDATE_REQUEST, len(full_bytes(self.entity)), self.context,
            handler=lambda env, t=ticket: self._at_validator(t),
        )
        self.unresolved -= 1
        if self.unresolved == 0:
            sim.schedule_in(sim.validation_timeout_ms, self._timeout)

    def _at_validator(self, ticket: ValidationTicket) -> None:
        sim = self.sim
        validator = sim.nodes[ticket.validator]
        valid = validate_entity(sim.registry, self.entity, sim.cfg)
        decision = decide(valid, validator.malicious)
        sim.net.send(
            validator.address, self.state.address, TAG_VALIDATE_REPLY,
            REPLY_MSG_BYTES, self.context,
            handler=lambda env, t=ticket, d=decision: self._reply(t, d),
        )

    def _reply(self, ticket: ValidationTicket, decision: str) -> None:
        if self.done:
            return
        ticket.decision = decision
        ticket.token = make_token(self.entity.id, ticket.validator, decision)
        self.pending_replies -= 1
        if self.pending_replies == 0:
            self._complete()

    def _timeout(self) -> None:
        if not self.done:
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
        self.keys = [node_key_for(i) for i in range(n)]
        self.identifiers = [derive_node_identifier(k) for k in self.keys]
        if len(set(self.identifiers)) != n:
            raise ValueError("node identifier collision; change node labels")
        self.addresses = [address_for(i) for i in range(n)]

        shuffled = list(range(n))
        substream(seed, "malice").shuffle(shuffled)
        self.malicious_set = set(shuffled[:malicious_count(cfg)])

        self.matrix = build_latency_matrix(
            n, seed, samples=latency_samples,
            median_ms=latency_median_ms, sigma=latency_sigma,
        )
        self.validation_timeout_ms = 10 * self.matrix.percentile(0.99)
        self.net = Network(self.matrix, clock=lambda: self.now,
                           schedule_at=self.schedule_at, addresses=self.addresses)

        expected_entities = n + n * cfg.transactions_per_node * 2 + 64
        self.overlay = SkipGraph(max_vertices=expected_entities)
        self.controllers = sorted(
            zip(self.identifiers, self.addresses), key=lambda pair: pair[0]
        )

        genesis_id = hash_bytes(b"genesis", str(seed).encode())
        self.genesis = BlockInfo(genesis_id, ZERO_ID, 0, ())
        self.registry = Registry(self.genesis)
        self.ledger = EconomyLedger.create(n, cfg.initial_balance)

        self.nodes = [
            NodeState(
                node_index=i,
                address=self.addresses[i],
                identifier=self.identifiers[i],
                role=(controller.ROLE_MALICIOUS if i in self.malicious_set
                      else controller.ROLE_HONEST),
                rng_recipient=substream(seed, "recipient", i),
                rng_corrupt=substream(seed, "corrupt", i),
                rng_backoff=substream(seed, "backoff", i),
                tracker=ChainTracker(self.genesis),
            )
            for i in range(n)
        ]

        self.slots_total = n * cfg.transactions_per_node
        self.slots_finalized = 0
        self.open_tx_slots = 0
        self.open_block_ops = 0
        self.generators_remaining = n
        self.records: list[MetricRecord] = []
        self.ctx_validators: dict[str, int] = {}
        self._terminated = False
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
        for i, state in enumerate(self.nodes):
            path = self.overlay.announce(state.identifier, state.address, KIND_CONTROLLER)
            self.net.send_path(path, TAG_ANNOUNCE, ROUTE_MSG_BYTES, None, None)
        path = self.overlay.announce(self.genesis.id, self.addresses[0], KIND_DATA)
        self.net.send_path(path, TAG_ANNOUNCE, ROUTE_MSG_BYTES, None, None)
        delay_ms = max(1, self.cfg.inter_tx_delay_s * 1000)
        for i, state in enumerate(self.nodes):
            offset = substream(self.seed, "offset", i).randrange(delay_ms)
            state.next_tx_due = offset
            self.schedule_at(offset, lambda s=state: controller.on_tx_timer(self, s))

    # -- validation entry points ---------------------------------------

    def tx_context(self, tx: Transaction) -> str:
        return f"tx:{tx.owner}:{tx.seq}"

    def block_context(self, state: NodeState) -> str:
        return f"blk:{state.node_index}:{state.block_ctx_counter}"

    def begin_tx_validation(self, state: NodeState, tx: Transaction,
                            retry: bool = False) -> None:
        if tx.attempt == 0:
            self.open_tx_slots += 1
        round_ = ValidationRound(
            self, state, tx, self.tx_context(tx),
            on_result=lambda tickets: controller.on_tx_result(self, state, tx, tickets),
        )
        round_.start()

    def begin_block_validation(self, state: NodeState, block: Block,
                               retries: int) -> None:
        round_ = ValidationRound(
            self, state, block, self.block_context(state),
            on_result=lambda tickets: controller.on_block_result(
                self, state, block, tickets, retries),
        )
        round_.start()

    def note_generator_done(self) -> None:
        self.generators_remaining -= 1

    # -- finalization ---------------------------------------------------

    def _announce_and_replicate(self, state: NodeState, entity: Entity,
                                context: str) -> None:
        state.store.store(entity)
        path = self.overlay.announce(entity.id, state.address, KIND_DATA)
        self.net.send_path(path, TAG_ANNOUNCE, ROUTE_MSG_BYTES, context, None)
        holders = replica_holders(entity.id, entity.owner, self.controllers,
                                  REPLICATION_FACTOR)
        payload_size = len(full_bytes(entity))
        for holder in holders[1:]:
            self.net.send(
                state.address, self.addresses[holder], TAG_NOTIFY, payload_size,
                context, handler=lambda env, e=entity: self._store_replica(env.dst, e, context),
            )

    def _store_replica(self, holder: Address, entity: Entity, context: str) -> None:
        holder_state = self.nodes[holder.node_index]
        holder_state.store.store(entity)
        path = self.overlay.announce(entity.id, holder_state.address, KIND_DATA)
        self.net.send_path(path, TAG_ANNOUNCE, ROUTE_MSG_BYTES, context, None)

    def _record(self, entity: Entity, context: str,
                tickets: list[ValidationTicket]) -> None:
        counters = self.net.context_counters(context)
        common = dict(
            entity_id=entity.id.hex(),
            owner=entity.owner,
            created_at=entity.created_at,
            finalized_at=self.now,
            messages=counters.messages,
            bytes=counters.bytes,
            memory_bytes=len(full_bytes(entity)),
            validators_contacted=self.ctx_validators.get(context, 0),
            approvals=approvals_of(tickets),
        )
        if isinstance(entity, Transaction):
            self.records.append(MetricRecord(event_type="tx", **common))
        else:
            self.records.append(MetricRecord(
                event_type="block", height=entity.height,
                size=len(entity.tx_ids), **common))

    def finalize_transaction(self, state: NodeState, tx: Transaction,
                             tickets: list[ValidationTicket]) -> None:
        context = self.tx_context(tx)
        apply_finalization_fees(self.ledger, tx.owner, tickets, self.cfg,
                                is_block=False)
        self.registry.add_tx(tx.id, tx.owner, tx.seq, self.now)
        self.open_tx_slots -= 1
        self.slots_finalized += 1
        self._announce_and_replicate(state, tx, context)
        self._record(tx, context, tickets)

    def finalize_block(self, state: NodeState, block: Block,
                       tickets: list[ValidationTicket]) -> None:
        context = self.block_context(state)
        apply_finalization_fees(self.ledger, block.owner, tickets, self.cfg,
                                is_block=True)
        info = BlockInfo(block.id, block.prev_block_id, block.height,
                         tuple(block.tx_ids), block.drain)
        self.registry.add_block(info)
        self._announce_and_replicate(state, block, context)
        notify_size = 73 + 32 * len(block.tx_ids)
        for other in self.nodes:
            if other.node_index == state.node_index:
                continue
            self.net.send(
                state.address, other.address, TAG_NOTIFY, notify_size, context,
                handler=lambda env, o=other, i=info: controller.on_block_notify(self, o, i),
            )
        self._record(block, context, tickets)

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
        if self._terminated:
            return
        for state in self.nodes:
            if not state.block_attempt_open and pending_pool(state):
                state.block_attempt_open = True
                controller.start_block_attempt(self, state, drain=True)
                break
        if (self.open_tx_slots or self.open_block_ops
                or any(pending_pool(s) for s in self.nodes)):
            self._schedule_drain_tick(DRAIN_TICK_MS)

    def _check_termination(self) -> bool:
        if self.generators_remaining or self.slots_finalized != self.slots_total:
            return False
        if self.open_tx_slots or self.open_block_ops:
            return False
        if self.net.delivered_messages != self.net.total_messages:
            return False   # replication or notify traffic still in flight
        if any(pending_pool(s) for s in self.nodes):
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
            if (self.check_invariants_every
                    and self.events_processed - self._last_check
                    >= self.check_invariants_every):
                self.check_invariants()
                self._last_check = self.events_processed
            if (not self.registry.drain_mode and self.generators_remaining == 0
                    and self.open_tx_slots == 0):
                # every transaction is generated and finalized: pools are
                # final, so leftover (possibly undersized) blocks may drain
                self._enter_drain_mode()
            if self._check_termination():
                self._terminated = True
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
