"""Ledger entities, canonical serialization, and per-node replica stores."""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .identity import ID_BYTES, Identifier, ZERO_ID, derive_object_identifier

DECISION_APPROVE = "approve"
DECISION_REJECT = "reject"
DECISION_SILENT = "silent"

_DECISION_CODE = {DECISION_APPROVE: 1, DECISION_REJECT: 2, DECISION_SILENT: 3}
_CODE_DECISION = {v: k for k, v in _DECISION_CODE.items()}


class IdMismatch(Exception):
    def __init__(self, expected: Identifier, actual: Identifier):
        super().__init__(f"stored id {expected.hex()[:12]} != recomputed {actual.hex()[:12]}")
        self.expected = expected
        self.actual = actual


@dataclass(frozen=True)
class Signature:
    validator: int
    decision: str
    token: bytes


@dataclass
class Transaction:
    id: Identifier
    owner: int
    recipient: int
    amount: int
    prev_block_id: Identifier
    seq: int
    created_at: int
    attempt: int = 0
    signatures: list[Signature] = field(default_factory=list)


@dataclass
class Block:
    id: Identifier
    owner: int
    prev_block_id: Identifier
    height: int
    tx_ids: list[Identifier] = field(default_factory=list)
    created_at: int = 0
    attempt: int = 0
    drain: bool = False
    signatures: list[Signature] = field(default_factory=list)


Entity = Transaction | Block


def canonical_bytes(entity: Entity) -> bytes:
    """Fixed-order big-endian encoding of the id-bearing fields (no signatures)."""
    if isinstance(entity, Transaction):
        return (
            b"T"
            + struct.pack(">QQQ", entity.owner, entity.recipient, entity.amount)
            + entity.prev_block_id
            + struct.pack(">QQQ", entity.seq, entity.created_at, entity.attempt)
        )
    if isinstance(entity, Block):
        head = (
            b"B"
            + struct.pack(">Q", entity.owner)
            + entity.prev_block_id
            + struct.pack(">QQQB", entity.height, entity.created_at, entity.attempt, int(entity.drain))
            + struct.pack(">Q", len(entity.tx_ids))
        )
        return head + b"".join(entity.tx_ids)
    raise TypeError(f"not a ledger entity: {type(entity)!r}")


def full_bytes(entity: Entity) -> bytes:
    """Canonical bytes plus the signature section; the unit of storage accounting."""
    out = canonical_bytes(entity) + struct.pack(">Q", len(entity.signatures))
    for sig in entity.signatures:
        out += struct.pack(">QB", sig.validator, _DECISION_CODE[sig.decision]) + sig.token
    return out


def decode_entity(data: bytes) -> Entity:
    tag, body = data[:1], data[1:]
    if tag == b"T":
        owner, recipient, amount = struct.unpack_from(">QQQ", body, 0)
        prev = body[24:24 + ID_BYTES]
        seq, created_at, attempt = struct.unpack_from(">QQQ", body, 24 + ID_BYTES)
        entity: Entity = Transaction(ZERO_ID, owner, recipient, amount, prev, seq, created_at, attempt)
        off = 24 + ID_BYTES + 24
    elif tag == b"B":
        (owner,) = struct.unpack_from(">Q", body, 0)
        prev = body[8:8 + ID_BYTES]
        height, created_at, attempt, drain = struct.unpack_from(">QQQB", body, 8 + ID_BYTES)
        off = 8 + ID_BYTES + 25
        (count,) = struct.unpack_from(">Q", body, off)
        off += 8
        tx_ids = []
        for _ in range(count):
            tx_ids.append(body[off:off + ID_BYTES])
            off += ID_BYTES
        entity = Block(ZERO_ID, owner, prev, height, tx_ids, created_at, attempt, bool(drain))
    else:
        raise ValueError(f"unknown entity tag {tag!r}")
    (nsigs,) = struct.unpack_from(">Q", body, off)
    off += 8
    for _ in range(nsigs):
        validator, code = struct.unpack_from(">QB", body, off)
        off += 9
        token = body[off:off + ID_BYTES]
        off += ID_BYTES
        entity.signatures.append(Signature(validator, _CODE_DECISION[code], token))
    entity.id = derive_object_identifier(canonical_bytes(entity))
    return entity


def new_transaction(owner: int, recipient: int, amount: int, prev_block_id: Identifier,
                    seq: int, created_at: int, attempt: int = 0) -> Transaction:
    tx = Transaction(ZERO_ID, owner, recipient, amount, prev_block_id, seq, created_at, attempt)
    tx.id = derive_object_identifier(canonical_bytes(tx))
    return tx


def new_block(owner: int, prev_block_id: Identifier, height: int, tx_ids: list[Identifier],
              created_at: int, attempt: int = 0, drain: bool = False) -> Block:
    blk = Block(ZERO_ID, owner, prev_block_id, height, list(tx_ids), created_at, attempt, drain)
    blk.id = derive_object_identifier(canonical_bytes(blk))
    return blk


class ReplicaStore:
    """One node's in-memory map of replicated entities with byte accounting."""

    def __init__(self):
        self._entities: dict[Identifier, Entity] = {}
        self.byte_count = 0

    def __len__(self) -> int:
        return len(self._entities)

    def store(self, entity: Entity) -> None:
        recomputed = derive_object_identifier(canonical_bytes(entity))
        if recomputed != entity.id:
            raise IdMismatch(entity.id, recomputed)
        if entity.id in self._entities:
            return
        self._entities[entity.id] = entity
        self.byte_count += len(full_bytes(entity))

    def fetch(self, identifier: Identifier) -> Entity | None:
        return self._entities.get(identifier)


@dataclass(frozen=True)
class BlockInfo:
    """The slice of a block every node tracks for tail selection and pool eviction."""
    id: Identifier
    parent: Identifier
    height: int
    tx_ids: tuple[Identifier, ...]
    drain: bool = False


class ChainTracker:
    """Block-tree bookkeeping with the deterministic fork rule.

    Tail = greatest height, ties broken by smaller numeric id.  Keeps the
    set of transaction ids on the canonical chain, rebuilt on reorg.
    """

    def __init__(self, genesis: BlockInfo):
        self.genesis = genesis
        self.blocks: dict[Identifier, BlockInfo] = {genesis.id: genesis}
        self.tail: BlockInfo = genesis
        self.chain_txs: set[Identifier] = set(genesis.tx_ids)
        self._orphans: dict[Identifier, list[BlockInfo]] = {}

    def add(self, info: BlockInfo) -> None:
        if info.id in self.blocks:
            return
        if info.parent not in self.blocks:
            # parent not yet known (notifications can arrive out of order)
            self._orphans.setdefault(info.parent, []).append(info)
            return
        self._link(info)
        stack = [info.id]
        while stack:
            parent_id = stack.pop()
            for child in self._orphans.pop(parent_id, []):
                self._link(child)
                stack.append(child.id)

    def _link(self, info: BlockInfo) -> None:
        self.blocks[info.id] = info
        if info.parent == self.tail.id:
            self.tail = info
            self.chain_txs.update(info.tx_ids)
        elif info.height > self.tail.height or (
            info.height == self.tail.height and info.id < self.tail.id
        ):
            self.tail = info
            self._rebuild()

    def _rebuild(self) -> None:
        txs: set[Identifier] = set()
        cur = self.tail
        while True:
            txs.update(cur.tx_ids)
            if cur.id == self.genesis.id:
                break
            cur = self.blocks[cur.parent]
        self.chain_txs = txs

    def chain_ids(self) -> list[Identifier]:
        """Block ids from genesis to tail."""
        out = []
        cur = self.tail
        while True:
            out.append(cur.id)
            if cur.id == self.genesis.id:
                break
            cur = self.blocks[cur.parent]
        out.reverse()
        return out
