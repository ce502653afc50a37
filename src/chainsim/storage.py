"""Ledger entities, canonical serialization, per-node replica stores, and
the append-only chain, whose trackers hold the finalized `Block`s themselves."""
from __future__ import annotations

import struct
from dataclasses import dataclass

from .identity import ID_BYTES, Identifier, ZERO_ID, derive_object_identifier

DECISION_APPROVE = "approve"
DECISION_REJECT = "reject"
DECISION_SILENT = "silent"

# one signature on the wire: an 8-byte validator, a 1-byte decision and a
# 32-byte token
SIGNATURE_BYTES = 8 + 1 + ID_BYTES


class IdMismatch(Exception):
    def __init__(self, expected: Identifier, actual: Identifier):
        super().__init__(f"stored id {expected.hex()[:12]} != recomputed {actual.hex()[:12]}")
        self.expected = expected
        self.actual = actual


@dataclass(slots=True)
class Transaction:
    id: Identifier
    owner: int
    recipient: int
    amount: int
    prev_block_id: Identifier
    seq: int
    created_at: int
    attempt: int = 0
    signatures: int = 0   # validators that replied


@dataclass(slots=True)
class Block:
    id: Identifier
    owner: int
    parent: Identifier
    height: int
    # a tuple, so a block every tracker shares cannot change under them
    tx_ids: tuple[Identifier, ...] = ()
    created_at: int = 0
    attempt: int = 0
    signatures: int = 0   # validators that replied


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
            + entity.parent
            + struct.pack(">QQQ", entity.height, entity.created_at, entity.attempt)
            + struct.pack(">Q", len(entity.tx_ids))
        )
        return head + b"".join(entity.tx_ids)
    raise TypeError(f"not a ledger entity: {type(entity)!r}")


def wire_size(entity: Entity) -> int:
    """Bytes of the entity as sent and stored; the unit of storage accounting.

    The layout is the canonical bytes, an 8-byte big-endian signature
    count, then SIGNATURE_BYTES per signature.  Nothing in the simulator
    reads the signatures themselves, so only their count is kept.
    """
    return len(canonical_bytes(entity)) + 8 + SIGNATURE_BYTES * entity.signatures


def new_transaction(owner: int, recipient: int, amount: int, prev_block_id: Identifier,
                    seq: int, created_at: int, attempt: int = 0) -> Transaction:
    tx = Transaction(ZERO_ID, owner, recipient, amount, prev_block_id, seq, created_at, attempt)
    tx.id = derive_object_identifier(canonical_bytes(tx))
    return tx


def new_block(owner: int, parent: Identifier, height: int, tx_ids,
              created_at: int, attempt: int = 0) -> Block:
    blk = Block(ZERO_ID, owner, parent, height, tuple(tx_ids), created_at, attempt)
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
        self.byte_count += wire_size(entity)

    def fetch(self, identifier: Identifier) -> Entity | None:
        return self._entities.get(identifier)


class ForkedChain(Exception):
    """A block whose parent is known does not extend the tail.  Only the
    proposer of a tail builds on it, so this is a protocol bug."""

    def __init__(self, blk: Block, tail: Block):
        super().__init__(
            f"block {blk.id.hex()[:12]} at height {blk.height} does not extend "
            f"the tail {tail.id.hex()[:12]} at height {tail.height}")


class ChainTracker:
    """The append-only chain of finalized blocks.

    `chain` holds the blocks by height (genesis at 0), `blocks` holds them
    by id, and `chain_txs` maps each transaction on the chain to the
    lowest height of a block holding it.  Every block whose parent is
    known extends the tail, or `ForkedChain` is raised.  A block whose
    parent is not yet known waits in `_orphans` until the parent links
    (notifications can arrive out of order); a bogus-parent block waits
    there for good, off the chain.  A tracker with a `listener` (a node's
    state) indexes only the listener's `own_finalized` txs, which is all a
    node's pool asks about, and tells the listener which of them enter
    `chain_txs`; the registry's tracker, with no listener, indexes every tx.
    """

    def __init__(self, genesis: Block):
        self.genesis = genesis
        self.listener = None
        self.blocks: dict[Identifier, Block] = {genesis.id: genesis}
        self.tail: Block = genesis
        self.chain: list[Block] = [genesis]
        self.chain_txs: dict[Identifier, int] = {}
        self._orphans: dict[Identifier, list[Block]] = {}

    def add(self, blk: Block) -> None:
        if blk.id in self.blocks:
            return
        if blk.parent not in self.blocks:
            self._orphans.setdefault(blk.parent, []).append(blk)
            return
        self._link(blk)
        waiting = self._orphans.pop(blk.id, [])
        while waiting:
            child = waiting.pop()
            if child.id not in self.blocks:   # a repeat may have waited twice
                self._link(child)
                waiting.extend(self._orphans.pop(child.id, []))

    def _link(self, blk: Block) -> None:
        tail = self.tail
        if blk.parent != tail.id or blk.height != tail.height + 1:
            raise ForkedChain(blk, tail)
        self.blocks[blk.id] = blk
        self.chain.append(blk)
        self.tail = blk
        if self.listener is None:
            tx_ids = blk.tx_ids
        else:
            # the listener's own txs, which a block mixes with every other owner's
            own = self.listener.own_finalized
            tx_ids = [tx_id for tx_id in blk.tx_ids if tx_id in own]
        for tx_id in tx_ids:
            self.chain_txs.setdefault(tx_id, blk.height)
        if tx_ids and self.listener is not None:
            self.listener.chained(tx_ids)

    def chain_ids(self) -> list[Identifier]:
        """Block ids from genesis to tail."""
        return [blk.id for blk in self.chain]
