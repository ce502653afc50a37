"""Ledger entities, canonical serialization, per-node replica stores, and
the registry's append-only chain, which holds the finalized `Block`s
themselves."""
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
    # a tuple, so a block the registry, the nodes and the replica stores
    # share cannot change under them
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
    """The registry's append-only chain of finalized blocks.

    `chain` holds the blocks by height (genesis at 0), `blocks` holds them
    by id, and `chain_txs` holds every transaction on the chain.  Blocks
    arrive in finalization order, so a block whose parent is not known has
    a bogus parent and is left off the chain; every other block extends
    the tail, or `ForkedChain` is raised.
    """

    def __init__(self, genesis: Block):
        self.genesis = genesis
        self.blocks: dict[Identifier, Block] = {genesis.id: genesis}
        self.tail: Block = genesis
        self.chain: list[Block] = [genesis]
        self.chain_txs: set[Identifier] = set()

    def add(self, blk: Block) -> None:
        if blk.id in self.blocks or blk.parent not in self.blocks:
            return
        tail = self.tail
        if blk.parent != tail.id or blk.height != tail.height + 1:
            raise ForkedChain(blk, tail)
        self.blocks[blk.id] = blk
        self.chain.append(blk)
        self.tail = blk
        self.chain_txs.update(blk.tx_ids)

    def chain_ids(self) -> list[Identifier]:
        """Block ids from genesis to tail."""
        return [blk.id for blk in self.chain]
