"""Ledger entities, canonical serialization, per-node replica stores, and
the block tree, whose trackers hold the finalized `Block`s themselves."""
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


class ChainTracker:
    """Block-tree bookkeeping with the deterministic fork rule.

    Tail = greatest height, ties broken by smaller numeric id.  `chain`
    holds the canonical blocks by height (genesis at 0), and `chain_txs`
    maps each transaction on it to the lowest height of a block holding
    it.  A tracker with a `listener` (a node's state) indexes only the
    listener's `own_finalized` txs, which is all a node's pool asks about,
    and tells the listener which of them enter and leave `chain_txs`; the
    registry's tracker, with no listener, indexes every tx.  A reorg walks
    back only to the common ancestor of the old and the new tail, and
    `reorgs` counts the tail moves that cut blocks off the chain.  Every
    block's height is its parent's height plus one.
    """

    def __init__(self, genesis: Block):
        self.genesis = genesis
        self.listener = None
        self.blocks: dict[Identifier, Block] = {genesis.id: genesis}
        self.tail: Block = genesis
        self.chain: list[Block] = [genesis]
        self.chain_txs: dict[Identifier, int] = {}
        self.reorgs = 0
        self._index(genesis)
        self._orphans: dict[Identifier, list[Block]] = {}

    def add(self, blk: Block) -> None:
        if blk.id in self.blocks:
            return
        if blk.parent not in self.blocks:
            # parent not yet known (notifications can arrive out of order)
            self._orphans.setdefault(blk.parent, []).append(blk)
            return
        self._link(blk)
        stack = [blk.id]
        while stack:
            parent_id = stack.pop()
            for child in self._orphans.pop(parent_id, []):
                self._link(child)
                stack.append(child.id)

    def _link(self, blk: Block) -> None:
        self.blocks[blk.id] = blk
        tail = self.tail
        if blk.height > tail.height or (
            blk.height == tail.height and blk.id < tail.id
        ):
            self._move_tail(blk)

    def _on_chain(self, blk: Block) -> bool:
        chain = self.chain
        return blk.height < len(chain) and chain[blk.height].id == blk.id

    def _move_tail(self, new_tail: Block) -> None:
        """Cut `chain` back to the common ancestor, then append the new branch."""
        branch = []
        cur = new_tail
        while not self._on_chain(cur):
            branch.append(cur)
            cur = self.blocks[cur.parent]
        cut = self.chain[cur.height + 1:]
        if cut:
            self.reorgs += 1
            del self.chain[cur.height + 1:]
        chain_txs = self.chain_txs
        for blk in cut:
            removed = []
            for tx_id in self._indexed_txs(blk):
                if chain_txs.get(tx_id) == blk.height:
                    del chain_txs[tx_id]
                    removed.append(tx_id)
            if removed and self.listener is not None:
                self.listener.unchained(removed)
        for blk in reversed(branch):
            self.chain.append(blk)
            self._index(blk)
        self.tail = new_tail

    def _indexed_txs(self, blk: Block):
        """The txs of `blk` this tracker indexes: all of them, or only the
        listener's own, which a block mixes with every other owner's."""
        if self.listener is None:
            return blk.tx_ids
        own = self.listener.own_finalized
        return [tx_id for tx_id in blk.tx_ids if tx_id in own]

    def _index(self, blk: Block) -> None:
        tx_ids = self._indexed_txs(blk)
        for tx_id in tx_ids:
            self.chain_txs.setdefault(tx_id, blk.height)
        if tx_ids and self.listener is not None:
            self.listener.chained(tx_ids)

    def ancestry_holds_any(self, block_id: Identifier, tx_ids) -> bool:
        """True when `block_id` or one of its ancestors holds a tx in `tx_ids`."""
        assert self.listener is None, "a node's tracker indexes only the node's own txs"
        wanted = set(tx_ids)
        cur = self.blocks[block_id]
        while not self._on_chain(cur):
            if not wanted.isdisjoint(cur.tx_ids):
                return True
            cur = self.blocks[cur.parent]
        junction = cur.height
        get = self.chain_txs.get
        return any(get(tx_id, junction + 1) <= junction for tx_id in wanted)

    def chain_ids(self) -> list[Identifier]:
        """Block ids from genesis to tail."""
        return [blk.id for blk in self.chain]
