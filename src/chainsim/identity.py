"""Identifier space shared by nodes and data objects.

A single 256-bit hash names every entity: an identifier is the raw
32-byte sha256 digest.  Fixed-width big-endian bytes compare exactly like
the unsigned integers they encode, so plain `bytes` ordering is the
numeric ordering; `membership_prefix_len` reads the same bits as a
membership vector, least-significant first.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import NamedTuple

ID_BYTES = 32
ID_BITS = ID_BYTES * 8

Identifier = bytes

ZERO_ID = bytes(ID_BYTES)


@dataclass(frozen=True)
class NodeKey:
    """Simulated key pair: an opaque, unique public-key byte string."""
    public_key: bytes
    node_index: int


class Address(NamedTuple):
    """Stable logical endpoint of one node (host:port analogue).

    A named tuple, so equality and hashing (every message checks both)
    run in C.
    """
    node_index: int
    endpoint: str


def node_key_for(index: int) -> NodeKey:
    return NodeKey(public_key=f"node-{index}".encode(), node_index=index)


def address_for(index: int) -> Address:
    return Address(node_index=index, endpoint=f"10.0.{index // 256}.{index % 256}:7001")


def hash_bytes(*parts: bytes) -> Identifier:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.digest()


def derive_node_identifier(key: NodeKey) -> Identifier:
    if not key.public_key:
        raise ValueError("public key must be non-empty")
    return hash_bytes(key.public_key)


def derive_object_identifier(payload: bytes) -> Identifier:
    return hash_bytes(payload)


def membership_prefix_len(a: Identifier, b: Identifier) -> int:
    """Shared prefix of the membership vectors of two identifiers.

    The membership vector reads the identifier bits least-significant
    first, so it is independent of the numeric ordering (which the
    leading bits dominate).  Reusing the leading bits would make every
    level list a contiguous slice of the sorted order and reduce routing
    to a linear walk.
    """
    x = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    if x == 0:
        return ID_BITS
    return ((x & -x).bit_length()) - 1
