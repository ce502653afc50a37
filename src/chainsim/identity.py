"""Identifier space shared by nodes and data objects.

A single 256-bit hash names every entity: an identifier is the raw
32-byte sha256 digest.  Fixed-width big-endian bytes compare exactly like
the unsigned integers they encode, so plain `bytes` ordering is the
numeric ordering; `membership_prefix_len` reads the same bits as a
membership vector, least-significant first.
"""
from __future__ import annotations

import hashlib

ID_BYTES = 32
ID_BITS = ID_BYTES * 8

Identifier = bytes

ZERO_ID = bytes(ID_BYTES)


def hash_bytes(*parts: bytes) -> Identifier:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.digest()


def derive_node_identifier(index: int) -> Identifier:
    """Identifier of node `index`; the index itself is the node's address."""
    return hash_bytes(f"node-{index}".encode())


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
