"""Identifier derivation, ordering, and prefix computations."""
from hypothesis import given, strategies as st

from chainsim.identity import (
    ID_BITS,
    ID_BYTES,
    Identifier,
    derive_node_identifier,
    derive_object_identifier,
    membership_prefix_len,
)

# sha256("node-0"), cross-checked with an independent hash implementation
NODE0_DIGEST = "7c6cc41e6bf72e7a7cd7b752d70b12e79212cffc30e18a8b1c3f0b51db459950"

identifiers = st.binary(min_size=ID_BYTES, max_size=ID_BYTES).map(Identifier)


def _value(identifier) -> int:
    return int.from_bytes(identifier, "big")


def test_node_zero_digest_matches_external_oracle():
    assert derive_node_identifier(0).hex() == NODE0_DIGEST


def test_distinct_keys_distinct_identifiers():
    ids = {derive_node_identifier(i) for i in range(256)}
    assert len(ids) == 256


def test_same_key_same_identifier():
    assert derive_node_identifier(7) == derive_node_identifier(7)


def test_payload_flip_changes_identifier():
    a = derive_object_identifier(b"payload")
    b = derive_object_identifier(b"paylohd")
    assert a != b


@given(a=identifiers, b=identifiers)
def test_ordering_matches_numeric_value(a, b):
    assert (a < b) == (_value(a) < _value(b))
    assert (a <= b) == (_value(a) <= _value(b))


def _bit_lsb_first(identifier, position):
    return (_value(identifier) >> position) & 1


@given(a=identifiers, b=identifiers)
def test_membership_prefix_matches_bitwise_oracle(a, b):
    expected = 0
    while expected < ID_BITS and _bit_lsb_first(a, expected) == _bit_lsb_first(b, expected):
        expected += 1
    assert membership_prefix_len(a, b) == expected


def test_membership_prefix_boundaries():
    a = Identifier(b"\x00" * 32)
    assert membership_prefix_len(a, a) == ID_BITS
    b = Identifier(b"\x00" * 31 + b"\x01")   # differs in the lowest bit
    assert membership_prefix_len(a, b) == 0
