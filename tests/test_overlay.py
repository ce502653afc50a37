"""Skip-graph structure, floor search, and replica resolution."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from chainsim.identity import Identifier, address_for
from chainsim.overlay import (
    DuplicateAnnouncement,
    EmptyOverlay,
    KIND_CONTROLLER,
    KIND_DATA,
    NotFound,
    SkipGraph,
    UnknownStart,
)


def build_overlay(count: int, seed: int) -> tuple[SkipGraph, list[Identifier]]:
    rng = random.Random(seed)
    graph = SkipGraph(max_vertices=count)
    ids = []
    for i in range(count):
        ident = Identifier(rng.randbytes(32))
        graph.announce(ident, address_for(i), KIND_CONTROLLER)
        ids.append(ident)
    return graph, ids


def brute_force_floor(ids: list[Identifier], target: Identifier) -> Identifier:
    value = lambda i: int.from_bytes(i, "big")
    below = [i for i in ids if value(i) <= value(target)]
    return max(below, key=value) if below else min(ids, key=value)


def test_first_vertex_has_empty_neighbors():
    graph = SkipGraph(max_vertices=4)
    path = graph.announce(Identifier(b"\x42" * 32), address_for(0), KIND_CONTROLLER)
    assert path == []
    vertex = graph.introducer
    assert all(pair == [None, None] for pair in vertex.neighbors)


def test_level_zero_sorted_after_random_inserts():
    graph, ids = build_overlay(8, seed=1)
    ordered = [v.identifier for v in graph.in_order()]
    assert ordered == sorted(ids)


def test_duplicate_announcement_rejected():
    graph = SkipGraph(max_vertices=4)
    ident = Identifier(b"\x42" * 32)
    graph.announce(ident, address_for(0), KIND_CONTROLLER)
    with pytest.raises(DuplicateAnnouncement):
        graph.announce(ident, address_for(0), KIND_CONTROLLER)


def test_exact_hit_returns_all_announcers():
    graph, ids = build_overlay(8, seed=2)
    target = ids[3]
    graph.announce(target, address_for(6), KIND_DATA)   # replica announcer
    result = graph.search_num_id(address_for(0), target)
    assert result.identifier == target
    assert [a.node_index for a in result.holders] == [3, 6]


def test_single_vertex_search():
    graph = SkipGraph(max_vertices=4)
    ident = Identifier(b"\x42" * 32)
    graph.announce(ident, address_for(0), KIND_CONTROLLER)
    result = graph.search_num_id(address_for(0), Identifier(b"\x99" * 32))
    assert result.identifier == ident
    assert result.hop_count == 0


def test_search_matches_brute_force_floor():
    graph, ids = build_overlay(64, seed=3)
    rng = random.Random(99)
    for _ in range(500):
        target = Identifier(rng.randbytes(32))
        start = address_for(rng.randrange(64))
        assert graph.search_num_id(start, target).identifier == brute_force_floor(ids, target)


def test_search_result_independent_of_start():
    graph, ids = build_overlay(32, seed=4)
    target = Identifier(b"\x55" * 32)
    results = {graph.search_num_id(address_for(i), target).identifier for i in range(32)}
    assert len(results) == 1


def test_resolve_holders_errors():
    graph, _ = build_overlay(8, seed=5)
    with pytest.raises(NotFound):
        graph.resolve_holders(address_for(0), Identifier(b"\x77" * 32))
    with pytest.raises(UnknownStart):
        graph.search_num_id(address_for(42), Identifier(b"\x77" * 32))
    with pytest.raises(EmptyOverlay):
        SkipGraph(max_vertices=2).search_num_id(address_for(0), Identifier(b"\x77" * 32))


def test_path_starts_at_searcher():
    graph, _ = build_overlay(16, seed=6)
    result = graph.search_num_id(address_for(5), Identifier(b"\x11" * 32))
    assert result.path[0] == address_for(5)
    assert result.path[-1] == result.terminal
    assert result.hop_count == len(result.path) - 1


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**30), min_size=1, max_size=40, unique=True))
def test_invariants_hold_under_random_inserts(seeds):
    graph = SkipGraph(max_vertices=len(seeds))
    for i, seed in enumerate(seeds):
        graph.announce(Identifier(random.Random(seed).randbytes(32)),
                       address_for(i), KIND_CONTROLLER)
    graph.check_invariants()


def test_dump_lines_cover_every_vertex():
    graph, ids = build_overlay(8, seed=7)
    lines = graph.dump_lines()
    assert len(lines) == 8
    assert [line.split(",")[0] for line in lines] == [i.hex() for i in sorted(ids)]
