"""Skip-graph structure, floor search, and replica resolution."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from chainsim.identity import Identifier
from chainsim.overlay import (
    DuplicateAnnouncement,
    EmptyOverlay,
    KIND_CONTROLLER,
    KIND_DATA,
    SkipGraph,
    UnknownStart,
)


def build_overlay(count: int, seed: int) -> tuple[SkipGraph, list[Identifier]]:
    rng = random.Random(seed)
    graph = SkipGraph(max_vertices=count)
    ids = []
    for i in range(count):
        ident = Identifier(rng.randbytes(32))
        graph.announce(ident, i, KIND_CONTROLLER)
        ids.append(ident)
    return graph, ids


def brute_force_floor(ids: list[Identifier], target: Identifier) -> Identifier:
    value = lambda i: int.from_bytes(i, "big")
    below = [i for i in ids if value(i) <= value(target)]
    return max(below, key=value) if below else min(ids, key=value)


def test_first_vertex_has_empty_neighbors():
    graph = SkipGraph(max_vertices=4)
    path = graph.announce(Identifier(b"\x42" * 32), 0, KIND_CONTROLLER)
    assert path == []
    vertex = graph.introducer
    assert vertex.left == [None] * graph.levels
    assert vertex.right == [None] * graph.levels


def test_level_zero_sorted_after_random_inserts():
    graph, ids = build_overlay(8, seed=1)
    ordered = [v.identifier for v in graph.in_order()]
    assert ordered == sorted(ids)


def test_duplicate_announcement_rejected():
    graph = SkipGraph(max_vertices=4)
    ident = Identifier(b"\x42" * 32)
    graph.announce(ident, 0, KIND_CONTROLLER)
    with pytest.raises(DuplicateAnnouncement):
        graph.announce(ident, 0, KIND_CONTROLLER)


def test_exact_hit_returns_all_announcers():
    graph, ids = build_overlay(8, seed=2)
    target = ids[3]
    graph.announce(target, 6, KIND_DATA)   # replica announcer
    result = graph.search_num_id(0, target)
    assert result.identifier == target
    assert graph.by_id[target].announcers == [3, 6]


def test_single_vertex_search():
    graph = SkipGraph(max_vertices=4)
    ident = Identifier(b"\x42" * 32)
    graph.announce(ident, 0, KIND_CONTROLLER)
    result = graph.search_num_id(0, Identifier(b"\x99" * 32))
    assert result.identifier == ident
    assert result.hop_count == 0


def test_search_matches_brute_force_floor():
    graph, ids = build_overlay(64, seed=3)
    rng = random.Random(99)
    for _ in range(500):
        target = Identifier(rng.randbytes(32))
        start = rng.randrange(64)
        assert graph.search_num_id(start, target).identifier == brute_force_floor(ids, target)


def test_search_result_independent_of_start():
    graph, ids = build_overlay(32, seed=4)
    target = Identifier(b"\x55" * 32)
    results = {graph.search_num_id(i, target).identifier for i in range(32)}
    assert len(results) == 1


def test_search_errors():
    graph, _ = build_overlay(8, seed=5)
    with pytest.raises(UnknownStart):
        graph.search_num_id(42, Identifier(b"\x77" * 32))
    with pytest.raises(EmptyOverlay):
        SkipGraph(max_vertices=2).search_num_id(0, Identifier(b"\x77" * 32))


def test_path_starts_at_searcher():
    graph, _ = build_overlay(16, seed=6)
    result = graph.search_num_id(5, Identifier(b"\x11" * 32))
    assert result.path[0] == 5
    assert result.path[-1] == result.terminal
    assert result.hop_count == len(result.path) - 1


def assert_hop_path(path: list[int], first: int) -> None:
    """One entry per inter-owner hop, starting at `first`."""
    assert path[0] == first
    assert all(a != b for a, b in zip(path, path[1:]))


def test_search_paths_have_no_repeated_owners():
    # node 3 owns long runs of adjacent vertices, so a search, or the level
    # scans of an insertion, crosses several of its vertices in a row
    graph, _ = build_overlay(12, seed=8)
    rng = random.Random(8)
    data_ids = []
    for i in range(240):
        owner = 3 if i % 4 else rng.randrange(12)
        ident = Identifier(rng.randbytes(32))
        assert_hop_path(graph.announce(ident, owner, KIND_DATA), owner)
        data_ids.append(ident)
    for _ in range(300):
        start = rng.randrange(12)
        result = graph.search_num_id(start, Identifier(rng.randbytes(32)))
        path = result.path
        assert_hop_path(path, start)
        assert path[-1] == result.terminal
        assert result.hop_count == len(path) - 1
    for ident in rng.sample(data_ids, 60):   # replica joins
        announcers = graph.by_id[ident].announcers
        owner = rng.choice([i for i in range(12) if i not in announcers])
        assert_hop_path(graph.announce(ident, owner, KIND_DATA), owner)


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**30), min_size=1, max_size=40, unique=True))
def test_invariants_hold_under_random_inserts(seeds):
    graph = SkipGraph(max_vertices=len(seeds))
    for i, seed in enumerate(seeds):
        graph.announce(Identifier(random.Random(seed).randbytes(32)),
                       i, KIND_CONTROLLER)
    graph.check_invariants()


def test_dump_lines_cover_every_vertex():
    graph, ids = build_overlay(8, seed=7)
    lines = graph.dump_lines()
    assert len(lines) == 8
    assert [line.split(",")[0] for line in lines] == [i.hex() for i in sorted(ids)]
