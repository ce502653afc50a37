"""Skip-graph structure, floor search, search starts, and replica resolution."""
import random
from bisect import bisect_right, insort

import pytest
from hypothesis import given, settings, strategies as st

from chainsim.consensus import select_validators
from chainsim.identity import Identifier, ZERO_ID
from chainsim.overlay import (
    DuplicateAnnouncement,
    EmptyOverlay,
    KIND_CONTROLLER,
    KIND_DATA,
    LEFT,
    RIGHT,
    OverlayError,
    SkipGraph,
    UnknownStart,
)
from conftest import make_cfg


def assert_placed(graph: SkipGraph, ident: Identifier) -> None:
    """A new vertex sits between its level-0 neighbours: its insert found the
    floor.  A misplaced vertex corrupts the lists, and later searches may
    then loop forever, so builders check every insert at once."""
    vertex = graph.by_id[ident]
    left, right = vertex.left[0], vertex.right[0]
    assert left is None or left.identifier < ident
    assert right is None or ident < right.identifier


def build_overlay(count: int, seed: int) -> tuple[SkipGraph, list[Identifier]]:
    rng = random.Random(seed)
    graph = SkipGraph(max_vertices=count)
    ids = []
    for i in range(count):
        ident = Identifier(rng.randbytes(32))
        graph.announce(ident, i, KIND_CONTROLLER)
        assert_placed(graph, ident)
        ids.append(ident)
    return graph, ids


def build_overlay_with_data(count: int, data: int,
                            seed: int) -> tuple[SkipGraph, list[Identifier]]:
    """`count` controllers (ids[i] is node i's), then `data` data vertices
    inserted by random owners."""
    graph, ids = build_overlay(count, seed)
    rng = random.Random(f"data-{seed}")
    for _ in range(data):
        ident = Identifier(rng.randbytes(32))
        graph.announce(ident, rng.randrange(count), KIND_DATA)
        assert_placed(graph, ident)
        ids.append(ident)
    return graph, ids


def brute_force_home(graph: SkipGraph, owner: int, target: Identifier):
    """The owner's hosted vertex with the greatest id <= target, else its smallest."""
    hosted = [v for v in graph.in_order() if v.owner == owner]
    below = [v for v in hosted if v.identifier <= target]
    return below[-1] if below else hosted[0]


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
    # a node's controller vertex is the first vertex it hosts
    with pytest.raises(DuplicateAnnouncement):
        graph.announce(Identifier(b"\x43" * 32), 0, KIND_CONTROLLER)


def test_exact_hit_returns_all_announcers():
    graph, ids = build_overlay(8, seed=2)
    target = ids[3]
    graph.join(target, 6)   # replica announcer
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
    assert result.path[-1] == graph.by_id[result.identifier].owner
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
        assert path[-1] == graph.by_id[result.identifier].owner
        assert result.hop_count == len(path) - 1
    for ident in rng.sample(data_ids, 60):   # replica joins
        announcers = graph.by_id[ident].announcers
        owner = rng.choice([i for i in range(12) if i not in announcers])
        assert_hop_path(graph.join(ident, owner), owner)


def links(graph: SkipGraph) -> dict:
    """Every vertex's neighbours at every level and its owner's vertices
    on either side, as ids."""
    ident = lambda v: None if v is None else v.identifier
    return {vertex.identifier: ([ident(v) for v in vertex.left + vertex.right],
                                ident(vertex.prev_own), ident(vertex.next_own))
            for vertex in graph.by_id.values()}


def oracle_links(graph: SkipGraph) -> dict:
    """Every vertex's neighbours at every level, as `links` lists them,
    found from the sorted ids alone: at level l, the nearest vertex on
    either side among those sharing its first l membership bits, the
    lowest l bits of the id."""
    ordered = sorted(graph.by_id)
    levels = graph.levels
    expected = {ident: [None] * (2 * levels) for ident in ordered}
    for level in range(levels):
        mask = (1 << level) - 1
        last = {}   # lowest `level` bits -> the last id seen with them
        for ident in ordered:
            key = int.from_bytes(ident, "big") & mask
            before = last.get(key)
            if before is not None:
                expected[ident][level] = before
                expected[before][levels + level] = ident
            last[key] = ident
    return expected


def test_inserts_link_the_nearest_member_on_each_side_and_visit_every_changed_owner():
    # node 3 owns long runs of adjacent vertices, as in
    # test_search_paths_have_no_repeated_owners, so an insert's level walks
    # cross several of its vertices in a row; after each insert every link
    # is the oracle's, and the owner of every vertex whose links it changed
    # is on its path, the only nodes it messaged
    rng = random.Random(8)
    graph = SkipGraph(max_vertices=12)
    for i in range(252):
        owner, kind = (i, KIND_CONTROLLER) if i < 12 else (
            3 if i % 4 else rng.randrange(12), KIND_DATA)
        before = links(graph)
        ident = Identifier(rng.randbytes(32))
        path = graph.announce(ident, owner, kind)
        after = links(graph)
        assert {key: level_links for key, (level_links, _, _) in after.items()} == (
            oracle_links(graph))
        changed = {key for key in after if before.get(key) != after[key]}
        assert ident in changed
        assert {graph.by_id[key].owner for key in changed} <= {owner, *path}


def test_announces_start_at_the_owners_floor_hosted_vertex():
    # a data insert routes like a search from the announcer's own hosted
    # vertex nearest below the id, not from the introducer (node 0), and
    # adds a vertex its owner then hosts; a replica join is one message
    # from the holder to the vertex's host, which the notify named, and
    # links nothing
    graph, _ = build_overlay(16, seed=9)
    # a stream apart from build_overlay's, whose first draw is node 0's
    # controller id, so that every id below is a new vertex
    rng = random.Random("announce-9")
    for _ in range(40):
        ident = Identifier(rng.randbytes(32))
        first, second = rng.sample(range(1, 16), 2)
        assert ident not in graph.by_id
        search_path = graph.search_num_id(first, ident).path
        path = graph.announce(ident, first, KIND_DATA)
        assert path[:len(search_path)] == search_path
        order, before = graph.in_order(), links(graph)
        assert graph.join(ident, second) == [second, first]
        assert graph.in_order() == order and links(graph) == before
        assert graph.by_id[ident].announcers == [first, second]
        assert graph.search_num_id(second, ident).identifier == ident
        graph.check_invariants()


def test_a_repeat_announce_of_any_kind_raises():
    # an existing vertex is never inserted again, whoever announces it and
    # whatever the kind, and a node already among its announcers, its host
    # or a replica holder, may not join it
    graph, ids = build_overlay(8, seed=9)
    assert graph.join(ids[3], 5) == [5, 3]
    before = links(graph)
    for node in (3, 5, 6):
        for kind in (KIND_CONTROLLER, KIND_DATA):
            with pytest.raises(DuplicateAnnouncement):
                graph.announce(ids[3], node, kind)
    for node in (3, 5):
        with pytest.raises(DuplicateAnnouncement):
            graph.join(ids[3], node)
    assert graph.by_id[ids[3]].announcers == [3, 5]
    assert links(graph) == before


def test_search_starts_at_the_owners_floor_hosted_vertex():
    # a node hosts its controller vertex and every data vertex it inserted;
    # a search leaves from the greatest of them <= target, else the smallest
    graph, ids = build_overlay_with_data(16, 160, seed=10)
    rng = random.Random(10)
    targets = [ZERO_ID] + [Identifier(rng.randbytes(32)) for _ in range(200)]
    starts_below = 0
    for target in targets:
        owner = rng.randrange(16)
        home = brute_force_home(graph, owner, target)
        starts_below += home.identifier <= target
        result = graph.search_num_id(owner, target)
        assert result.path[0] == owner
        assert result.path == graph._search(home, target)[1]
        assert result.identifier == brute_force_floor(ids, target)
    assert 0 < starts_below < len(targets)   # both sides of the rule ran
    # a search for an id the owner hosts takes no hop
    for vertex in graph.by_id.values():
        result = graph.search_num_id(vertex.owner, vertex.identifier)
        assert (result.hop_count, result.path) == (0, [vertex.owner])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**30), nodes=st.integers(2, 12), data=st.integers(0, 80))
def test_search_start_is_the_brute_force_floor_and_keeps_validators(seed, nodes, data):
    graph, ids = build_overlay_with_data(nodes, data, seed)
    rng = random.Random(seed)
    for _ in range(20):
        owner, target = rng.randrange(nodes), Identifier(rng.randbytes(32))
        assert graph._home(owner, target) is brute_force_home(graph, owner, target)
    # on this snapshot, the validators and the ends of their searches are
    # those a search from the owner's controller vertex gives
    controllers = sorted((ids[i], i) for i in range(nodes))
    cfg = make_cfg(nodes=nodes)
    entity, owner = Identifier(rng.randbytes(32)), rng.randrange(nodes)
    tickets = select_validators(entity, owner, controllers, graph, cfg)
    graph._home = lambda start, target: graph.by_id[ids[start]]
    from_controller = select_validators(entity, owner, controllers, graph, cfg)
    assert [(t.validator, t.path[0], t.path[-1]) for t in tickets] == [
        (t.validator, owner, t.validator) for t in from_controller]
    assert all(t.path[-1] == t.validator for t in from_controller)


def bisected_floor(sorted_ids: list[Identifier], target: Identifier) -> Identifier:
    """The greatest id <= target, else the smallest: the oracle of every search."""
    i = bisect_right(sorted_ids, target)
    return sorted_ids[i - 1] if i else sorted_ids[0]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**30), nodes=st.integers(2, 64), data=st.integers(0, 1436))
def test_every_search_returns_the_bisected_floor(seed, nodes, data):
    # each owner on a path resumes at its own vertex nearest below the
    # target; whatever the start, the search still ends at the exact floor
    graph, ids = build_overlay_with_data(nodes, data, seed)
    graph.check_invariants()
    sorted_ids = sorted(ids)
    rng = random.Random(f"targets-{seed}")
    lowest = [hosted[0] for hosted in graph.hosted.values()]
    # random ids, exact ids, and ids just below some owner's lowest vertex
    # or below one of the smallest ids, so that the owner, or many owners,
    # host nothing <= target and their searches start above it
    value = lambda i: int.from_bytes(i, "big")
    below = [max(0, value(i) - 1) for i in rng.sample(lowest, min(3, nodes)) + sorted_ids[:6]]
    targets = ([Identifier(rng.randbytes(32)) for _ in range(4)] + rng.choices(ids, k=3)
               + [ZERO_ID] + [Identifier(t.to_bytes(32, "big")) for t in below])
    starts_above = 0
    for target in targets:
        floor = bisected_floor(sorted_ids, target)
        for owner in range(nodes):
            starts_above += graph._home(owner, target).identifier > target
            result = graph.search_num_id(owner, target)
            assert result.identifier == floor
            assert_hop_path(result.path, owner)
            assert result.path[-1] == graph.by_id[floor].owner
    assert starts_above
    # inserts find their place by the same search from their owner's home
    for target in targets[:4]:
        graph.announce(target, rng.randrange(nodes), KIND_DATA)
        assert_placed(graph, target)
        insort(sorted_ids, target)
    graph.check_invariants()
    assert [v.identifier for v in graph.in_order()] == sorted_ids


def bisected_resume(graph: SkipGraph, vertex, target: Identifier):
    """The owner's hosted vertex with the greatest id <= target, else `vertex`."""
    ids = graph.hosted[vertex.owner]
    i = bisect_right(ids, target)
    return graph.by_id[ids[i - 1]] if i else vertex


def resume_case(vertex, target: Identifier) -> str:
    """Which of `_resume`'s early returns applies, or "bisect"."""
    if vertex.identifier <= target:
        nxt = vertex.next_own
        return "next-above" if nxt is None or nxt.identifier > target else "bisect"
    if vertex.prev_own is None:
        return "none-below"
    return "prev-at-or-below" if vertex.prev_own.identifier <= target else "bisect"


def test_own_vertex_links_follow_each_owners_sorted_ids():
    graph, _ = build_overlay_with_data(12, 300, seed=5)
    for owner, ids in graph.hosted.items():
        vertices = [graph.by_id[i] for i in ids]
        assert [v.prev_own for v in vertices] == [None] + vertices[:-1]
        assert [v.next_own for v in vertices] == vertices[1:] + [None]


@pytest.mark.parametrize("case", ["next-above", "none-below", "prev-at-or-below", "bisect"])
def test_each_resume_case_returns_the_bisected_floor(case):
    # every early return of `_resume` gives what bisecting the owner's
    # hosted ids gives, and so does the fallback that still bisects
    graph, ids = build_overlay_with_data(12, 300, seed=5)
    rng = random.Random(f"resume-{case}")
    value = lambda i: int.from_bytes(i, "big")
    seen = 0
    for vertex in graph.by_id.values():
        # targets just below, at and just above some of the owner's ids and
        # the vertex's own, the lowest id, and random ones
        near = [value(i) + d for i in graph.hosted[vertex.owner] for d in (-1, 0, 1)]
        near = rng.sample(near, 6) + [value(vertex.identifier) + d for d in (-1, 0, 1)]
        targets = [Identifier(max(0, t).to_bytes(32, "big")) for t in near]
        targets += [ZERO_ID] + [Identifier(rng.randbytes(32)) for _ in range(2)]
        for target in targets:
            if resume_case(vertex, target) == case:
                assert graph._resume(vertex, target) is bisected_resume(graph, vertex, target)
                seen += 1
    assert seen >= 12


def id_at(position: int, membership: int) -> Identifier:
    """An id ordered by `position` (its leading byte) whose membership
    vector starts with the bits of `membership` (its trailing byte)."""
    return Identifier(bytes([position]) + bytes(30) + bytes([membership]))


def test_a_resume_below_the_target_walks_right_again():
    # node 0 hosts only a, above the target and alone in every list above
    # level 0; its search walks left at level 0 to x, where node 1 resumes
    # at its floor h, below the target, and so skips node 3's z; the true
    # floor y lies between h and the target, so the level-0 walk must turn
    # right again before the search ends
    h, y, target, z, x, a = (id_at(p, m) for p, m in (
        (0x10, 0), (0x20, 0), (0x30, 0), (0x38, 0), (0x40, 0), (0x50, 1)))
    graph = SkipGraph(max_vertices=8)
    for ident, owner in ((a, 0), (x, 1), (y, 2), (z, 3)):
        graph.announce(ident, owner, KIND_CONTROLLER)
    graph.announce(h, 1, KIND_DATA)
    assert all(link is None for link in graph.by_id[a].left[1:])
    result = graph.search_num_id(0, target)
    # without the resume the walk would go a, x, z, y: path [0, 1, 3, 2]
    assert (result.identifier, result.path) == (y, [0, 1, 2])
    # an insert there lands between y and z
    graph.announce(target, 0, KIND_DATA)
    graph.check_invariants()
    assert [v.identifier for v in graph.in_order()] == [h, y, target, z, x, a]


def end_searches_beside_the_floor(monkeypatch, side: str) -> None:
    """Make every search end at its true floor's neighbour on `side`
    (LEFT or RIGHT) instead, where the floor has one."""
    search = SkipGraph._search

    def beside_the_floor(graph, start, target):
        floor, path = search(graph, start, target)
        return getattr(floor, side)[0] or floor, path

    monkeypatch.setattr(SkipGraph, "_search", beside_the_floor)


@pytest.mark.parametrize("side, below_the_minimum", [(LEFT, False), (RIGHT, True)],
                         ids=["left-of-floor", "right-of-minimum"])
def test_an_insert_whose_search_misses_the_floor_is_refused(monkeypatch, side,
                                                            below_the_minimum):
    # a vertex spliced beside its floor would break the level-0 order;
    # below the global minimum, the search falls back to the minimum itself
    graph, ids = build_overlay(16, seed=11)
    ordered = sorted(ids)
    if below_the_minimum:
        target = Identifier(bytes(32))
    else:   # between the 3rd and 4th vertices, so the floor has a left neighbour
        target = Identifier((int.from_bytes(ordered[2], "big") + 1).to_bytes(32, "big"))
    assert target not in graph.by_id
    end_searches_beside_the_floor(monkeypatch, side)
    with pytest.raises(OverlayError, match="not at its floor"):
        graph.announce(target, 0, KIND_DATA)
    # the overlay is left as it was
    assert target not in graph.by_id and target not in graph.hosted[0]
    graph.check_invariants()


def test_a_validator_search_that_misses_its_vertex_is_refused(monkeypatch):
    graph, ids = build_overlay(16, seed=5)
    controllers = sorted((ident, i) for i, ident in enumerate(ids))
    cfg = make_cfg(nodes=16, validators_per_entity=6, signature_threshold=4)
    entity = Identifier(b"\x31" * 32)
    assert len(select_validators(entity, 3, controllers, graph, cfg)) == 6
    # six validators: at least one vertex is not the global minimum
    end_searches_beside_the_floor(monkeypatch, LEFT)
    with pytest.raises(OverlayError, match="not at validator"):
        select_validators(entity, 3, controllers, graph, cfg)


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
