"""Skip-graph overlay: sorted multi-level lists keyed by identifier.

Level-0 is the full doubly linked list sorted by numeric id.  A vertex
joins the level-l list of every vertex sharing the first l bits of its
membership vector (the identifier bits read least-significant first), so
higher lists are sparse random subsequences with long-range links.  A
search returns the floor vertex (greatest id <= target), falling back to
the global minimum.

A node hosts every vertex it inserted and holds each one's links, and
moving between its own vertices costs no message, so a search is greedy
over the union of its owner's links: from the owner's hosted vertex
nearest below the target it hops straight to the greatest vertex up to
the target that any of the owner's vertices links to, whose owner goes
on from its own hosted vertex nearest below the target.  Hops then grow
with the log of the number of nodes, not of vertices.  An index of each
owner's links to other owners' vertices, sorted and split at its hosted
vertices (`Vertex.ahead`, `SkipGraph.lead`), makes each hop one
bisection.

An insert (`announce`) is one chain: the search to the floor, then the
floor's owner walks the left side up every level, then the owner of the
level-0 right neighbour walks the right side; the engine charges the
chain's last owner one reply to the inserter with the new vertex's
neighbours (`neighbour_count`).  A replica holder joins an existing vertex
with one message to its host (`join`), which links nothing.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import zip_longest

from .identity import Identifier, membership_prefix_len

KIND_CONTROLLER = "controller"
KIND_DATA = "data-object"

LEFT = "left"
RIGHT = "right"


class OverlayError(Exception):
    pass


class EmptyOverlay(OverlayError):
    pass


class DuplicateAnnouncement(OverlayError):
    def __init__(self, identifier: Identifier, owner: int):
        super().__init__(f"{identifier.hex()[:12]} already announced by node {owner}")


class Vertex:
    """One overlay entry; `left[l]` and `right[l]` are its level-l neighbours,
    `prev_own` and `next_own` its owner's hosted vertices just below and
    above it, and `ahead` the sorted ids of the other owners' vertices that
    its owner links to between it and `next_own`."""
    __slots__ = ("identifier", "owner", "kind", "announcers", "left", "right",
                 "prev_own", "next_own", "ahead")

    def __init__(self, identifier: Identifier, owner: int, kind: str, levels: int):
        self.identifier = identifier
        self.owner = owner
        self.kind = kind
        self.announcers: list[int] = [owner]
        self.left: list[Vertex | None] = [None] * levels
        self.right: list[Vertex | None] = [None] * levels
        self.prev_own: Vertex | None = None
        self.next_own: Vertex | None = None
        self.ahead: list[Identifier] = []


@dataclass(slots=True)
class SearchResult:
    identifier: Identifier
    hop_count: int
    path: list[int]


class SkipGraph:
    def __init__(self, max_vertices: int):
        self.levels = max(1, math.ceil(math.log2(max(2, max_vertices)))) + 2
        self.by_id: dict[Identifier, Vertex] = {}
        self.introducer: Vertex | None = None
        # owner -> sorted identifiers of the vertices it hosts (`Vertex.owner`)
        self.hosted: dict[int, list[Identifier]] = {}
        # owner -> sorted ids of the other owners' vertices it links to below
        # its smallest hosted vertex; the links above are in `Vertex.ahead`.
        # A link counts once per (hosted vertex, linked vertex) pair.
        self.lead: dict[int, list[Identifier]] = {}

    def __len__(self) -> int:
        return len(self.by_id)

    # -- announcement ---------------------------------------------------

    def announce(self, identifier: Identifier, owner: int, kind: str) -> list[int]:
        """Insert a vertex hosted by `owner` and return its insert chain,
        one entry per inter-owner hop (`_insert`)."""
        if identifier in self.by_id:
            raise DuplicateAnnouncement(identifier, self.by_id[identifier].owner)
        # a node's controller vertex is the first vertex it hosts
        if kind == KIND_CONTROLLER and owner in self.hosted:
            raise DuplicateAnnouncement(identifier, owner)
        vertex = Vertex(identifier, owner, kind, self.levels)
        if self.introducer is None:
            self.introducer = vertex
            self._host(vertex)
            path = []
        else:
            # route from the owner's own vertex nearest below the target, as
            # `search_num_id` does; a controller joining at bootstrap hosts
            # nothing yet, so it starts at the introducer
            start = self._home(owner, identifier) or self.introducer
            path = _prepend_owner(owner, self._insert(vertex, start))
        return path

    def join(self, identifier: Identifier, holder: int) -> list[int]:
        """Add a replica holder to a vertex's announcers and return the
        join's path, [holder, host].

        The holder learned the vertex's host from the notify that brought
        it the replica, so a join is one message to the host and links
        nothing; no node joins a vertex it already announced.
        """
        vertex = self.by_id[identifier]
        if holder in vertex.announcers:
            raise DuplicateAnnouncement(identifier, holder)
        vertex.announcers.append(holder)
        return [holder, vertex.owner]

    def neighbour_count(self, identifier: Identifier) -> int:
        """How many distinct vertices the vertex links to, over all levels:
        the entries of its insert's reply."""
        vertex = self.by_id[identifier]
        return len({id(v) for v in vertex.left + vertex.right if v is not None})

    def _host(self, vertex: Vertex) -> None:
        """Add `vertex` to `by_id`, its owner's sorted ids and own-vertex
        links, and take over the owner's links above it from the index list
        below it."""
        self.by_id[vertex.identifier] = vertex
        ids = self.hosted.setdefault(vertex.owner, [])
        i = bisect_left(ids, vertex.identifier)
        ids.insert(i, vertex.identifier)
        prev = self.by_id[ids[i - 1]] if i else None
        nxt = self.by_id[ids[i + 1]] if i + 1 < len(ids) else None
        vertex.prev_own, vertex.next_own = prev, nxt
        if prev is not None:
            prev.next_own = vertex
        if nxt is not None:
            nxt.prev_own = vertex
        below = prev.ahead if prev is not None else self.lead.setdefault(vertex.owner, [])
        cut = bisect_right(below, vertex.identifier)
        vertex.ahead = below[cut:]
        del below[cut:]

    def _index(self, a: Vertex, b: Vertex, update) -> None:
        """Add (`update` is `insort`) or remove (`_discard`) the pair of
        linked vertices `a` and `b` in both owners' index, when they differ.

        Each side's list is the `ahead` of its owner's greatest hosted
        vertex below the other id, else its owner's `lead`; `_resume` finds
        that vertex from the side's own.
        """
        if a.owner != b.owner:
            for near, far in ((a, b), (b, a)):
                floor = self._resume(near, far.identifier)
                update(floor.ahead if floor.identifier < far.identifier
                       else self.lead[near.owner], far.identifier)

    def _insert(self, vertex: Vertex, start: Vertex) -> list[int]:
        """Splice `vertex` in at every level, hosting it first (`_splice`
        finds index lists from hosted vertices), and return the owners its
        insert chain visits, one entry per inter-owner hop.

        The chain is the search to the floor, then every left-level walk
        from the floor's owner, then every right-level walk from the owner
        of the level-0 right neighbour, whose address the floor's owner
        puts in the message.  The level-l neighbour on a side depends only
        on that side's level-(l-1) one, so one side is walked whole before
        the other and the chain never hops between the sides per level.
        """
        floor, path = self._search(start, vertex.identifier)
        if floor.identifier < vertex.identifier:
            left, right = floor, floor.right[0]
        else:  # floor is the global minimum and the new vertex precedes it
            left, right = None, floor
        # a splice anywhere but at the floor would corrupt the level-0 list
        if (right is not None and right.identifier <= vertex.identifier) or (
                left is None and floor.left[0] is not None):
            raise OverlayError(f"search for {vertex.identifier.hex()[:12]} ended at "
                               f"{floor.identifier.hex()[:12]}, not at its floor")
        lefts = self._walk(vertex, left, LEFT, path)
        rights = self._walk(vertex, right, RIGHT, path)
        self._host(vertex)
        for level, (left, right) in enumerate(zip_longest(lefts, rights)):
            self._splice(vertex, level, left, right)
        return path

    def _walk(self, vertex: Vertex, cur: Vertex | None, side: str,
              path: list[int]) -> list[Vertex]:
        """`vertex`'s neighbours towards `side` (LEFT or RIGHT), level by
        level from `cur`, its level-0 one, up to the highest level that has
        one.

        The level-l neighbour is the first vertex sharing >= l membership
        bits with `vertex` on the level-(l-1) list, from the level-(l-1)
        neighbour away from `vertex`.  A visited owner is appended to
        `path` only when it differs from the last entry.
        """
        found = []
        level = 0
        while cur is not None:
            found.append(cur)
            level += 1
            if level == self.levels:
                break
            while cur is not None:
                if cur.owner != path[-1]:
                    path.append(cur.owner)
                if membership_prefix_len(cur.identifier, vertex.identifier) >= level:
                    break
                cur = getattr(cur, side)[level - 1]
        return found

    def _splice(self, vertex: Vertex, level: int, left: Vertex | None,
                right: Vertex | None) -> None:
        """Link `vertex` between `left` and `right`, adjacent on its level-`level`
        list until now, and keep the index: a pair enters it when it first
        links at some level and leaves it when it links at none.

        `vertex` is new and spliced from level 0 up, and a vertex's
        neighbour on a side is the same one a level up or a farther one, so
        `left` (`right`) first links here unless it was `vertex`'s
        neighbour a level below, and `left` and `right`, which `vertex`
        now parts, still link only if they do a level above.
        """
        if left is not None and (level == 0 or vertex.left[level - 1] is not left):
            self._index(vertex, left, insort)
        if right is not None and (level == 0 or vertex.right[level - 1] is not right):
            self._index(vertex, right, insort)
        vertex.left[level] = left
        vertex.right[level] = right
        if left is not None:
            left.right[level] = vertex
        if right is not None:
            right.left[level] = vertex
            if left is not None and (level + 1 == self.levels
                                     or left.right[level + 1] is not right):
                self._index(left, right, _discard)

    # -- search ---------------------------------------------------------

    def _home(self, owner: int, target: Identifier) -> Vertex | None:
        """The owner's hosted vertex with the greatest id <= target, else its
        smallest one; None when it hosts nothing.  A search starts here,
        and every later owner on its path resumes at its own floor vertex
        (`_resume`)."""
        ids = self.hosted.get(owner)
        if not ids:
            return None
        i = bisect_right(ids, target)
        return self.by_id[ids[i - 1] if i else ids[0]]

    def _resume(self, vertex: Vertex, target: Identifier) -> Vertex:
        """Where `vertex`'s owner goes on with a search for `target`: its
        hosted vertex with the greatest id <= target, else `vertex` itself
        when it hosts none.

        The owner's neighbouring vertices settle the common cases at once:
        `vertex` stays when it is below the target and its owner's next
        vertex is not, or when it is above and its owner hosts none below
        it; the owner's previous vertex is the answer when it is at or
        below the target.  Only the rest bisect, as `_home` does.
        """
        if vertex.identifier <= target:
            nxt = vertex.next_own
            if nxt is None or nxt.identifier > target:
                return vertex
        else:
            prev = vertex.prev_own
            if prev is None:
                return vertex
            if prev.identifier <= target:
                return prev
        ids = self.hosted[vertex.owner]
        i = bisect_right(ids, target)
        return self.by_id[ids[i - 1]] if i else vertex

    def _search(self, start: Vertex, target: Identifier) -> tuple[Vertex, list[int]]:
        """Floor vertex of `target` and the owners visited on the way, one
        entry per inter-owner hop.

        Each owner reached goes on from its own vertex nearest below the
        target (`_resume`, which costs no message) and hops to the greatest
        vertex in (that vertex, target] that any of its vertices links to:
        the last such id in that vertex's `ahead`.  When there is none the
        vertex is the floor, since its level-0 right neighbour is one of
        its owner's links.  An owner that hosts nothing <= target hops to
        its greatest link <= target, else to its smallest link, both in its
        `lead`; with an empty `lead` its smallest vertex is the global
        minimum.  Until the search reaches an owner with a vertex <= target,
        each owner's smallest vertex lies below the last one's, and after
        that each owner's floor lies above the last one's, so no owner
        appears twice.
        """
        by_id = self.by_id
        cur = self._resume(start, target)
        path = [cur.owner]
        while True:
            if cur.identifier <= target:
                links = cur.ahead
                i = bisect_right(links, target)
                if not i:
                    return cur, path
                cur = by_id[links[i - 1]]
                path.append(cur.owner)
                # `_resume`'s first case, tested here without the call
                own = cur.next_own
                if own is not None and own.identifier <= target:
                    cur = self._resume(cur, target)
            else:
                links = self.lead[cur.owner]
                if not links:
                    return by_id[self.hosted[cur.owner][0]], path
                i = bisect_right(links, target)
                cur = by_id[links[i - 1] if i else links[0]]
                path.append(cur.owner)
                cur = self._resume(cur, target)

    def search_num_id(self, start: int, target: Identifier) -> SearchResult:
        """Route from node `start`'s hosted vertex nearest below `target`."""
        if not self.by_id:
            raise EmptyOverlay()
        start_vertex = self._home(start, target)
        if start_vertex is None:
            raise UnknownStart(start)
        vertex, path = self._search(start_vertex, target)
        return SearchResult(
            identifier=vertex.identifier,
            hop_count=len(path) - 1,
            path=path,
        )

    # -- inspection -----------------------------------------------------

    def min_vertex(self) -> Vertex:
        if self.introducer is None:
            raise EmptyOverlay()
        cur = self.introducer
        for level in range(self.levels - 1, -1, -1):
            while cur.left[level] is not None:
                cur = cur.left[level]
        return cur

    def in_order(self) -> list[Vertex]:
        if not self.by_id:
            return []
        out = []
        cur = self.min_vertex()
        while cur is not None:
            out.append(cur)
            cur = cur.right[0]
        return out

    def check_invariants(self) -> None:
        ordered = self.in_order()
        assert len(ordered) == len(self.by_id), "level-0 traversal misses vertices"
        for a, b in zip(ordered, ordered[1:]):
            assert a.identifier < b.identifier, "level-0 list not strictly increasing"
        for vertex in self.by_id.values():
            for level in range(self.levels):
                left, right = vertex.left[level], vertex.right[level]
                if left is not None:
                    assert left.identifier < vertex.identifier
                    assert membership_prefix_len(left.identifier, vertex.identifier) >= level
                    assert left.right[level] is vertex
                if right is not None:
                    assert right.identifier > vertex.identifier
                    assert membership_prefix_len(right.identifier, vertex.identifier) >= level
                    assert right.left[level] is vertex
        # the link index holds each owner's distinct (hosted vertex, linked
        # vertex of another owner) pairs, each bucket within its range
        linked = {owner: [] for owner in self.hosted}
        for vertex in self.by_id.values():
            near = {id(v): v for v in vertex.left + vertex.right
                    if v is not None and v.owner != vertex.owner}
            linked[vertex.owner] += [v.identifier for v in near.values()]
        for owner, ids in self.hosted.items():
            buckets = [self.lead[owner]] + [self.by_id[i].ahead for i in ids]
            assert [i for bucket in buckets for i in bucket] == sorted(linked[owner]), (
                "link index differs from the links")
            for low, bucket, high in zip([None] + ids, buckets, ids + [None]):
                assert all((low is None or low < i) and (high is None or i < high)
                           for i in bucket), "link index entry outside its bucket"

    def dump_lines(self) -> list[str]:
        lines = []
        for vertex in self.in_order():
            left, right = vertex.left[0], vertex.right[0]
            lines.append(",".join([
                vertex.identifier.hex(),
                vertex.kind,
                str(vertex.owner),
                left.identifier.hex() if left is not None else "",
                right.identifier.hex() if right is not None else "",
            ]))
        return lines


class UnknownStart(OverlayError):
    def __init__(self, address: int):
        super().__init__(f"node {address} hosts no vertex")


def _discard(ids: list[Identifier], identifier: Identifier) -> None:
    del ids[bisect_left(ids, identifier)]


def _prepend_owner(owner: int, path: list[int]) -> list[int]:
    return path if path[0] == owner else [owner] + path
