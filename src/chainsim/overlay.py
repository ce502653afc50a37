"""Skip-graph overlay: sorted multi-level lists keyed by identifier.

Level-0 is the full doubly linked list sorted by numeric id.  A vertex
joins the level-l list of every vertex sharing the first l bits of its
membership vector (the identifier bits read least-significant first), so
higher lists are sparse random subsequences with long-range links.  Searches descend levels
greedily and return the floor vertex (greatest id <= target), falling
back to the global minimum.

A node hosts every vertex it inserted, and moving between its own
vertices costs no message, so a routed search starts at the searcher's
hosted vertex nearest below the target, and each owner the path reaches
resumes it at that owner's own hosted vertex nearest below the target,
when it hosts one: hops then grow with the log of the number of nodes,
not of vertices.

An insert (`announce`) is one chain: the search to the floor, then the
floor's owner walks the left side up every level, then the owner of the
level-0 right neighbour walks the right side; the engine charges the
chain's last owner one reply to the inserter with the new vertex's
neighbours (`neighbour_count`).  A replica holder joins an existing vertex
with one message to its host (`join`), which links nothing.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
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
    and `prev_own` and `next_own` its owner's hosted vertices just below and
    above it."""
    __slots__ = ("identifier", "owner", "kind", "announcers", "left", "right",
                 "prev_own", "next_own")

    def __init__(self, identifier: Identifier, owner: int, kind: str, levels: int):
        self.identifier = identifier
        self.owner = owner
        self.kind = kind
        self.announcers: list[int] = [owner]
        self.left: list[Vertex | None] = [None] * levels
        self.right: list[Vertex | None] = [None] * levels
        self.prev_own: Vertex | None = None
        self.next_own: Vertex | None = None


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
            path = []
        else:
            # route from the owner's own vertex nearest below the target, as
            # `search_num_id` does; a controller joining at bootstrap hosts
            # nothing yet, so it starts at the introducer
            start = self._home(owner, identifier) or self.introducer
            path = _prepend_owner(owner, self._insert(vertex, start))
        self.by_id[identifier] = vertex
        self._host(vertex)
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
        """Add `vertex` to its owner's sorted ids and own-vertex links."""
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

    def _insert(self, vertex: Vertex, start: Vertex) -> list[int]:
        """Splice `vertex` in at every level and return the owners its
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

    @staticmethod
    def _splice(vertex: Vertex, level: int, left: Vertex | None, right: Vertex | None):
        vertex.left[level] = left
        vertex.right[level] = right
        if left is not None:
            left.right[level] = vertex
        if right is not None:
            right.left[level] = vertex

    # -- search ---------------------------------------------------------

    def _home(self, owner: int, target: Identifier) -> Vertex | None:
        """The owner's hosted vertex with the greatest id <= target, else its
        smallest one; None when it hosts nothing.  A search starts here,
        and every later owner on its path resumes at its own floor vertex
        (`_resume`).

        A start below the target only moves right, and `_search`'s
        left-moving branch overshoots, so this floor beats the nearest
        hosted vertex on either side.
        """
        ids = self.hosted.get(owner)
        if not ids:
            return None
        i = bisect_right(ids, target)
        return self.by_id[ids[i - 1] if i else ids[0]]

    def _resume(self, vertex: Vertex, target: Identifier) -> Vertex:
        """Where `vertex`'s owner goes on with a search for `target`: its
        hosted vertex with the greatest id <= target, else `vertex` itself
        when it hosts none.

        That vertex is never farther from the floor than `vertex`: it lies
        between `vertex` and the target when `vertex` is below the target,
        and below the target, where the floor is, when `vertex` is above.
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
        """Floor vertex of `target` and the owners visited on the way.

        An owner is appended only when it differs from the previous one,
        so the path comes out compressed: one entry per inter-owner hop.
        Each owner reached resumes at its own vertex nearest below the
        target (`_resume`), which costs no message.  Each level walks left
        while above the target, then right while the next id is <= target;
        a resume that lands below the target on the way left leaves that
        level's right walk still to do.  (From above the target the right
        walk cannot move: a level list is sorted.)
        """
        cur = start
        path = [start.owner]
        for level in range(self.levels - 1, -1, -1):
            if cur.identifier > target:
                nxt = cur.left[level]
                while cur.identifier > target and nxt is not None:
                    cur = nxt
                    if cur.owner != path[-1]:
                        path.append(cur.owner)
                        cur = self._resume(cur, target)
                    nxt = cur.left[level]
            nxt = cur.right[level]
            while nxt is not None and nxt.identifier <= target:
                cur = nxt
                if cur.owner != path[-1]:
                    path.append(cur.owner)
                    # `_resume`'s first case, tested here without the call
                    own = cur.next_own
                    if own is not None and own.identifier <= target:
                        cur = self._resume(cur, target)
                nxt = cur.right[level]
        return cur, path

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


def _prepend_owner(owner: int, path: list[int]) -> list[int]:
    return path if path[0] == owner else [owner] + path
