"""Skip-graph overlay: sorted multi-level lists keyed by identifier.

Level-0 is the full doubly linked list sorted by numeric id.  A vertex
joins the level-l list of every vertex sharing the first l bits of its
membership vector (the identifier bits read least-significant first), so
higher lists are sparse random subsequences with long-range links.  Searches descend levels
greedily and return the floor vertex (greatest id <= target), falling
back to the global minimum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
    """One overlay entry; `left[l]` and `right[l]` are its level-l neighbours."""
    __slots__ = ("identifier", "owner", "kind", "announcers", "left", "right")

    def __init__(self, identifier: Identifier, owner: int, kind: str, levels: int):
        self.identifier = identifier
        self.owner = owner
        self.kind = kind
        self.announcers: list[int] = [owner]
        self.left: list[Vertex | None] = [None] * levels
        self.right: list[Vertex | None] = [None] * levels


@dataclass
class SearchResult:
    identifier: Identifier
    terminal: int
    hop_count: int
    path: list[int]


class SkipGraph:
    def __init__(self, max_vertices: int):
        self.levels = max(1, math.ceil(math.log2(max(2, max_vertices)))) + 2
        self.by_id: dict[Identifier, Vertex] = {}
        self.introducer: Vertex | None = None
        self.controller_by_owner: dict[int, Vertex] = {}

    def __len__(self) -> int:
        return len(self.by_id)

    # -- announcement ---------------------------------------------------

    def announce(self, identifier: Identifier, owner: int, kind: str) -> list[int]:
        """Insert (or join as replica announcer) and return the message path."""
        existing = self.by_id.get(identifier)
        if existing is not None:
            if owner in existing.announcers and existing.kind == kind:
                raise DuplicateAnnouncement(identifier, owner)
            _, path = self._search(self.introducer, identifier)
            existing.announcers.append(owner)
            return _prepend_owner(owner, path)
        vertex = Vertex(identifier, owner, kind, self.levels)
        if kind == KIND_CONTROLLER:
            if owner in self.controller_by_owner:
                raise DuplicateAnnouncement(identifier, owner)
            self.controller_by_owner[owner] = vertex
        if self.introducer is None:
            self.by_id[identifier] = vertex
            self.introducer = vertex
            return []
        path = self._insert(vertex)
        self.by_id[identifier] = vertex
        return _prepend_owner(owner, path)

    def _insert(self, vertex: Vertex) -> list[int]:
        floor, path = self._search(self.introducer, vertex.identifier)
        if floor.identifier < vertex.identifier:
            left, right = floor, floor.right[0]
        else:  # floor is the global minimum and the new vertex precedes it
            left, right = None, floor
        self._splice(vertex, 0, left, right)
        for level in range(1, self.levels):
            left = self._scan_for_level(vertex, level, LEFT, path)
            right = self._scan_for_level(vertex, level, RIGHT, path)
            if left is None and right is None:
                break
            self._splice(vertex, level, left, right)
        return path

    def _scan_for_level(self, vertex: Vertex, level: int, side: str,
                        path: list[int]) -> Vertex | None:
        # walk the level-(l-1) list away from the new vertex (towards `side`,
        # LEFT or RIGHT) until a member sharing >= l membership-vector bits
        # appears; a visited owner is appended to `path` only when it differs
        # from the last entry, so the path keeps one entry per inter-owner hop
        below = level - 1
        cur = getattr(vertex, side)[below]
        while cur is not None:
            if cur.owner != path[-1]:
                path.append(cur.owner)
            if membership_prefix_len(cur.identifier, vertex.identifier) >= level:
                break
            cur = getattr(cur, side)[below]
        return cur

    @staticmethod
    def _splice(vertex: Vertex, level: int, left: Vertex | None, right: Vertex | None):
        vertex.left[level] = left
        vertex.right[level] = right
        if left is not None:
            left.right[level] = vertex
        if right is not None:
            right.left[level] = vertex

    # -- search ---------------------------------------------------------

    def _search(self, start: Vertex, target: Identifier) -> tuple[Vertex, list[int]]:
        """Floor vertex of `target` and the owners visited on the way.

        An owner is appended only when it differs from the previous one,
        so the path comes out compressed: one entry per inter-owner hop.
        """
        cur = start
        path = [start.owner]
        for level in range(self.levels - 1, -1, -1):
            if cur.identifier <= target:
                nxt = cur.right[level]
                while nxt is not None and nxt.identifier <= target:
                    cur = nxt
                    if cur.owner != path[-1]:
                        path.append(cur.owner)
                    nxt = cur.right[level]
            else:
                nxt = cur.left[level]
                while cur.identifier > target and nxt is not None:
                    cur = nxt
                    if cur.owner != path[-1]:
                        path.append(cur.owner)
                    nxt = cur.left[level]
        return cur, path

    def search_num_id(self, start: int, target: Identifier) -> SearchResult:
        if not self.by_id:
            raise EmptyOverlay()
        start_vertex = self.controller_by_owner.get(start)
        if start_vertex is None:
            raise UnknownStart(start)
        vertex, path = self._search(start_vertex, target)
        return SearchResult(
            identifier=vertex.identifier,
            terminal=vertex.owner,
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
        super().__init__(f"no controller vertex registered for node {address}")


def _prepend_owner(owner: int, path: list[int]) -> list[int]:
    return path if path[0] == owner else [owner] + path
