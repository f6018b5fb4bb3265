"""Hypergraph and support-graph data model plus all the validity checks.

A support of a hypergraph is a graph on the same vertices in which every
hyperedge induces a connected subgraph. Everything here is an immutable
value; the validators are pure functions.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

from .geom import Point, Segment, bit_mask, coords_conflict, distance
# Re-exported, unused here: the benchmark tracer's self-test checks that it
# rebinds this alias (bench/tests/test_bench.py).
from .geom import segments_conflict  # noqa: F401

# An undirected edge, always stored as (min_id, max_id).
Edge = tuple[int, int]


def edge_key(u: int, v: int) -> Edge:
    """Normalise an undirected edge to (min, max) form."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class DisjointSet:
    """Array-based union-find with union by rank and no path compression,
    so that unions can be rolled back."""

    __slots__ = ("parent", "rank")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            x = p[x]
        return x

    def union(self, a: int, b: int):
        """Join the sets of a and b. Returns a token for undo, or None when
        they were already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        bumped = self.rank[ra] == self.rank[rb]
        self.parent[rb] = ra
        if bumped:
            self.rank[ra] += 1
        return (rb, ra, bumped)

    def undo(self, token) -> None:
        """Reverse the union that returned `token`; unions made after it
        must be undone first."""
        rb, ra, bumped = token
        self.parent[rb] = rb
        if bumped:
            self.rank[ra] -= 1

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)


@dataclass(frozen=True)
class Hypergraph:
    """Fixed vertex positions plus hyperedges as vertex-id sets.

    Invariants enforced at construction: every hyperedge is nonempty, every
    vertex belongs to at least one hyperedge, and all positions are pairwise
    distinct.
    """

    vertices: tuple[Point, ...]
    hyperedges: tuple[frozenset[int], ...]

    def __post_init__(self):
        n = len(self.vertices)
        if n == 0:
            raise ValueError("hypergraph needs at least one vertex")
        if not self.hyperedges:
            raise ValueError("hypergraph needs at least one hyperedge")
        covered: set[int] = set()
        for idx, members in enumerate(self.hyperedges):
            if not members:
                raise ValueError(f"hyperedge {idx} is empty")
            for v in members:
                if not 0 <= v < n:
                    raise ValueError(f"hyperedge {idx} references unknown vertex {v}")
            covered |= members
        if len(covered) != n:
            missing = sorted(set(range(n)) - covered)
            raise ValueError(f"vertices {missing} appear in no hyperedge")
        seen: dict[tuple[float, float], int] = {}
        for i, p in enumerate(self.vertices):
            key = (p.x, p.y)
            if key in seen:
                raise ValueError(f"vertices {seen[key]} and {i} share position {key}")
            seen[key] = i

    @classmethod
    def build(cls, points, hyperedges) -> "Hypergraph":
        """Construct from plain (x, y) pairs and iterables of vertex ids."""
        pts = tuple(p if isinstance(p, Point) else Point(float(p[0]), float(p[1]))
                    for p in points)
        sets = tuple(frozenset(int(v) for v in s) for s in hyperedges)
        return cls(pts, sets)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def k(self) -> int:
        return len(self.hyperedges)

    @cached_property
    def member_masks(self) -> tuple[int, ...]:
        """Each hyperedge's vertices as a bitmask, built on first use."""
        return tuple(bit_mask(members, self.n) for members in self.hyperedges)

    @cached_property
    def vertex_masks(self) -> tuple[int, ...]:
        """Each vertex's hyperedges as a bitmask, built on first use."""
        masks = [0] * self.n
        for s, members in enumerate(self.hyperedges):
            for v in members:
                masks[v] |= 1 << s
        return tuple(masks)

    def edge_length(self, u: int, v: int) -> float:
        return distance(self.vertices[u], self.vertices[v])

    def segment(self, u: int, v: int) -> Segment:
        return Segment(self.vertices[u], self.vertices[v])

    def core(self) -> frozenset[int]:
        """Vertices shared by every hyperedge (may be empty)."""
        out = set(self.hyperedges[0])
        for s in self.hyperedges[1:]:
            out &= s
        return frozenset(out)


@dataclass(frozen=True)
class SupportGraph:
    """An undirected edge set over vertex ids, each edge stored once."""

    edges: frozenset[Edge]

    def __post_init__(self):
        for u, v in self.edges:
            if u >= v:
                raise ValueError(f"edge ({u}, {v}) not in (min, max) form")

    @classmethod
    def from_pairs(cls, pairs) -> "SupportGraph":
        return cls(frozenset(edge_key(int(u), int(v)) for u, v in pairs))

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def __len__(self) -> int:
        return len(self.edges)


_LABELS = {(False, False): "u", (False, True): "t", (True, False): "p", (True, True): "pt"}


@dataclass(frozen=True)
class ConstraintSet:
    """Which of the two structural restrictions a solve must honour."""

    require_plane: bool = False
    require_acyclic: bool = False

    @property
    def label(self) -> str:
        return _LABELS[(self.require_plane, self.require_acyclic)]

    @classmethod
    def from_label(cls, label: str) -> "ConstraintSet":
        key = label.strip().lower()
        for (plane, acyclic), name in _LABELS.items():
            if name == key:
                return cls(plane, acyclic)
        raise ValueError(f"unknown constraint label {label!r}; expected u, t, p or pt")


UNRESTRICTED = ConstraintSet(False, False)
TREE = ConstraintSet(False, True)
PLANE = ConstraintSet(True, False)
PLANE_TREE = ConstraintSet(True, True)
ALL_CONSTRAINTS = (UNRESTRICTED, TREE, PLANE, PLANE_TREE)


def _adjacency(g: SupportGraph, n: int) -> list[int]:
    """Each vertex's neighbours in g as a bitmask over vertex ids; edges
    with an end outside 0..n-1 touch no hyperedge and are left out."""
    adj = [0] * n
    for u, v in g.edges:
        if 0 <= u and v < n:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


def _connected_within(adj: list[int], members: int) -> bool:
    """Breadth-first search from the lowest vertex of the bitmask `members`
    through the edges that stay inside it: does it reach every member?"""
    reached = frontier = members & -members
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = step & members & ~reached
        reached |= frontier
    return reached == members


def hyperedge_induced_connected(g: SupportGraph, h: Hypergraph, index: int) -> bool:
    """Does the restriction of g to hyperedge `index` connect all its vertices?"""
    if not 0 <= index < h.k:
        raise IndexError(f"hyperedge index {index} out of range 0..{h.k - 1}")
    return _connected_within(_adjacency(g, h.n), h.member_masks[index])


def is_support(g: SupportGraph, h: Hypergraph) -> bool:
    """True iff every hyperedge induces a connected subgraph in g."""
    adj = _adjacency(g, h.n)
    return all(_connected_within(adj, members) for members in h.member_masks)


def conflict_index_pairs(h: Hypergraph, edges) -> Iterator[tuple[int, int]]:
    """Index pairs (i, j), i < j, of edges whose segments conflict, in
    row-major order. Lazy, so a caller can stop at the first conflict."""
    pts = h.vertices
    segs = [(pts[u].x, pts[u].y, pts[v].x, pts[v].y) for u, v in edges]
    for i, seg in enumerate(segs):
        for j in range(i + 1, len(segs)):
            if coords_conflict(seg, segs[j]):
                yield i, j


def crossing_count(g: SupportGraph, h: Hypergraph) -> int:
    """The number of pairs of distinct support edges whose segments conflict."""
    return sum(1 for _ in conflict_index_pairs(h, g.sorted_edges()))


def is_plane(g: SupportGraph, h: Hypergraph) -> bool:
    """True iff no two distinct support edges conflict."""
    return next(conflict_index_pairs(h, g.sorted_edges()), None) is None


def is_acyclic(g: SupportGraph) -> bool:
    """True iff g contains no cycle."""
    if not g.edges:
        return True
    top = max(v for _, v in g.edges)
    dsu = DisjointSet(top + 1)
    for u, v in g.sorted_edges():
        if not dsu.union(u, v):
            return False
    return True


def total_length(g: SupportGraph, h: Hypergraph) -> float:
    """Sum of Euclidean lengths over the distinct edges of g, correctly
    rounded, so that it does not depend on the order of g's edges."""
    return math.fsum(h.edge_length(u, v) for u, v in g.edges)


def satisfies(g: SupportGraph, h: Hypergraph, c: ConstraintSet) -> bool:
    """is_support, plus planarity/acyclicity when the constraint set asks."""
    if not is_support(g, h):
        return False
    if c.require_plane and not is_plane(g, h):
        return False
    if c.require_acyclic and not is_acyclic(g):
        return False
    return True


def candidate_edges(h: Hypergraph) -> list[Edge]:
    """All vertex pairs sharing at least one hyperedge, sorted.

    Pairs sharing no hyperedge can never be part of a support, so every
    solver in this package restricts itself to this universe.
    """
    pairs: set[Edge] = set()
    for members in h.hyperedges:
        mem = sorted(members)
        for i in range(len(mem)):
            for j in range(i + 1, len(mem)):
                pairs.add((mem[i], mem[j]))
    return sorted(pairs)
