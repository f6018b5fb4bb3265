"""Hypergraph and support-graph data model plus all the validity checks.

A support of a hypergraph is a graph on the same vertices in which every
hyperedge induces a connected subgraph. Everything here is an immutable
value; the validators are pure functions.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .geom import Point, Segment, distance, segments_conflict

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


def hyperedge_induced_connected(g: SupportGraph, h: Hypergraph, index: int) -> bool:
    """Does the restriction of g to hyperedge `index` connect all its vertices?"""
    if not 0 <= index < h.k:
        raise IndexError(f"hyperedge index {index} out of range 0..{h.k - 1}")
    members = h.hyperedges[index]
    if len(members) <= 1:
        return True
    adj: dict[int, list[int]] = {v: [] for v in members}
    for u, v in g.edges:
        if u in members and v in members:
            adj[u].append(v)
            adj[v].append(u)
    start = next(iter(members))
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(members)


def is_support(g: SupportGraph, h: Hypergraph) -> bool:
    """True iff every hyperedge induces a connected subgraph in g."""
    return all(hyperedge_induced_connected(g, h, i) for i in range(h.k))


def conflict_index_pairs(h: Hypergraph, edges) -> Iterator[tuple[int, int]]:
    """Index pairs (i, j), i < j, of edges whose segments conflict, in
    row-major order. Lazy, so a caller can stop at the first conflict."""
    segs = [h.segment(u, v) for u, v in edges]
    for i, seg in enumerate(segs):
        for j in range(i + 1, len(segs)):
            if segments_conflict(seg, segs[j]):
                yield i, j


def conflicting_edge_pairs(g: SupportGraph, h: Hypergraph) -> list[tuple[Edge, Edge]]:
    """All pairs of distinct support edges whose segments conflict."""
    edges = g.sorted_edges()
    return [(edges[i], edges[j]) for i, j in conflict_index_pairs(h, edges)]


def crossing_count(g: SupportGraph, h: Hypergraph) -> int:
    return len(conflicting_edge_pairs(g, h))


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
    """Sum of Euclidean lengths over the distinct edges of g."""
    return sum(h.edge_length(u, v) for u, v in g.edges)


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
