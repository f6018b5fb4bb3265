"""Euclidean minimum spanning trees and the zero-weight reuse variant.

All tree computations share one deterministic tie-break: candidate edges are
compared by (weight, min endpoint id, max endpoint id). This makes every
result reproducible and lets the containment lemma (a zero-weight MST is a
subset of the free edges and the Euclidean MST) hold exactly, not just for
instances with unique distances.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

from .geom import distance
from .model import Edge, Hypergraph, SupportGraph, edge_key


class EmptyCoreError(Exception):
    """No vertex is shared by all hyperedges, so the star seed is undefined."""


def mst_with_free_edges(ids, free, h: Hypergraph) -> SupportGraph:
    """Prim's algorithm where edges in `free` weigh zero.

    When a vertex joins the tree, its free neighbours are offered first (at
    weight zero) and marked, then the remaining outside vertices at their
    Euclidean distance. The output is always a subset of `free` united with
    the Euclidean MST of `ids`.
    """
    id_list = sorted(set(ids))
    if not id_list:
        raise ValueError("cannot span an empty vertex set")
    id_set = set(id_list)

    free_adj: dict[int, set[int]] = {v: set() for v in id_list}
    for a, b in free:
        u, v = edge_key(a, b)
        if u not in id_set or v not in id_set:
            raise ValueError(f"free edge ({u}, {v}) has an endpoint outside the vertex set")
        free_adj[u].add(v)
        free_adj[v].add(u)

    if len(id_list) == 1:
        return SupportGraph(frozenset())

    xs = {v: h.vertices[v].x for v in id_list}
    ys = {v: h.vertices[v].y for v in id_list}
    outside = id_list[1:]
    # best[v] = cheapest known edge into v, keyed (weight, min id, max id).
    # The heap holds every key best has held; on pop, keys no longer in
    # best are skipped, so the pop is the minimum of best.
    best: dict[int, tuple[float, int, int]] = {}
    heap: list[tuple[float, int, int, int]] = []
    chosen: list[Edge] = []

    def offer_from(x: int) -> None:
        px, py = xs[x], ys[x]
        marked = free_adj[x]
        for v in marked:
            key = (0.0,) + edge_key(x, v)
            if v not in best or key < best[v]:
                best[v] = key
                heappush(heap, key + (v,))
        for v in outside:
            if v in marked:
                continue
            w = math.hypot(xs[v] - px, ys[v] - py)  # distance(pos[x], pos[v])
            cur = best.get(v)
            if cur is None or w <= cur[0]:
                key = (w,) + edge_key(x, v)
                if cur is None or key < cur:
                    best[v] = key
                    heappush(heap, key + (v,))

    x = id_list[0]
    while True:
        # x joins the tree: it is no longer a free neighbour to offer.
        for v in free_adj[x]:
            free_adj[v].discard(x)
        if not outside:
            break
        offer_from(x)
        while True:
            w, a, b, x = heappop(heap)
            if best.get(x) == (w, a, b):
                break
        del best[x]
        outside.remove(x)
        chosen.append((a, b))

    return SupportGraph(frozenset(chosen))


def emst(ids, h: Hypergraph) -> SupportGraph:
    """Euclidean minimum spanning tree of `ids` under the global tie-break."""
    return mst_with_free_edges(ids, (), h)


def star_support(h: Hypergraph) -> SupportGraph:
    """EMST of the core plus a spoke from each remaining vertex to its
    nearest core vertex (ties broken by smallest id).

    The result is a plane support tree whenever no three vertices are
    collinear. Raises EmptyCoreError when no vertex lies in every hyperedge.
    """
    core = h.core()
    if not core:
        raise EmptyCoreError("no vertex occurs in all hyperedges")
    edges = set(emst(core, h).edges)
    core_sorted = sorted(core)
    pos = h.vertices
    for v in range(h.n):
        if v in core:
            continue
        target = min(core_sorted, key=lambda c: (distance(pos[v], pos[c]), c))
        edges.add(edge_key(v, target))
    return SupportGraph(frozenset(edges))
