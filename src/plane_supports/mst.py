"""Euclidean minimum spanning trees and the zero-weight reuse variant.

All tree computations share one deterministic tie-break: candidate edges are
compared by (weight, min endpoint id, max endpoint id). That is a strict
total order on edges, so the minimum spanning tree under it is unique (Prim
1957; Kruskal 1956) and any correct MST algorithm returns the same edge set.
This makes every result reproducible and lets the containment lemma (a
zero-weight MST is a subset of the free edges and the Euclidean MST) hold
exactly, not just for instances with unique distances.
"""

from __future__ import annotations

import math

from .geom import distance
from .model import Edge, Hypergraph, SupportGraph, edge_key


class EmptyCoreError(Exception):
    """No vertex is shared by all hyperedges, so the star seed is undefined."""


def mst_with_free_edges(ids, free, h: Hypergraph) -> SupportGraph:
    """Minimum spanning tree of `ids` where edges in `free` weigh zero and
    every other edge its Euclidean length.

    A dense-array Prim over local indices 0..m-1, assigned in id order and
    grown from the smallest id. Each step makes one pass over the outside
    vertices: it relaxes each one's cheapest edge into the tree through the
    vertex that just joined, and keeps the minimum by (weight, tie key). The
    tie key min_local * m + max_local orders edges as (min id, max id) does,
    because local order is id order. The minimum leaves the outside list by
    swap-and-pop. The output is always a subset of `free` united with the
    Euclidean MST of `ids`.
    """
    id_list = sorted(set(ids))
    if not id_list:
        raise ValueError("cannot span an empty vertex set")
    m = len(id_list)
    local = {v: i for i, v in enumerate(id_list)}

    free_adj: list[set[int]] = [set() for _ in range(m)]
    for a, b in free:
        u, v = edge_key(a, b)
        if u not in local or v not in local:
            raise ValueError(f"free edge ({u}, {v}) has an endpoint outside the vertex set")
        free_adj[local[u]].add(local[v])
        free_adj[local[v]].add(local[u])

    if m == 1:
        return SupportGraph(frozenset())

    hypot = math.hypot
    pos = h.vertices
    xs = [pos[v].x for v in id_list]
    ys = [pos[v].y for v in id_list]
    # best_w[v], best_k[v]: weight and tie key of the cheapest known edge
    # from the tree to outside vertex v.
    no_key = m * m  # above every tie key
    best_w = [math.inf] * m
    best_k = [no_key] * m
    outside = list(range(1, m))
    chosen: list[Edge] = []
    x = 0
    while outside:
        px, py, marked = xs[x], ys[x], free_adj[x]
        bw, bk, bi = math.inf, no_key, 0
        for i, v in enumerate(outside):
            w = 0.0 if v in marked else hypot(xs[v] - px, ys[v] - py)
            cw = best_w[v]
            if w <= cw:
                key = x * m + v if x < v else v * m + x
                if w < cw or key < best_k[v]:
                    best_w[v] = cw = w
                    best_k[v] = key
            if cw <= bw and (cw < bw or best_k[v] < bk):
                bw, bk, bi = cw, best_k[v], i
        x, outside[bi] = outside[bi], outside[-1]
        outside.pop()
        chosen.append((id_list[bk // m], id_list[bk % m]))

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
