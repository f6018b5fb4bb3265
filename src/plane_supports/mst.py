"""Euclidean minimum spanning trees and the zero-weight reuse variant.

All tree computations share one deterministic tie-break: candidate edges are
compared by (weight, min endpoint id, max endpoint id). That is a strict
total order on edges, so the minimum spanning tree under it is unique (Prim
1957; Kruskal 1956) and any correct MST algorithm returns the same edge set.
This makes every result reproducible and lets the containment lemma (a
zero-weight MST is a subset of the free edges and the Euclidean MST) hold
exactly, not just for instances with unique distances.

Prim builds the EMSTs (mst_with_free_edges with no free edges) and hands
out each tree edge with its weight, bit for bit Hypergraph.edge_length, so
emst_order and heuristics.mst_approximation sort and sum without measuring
an edge again. Where one vertex set is spanned again and again with
changing free sets, as in heuristics.mst_iteration,
complete_with_free_edges rebuilds each tree by Kruskal over the free edges
and that vertex set's EMST alone, which the lemma shows is enough;
mst_with_free_edges stays the dense reference.
"""

from __future__ import annotations

import math

from .model import Edge, Hypergraph, SupportGraph, edge_key


class EmptyCoreError(Exception):
    """No vertex is shared by all hyperedges, so the star seed is undefined."""


def mst_with_free_edges(ids, free, h: Hypergraph) -> list[tuple[float, int, int]]:
    """Minimum spanning tree of `ids` where edges in `free` weigh zero and
    every other edge its Euclidean length, as (weight, u, v) triples, u < v,
    in the order Prim chose them.

    A dense-array Prim over local indices 0..m-1, assigned in id order and
    grown from the smallest id. Each outside vertex's cheapest weight into
    the tree and that edge's tree end sit in lists aligned with `outside`;
    the three leave together by swap-and-pop. Each step zeroes the free
    edges of the vertex that just joined, then relaxes every outside vertex
    through it by its distance (bit for bit Hypergraph.edge_length) and
    keeps the minimum. Keys (min id, max id) are compared only between
    exactly equal weights; local order is id order. The output is always a
    subset of `free` united with the Euclidean MST of `ids`.
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

    # math.dist and math.hypot share one norm routine, so dist(p, q) is
    # hypot(q.x - p.x, q.y - p.y) bit for bit, which is edge_length.
    dist = math.dist
    pos = h.vertices
    pts = [(pos[v].x, pos[v].y) for v in id_list]
    # near_w[i], near_t[i]: weight and tree end of the cheapest known edge
    # from the tree to outside[i]; where[v] is v's position in outside, or
    # -1 once v is in the tree.
    outside = list(range(1, m))
    near_w = [math.inf] * (m - 1)
    near_t = [0] * (m - 1)
    where = list(range(-1, m - 1))
    chosen: list[tuple[float, int, int]] = []
    x = 0
    while outside:
        for v in free_adj[x]:
            i = where[v]
            if i >= 0 and (near_w[i] or edge_key(x, v) < edge_key(near_t[i], v)):
                near_w[i] = 0.0
                near_t[i] = x
        p = pts[x]
        bw, bi, i = math.inf, 0, 0
        for v in outside:
            w = dist(pts[v], p)
            cw = near_w[i]
            if w <= cw and (w < cw or edge_key(x, v) < edge_key(near_t[i], v)):
                near_w[i] = cw = w
                near_t[i] = x
            if cw <= bw and (cw < bw or edge_key(near_t[i], v)
                             < edge_key(near_t[bi], outside[bi])):
                bw, bi = cw, i
            i += 1
        x, t = outside[bi], near_t[bi]
        where[x] = -1
        for aligned in (outside, near_w, near_t):
            aligned[bi] = aligned[-1]
            aligned.pop()
        if bi < len(outside):
            where[outside[bi]] = bi
        chosen.append((bw, *edge_key(id_list[t], id_list[x])))
    return chosen


def emst(ids, h: Hypergraph) -> SupportGraph:
    """Euclidean minimum spanning tree of `ids` under the global tie-break."""
    return SupportGraph(frozenset((u, v) for _, u, v in mst_with_free_edges(ids, (), h)))


def emst_order(ids, h: Hypergraph) -> list[Edge]:
    """The EMST edges of `ids` in the shared order, (length, u, v), sorted
    by the weights Prim hands out."""
    return [(u, v) for _, u, v in sorted(mst_with_free_edges(ids, (), h))]


def complete_with_free_edges(free, order: list[Edge], h: Hypergraph) -> frozenset[Edge]:
    """mst_with_free_edges' tree for a vertex set whose EMST emst_order
    gave as `order`, with `free` (edges (u, v), u < v, inside that set) at
    weight zero.

    By the containment lemma that tree lies inside free united with the
    EMST, so Kruskal over those edges alone in the shared order returns it,
    stopping at m - 1 edges. The free edges, at weight zero, come first by
    (u, v): vertices have distinct positions, so every EMST edge is longer
    than zero. An EMST edge that is also free is met first as a free one;
    its second copy closes a cycle and is skipped.
    """
    need = len(order)
    chosen: list[Edge] = []
    # A union-find inlined with path halving: DisjointSet's method calls
    # (it keeps no path compression, for undo) cost a third of this loop.
    root = list(range(h.n))
    for u, v in sorted(free) + order:
        a = u
        while root[a] != a:
            root[a] = a = root[root[a]]
        b = v
        while root[b] != b:
            root[b] = b = root[root[b]]
        if a != b:
            root[a] = b
            chosen.append((u, v))
            if len(chosen) == need:
                break
    return frozenset(chosen)


def star_support(h: Hypergraph) -> SupportGraph:
    """EMST of the core plus a spoke from each remaining vertex to its
    nearest core vertex (ties broken by smallest id).

    The result is always a spanning tree (|core| - 1 core edges and one
    spoke per other vertex) and a support: each hyperedge holds the whole
    core and the core end of each of its vertices' spokes. It is plane
    whenever no three vertices are collinear. Raises EmptyCoreError when no
    vertex lies in every hyperedge.
    """
    core = h.core()
    if not core:
        raise EmptyCoreError("no vertex occurs in all hyperedges")
    edges = set(emst(core, h).edges)
    pos = h.vertices
    spots = [(pos[c].x, pos[c].y, c) for c in sorted(core)]
    hypot = math.hypot
    for v, p in enumerate(pos):
        if v in core:
            continue
        # (h.edge_length(v, c), c) for each core vertex c, so that the
        # minimum breaks ties by smallest id.
        vx, vy = p.x, p.y
        _, target = min([(hypot(x - vx, y - vy), c) for x, y, c in spots])
        edges.add(edge_key(v, target))
    return SupportGraph(frozenset(edges))
