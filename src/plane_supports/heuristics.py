"""The three heuristic solvers.

* mst_approximation: union of one EMST per hyperedge.
* mst_iteration: per-hyperedge trees recomputed with zero weight for edges
  the rest of the support already pays for. Prim builds each hyperedge's
  EMST once per call; every rebuild is a Kruskal completion over the free
  edges and that EMST (mst.complete_with_free_edges).
* local_search: hill climbing, per regime, from the star seed or, where
  that ends longer than a stricter regime's result, from that result, so
  that lengths nest across regimes; per round, every support edge is
  tentatively removed and the cheapest reconnection is searched for; the
  single best swap of the round is committed. local_search_all returns
  every regime's result of the same sweep.

Local search works on candidate pairs numbered by rank in (length, u, v)
order, with sets of pairs as Python-int bitmasks over those numbers (see
_Tables, built in one pass over the vertex pairs). A cut's crossing pairs
are the XOR of the incident-pair masks of the vertices on its smaller side,
masked to the hyperedge and to the pairs shorter than the removed edge;
availability under the plane regimes is a mask expression over the pairs
that 0 or 1 support edges conflict with, counted as bit planes that every
plane climb copies from the seed's. Set bits are walked in ascending
order, which is (length, u, v) order, so every tie resolves as in a scan
of sorted candidate lists. Whenever the support is a spanning tree, in
every regime, the tree is kept rooted at vertex 0 with subtree masks and
re-rooted along one path per commit, and each cut is read off it;
per-hyperedge depth-first searches run only off the tree. The support
edges stay sorted by decreasing length across commits.

A swap's answer depends only on the removed edge's cuts and on which of the
pairs crossing them are available, so a climb keeps each edge's last
evaluation and reuses it while both are unchanged, in every regime. Under
the acyclic regimes (t and pt) the support is a forest: every hyperedge
holding the removed edge breaks, both sides stay connected, and two pairs
across the cut would close a cycle, so the replacement is always the one
shortest available pair that crosses every broken cut.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, count
from operator import and_

from .geom import SegmentConflicts, bit_mask, incident_masks, segments_conflict
from .model import (PLANE, PLANE_TREE, TREE, UNRESTRICTED, ConstraintSet, Edge,
                    Hypergraph, SupportGraph, satisfies, total_length)
from .mst import complete_with_free_edges, emst_order, mst_with_free_edges, star_support

# Gains below this never commit, which keeps termination independent of
# floating-point noise (the exact solver ties and prunes within it too);
# replacement members must undercut the removed edge by more than _STRICT_EPS.
_TIE_EPS = 1e-9
_STRICT_EPS = 1e-12
# The most pairs that one swap adds, under the non-acyclic regimes.
_MAX_REPLACEMENT = 3
# The most recomputation passes of mst_iteration's default schedule.
_MAX_PASSES = 20


@dataclass(frozen=True)
class SolveReport:
    support: SupportGraph
    length: float
    rounds_or_passes: int


class _Forest:
    """Per-hyperedge trees under recomputation steps (see mst_iteration).

    Step s rebuilds tree s with free[s], every edge of the *other* trees
    that lies inside hyperedge s, at weight zero; recomputing an existing
    tree can only shorten the support (tests check this step by step). The
    free sets are kept current as trees change, through holders: by edge,
    the bitmask of the trees holding it. complete_with_free_edges builds
    the tree from hyperedge s's EMST in `orders` (a dict by hyperedge,
    filled on first use, shareable between forests). `built` maps each
    tree to the free set it was last built with; a step whose free set is
    unchanged keeps its tree, a pure function of members and free set.
    """

    def __init__(self, h: Hypergraph, trees, built, orders):
        self.h, self.built, self.orders = h, built, orders
        self.trees: dict[int, frozenset[Edge]] = {}
        self.holders: dict[Edge, int] = {}
        self.free: list[set[Edge]] = [set() for _ in h.hyperedges]
        for s, tree in trees.items():
            self._replace(s, tree)

    def _replace(self, s: int, tree: frozenset[Edge]) -> None:
        vertex_masks, holders, free = self.h.vertex_masks, self.holders, self.free
        bit = 1 << s
        for e in self.trees.get(s, frozenset()) ^ tree:  # the edges tree s adds or drops
            holders[e] = others = holders.get(e, 0) ^ bit
            if not others:
                del holders[e]
            # e is free for another hyperedge r holding it while a tree
            # other than r holds it.
            inside = vertex_masks[e[0]] & vertex_masks[e[1]] & ~bit
            while inside:
                low = inside & -inside
                inside ^= low
                if others & ~low:
                    free[low.bit_length() - 1].add(e)
                else:
                    free[low.bit_length() - 1].discard(e)
        self.trees[s] = tree

    def run(self, steps) -> SupportGraph:
        """Run the steps; the union of the trees after them."""
        for s in steps:
            free = self.free[s]
            if self.built.get(s) == free:
                continue
            self.built[s] = set(free)
            order = self.orders.get(s)
            if order is None:
                order = self.orders[s] = emst_order(sorted(self.h.hyperedges[s]), self.h)
            self._replace(s, complete_with_free_edges(free, order, self.h))
        return SupportGraph(frozenset(self.holders))


def mst_approximation(h: Hypergraph) -> SolveReport:
    """Union of per-hyperedge EMSTs; a k-approximation of the optimum. The
    length is the correctly rounded sum of the weights Prim hands out, one
    per distinct edge, which is total_length's value."""
    weights: dict[Edge, float] = {}
    for members in h.hyperedges:
        weights.update(((u, v), w) for w, u, v in mst_with_free_edges(members, (), h))
    return SolveReport(SupportGraph(frozenset(weights)), math.fsum(weights.values()), 1)


def mst_iteration(h: Hypergraph, sequence=None) -> SolveReport:
    """Iterated per-hyperedge MSTs with zero-weight reuse of support edges.

    With an explicit sequence the steps run exactly as given. Otherwise, for
    two hyperedges both three-step orders <0,1,0> and <1,0,1> are evaluated
    and the shorter support wins (this is already stable); for one or more
    than two hyperedges every tree starts as its isolated EMST and round-robin
    recomputation passes run until a pass leaves the edge set unchanged,
    at most _MAX_PASSES of them. Either way the result is never longer than
    mst_approximation's.

    Prim runs once per hyperedge and call, for its EMST; every other tree
    is completed by Kruskal from that EMST and the free edges (see
    mst.complete_with_free_edges), which gives the same unique tree.
    """
    k = h.k
    if sequence is not None:
        steps = [int(x) for x in sequence]
        if not steps:
            raise ValueError("computation sequence is empty")
        for s in steps:
            if not 0 <= s < k:
                raise IndexError(f"hyperedge index {s} out of range 0..{k - 1}")
        if set(steps) != set(range(k)):
            raise ValueError("computation sequence must contain every hyperedge at least once")
        support = _Forest(h, {}, {}, {}).run(steps)
        return SolveReport(support, total_length(support, h), len(steps))

    if k == 2:
        orders: dict[int, list[Edge]] = {}  # both orders share the EMSTs
        g_a = _Forest(h, {}, {}, orders).run([0, 1, 0])
        g_b = _Forest(h, {}, {}, orders).run([1, 0, 1])
        len_a = total_length(g_a, h)
        len_b = total_length(g_b, h)
        support, length = (g_b, len_b) if len_b < len_a - _TIE_EPS else (g_a, len_a)
        return SolveReport(support, length, 3)

    # Otherwise start from the approximation state so every later step is a
    # pure recomputation, then iterate passes to stability. An EMST is the
    # tree built with no free edges, so `built` starts empty for each tree.
    orders = {s: emst_order(sorted(h.hyperedges[s]), h) for s in range(k)}
    forest = _Forest(h, {s: frozenset(orders[s]) for s in range(k)},
                     {s: set() for s in range(k)}, orders)
    support = forest.run(())
    passes = 0
    for _ in range(_MAX_PASSES):
        passes += 1
        before, support = support, forest.run(range(k))
        if support == before:
            break
    return SolveReport(support, total_length(support, h), passes)


class _Tables:
    """Regime-independent data of one hypergraph and seed, shared by every
    climb of a local_search call or of a solve_exact call.

    The ncand candidate pairs (two vertices of one hyperedge) no longer than
    `bound` are indexed by rank in (length, u, v) order: pairs[i], plen[i]
    (h.edge_length's value) and held[i], the bitmask of the hyperedges
    holding it. A replacement pair is strictly shorter than the edge it
    replaces, so no climb from the seed, or from a support climbed from it,
    adds a pair longer than the seed's longest edge, the default bound (pairs
    as long are indexed, so that is_plane decides the seed's planarity from
    the same sets); solve_exact indexes every candidate. Sets of pairs are
    Python-int bitmasks over these indices, so ascending bits are ascending
    (length, u, v): within[s] holds hyperedge s's pairs and incident[v] the
    pairs ending at v. index_of refuses a candidate beyond the bound, and
    indexes a seed pair that no hyperedge holds after every candidate, in no
    mask. conflicts_of(x) gives the candidates whose segments conflict with
    edge x, and seed_counts() how many seed edges each one conflicts with.
    """

    def __init__(self, h: Hypergraph, seed: SupportGraph, bound: float | None = None):
        self.h = h
        self.seed = seed
        n = h.n
        xs = [p.x for p in h.vertices]
        ys = [p.y for p in h.vertices]
        # A pair is a candidate when some hyperedge holds both ends.
        mh = h.vertex_masks
        if bound is None:
            bound = max((h.edge_length(*e) for e in seed.edges), default=0.0)
        hypot = math.hypot
        lens, ends, helds = [], [], []
        for a in range(n):
            ma, ax, ay = mh[a], xs[a], ys[a]
            for b in range(a + 1, n):
                held = ma & mh[b]
                if held:
                    w = hypot(xs[b] - ax, ys[b] - ay)  # h.edge_length(a, b)
                    if w <= bound:
                        lens.append(w)
                        ends.append((a, b))
                        helds.append(held)
        # The pairs come in (u, v) order and the sort is stable, so equal
        # lengths stay in (u, v) order.
        order = sorted(range(len(lens)), key=lens.__getitem__)
        self.plen: list[float] = list(map(lens.__getitem__, order))
        self.pairs: list[Edge] = list(map(ends.__getitem__, order))
        self.held: list[int] = list(map(helds.__getitem__, order))
        self.index: dict[Edge, int] = dict(zip(self.pairs, count()))
        self.ncand = len(self.pairs)
        self.incident = incident_masks(self.pairs, n)
        # A hyperedge's pairs are those touching it but not exactly once.
        self.within = []
        for members in h.hyperedges:
            touch = once = 0
            for v in members:
                touch |= self.incident[v]
                once ^= self.incident[v]
            self.within.append(touch & ~once)
        # By `held` value: its hyperedges, and the pairs that lie in all.
        self.split = {m: tuple(s for s in range(h.k) if m >> s & 1) for m in set(self.held)}
        self.common = {m: reduce(and_, [self.within[s] for s in hs])
                       for m, hs in self.split.items()}
        self.split[0] = ()
        self.members = h.member_masks
        self._pair_conflicts: dict[tuple[Edge, Edge], bool] = {}
        self._conflicts: dict[Edge, int] = {}
        self._bulk = None
        self._seed_counts = None

    def index_of(self, e: Edge) -> int:
        i = self.index.get(e)
        if i is None:  # a pair of a caller's seed that no hyperedge holds, else refused
            if self.h.vertex_masks[e[0]] & self.h.vertex_masks[e[1]]:
                raise ValueError(f"candidate pair {e} is longer than the tables' bound")
            i = self.index[e] = len(self.pairs)
            self.pairs.append(e)
            self.plen.append(self.h.edge_length(*e))
            self.held.append(0)
        return i

    def length(self, e: Edge) -> float:
        return self.plen[self.index_of(e)]

    def hyps(self, e: Edge) -> tuple[int, ...]:
        return self.split[self.held[self.index_of(e)]]

    def crossing(self, side: int, members: int, w: float) -> int:
        """Among the pairs with both ends in the vertex bitmask `members`,
        those shorter than w - _STRICT_EPS with exactly one end in `side`, a
        subset of members. Pairs with an end outside members may show up
        too; callers mask them out."""
        rest = members ^ side
        if rest.bit_count() < side.bit_count():
            side = rest
        out = 0
        while side:
            low = side & -side
            out ^= self.incident[low.bit_length() - 1]
            side ^= low
        return out & (1 << bisect_left(self.plen, w - _STRICT_EPS, 0, self.ncand)) - 1

    def conflict(self, e1: Edge, e2: Edge) -> bool:
        key = (e1, e2) if e1 <= e2 else (e2, e1)
        hit = self._pair_conflicts.get(key)
        if hit is None:
            hit = self._pair_conflicts[key] = segments_conflict(self.h.segment(*e1),
                                                                self.h.segment(*e2))
        return hit

    def conflicts_of(self, x: Edge) -> int:
        """The bitmask of the candidates whose segments conflict with edge x;
        the bulk index takes their numbers and incident masks from here."""
        out = self._conflicts.get(x)
        if out is None:
            if self._bulk is None:
                self._bulk = SegmentConflicts(self.h.vertices, self.pairs[:self.ncand],
                                              self.incident)
            out = self._conflicts[x] = self._bulk.conflicting(*x)
        return out

    def seed_counts(self) -> tuple[int, ...]:
        """For each indexed candidate, how many seed edges conflict with it, as
        bit planes: bit i of plane b is bit b of pair i's count. Built on
        first use; every plane climb starts from a copy."""
        if self._seed_counts is None:
            planes: list[int] = []
            for x in self.seed.edges:
                _add_count(planes, self.conflicts_of(x), 1)
            self._seed_counts = tuple(planes)
        return self._seed_counts

    def is_plane(self, edges) -> bool:
        """model.is_plane's answer for `edges`, pairs no longer than the
        bound (the seed's own edges, for instance): no edge's
        conflicts_of set holds another of them. Pairs that no hyperedge
        holds lie in no conflicts_of set, so those are tested pairwise."""
        ids = {e: self.index_of(e) for e in edges}
        mask = bit_mask(ids.values(), len(self.pairs))
        extra = [e for e, i in ids.items() if i >= self.ncand]
        return all(self.conflicts_of(e) & mask & ~(1 << i) == 0 for e, i in ids.items()) \
            and not any(self.conflict(a, b) for a, b in combinations(extra, 2))


def _add_count(planes: list[int], mask: int, step: int) -> None:
    """Add step (1 or -1) to the bit-plane counts `planes` (see
    _Tables.seed_counts) of the pairs in `mask`, by ripple carry or
    borrow. A count never drops below zero."""
    for b, plane in enumerate(planes):
        planes[b] = plane ^ mask
        mask &= plane if step > 0 else ~plane
        if not mask:
            return
    planes.append(mask)


def _depth_first(adj: dict[int, set[int]], members) -> tuple:
    """Depth-first search of the subgraph of `adj` induced by `members`,
    from its smallest vertex.

    Returns (pos, end, parent, low, prefix), the first four as lists by
    vertex: preorder index (-1 outside the search), end of the subtree's
    preorder range, tree parent and low-link; prefix[i] is the bitmask of
    the first i vertices in preorder. A tree edge (parent[c], c) is a bridge
    iff low[c] exceeds pos[parent[c]], and removing it cuts off the
    vertices of bitmask prefix[end[c]] ^ prefix[pos[c]].
    """
    n = len(adj)
    pos = [-1] * n
    low = [0] * n
    parent = [-1] * n
    end = [0] * n
    root = min(members)
    pos[root] = 0
    prefix = [0, 1 << root]
    stack = [(root, iter(adj[root]))]
    while stack:
        x, it = stack[-1]
        for y in it:
            if y not in members:
                continue
            py = pos[y]
            if py < 0:
                pos[y] = low[y] = len(prefix) - 1
                prefix.append(prefix[-1] | 1 << y)
                parent[y] = x
                stack.append((y, iter(adj[y])))
                break
            if py < low[x] and y != parent[x]:
                low[x] = py
        else:
            stack.pop()
            end[x] = len(prefix) - 1
            p = parent[x]
            if p >= 0 and low[x] < low[p]:
                low[p] = low[x]
    return pos, end, parent, low, prefix


class _Searcher:
    """Mutable local-search state shared across rounds of one climb.

    order holds the support edges as (-length, edge), sorted: run_round's
    scan order, updated by every commit. Under the plane regimes counts
    holds, as in _Tables.seed_counts, how many support edges conflict with
    each indexed candidate; it starts from a copy of the seed's counts. The
    bitmasks zero and one hold the pairs counted 0 and 1 times.

    Whenever the support is a spanning tree (n - 1 edges, connected), in
    every regime, parent and sub keep it rooted at vertex 0 (sub[v]: the
    vertex bitmask of v's subtree, the side that removing v's parent edge
    cuts off); they are built when the support becomes a tree, updated by
    every commit and dropped when it stops being one. Removing a tree edge
    breaks every hyperedge holding it, and each one's cut is the subtree
    side less the vertices outside it. Off a spanning tree, removal cuts
    come from one depth-first search per hyperedge (bridges of its induced
    subgraph), kept until a commit changes an edge inside it. memo keeps
    each evaluated edge's last swap evaluation (see _best_swap).
    """

    def __init__(self, tables: _Tables, c: ConstraintSet, start_edges):
        self.t = tables
        self.h = h = tables.h
        self.c = c
        self.edges: set[Edge] = set(start_edges)
        self.adj: dict[int, set[int]] = {v: set() for v in range(h.n)}
        for e in self.edges:
            u, v = e
            self.adj[u].add(v)
            self.adj[v].add(u)
        self.order = sorted((-tables.length(e), e) for e in self.edges)
        # Per edge: (cuts, crossing pairs, available pairs, answer).
        self.memo: dict[Edge, tuple] = {}
        # Depth-first searches by hyperedge; dropped when a commit changes
        # what they searched.
        self._searches: dict[int, tuple] = {}
        if c.require_plane:
            seed = tables.seed.edges
            self.counts = list(tables.seed_counts())
            self._recount(self.edges - seed, seed - self.edges)
        self.parent = self.sub = None
        self._note_shape()

    def _recount(self, added, removed) -> None:
        """Count the conflicts of the `added` edges in and those of the
        `removed` edges out, then rebuild zero and one."""
        counts = self.counts
        for x in added:
            _add_count(counts, self.t.conflicts_of(x), 1)
        for x in removed:
            _add_count(counts, self.t.conflicts_of(x), -1)
        more = 0  # the pairs counted at least twice
        for plane in counts[1:]:
            more |= plane
        low = counts[0] if counts else 0
        self.one = low & ~more
        self.zero = (1 << self.t.ncand) - 1 & ~(low | more)

    def _note_shape(self) -> None:
        # A support with n - 1 edges is a spanning tree iff it is connected;
        # one kept through a commit stays one while it has n - 1 edges.
        n = self.h.n
        if len(self.edges) != n - 1:
            self.parent = self.sub = None
        elif self.parent is None:
            pos, end, parent, _, prefix = _depth_first(self.adj, range(n))
            if len(prefix) == n + 1:  # the search reached every vertex
                self.parent = parent
                self.sub = [prefix[end[v]] ^ prefix[pos[v]] for v in range(n)]
        self.tree = self.parent is not None

    def current_support(self) -> SupportGraph:
        return SupportGraph(frozenset(self.edges))

    def _cuts(self, e: Edge) -> list[tuple[int, int]]:
        """The hyperedges s holding e in whose induced subgraph e is a
        bridge, in ascending order, each as (s, side), side the bitmask of
        the vertices that removing e cuts off from the rest of s."""
        u, v = e
        out = []
        for s in self.t.hyps(e):
            search = self._searches.get(s)
            if search is None:
                search = self._searches[s] = _depth_first(self.adj, self.h.hyperedges[s])
            pos, end, parent, low, prefix = search
            if parent[v] == u:
                child = v
            elif parent[u] == v:
                child = u
            else:
                continue
            if low[child] > pos[parent[child]]:
                out.append((s, prefix[end[child]] ^ prefix[pos[child]]))
        return out

    def _reroot(self, e0: Edge, r: Edge) -> None:
        """Update parent and sub for the commit e0 -> r: the subtree below
        e0 leaves its ancestors and, re-rooted at r's end in it, joins the
        ancestors of r's other end."""
        parent, sub = self.parent, self.sub
        u, v = e0
        top = v if parent[v] == u else u
        cut = sub[top]
        a, b = r if cut >> r[0] & 1 else r[::-1]
        for y in (parent[top], b):  # the old and the new ancestors
            while y >= 0:
                sub[y] ^= cut
                y = parent[y]
        # Along the path a .. top, each vertex's new subtree is the cut
        # less its old child's subtree on the way to a.
        x, up, below = a, b, 0
        while True:
            nxt, old = parent[x], sub[x]
            parent[x], sub[x] = up, cut ^ below
            if x == top:
                break
            x, up, below = nxt, x, old

    def _best_swap(self, e: Edge):
        """Cheapest feasible replacement set for removing e, or None.

        Returns (gain, replacement_tuple); the replacement is the shortest
        set of cut-crossing candidate edges (each strictly shorter than e)
        that reconnects every hyperedge e's removal breaks, subject to the
        constraint set. An empty tuple means e is simply redundant.

        e's cuts are computed on every call. On a spanning tree they are one
        side, the subtree below e, and the crossing pairs are those across
        it: inside every hyperedge holding e under t and pt, inside each
        such hyperedge under u and p. Elsewhere they are _cuts(e). The
        answer depends only on the cuts and on the available crossing
        pairs, so memo[e] keeps the last evaluation: equal cuts cross the
        same pairs, and then, under t and u (where every crossing pair is
        available) or with equal available pairs, the answer is the same.
        Under t and pt the answer is the shortest available pair that
        crosses every cut (see the module docstring); under u and p it is
        _cover's.
        """
        if self.tree:
            u, v = e
            cuts = self.sub[v] if self.parent[v] == u else self.sub[u]
        else:
            cuts = self._cuts(e)
            if not cuts:
                return (self.t.length(e), ())
        hit = self.memo.get(e)
        if hit is not None and hit[0] == cuts:
            if not self.c.require_plane:
                return hit[3]
            crossing = hit[1]
        else:
            hit = None
            t = self.t
            i = t.index[e]
            held, w = t.held[i], t.plen[i]
            if not held:  # a seed pair that no hyperedge holds
                return (w, ())
            if not self.tree:
                crossing = [t.crossing(side, t.members[s], w) & t.within[s] for s, side in cuts]
            else:
                across = t.crossing(cuts, (1 << self.h.n) - 1, w)
                crossing = ([across & t.common[held]] if self.c.require_acyclic
                            else [across & t.within[s] for s in t.split[held]])
        available = self._available(e, crossing)
        if hit is not None and hit[2] == available:
            return hit[3]
        if self.c.require_acyclic:
            res = self._shortest_pair(self.t.length(e), reduce(and_, crossing) & available)
        else:
            res = self._cover(e, crossing, available)
        self.memo[e] = (cuts, crossing, available, res)
        return res

    def _available(self, e: Edge, crossing) -> int:
        """The crossing pairs that, under the plane regimes, conflict with no
        support edge but e, as a bitmask. No crossing pair is in the support:
        e is a bridge of each broken hyperedge, so no other support edge
        inside it crosses its cut."""
        pool = 0
        for x in crossing:
            pool |= x
        if self.c.require_plane:
            pool &= self.zero | self.one & self.t.conflicts_of(e)
        return pool

    def _shortest_pair(self, len_e: float, pool: int):
        """The swap that adds the shortest pair of `pool`, ties within
        _TIE_EPS going to the smaller pair, as (gain, (pair,)); None if pool
        is empty."""
        plen, pairs = self.t.plen, self.t.pairs
        best_w = best = None
        while pool:  # lowest bit first: ascending (length, u, v)
            low = pool & -pool
            j = low.bit_length() - 1
            if best is not None and plen[j] > best_w + _TIE_EPS:
                break
            if best is None or pairs[j] < best:
                best_w, best = plen[j], pairs[j]
            pool ^= low
        if best is None:
            return None
        return (len_e - best_w, (best,))

    def _cover(self, e: Edge, crossing: list[int], available: int):
        """The cheapest set of at most _MAX_REPLACEMENT available pairs that
        crosses every broken hyperedge's cut, as (gain, replacement)."""
        pools = [x & available for x in crossing]  # by broken cut
        if not all(pools):
            return None
        nb = len(pools)
        t = self.t
        plen, pairs = t.plen, t.pairs
        len_e = t.length(e)
        cap = min(_MAX_REPLACEMENT, nb)
        best_total = None
        best_repl = None
        chosen: list[Edge] = []
        plane = self.c.require_plane
        conflict = t.conflict

        def dfs(uncovered: int, total: float) -> None:
            nonlocal best_total, best_repl
            if uncovered == 0:
                repl = tuple(sorted(chosen))
                if (best_total is None or total < best_total - _TIE_EPS
                        or (abs(total - best_total) <= _TIE_EPS and repl < best_repl)):
                    best_total, best_repl = total, repl
                return
            if len(chosen) >= cap:
                return
            bit = (uncovered & -uncovered).bit_length() - 1
            pool = pools[bit]
            while pool:  # lowest bit first: ascending (length, u, v)
                low = pool & -pool
                pool ^= low
                j = low.bit_length() - 1
                t2 = total + plen[j]
                if t2 >= len_e - _STRICT_EPS:
                    break
                if best_total is not None and t2 > best_total + _TIE_EPS:
                    break
                ed = pairs[j]
                if plane and any(conflict(ed, c2) for c2 in chosen):
                    continue
                chosen.append(ed)
                rest = uncovered ^ 1 << bit  # less ed's other cuts: no pool offers ed again
                for b in range(bit + 1, nb):
                    if pools[b] & low:
                        rest &= ~(1 << b)
                dfs(rest, t2)
                chosen.pop()

        dfs((1 << nb) - 1, 0.0)
        if best_total is None:
            return None
        return (len_e - best_total, best_repl)

    def run_round(self) -> bool:
        """Evaluate every support edge and commit the single best swap.

        Edges are scanned by decreasing length; once the best known gain
        exceeds every remaining edge's length the scan stops early (a swap
        can never gain more than the removed edge's length). Returns False
        and leaves the support untouched when no swap strictly improves it.
        """
        best_gain = None
        best_e = None
        best_repl = None
        for neg_w, e in self.order:
            if best_gain is not None and -neg_w < best_gain - _TIE_EPS:
                break
            res = self._best_swap(e)
            if res is None:
                continue
            gain, repl = res
            if gain <= _TIE_EPS:
                continue
            if (best_gain is None or gain > best_gain + _TIE_EPS
                    or (abs(gain - best_gain) <= _TIE_EPS
                        and (e, repl) < (best_e, best_repl))):
                best_gain, best_e, best_repl = gain, e, repl
        if best_e is None:
            return False

        t = self.t
        self.edges.remove(best_e)
        self.adj[best_e[0]].discard(best_e[1])
        self.adj[best_e[1]].discard(best_e[0])
        del self.order[bisect_left(self.order, (-t.length(best_e), best_e))]
        touched = set(t.hyps(best_e))
        for r in best_repl:
            self.edges.add(r)
            self.adj[r[0]].add(r[1])
            self.adj[r[1]].add(r[0])
            insort(self.order, (-t.length(r), r))
            touched.update(t.hyps(r))
        for s in touched:
            self._searches.pop(s, None)
        if self.tree and len(best_repl) == 1:
            self._reroot(best_e, best_repl[0])
        if self.c.require_plane:
            self._recount(best_repl, [best_e])
        self._note_shape()
        return True


def local_search_round(h: Hypergraph, g: SupportGraph, c: ConstraintSet = UNRESTRICTED):
    """One round of the hill climber on an existing support.

    Returns (new_support, improved); the input must already satisfy c.
    """
    searcher = _Searcher(_checked_tables(h, g, c, "input support"), c, g.edges)
    improved = searcher.run_round()
    return searcher.current_support(), improved


def _checked_tables(h: Hypergraph, g: SupportGraph, c: ConstraintSet, what: str) -> _Tables:
    """The _Tables of a caller's support g, once g is known to satisfy c
    (model.satisfies' answer; ValueError otherwise). Support and acyclicity
    are checked by satisfies, planarity from the tables' conflict sets."""
    if satisfies(g, h, TREE if c.require_acyclic else UNRESTRICTED):
        tables = _Tables(h, g)
        if not c.require_plane or tables.is_plane(g.edges):
            return tables
    raise ValueError(f"{what} violates the requested constraints")


def _climb(tables: _Tables, c: ConstraintSet, start: SupportGraph,
           rounds: int = 0) -> SolveReport:
    """Climb from `start` until no swap improves; `rounds` counts on from
    the rounds that produced `start`."""
    searcher = _Searcher(tables, c, start.edges)
    while searcher.run_round():
        rounds += 1
    support = searcher.current_support()
    return SolveReport(support, total_length(support, tables.h), rounds)


def _stricter(c: ConstraintSet) -> tuple[ConstraintSet, ...]:
    """The regimes one restriction stricter than c."""
    if c.require_plane and c.require_acyclic:
        return ()
    if c.require_plane or c.require_acyclic:
        return (PLANE_TREE,)
    return (PLANE, TREE)


def _star_seed(h: Hypergraph):
    """The star seed, its _Tables, and fits(r): whether the seed satisfies
    regime r, model.satisfies' answer. With a nonempty core the star is
    always a spanning-tree support (see mst.star_support), so only
    planarity can fail. It is decided once, from the conflicts_of sets
    that the plane climbs from the seed query anyway; every sweep asks
    about pt. Raises EmptyCoreError when the core is empty."""
    seed = star_support(h)
    tables = _Tables(h, seed)
    plane = tables.is_plane(seed.edges)
    return seed, tables, lambda r: not r.require_plane or plane


def local_search_all(h: Hypergraph,
                     c: ConstraintSet = UNRESTRICTED) -> dict[str, SolveReport | None]:
    """Hill climbing from the star seed, nested across regimes: the results
    for c and for every regime stricter than c, by label.

    The result for a regime is its climb from the star seed, unless that
    is longer (by more than _TIE_EPS) than S, the shorter of the results for
    the regimes directly stricter than it (pt for p and t; p and t for u),
    each computed by this same rule. Then the regime is climbed again from S.
    A climb never ends longer than its seed, so the lengths nest,
    u <= p <= pt and u <= t <= pt, and no result is longer than the plain
    star-seeded climb. A stricter regime whose star seed violates its
    constraints maps to None and contributes nothing. Each regime is
    climbed once per call, so the default u call returns all four regimes.

    rounds_or_passes counts the rounds committed along the chain that
    produced the support: a result climbed from S adds its own rounds to
    S's. Requires a nonempty core (EmptyCoreError otherwise) and a star seed
    that satisfies c (ValueError otherwise). Each committed round strictly
    shrinks the total length, so every climb terminates.
    """
    seed, tables, seed_fits = _star_seed(h)
    if not seed_fits(c):
        raise ValueError("star seed violates the requested constraints; "
                         "the input likely has collinear vertices")
    # Strictest first, so each regime's stricter results are ready for it.
    # Keyed by label: c may be a ConstraintSet of another import of this
    # module, which compares unequal to this module's constants.
    results: dict[str, SolveReport | None] = {}
    for r in (PLANE_TREE, PLANE, TREE, UNRESTRICTED):
        if r.require_plane < c.require_plane or r.require_acyclic < c.require_acyclic:
            continue  # neither c nor stricter than c
        if r.label != c.label and not seed_fits(r):
            results[r.label] = None
            continue
        own = _climb(tables, r, seed)
        bounds = [results[b.label] for b in _stricter(r) if results[b.label] is not None]
        if bounds:
            best = min(bounds, key=lambda b: b.length)
            if own.length > best.length + _TIE_EPS:
                own = _climb(tables, r, best.support, best.rounds_or_passes)
        results[r.label] = own
    return results


def local_search(h: Hypergraph, c: ConstraintSet = UNRESTRICTED) -> SolveReport:
    """local_search_all's result for c alone; a call for t or p climbs pt
    too, and a u call all four regimes."""
    return local_search_all(h, c)[c.label]


def local_search_seeded(h: Hypergraph, g0: SupportGraph,
                        c: ConstraintSet = UNRESTRICTED) -> SolveReport:
    """One climb from a caller-supplied seed, without local_search's
    cascade: its result is not promised to nest across regimes."""
    return _climb(_checked_tables(h, g0, c, "seed support"), c, g0)
