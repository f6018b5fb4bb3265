"""The three heuristic solvers.

* mst_approximation: union of one EMST per hyperedge.
* mst_iteration: per-hyperedge trees recomputed with zero weight for edges
  the rest of the support already pays for.
* local_search: hill climbing, per regime, from the star seed or, where
  that ends longer than a stricter regime's result, from that result, so
  that lengths nest across regimes; per round, every support edge is
  tentatively removed and the cheapest reconnection is searched for; the
  single best swap of the round is committed. local_search_all returns
  every regime's result of the same sweep.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .geom import Segment, SegmentConflicts, segments_conflict
from .model import (PLANE, PLANE_TREE, TREE, UNRESTRICTED, ConstraintSet, DisjointSet,
                    Edge, Hypergraph, SupportGraph, satisfies, total_length)
from .mst import emst, mst_with_free_edges, star_support

# Gains below this never commit, which keeps termination independent of
# floating-point noise; replacement members must undercut the removed edge
# by more than _STRICT_EPS.
_TIE_EPS = 1e-9
_STRICT_EPS = 1e-12


@dataclass(frozen=True)
class ComputationSequence:
    """Order in which per-hyperedge trees are recomputed.

    Consecutive duplicates are rejected: recomputing a tree twice in a row
    provably changes nothing.
    """

    steps: tuple[int, ...]

    def __post_init__(self):
        if not self.steps:
            raise ValueError("computation sequence is empty")
        for a, b in zip(self.steps, self.steps[1:]):
            if a == b:
                raise ValueError(f"consecutive duplicate step {a} is redundant")


@dataclass(frozen=True)
class SolveReport:
    support: SupportGraph
    length: float
    rounds_or_passes: int


def _union_support(trees: dict[int, frozenset[Edge]]) -> SupportGraph:
    edges: set[Edge] = set()
    for t in trees.values():
        edges |= t
    return SupportGraph(frozenset(edges))


def _execute_sequence(h: Hypergraph, steps, trees=None, built=None) -> dict[int, frozenset[Edge]]:
    """Run the given recomputation steps, starting from `trees` (or nothing).

    Step s rebuilds tree s with every edge of the *other* trees that lies
    inside hyperedge s available at weight zero. Recomputing an existing tree
    can only shorten the support (tests check this step by step). If `built`
    is given, it maps each tree to the free set it was last built with and is
    kept up to date; a step whose free set is unchanged keeps its tree, since
    mst_with_free_edges is a pure function of the members and the free set.
    """
    trees = dict(trees) if trees else {}
    members = [sorted(s) for s in h.hyperedges]
    for s in steps:
        mset = h.hyperedges[s]
        free: set[Edge] = set()
        for s2, t in trees.items():
            if s2 == s:
                continue
            for u, v in t:
                if u in mset and v in mset:
                    free.add((u, v))
        if built is not None:
            if built.get(s) == free:
                continue
            built[s] = free
        trees[s] = frozenset(mst_with_free_edges(members[s], free, h).edges)
    return trees


def mst_approximation(h: Hypergraph) -> SolveReport:
    """Union of per-hyperedge EMSTs; a k-approximation of the optimum."""
    trees = {s: frozenset(emst(sorted(h.hyperedges[s]), h).edges) for s in range(h.k)}
    support = _union_support(trees)
    return SolveReport(support, total_length(support, h), 1)


def mst_iteration(h: Hypergraph, sequence=None, max_passes: int = 20) -> SolveReport:
    """Iterated per-hyperedge MSTs with zero-weight reuse of support edges.

    With an explicit sequence the steps run exactly as given. Otherwise, for
    two hyperedges both three-step orders <0,1,0> and <1,0,1> are evaluated
    and the shorter support wins (this is already stable); for more
    hyperedges every tree starts as its isolated EMST and round-robin
    recomputation passes run until a pass leaves the edge set unchanged,
    capped at max_passes. Either way the result is never longer than
    mst_approximation's.
    """
    k = h.k
    if sequence is not None:
        steps = list(sequence.steps) if isinstance(sequence, ComputationSequence) \
            else [int(x) for x in sequence]
        if not steps:
            raise ValueError("computation sequence is empty")
        for s in steps:
            if not 0 <= s < k:
                raise IndexError(f"hyperedge index {s} out of range 0..{k - 1}")
        if set(steps) != set(range(k)):
            raise ValueError("computation sequence must contain every hyperedge at least once")
        support = _union_support(_execute_sequence(h, steps))
        return SolveReport(support, total_length(support, h), len(steps))

    if k == 1:
        support = _union_support(_execute_sequence(h, [0]))
        return SolveReport(support, total_length(support, h), 1)

    if k == 2:
        g_a = _union_support(_execute_sequence(h, [0, 1, 0]))
        g_b = _union_support(_execute_sequence(h, [1, 0, 1]))
        len_a = total_length(g_a, h)
        len_b = total_length(g_b, h)
        support, length = (g_b, len_b) if len_b < len_a - _TIE_EPS else (g_a, len_a)
        return SolveReport(support, length, 3)

    # k > 2: start from the approximation state so every later step is a
    # pure recomputation, then iterate passes to stability. An EMST is the
    # tree built with no free edges, so `built` starts empty for each tree.
    trees = {s: frozenset(emst(sorted(h.hyperedges[s]), h).edges) for s in range(k)}
    built: dict[int, set[Edge]] = {s: set() for s in range(k)}
    support = _union_support(trees)
    passes = 0
    for _ in range(max_passes):
        trees = _execute_sequence(h, range(k), trees, built)
        passes += 1
        before, support = support, _union_support(trees)
        if support == before:
            break
    return SolveReport(support, total_length(support, h), passes)


class _Tables:
    """Regime-independent data of one hypergraph, shared by every climb of a
    local_search call: candidate pairs per hyperedge, edge lengths, which
    hyperedges hold each pair, and segment conflicts."""

    def __init__(self, h: Hypergraph, seed: SupportGraph):
        self.h = h
        # Per-hyperedge candidate pairs sorted by (length, u, v), and for
        # each pair the bitmask of hyperedges holding both its ends.
        self.elen: dict[Edge, float] = {}
        self.hmask: dict[Edge, int] = {}
        self.cands: list[list[tuple[float, int, int]]] = []
        for s, members in enumerate(h.hyperedges):
            mem = sorted(members)
            bit = 1 << s
            lst = []
            for i, a in enumerate(mem):
                for b in mem[i + 1:]:
                    e = (a, b)
                    w = self.elen.get(e)
                    if w is None:
                        w = h.edge_length(a, b)
                        self.elen[e] = w
                        self.hmask[e] = bit
                    else:
                        self.hmask[e] |= bit
                    lst.append((w, a, b))
            lst.sort()
            self.cands.append(lst)
        self._hyps: dict[Edge, tuple[int, ...]] = {}
        self._segments: dict[Edge, Segment] = {}
        self._pair_conflicts: dict[tuple[Edge, Edge], bool] = {}
        self._conflicts: dict[Edge, frozenset[Edge]] = {}
        # A replacement pair is strictly shorter than the edge it replaces,
        # so no climb from `seed`, or from a support climbed from it, ever
        # adds a pair longer than seed's longest edge: conflicts_of leaves
        # such pairs out. It keeps the pairs exactly as long, which no climb
        # adds either, so that is_plane can decide the seed's own planarity
        # from the same sets (two equally long longest edges may cross).
        self._longest = max((self.length(e) for e in seed.edges), default=0.0)
        self._bulk = None

    def length(self, e: Edge) -> float:
        w = self.elen.get(e)
        if w is None:  # an edge of a caller's seed that no hyperedge holds
            w = self.elen[e] = self.h.edge_length(*e)
        return w

    def hyps(self, e: Edge) -> tuple[int, ...]:
        out = self._hyps.get(e)
        if out is None:
            mask = self.hmask.get(e, 0)
            out = self._hyps[e] = tuple(s for s in range(self.h.k) if mask >> s & 1)
        return out

    def segment(self, e: Edge) -> Segment:
        seg = self._segments.get(e)
        if seg is None:
            seg = self._segments[e] = self.h.segment(*e)
        return seg

    def conflict(self, e1: Edge, e2: Edge) -> bool:
        key = (e1, e2) if e1 <= e2 else (e2, e1)
        hit = self._pair_conflicts.get(key)
        if hit is None:
            hit = self._pair_conflicts[key] = segments_conflict(self.segment(e1),
                                                                self.segment(e2))
        return hit

    def conflicts_of(self, x: Edge) -> frozenset[Edge]:
        """Every candidate pair no longer than the seed's longest edge whose
        segment conflicts with edge x."""
        out = self._conflicts.get(x)
        if out is None:
            if self._bulk is None:
                self._bulk = SegmentConflicts(
                    self.h.vertices, [e for e, w in self.elen.items() if w <= self._longest])
            out = self._conflicts[x] = frozenset(self._bulk.conflicting(*x))
        return out

    def is_plane(self, edges) -> bool:
        """model.is_plane's answer for `edges`, candidate pairs no longer
        than the seed's longest edge (the seed's own edges, for instance):
        no edge's conflicts_of set holds another of them."""
        edges = set(edges)
        return all(self.conflicts_of(e) & edges <= {e} for e in edges)


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

    Per round the removal cuts come from one depth-first search per
    hyperedge (bridges of its induced subgraph), or from one search of the
    whole support when it is a spanning tree. Under the plane regimes every
    candidate pair keeps a count of the support edges it conflicts with.
    """

    def __init__(self, tables: _Tables, c: ConstraintSet, start_edges,
                 max_replacement: int | None = 3):
        self.t = tables
        self.h = h = tables.h
        self.c = c
        self.max_replacement = max_replacement
        self.edges: set[Edge] = set(start_edges)
        self.adj: dict[int, set[int]] = {v: set() for v in range(h.n)}
        for e in self.edges:
            u, v = e
            self.adj[u].add(v)
            self.adj[v].add(u)
            tables.length(e)
        # Per support edge: (versions of its hyperedges, broken cuts,
        # crossing pairs, available pairs, swap result) of its last
        # evaluation; see _best_swap. A hyperedge's version counts the
        # commits that changed an edge inside it.
        self.versions = [0] * h.k
        self.cache: dict[Edge, tuple] = {}
        # Depth-first searches of this round, by hyperedge (-1: the whole
        # support); dropped when a commit changes what they searched.
        self._searches: dict[int, tuple] = {}
        # blocked[p]: how many support edges conflict with pair p.
        self.blocked: Counter[Edge] = Counter()
        if c.require_plane:
            for x in self.edges:
                self.blocked.update(tables.conflicts_of(x))
        self._note_shape()

    def _note_shape(self) -> None:
        # An acyclic support with n - 1 edges is a spanning tree: removing
        # an edge splits it in two, and a single crossing pair is the only
        # replacement that keeps it acyclic.
        self.tree = self.c.require_acyclic and len(self.edges) == self.h.n - 1

    def current_support(self) -> SupportGraph:
        return SupportGraph(frozenset(self.edges))

    def _side(self, e: Edge, key: int, members):
        """Bitmask of the vertices cut off from the rest of `members` when e
        is removed from the subgraph they induce; None if e is not a bridge
        there."""
        search = self._searches.get(key)
        if search is None:
            search = self._searches[key] = _depth_first(self.adj, members)
        pos, end, parent, low, prefix = search
        u, v = e
        if parent[v] == u:
            child = v
        elif parent[u] == v:
            child = u
        else:
            return None
        if low[child] <= pos[parent[child]]:
            return None
        return prefix[end[child]] ^ prefix[pos[child]]

    def _best_tree_swap(self, e: Edge):
        """_best_swap for a spanning-tree support under an acyclic regime.

        Every hyperedge holding e breaks, and the replacement is one pair
        that crosses the cut and lies in all of them; the shortest such pair
        wins, ties within _TIE_EPS going to the smaller pair.
        """
        t = self.t
        len_e = t.elen[e]
        emask = t.hmask.get(e, 0)
        if not emask:
            return (len_e, ())
        if self.max_replacement is not None and self.max_replacement < 1:
            return None
        side = self._side(e, -1, range(self.h.n))
        plane = self.c.require_plane
        if plane:
            blocked, conf_e = self.blocked, t.conflicts_of(e)
        hmask = t.hmask
        edges_now = self.edges
        limit = len_e - _STRICT_EPS
        best_w = best = None
        for w, a, b in t.cands[(emask & -emask).bit_length() - 1]:
            if w >= limit or (best_w is not None and w > best_w + _TIE_EPS):
                break
            if (side >> a ^ side >> b) & 1 == 0:
                continue
            ed = (a, b)
            if hmask[ed] & emask != emask or ed in edges_now:
                continue
            if plane and blocked.get(ed, 0) != (ed in conf_e):
                continue
            if (best_w is None or w < best_w - _TIE_EPS
                    or (abs(w - best_w) <= _TIE_EPS and ed < best)):
                best_w, best = w, ed
        if best is None:
            return None
        return (len_e - best_w, (best,))

    def _best_swap(self, e: Edge):
        """Cheapest feasible replacement set for removing e, or None.

        Returns (gain, replacement_tuple); the replacement is the shortest
        set of cut-crossing candidate edges (each strictly shorter than e)
        that reconnects every hyperedge e's removal breaks, subject to the
        constraint set. An empty tuple means e is simply redundant.

        Off the spanning-tree path the answer depends only on the cut of
        each broken hyperedge and on which cut-crossing pairs are available,
        so it is cached and reused while both are unchanged. While no
        hyperedge holding e has changed, the cuts and the crossing pairs in
        the support are known to be unchanged. Under an acyclic regime the
        answer also depends on the rest of the support, and is not cached.
        """
        if self.tree:
            return self._best_tree_swap(e)
        t = self.t
        hyps = t.hyps(e)
        versions = tuple(self.versions[s] for s in hyps)
        hit = self.cache.get(e)
        if hit is not None and hit[0] == versions:
            _, broken, crossing, available, res = hit
            if not self.c.require_plane:
                return res
            now = self._available(e, crossing)
            if now == available:
                return res
        else:
            broken = []
            for s in hyps:
                side = self._side(e, s, t.h.hyperedges[s])
                if side is not None:
                    broken.append((s, side))
            if not broken:
                return (t.elen[e], ())
            if hit is not None and hit[1] == broken:
                crossing = hit[2]  # the same cuts cross the same pairs
                now = self._available(e, crossing)
                if now == hit[3]:
                    self.cache[e] = (versions,) + hit[1:]
                    return hit[4]
            else:
                crossing = self._crossing(e, broken)
                now = self._available(e, crossing)
        res = self._cover(e, len(broken), crossing, now)
        if not self.c.require_acyclic:
            self.cache[e] = (versions, broken, crossing, now, res)
        return res

    def _crossing(self, e: Edge, broken) -> dict[Edge, int]:
        """Candidate pairs strictly shorter than e that cross the cut of a
        broken hyperedge, support edges included, each with the mask of the
        broken hyperedges (by position in `broken`) whose cut it crosses."""
        cands = self.t.cands
        limit = self.t.elen[e] - _STRICT_EPS
        masks: dict[Edge, int] = {}
        for bit, (s, side) in enumerate(broken):
            for w, a, b in cands[s]:
                if w >= limit:
                    break
                if (side >> a ^ side >> b) & 1:
                    ed = (a, b)
                    masks[ed] = masks.get(ed, 0) | 1 << bit
        return masks

    def _available(self, e: Edge, crossing) -> frozenset[Edge]:
        """The crossing pairs not in the support and, under the plane
        regimes, in conflict with no support edge but e."""
        edges_now = self.edges
        if not self.c.require_plane:
            return frozenset(ed for ed in crossing if ed not in edges_now)
        blocked = self.blocked
        conf_e = self.t.conflicts_of(e)
        return frozenset(ed for ed in crossing
                         if ed not in edges_now and blocked.get(ed, 0) == (ed in conf_e))

    def _cover(self, e: Edge, nb: int, crossing: dict[Edge, int], available):
        """The cheapest set of at most max_replacement available pairs that
        crosses every broken hyperedge's cut, as (gain, replacement)."""
        full_mask = (1 << nb) - 1
        covered = 0
        for ed in available:
            covered |= crossing[ed]
        if covered != full_mask:
            return None

        elen = self.t.elen
        len_e = elen[e]
        order = sorted(available, key=lambda ed: (elen[ed], ed))
        per_bit: list[list[Edge]] = [[] for _ in range(nb)]
        for ed in order:
            mk = crossing[ed]
            for bit in range(nb):
                if mk >> bit & 1:
                    per_bit[bit].append(ed)

        dsu = None
        if self.c.require_acyclic:
            dsu = DisjointSet(self.h.n)
            for a, b in self.edges:
                if (a, b) != e:
                    dsu.union(a, b)

        cap = nb if self.max_replacement is None else min(self.max_replacement, nb)
        best_total = None
        best_repl = None
        chosen: list[Edge] = []
        plane = self.c.require_plane
        conflict = self.t.conflict

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
            for ed in per_bit[bit]:
                t2 = total + elen[ed]
                if t2 >= len_e - _STRICT_EPS:
                    break
                if best_total is not None and t2 > best_total + _TIE_EPS:
                    break
                if ed in chosen:
                    continue
                if plane and any(conflict(ed, c2) for c2 in chosen):
                    continue
                token = None
                if dsu is not None:
                    token = dsu.union(*ed)
                    if token is None:
                        continue  # ed would close a cycle
                chosen.append(ed)
                dfs(uncovered & ~crossing[ed], t2)
                chosen.pop()
                if token is not None:
                    dsu.undo(token)

        dfs(full_mask, 0.0)
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
        elen = self.t.elen
        order = sorted(self.edges, key=lambda ed: (-elen[ed], ed))
        best_gain = None
        best_e = None
        best_repl = None
        for e in order:
            if best_gain is not None and elen[e] < best_gain - _TIE_EPS:
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

        self.edges.remove(best_e)
        self.adj[best_e[0]].discard(best_e[1])
        self.adj[best_e[1]].discard(best_e[0])
        touched = set(self.t.hyps(best_e))
        for r in best_repl:
            self.edges.add(r)
            self.adj[r[0]].add(r[1])
            self.adj[r[1]].add(r[0])
            touched.update(self.t.hyps(r))
        for s in touched:
            self.versions[s] += 1
            self._searches.pop(s, None)
        self._searches.pop(-1, None)
        self.cache.pop(best_e, None)
        if self.c.require_plane:
            self.blocked.subtract(self.t.conflicts_of(best_e))
            for r in best_repl:
                self.blocked.update(self.t.conflicts_of(r))
        self._note_shape()
        return True


def local_search_round(h: Hypergraph, g: SupportGraph, c: ConstraintSet = UNRESTRICTED,
                       max_replacement: int | None = 3):
    """One round of the hill climber on an existing support.

    Returns (new_support, improved); the input must already satisfy c.
    """
    if not satisfies(g, h, c):
        raise ValueError("input support violates the requested constraints")
    searcher = _Searcher(_Tables(h, g), c, g.edges, max_replacement)
    improved = searcher.run_round()
    return searcher.current_support(), improved


def _climb(tables: _Tables, c: ConstraintSet, start: SupportGraph,
           max_replacement: int | None, rounds: int = 0) -> SolveReport:
    """Climb from `start` until no swap improves; `rounds` counts on from
    the rounds that produced `start`."""
    searcher = _Searcher(tables, c, start.edges, max_replacement)
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
    regime r. fits gives model.satisfies' answer; support and acyclicity go
    through satisfies, and planarity is read off the conflicts_of sets that
    the plane climbs from the seed query anyway. Raises EmptyCoreError when
    the core is empty."""
    seed = star_support(h)
    tables = _Tables(h, seed)
    tree = satisfies(seed, h, TREE)

    def fits(r: ConstraintSet) -> bool:
        if r.require_plane and not tables.is_plane(seed.edges):
            return False
        return tree or (not r.require_acyclic and satisfies(seed, h, UNRESTRICTED))

    return seed, tables, fits


def local_search_all(h: Hypergraph, c: ConstraintSet = UNRESTRICTED,
                     max_replacement: int | None = 3) -> dict[str, SolveReport | None]:
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
        own = _climb(tables, r, seed, max_replacement)
        bounds = [results[b.label] for b in _stricter(r) if results[b.label] is not None]
        if bounds:
            best = min(bounds, key=lambda b: b.length)
            if own.length > best.length + _TIE_EPS:
                own = _climb(tables, r, best.support, max_replacement, best.rounds_or_passes)
        results[r.label] = own
    return results


def local_search(h: Hypergraph, c: ConstraintSet = UNRESTRICTED,
                 max_replacement: int | None = 3) -> SolveReport:
    """local_search_all's result for c alone; a call for t or p climbs pt
    too, and a u call all four regimes."""
    return local_search_all(h, c, max_replacement)[c.label]


def local_search_seeded(h: Hypergraph, g0: SupportGraph,
                        c: ConstraintSet = UNRESTRICTED,
                        max_replacement: int | None = 3) -> SolveReport:
    """One climb from a caller-supplied seed, without local_search's
    cascade: its result is not promised to nest across regimes."""
    if not satisfies(g0, h, c):
        raise ValueError("seed support violates the requested constraints")
    return _climb(_Tables(h, g0), c, g0, max_replacement)
