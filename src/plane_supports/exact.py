"""Exact solving: the flow-based integer model, a deterministic LP-file
emitter for external MILP solvers, and an internal branch-and-bound solver
for desk-scale instances.

The branch and bound prunes on a cost-splitting bound: each candidate's
length is shared equally among the hyperedges that hold it, and the bound
is the committed length plus the sum of the hyperedges' MSTs under those
shares. Every support holds a spanning tree of each hyperedge and the
shares of an edge sum to its length, so the bound is valid in every
regime. The MSTs are kept by swaps; an excluded tree edge is replaced by
the first undecided cell across its cut in (share, rank) order.

The solver's preference rule between equal-quality solutions (shorter by
more than 1e-9, else lexicographically smaller edge set) is
_better_solution. It stays here, shared with the brute-force oracle of the
tests (tests/oracle.py), so that their results are comparable edge for edge.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .geom import SegmentConflicts, bit_ids
from .model import (ConstraintSet, DisjointSet, Edge, Hypergraph, SupportGraph,
                    UNRESTRICTED, candidate_edges, satisfies, total_length)
from .heuristics import _TIE_EPS, _Tables, _climb, mst_iteration
from .mst import star_support

_LP_WIDTH = 240  # emit_lp wraps a row before a term that would pass this width


class InfeasibleError(Exception):
    """No support satisfies the requested constraints."""


class LimitsExceededError(Exception):
    """Search hit its caps before finding any feasible support."""


@dataclass(frozen=True)
class SolveLimits:
    """Caps on solve_exact's search: nodes explored and seconds. None means
    no cap. A negative or NaN cap is rejected: NaN would never compare
    greater than the elapsed time, so the cap would be silently ignored.

    time_cap counts from solve_exact's entry, so it includes the set-up (the
    candidate table and the seed climb) as well as the search. The clock is
    read at every search node; a set-up that outlasts the cap runs to its
    end, and the search then stops at its first node."""

    node_cap: int | None = None
    time_cap: float | None = None

    def __post_init__(self):
        if self.node_cap is not None and not self.node_cap >= 0:
            raise ValueError(f"node cap must be a nonnegative count, got {self.node_cap}")
        if self.time_cap is not None and not self.time_cap >= 0:
            raise ValueError(f"time cap must be a nonnegative number of seconds, "
                             f"got {self.time_cap}")


@dataclass(frozen=True)
class ExactResult:
    support: SupportGraph
    length: float
    proven_optimal: bool
    nodes_explored: int


@dataclass(frozen=True)
class IlpModel:
    """The integer program's inputs: the vertex count, the candidate edges
    (sorted (u, v) pairs, u < v) with their lengths, each hyperedge's sorted
    members, the crossing candidate pairs (empty unless plane) and whether
    the support must be acyclic. emit_lp derives the flow variables, sinks
    and tree rows from them."""

    n: int
    edge_vars: tuple[Edge, ...]
    edge_lengths: tuple[float, ...]
    hyperedge_members: tuple[tuple[int, ...], ...]
    crossing_pairs: tuple[tuple[Edge, Edge], ...]
    tree_mode: bool


def build_model(h: Hypergraph, c: ConstraintSet = UNRESTRICTED) -> IlpModel:
    """Assemble the integer model for h under the given constraint set.

    Candidate edges are restricted to pairs sharing a hyperedge, in (u, v)
    order; crossing pairs appear only in plane mode, in row-major order
    from one bulk SegmentConflicts query per edge.
    """
    edges = tuple(candidate_edges(h))
    crossing: list[tuple[Edge, Edge]] = []
    if c.require_plane:
        bulk = SegmentConflicts(h.vertices, edges)
        crossing = [(e, edges[j]) for i, e in enumerate(edges)  # j > i, as the pair walk
                    for j in bit_ids(bulk.conflicting(*e) >> i + 1 << i + 1)]
    return IlpModel(
        n=h.n,
        edge_vars=edges,
        edge_lengths=tuple(h.edge_length(u, v) for u, v in edges),
        hyperedge_members=tuple(tuple(sorted(s)) for s in h.hyperedges),
        crossing_pairs=tuple(crossing),
        tree_mode=c.require_acyclic,
    )


def _sum(plus: list[str], minus=()) -> list[str]:
    """The signed pieces of sum(plus) - sum(minus): the first term bare, each
    other term after its sign."""
    return [plus[0], *[f"+ {t}" for t in plus[1:]], *[f"- {t}" for t in minus]]


def _row(out: list[str], head: str, pieces: list[str]) -> None:
    """Append one LP row: head, then the pieces (signed terms, then the
    relation and right-hand side). A row wider than _LP_WIDTH wraps before
    each piece that would pass it, so a sign never leaves its variable."""
    line = " ".join([head, *pieces])
    if len(line) > _LP_WIDTH:
        line = head
        for piece in pieces:
            if len(line) + 1 + len(piece) > _LP_WIDTH:
                out.append(line)
                line = "  " + piece
            else:
                line += " " + piece
    out.append(line)


def emit_lp(m: IlpModel) -> str:
    """Serialise the model as deterministic LP-format text.

    Each hyperedge s sends one unit of flow from every member to its
    smallest member over variables f_s_u_v, each bounded by |s| - 1 and
    by that many times its edge's binary. In tree mode every component of
    the candidate graph with two or more vertices does the same over
    variables g_u_v, towards its smallest vertex, and the edge count is n
    minus the number of components (isolated vertices included): the
    support is a spanning forest, one tree per component.

    Variables are ordered by (u, v) then (s, u, v); rows are grouped as
    crossing, then the four flow families per hyperedge, then tree rows.
    Emitting the same model twice yields byte-identical text.
    """
    out: list[str] = ["Minimize"]
    obj = [f"{w:.9f} e_{u}_{v}" for (u, v), w in zip(m.edge_vars, m.edge_lengths)]
    _row(out, " obj:", _sum(obj or ["0 dummy"]))

    out.append("Subject To")
    for i, ((a, b), (c, d)) in enumerate(m.crossing_pairs):
        _row(out, f" cx_{i}:", [f"e_{a}_{b}", f"+ e_{c}_{d}", "<= 1"])

    fa: list[str] = []
    fb: list[str] = []
    fc: list[str] = []
    flows = []  # (s, u, v, bound) in (s, u, v) order
    for s, mem in enumerate(m.hyperedge_members):
        sink, rest = mem[0], mem[1:]
        if rest:
            _row(fa, f" fa_{s}:", [*_sum([f"f_{s}_{u}_{sink}" for u in rest]), f"= {len(rest)}"])
        for u in rest:
            _row(fb, f" fb_{s}_{u}:", [f"f_{s}_{sink}_{u}", "= 0"])
            others = [v for v in mem if v != u]
            _row(fc, f" fc_{s}_{u}:", [*_sum([f"f_{s}_{u}_{v}" for v in others],
                                            [f"f_{s}_{v}_{u}" for v in others]), "= 1"])
        flows += [(s, u, v, len(rest)) for u in mem for v in mem if u != v]
    out += fa + fb + fc
    for s, u, v, bound in flows:
        a, b = (u, v) if u < v else (v, u)
        _row(out, f" fd_{s}_{u}_{v}:", [f"f_{s}_{u}_{v}", f"- {bound} e_{a}_{b}", "<= 0"])

    tree_flows = [f for u, v in m.edge_vars for f in ((u, v), (v, u))] if m.tree_mode else []
    if tree_flows:
        nbrs: dict[int, list[int]] = {}  # ascending, as edge_vars is sorted
        parts = DisjointSet(m.n)
        rank = 0  # n minus the number of components
        for u, v in m.edge_vars:
            nbrs.setdefault(u, []).append(v)
            nbrs.setdefault(v, []).append(u)
            rank += parts.union(u, v) is not None
        smallest: dict[int, int] = {}  # component root -> its smallest vertex
        for u in sorted(nbrs):
            smallest.setdefault(parts.find(u), u)
        sinks = list(smallest.values())
        _row(out, " tg_a:", [*_sum([f"g_{u}_{t}" for t in sinks for u in nbrs[t]]), f"= {rank}"])
        for t in sinks:
            for v in nbrs[t]:
                _row(out, f" tg_b_{v}:", [f"g_{t}_{v}", "= 0"])
        for u in sorted(nbrs):
            if u not in sinks:
                _row(out, f" tg_c_{u}:", [*_sum([f"g_{u}_{v}" for v in nbrs[u]],
                                                [f"g_{v}_{u}" for v in nbrs[u]]), "= 1"])
        for u, v in tree_flows:
            a, b = (u, v) if u < v else (v, u)
            _row(out, f" tg_d_{u}_{v}:", [f"g_{u}_{v}", f"- {m.n - 1} e_{a}_{b}", "<= 0"])
        _row(out, " tg_count:", [*_sum([f"e_{u}_{v}" for u, v in m.edge_vars]), f"= {rank}"])

    out.append("Bounds")
    out += [f" 0 <= f_{s}_{u}_{v} <= {bound}" for s, u, v, bound in flows]
    out += [f" 0 <= g_{u}_{v} <= {m.n - 1}" for u, v in tree_flows]
    out.append("Binaries")
    out += [f" e_{u}_{v}" for u, v in m.edge_vars]
    out.append("Generals")
    out += [f" f_{s}_{u}_{v}" for s, u, v, _ in flows]
    out += [f" g_{u}_{v}" for u, v in tree_flows]
    out.append("End")
    return "\n".join(out) + "\n"


def _better_solution(new_len: float, new_edges, old_len, old_edges) -> bool:
    """Shared preference: shorter wins; near-ties go to the lexicographically
    smaller sorted edge list."""
    return (old_len is None or new_len < old_len - _TIE_EPS
            or new_len <= old_len + _TIE_EPS and sorted(new_edges) < sorted(old_edges))


def _tables(h: Hypergraph) -> _Tables:
    """The one candidate table of a solve: every candidate pair, ranked,
    with the star as its seed when the core is nonempty (else no edges)."""
    return _Tables(h, star_support(h) if h.core() else SupportGraph(frozenset()), math.inf)


def _conflict_list(t: _Tables, i: int) -> list[int]:
    """The ascending ranks of the other candidates conflicting with candidate i."""
    return [j for j in bit_ids(t.conflicts_of(t.pairs[i])) if j != i]


def _greedy_support(t: _Tables, c: ConstraintSet):
    """A seed for an empty core, or None: in rank order, every candidate that
    joins two parts of a hyperedge holding it and keeps c."""
    h = t.h
    per_hyp = [DisjointSet(h.n) for _ in range(h.k)]
    global_dsu = DisjointSet(h.n) if c.require_acyclic else None
    chosen: list[Edge] = []
    blocked = 0  # the ranks of the candidates conflicting with a kept edge
    for i in range(t.ncand):
        u, v = e = t.pairs[i]
        holding = t.split[t.held[i]]
        if blocked >> i & 1 or all(per_hyp[s].connected(u, v) for s in holding):
            continue
        if global_dsu is not None and global_dsu.union(u, v) is None:
            continue
        chosen.append(e)
        if c.require_plane:
            blocked |= t.conflicts_of(e)
        for s in holding:
            per_hyp[s].union(u, v)
    g = SupportGraph(frozenset(chosen))
    return g if satisfies(g, h, c) else None


def _initial_incumbent(t: _Tables, c: ConstraintSet):
    """A feasible support, or None: one climb under c alone (a bound needs no
    nesting) on t from its seed, the star, if that fits c, else mst_iteration's,
    else greedy's. The climb reads no pair longer than the star's longest edge."""
    if t.h.core() and (not c.require_plane or t.is_plane(t.seed.edges)):
        report = _climb(t, c, t.seed)
        return report.length, frozenset(report.support.edges)
    report = mst_iteration(t.h)
    if satisfies(report.support, t.h, c):
        return report.length, frozenset(report.support.edges)
    g = _greedy_support(t, c)
    if g is not None:
        return total_length(g, t.h), frozenset(g.edges)
    return None


class _Capped(Exception):
    pass


def _prim(w):
    """Prim from local vertex 0 over the weight matrix w: (total, parent
    array), or (inf, None) when w does not connect its vertices."""
    cnt = len(w)
    if cnt <= 1:
        return 0.0, ()
    inf = math.inf
    dist = [inf] * cnt
    dist[0] = 0.0
    parent = [-1] * cnt
    used = [False] * cnt
    total = 0.0
    for _ in range(cnt):
        best = -1
        bd = inf
        for vtx in range(cnt):
            if not used[vtx] and dist[vtx] < bd:
                bd = dist[vtx]
                best = vtx
        if best < 0:
            return inf, None
        used[best] = True
        total += bd
        row = w[best]
        for vtx in range(cnt):
            if not used[vtx] and row[vtx] < dist[vtx]:
                dist[vtx] = row[vtx]
                parent[vtx] = best
    return total, parent


def _reattach(parent, x, top, new_parent) -> None:
    """Drop the tree edge above `top` and hang top's subtree from
    `new_parent` through x, a vertex of that subtree, by reversing the
    parent pointers on the path x..top."""
    prev = new_parent
    while True:
        nxt = parent[x]
        parent[x] = prev
        if x == top:
            return
        prev, x = x, nxt


def _tree_swap_in(w, parent, a, b, old):
    """Keep a minimum spanning tree of w (a Prim parent array, rooted at 0)
    minimum after the weight of (a, b) fell from `old` to w[a][b]: a tree
    edge stays, and a non-tree edge replaces the heaviest edge on the tree
    path from a to b when that one is heavier. Returns the change in tree
    weight and the tree, a new list only when it changed."""
    new = w[a][b]
    if parent[a] == b or parent[b] == a:
        return new - old, parent
    up_a, up_b = [a], [b]  # each end's path to the root
    for up in up_a, up_b:
        while up[-1]:
            up.append(parent[up[-1]])
    while len(up_a) > 1 and len(up_b) > 1 and up_a[-2] == up_b[-2]:
        up_a.pop()
        up_b.pop()
    # Path edges (x, parent[x]) for x below the common ancestor.
    heavy, top, end, other = max([(w[x][parent[x]], x, a, b) for x in up_a[:-1]]
                                 + [(w[x][parent[x]], x, b, a) for x in up_b[:-1]])
    if heavy <= new:
        return 0.0, parent
    parent = parent[:]
    _reattach(parent, end, top, other)
    return new - heavy, parent


def _tree_cut_replace(w, parent, a, b, old, cells):
    """Keep a minimum spanning tree of w (a Prim parent array, rooted at 0)
    minimum after its edge (a, b), of weight `old`, was forbidden. `cells`
    yields the allowed cells (i, j) of w in nondecreasing weight, and the
    first one across the cut rejoins the two sides. Returns the change in
    tree weight and the new tree, or (inf, parent) when none crosses."""
    top = a if parent[a] == b else b
    side = [0] * len(parent)  # 1 in top's subtree, 2 outside, 0 not known
    side[top] = 1
    side[0] = 2
    for x, y in cells:
        v = x
        while not side[v]:
            v = parent[v]
        on_x = side[v]
        v = y
        while not side[v]:
            v = parent[v]
        if side[v] != on_x:
            if on_x == 2:
                x, y = y, x
            parent = parent[:]
            _reattach(parent, x, top, y)
            return w[x][y] - old, parent
    return math.inf, parent


def solve_exact(h: Hypergraph, c: ConstraintSet = UNRESTRICTED,
                limits: SolveLimits | None = None) -> ExactResult:
    """Provably-optimal support via branch and bound over edge inclusion.

    Edges are branched in (length, u, v) order, include-first. The lower
    bound at a node splits each candidate's length equally among the h(e)
    hyperedges that hold it, share(e) = length(e) / h(e), and adds to the
    committed length the sum over hyperedges of the MST completion cost under
    those shares (committed-in edges free, committed-out forbidden). The
    shares of an edge sum to its length, and any support contains a spanning
    tree of each hyperedge, so its length is at least the committed length
    plus that sum: the bound is valid in every regime. (This is a Lagrangian
    cost split with fixed multipliers; Held & Karp 1970, Fisher 1981.)
    Raises InfeasibleError when the completed search finds nothing feasible
    and LimitsExceededError when caps bite before any incumbent exists. A
    capped search returns proven_optimal=False and its seed (one
    star-seeded climb under c, if the star fits c) or better. The time cap
    counts from this call's entry and is checked at every node (see
    SolveLimits).
    One _Tables over every candidate gives the branching order, lengths and
    index, the seed climb and, under p and pt, each candidate's conflicts,
    read off its bulk index when the search first tries to include it.

    The bound is kept incrementally. Every hyperedge has a weight matrix of
    shares updated in place as edges are decided and undone, and each node
    hands the hyperedges' minimum spanning trees (value and parent array) to
    its children, which update them by swaps that keep them minimum: an
    included edge replaces the heaviest edge on its tree path
    (_tree_swap_in), and an excluded tree edge the lightest edge across the
    cut it leaves (_tree_cut_replace). That cut scan walks the hyperedge's
    undecided cells from the start in (share, rank) order: no included edge
    crosses the cut (it would have beaten the excluded one), so the first
    undecided crossing cell is the lightest. Branching runs in length order,
    not share order, so decided cells lie anywhere in that walk. Prim runs
    only at the root and for hyperedges whose tree lost an edge to a
    forced-out conflict; those values are bit-exact, and swapped ones carry
    rounding from their running sums, far inside _TIE_EPS, so the leaf test
    confirms a near-zero completion with Prim.
    """
    t_start = time.perf_counter()
    limits = limits or SolveLimits()
    tables = _tables(h)
    m = tables.ncand
    order, elen, idx_of = tables.pairs[:m], tables.plen, tables.index
    share = [elen[i] / tables.held[i].bit_count() for i in range(m)]
    inf = math.inf
    k = h.k

    # weights[s] is hyperedge s's local weight matrix under the current
    # status (0.0 in, inf out, the share when undecided). edge_locals[e]
    # lists the (s, i, j) cells edge e occupies, and entry_edges[s]
    # hyperedge s's (e, i, j) cells in (share, rank) order.
    weights: list[list[list[float]]] = []
    edge_locals: list[list[tuple[int, int, int]]] = [[] for _ in range(m)]
    entry_edges: list[list[tuple[int, int, int]]] = []
    for s, hyp in enumerate(h.hyperedges):
        mem = sorted(hyp)
        w = [[inf] * len(mem) for _ in mem]
        cells = []
        for i in range(len(mem)):
            for j in range(i + 1, len(mem)):
                eidx = idx_of.get((mem[i], mem[j]))
                if eidx is not None:
                    w[i][j] = w[j][i] = share[eidx]
                    cells.append((eidx, i, j))
                    edge_locals[eidx].append((s, i, j))
        cells.sort(key=lambda cell: (share[cell[0]], cell[0]))
        weights.append(w)
        entry_edges.append(cells)

    conflicts: list[list[int] | None] = [None] * m  # by rank, on a first inclusion
    status = bytearray(m)  # 0 undecided, 1 in, 2 out

    def set_status(eidx: int, st: int) -> None:
        status[eidx] = st
        val = share[eidx] if st == 0 else (0.0 if st == 1 else inf)
        for s, i, j in edge_locals[eidx]:
            w = weights[s]
            w[i][j] = w[j][i] = val

    def refresh(d: int, values, parents, dirty) -> bool:
        """Bring every hyperedge's tree up to date after branch d decided
        edge d: Prim for those in dirty, a swap where d's decision changes
        the tree. False when one of them can no longer be connected."""
        for s in dirty:
            values[s], parents[s] = _prim(weights[s])
            if parents[s] is None:
                return False
        if d < 0:
            return True
        for s, i, j in edge_locals[d]:
            if s in dirty:
                continue
            par = parents[s]
            if status[d] == 1:
                delta, parents[s] = _tree_swap_in(weights[s], par, i, j, share[d])
            elif par[i] == j or par[j] == i:
                undecided = ((a, b) for e, a, b in entry_edges[s] if not status[e])
                delta, parents[s] = _tree_cut_replace(weights[s], par, i, j, share[d],
                                                      undecided)
                if delta == inf:
                    return False
            else:
                continue
            values[s] += delta
        return True

    seed = _initial_incumbent(tables, c)
    best_len, best_edges = seed if seed is not None else (None, None)

    included: list[int] = []
    gdsu = DisjointSet(h.n) if c.require_acyclic else None
    nodes = 0
    committed = 0.0

    def dfs(depth: int, values: list[float], parents: list, dirty: set[int]) -> None:
        # Edge depth - 1 was decided on the way here; dirty holds the
        # hyperedges whose tree lost an edge to a forced-out conflict.
        nonlocal nodes, best_len, best_edges, committed
        nodes += 1
        if limits.node_cap is not None and nodes > limits.node_cap:
            raise _Capped
        if limits.time_cap is not None and time.perf_counter() - t_start > limits.time_cap:
            raise _Capped

        values = values[:]
        parents = parents[:]
        if not refresh(depth - 1, values, parents, dirty):
            return
        if best_len is not None and committed + sum(values) > best_len + _TIE_EPS:
            return
        worst = max(values, default=0.0)
        if worst <= _TIE_EPS and not any(_prim(weights[s])[0] for s in range(k)):
            # Committed edges already span every hyperedge (swapped values
            # carry rounding, so Prim confirms it); any deeper node only
            # adds edges, so this is the subtree's best solution.
            sol = frozenset(order[i] for i in included)
            if _better_solution(committed, sol, best_len, best_edges):
                best_len, best_edges = committed, sol
            return

        d = depth
        while d < m and status[d] != 0:
            d += 1
        if d == m:
            return

        u, v = order[d]
        if c.require_plane and conflicts[d] is None:
            conflicts[d] = _conflict_list(tables, d)
        feasible = not (c.require_plane and any(status[j] == 1 for j in conflicts[d]))
        token = None
        if feasible and gdsu is not None:
            token = gdsu.union(u, v)
            feasible = token is not None  # None: (u, v) would close a cycle
        if feasible:
            set_status(d, 1)
            forced: list[int] = []
            hit: set[int] = set()
            if c.require_plane:
                for j in conflicts[d]:
                    if status[j] == 0:
                        set_status(j, 2)
                        forced.append(j)
                        for s, a, b in edge_locals[j]:
                            par = parents[s]
                            if par[a] == b or par[b] == a:
                                hit.add(s)
            included.append(d)
            committed += elen[d]
            dfs(d + 1, values, parents, hit)
            committed -= elen[d]
            included.pop()
            for j in forced:
                set_status(j, 0)
            if token is not None:
                gdsu.undo(token)

        set_status(d, 2)
        dfs(d + 1, values, parents, set())
        set_status(d, 0)

    capped = False
    try:
        dfs(0, [0.0] * k, [()] * k, set(range(k)))
    except _Capped:
        capped = True

    if best_edges is None:
        if capped:
            raise LimitsExceededError(
                f"search capped after {nodes} nodes with no feasible support")
        raise InfeasibleError(
            f"no support satisfies constraints '{c.label}' for this instance")
    support = SupportGraph(best_edges)
    return ExactResult(support, total_length(support, h), not capped, nodes)

