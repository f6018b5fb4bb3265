"""Exact solving: the flow-based integer model, a deterministic LP-file
emitter for external MILP solvers, an internal branch-and-bound solver for
desk-scale instances, and a brute-force oracle used by the tests.

The solver and the oracle share one preference rule between equal-quality
solutions (shorter by more than 1e-9, else lexicographically smaller edge
set), so their results are comparable edge for edge.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .geom import SegmentConflicts
from .model import (ConstraintSet, DisjointSet, Edge, Hypergraph, SupportGraph,
                    UNRESTRICTED, candidate_edges, conflict_index_pairs, satisfies,
                    total_length)
from .heuristics import local_search, mst_iteration
from .mst import EmptyCoreError

_TOL = 1e-9


class InfeasibleError(Exception):
    """No support satisfies the requested constraints."""


class LimitsExceededError(Exception):
    """Search hit its caps before finding any feasible support."""


@dataclass(frozen=True)
class SolveLimits:
    node_cap: int | None = None
    time_cap: float | None = None


@dataclass(frozen=True)
class ExactResult:
    support: SupportGraph
    length: float
    proven_optimal: bool
    nodes_explored: int


@dataclass(frozen=True)
class IlpModel:
    """The integer program as data: one binary per candidate edge, one flow
    variable per hyperedge and ordered member pair, crossing constraints in
    plane mode, and a global commodity plus an edge-count row in tree mode."""

    n: int
    edge_vars: tuple[Edge, ...]
    edge_lengths: tuple[float, ...]
    hyperedge_members: tuple[tuple[int, ...], ...]
    sinks: tuple[int, ...]
    flow_vars: tuple[tuple[int, int, int], ...]
    flow_bounds: tuple[int, ...]
    crossing_pairs: tuple[tuple[Edge, Edge], ...]
    plane_mode: bool
    tree_mode: bool
    tree_flow_vars: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for (s, _, _), bound in zip(self.flow_vars, self.flow_bounds):
            if bound != len(self.hyperedge_members[s]) - 1:
                raise ValueError("flow bound must be |s| - 1")


def build_model(h: Hypergraph, c: ConstraintSet = UNRESTRICTED) -> IlpModel:
    """Assemble the integer model for h under the given constraint set.

    Candidate edges are restricted to pairs sharing a hyperedge; crossing
    constraints appear only in plane mode. Tree mode adds a single global
    commodity flowing to the smallest vertex id with a candidate neighbour,
    plus an edge-count row, which together force a spanning tree.
    """
    edges = tuple(candidate_edges(h))
    lengths = tuple(h.edge_length(u, v) for u, v in edges)
    members = tuple(tuple(sorted(s)) for s in h.hyperedges)
    sinks = tuple(mem[0] for mem in members)

    flow_vars: list[tuple[int, int, int]] = []
    flow_bounds: list[int] = []
    for s, mem in enumerate(members):
        bound = len(mem) - 1
        for u in mem:
            for v in mem:
                if u != v:
                    flow_vars.append((s, u, v))
                    flow_bounds.append(bound)

    crossing: list[tuple[Edge, Edge]] = []
    if c.require_plane:
        crossing = [(edges[i], edges[j]) for i, j in conflict_index_pairs(h, edges)]

    tree_flows: list[tuple[int, int]] = []
    if c.require_acyclic and h.n > 1:
        for u, v in edges:
            tree_flows.append((u, v))
            tree_flows.append((v, u))

    return IlpModel(
        n=h.n,
        edge_vars=edges,
        edge_lengths=lengths,
        hyperedge_members=members,
        sinks=sinks,
        flow_vars=tuple(flow_vars),
        flow_bounds=tuple(flow_bounds),
        crossing_pairs=tuple(crossing),
        plane_mode=c.require_plane,
        tree_mode=c.require_acyclic,
        tree_flow_vars=tuple(tree_flows),
    )


def _evar(e: Edge) -> str:
    return f"e_{e[0]}_{e[1]}"


def _fvar(s: int, u: int, v: int) -> str:
    return f"f_{s}_{u}_{v}"


def _gvar(u: int, v: int) -> str:
    return f"g_{u}_{v}"


def _emit_row(out: list[str], name: str, terms: list[tuple[int, str]],
              relation: str | None, rhs: int | None, limit: int = 240) -> None:
    # terms are (sign, text); wrapping happens at term granularity so a sign
    # never ends up separated from its variable.
    pieces = [f" {name}:"]
    for idx, (sign, text) in enumerate(terms):
        if idx == 0:
            pieces.append(text if sign > 0 else f"- {text}")
        else:
            pieces.append(f"{'+' if sign > 0 else '-'} {text}")
    if relation is not None:
        pieces.append(f"{relation} {rhs}")
    line = pieces[0]
    for piece in pieces[1:]:
        if len(line) + 1 + len(piece) > limit:
            out.append(line)
            line = "  " + piece
        else:
            line += " " + piece
    out.append(line)


def emit_lp(m: IlpModel) -> str:
    """Serialise the model as deterministic LP-format text.

    Variables are ordered by (u, v) then (s, u, v); rows are grouped as
    crossing, then the four flow families per hyperedge, then tree rows.
    Emitting the same model twice yields byte-identical text.
    """
    out: list[str] = ["Minimize"]
    obj_terms = [(1, f"{w:.9f} {_evar(e)}") for e, w in zip(m.edge_vars, m.edge_lengths)]
    if not obj_terms:
        obj_terms = [(1, "0 dummy")]
    _emit_row(out, "obj", obj_terms, None, None)

    out.append("Subject To")
    for i, (e1, e2) in enumerate(m.crossing_pairs):
        _emit_row(out, f"cx_{i}", [(1, _evar(e1)), (1, _evar(e2))], "<=", 1)

    for s, mem in enumerate(m.hyperedge_members):
        if len(mem) <= 1:
            continue
        sink = m.sinks[s]
        terms = [(1, _fvar(s, u, sink)) for u in mem if u != sink]
        _emit_row(out, f"fa_{s}", terms, "=", len(mem) - 1)
    for s, mem in enumerate(m.hyperedge_members):
        sink = m.sinks[s]
        for v in mem:
            if v != sink:
                _emit_row(out, f"fb_{s}_{v}", [(1, _fvar(s, sink, v))], "=", 0)
    for s, mem in enumerate(m.hyperedge_members):
        sink = m.sinks[s]
        for u in mem:
            if u == sink:
                continue
            terms = [(1, _fvar(s, u, v)) for v in mem if v != u]
            terms += [(-1, _fvar(s, v, u)) for v in mem if v != u]
            _emit_row(out, f"fc_{s}_{u}", terms, "=", 1)
    for (s, u, v), bound in zip(m.flow_vars, m.flow_bounds):
        e = (u, v) if u < v else (v, u)
        _emit_row(out, f"fd_{s}_{u}_{v}",
                  [(1, _fvar(s, u, v)), (-1, f"{bound} {_evar(e)}")], "<=", 0)

    if m.tree_mode and m.n > 1:
        in_of: dict[int, list[int]] = {}
        out_of: dict[int, list[int]] = {}
        for u, v in m.tree_flow_vars:
            out_of.setdefault(u, []).append(v)
            in_of.setdefault(v, []).append(u)
        with_neighbours = sorted(out_of)
        if not with_neighbours:
            raise ValueError("tree variant needs at least one candidate edge")
        sink = with_neighbours[0]
        if len(with_neighbours) < m.n:
            raise ValueError("tree variant needs every vertex adjacent to a candidate edge")
        _emit_row(out, "tg_a", [(1, _gvar(u, sink)) for u in sorted(in_of[sink])],
                  "=", m.n - 1)
        for v in sorted(out_of[sink]):
            _emit_row(out, f"tg_b_{v}", [(1, _gvar(sink, v))], "=", 0)
        for u in with_neighbours:
            if u == sink:
                continue
            terms = [(1, _gvar(u, v)) for v in sorted(out_of[u])]
            terms += [(-1, _gvar(v, u)) for v in sorted(in_of[u])]
            _emit_row(out, f"tg_c_{u}", terms, "=", 1)
        for u, v in m.tree_flow_vars:
            e = (u, v) if u < v else (v, u)
            _emit_row(out, f"tg_d_{u}_{v}",
                      [(1, _gvar(u, v)), (-1, f"{m.n - 1} {_evar(e)}")], "<=", 0)
        _emit_row(out, "tg_count", [(1, _evar(e)) for e in m.edge_vars], "=", m.n - 1)

    out.append("Bounds")
    for (s, u, v), bound in zip(m.flow_vars, m.flow_bounds):
        out.append(f" 0 <= {_fvar(s, u, v)} <= {bound}")
    if m.tree_mode:
        for u, v in m.tree_flow_vars:
            out.append(f" 0 <= {_gvar(u, v)} <= {m.n - 1}")

    out.append("Binaries")
    for e in m.edge_vars:
        out.append(f" {_evar(e)}")
    out.append("Generals")
    for s, u, v in m.flow_vars:
        out.append(f" {_fvar(s, u, v)}")
    if m.tree_mode:
        for u, v in m.tree_flow_vars:
            out.append(f" {_gvar(u, v)}")
    out.append("End")
    return "\n".join(out) + "\n"


def _better_solution(new_len: float, new_edges, old_len, old_edges) -> bool:
    """Shared preference: shorter wins; near-ties go to the lexicographically
    smaller sorted edge list."""
    if old_len is None:
        return True
    if new_len < old_len - _TOL:
        return True
    if new_len <= old_len + _TOL and sorted(new_edges) < sorted(old_edges):
        return True
    return False


def _greedy_support(h: Hypergraph, c: ConstraintSet):
    """Cheap constrained construction used only to seed the search when the
    core is empty; may fail (returns None)."""
    cands = sorted(candidate_edges(h), key=lambda e: (h.edge_length(*e), e))
    per_hyp = [DisjointSet(h.n) for _ in range(h.k)]
    global_dsu = DisjointSet(h.n) if c.require_acyclic else None
    chosen: list[Edge] = []
    # Candidates that conflict with a chosen edge, under the plane regimes.
    blocked: set[Edge] = set()
    bulk = SegmentConflicts(h.vertices, cands) if c.require_plane else None
    for e in cands:
        u, v = e
        holding = [s for s, mem in enumerate(h.hyperedges) if u in mem and v in mem]
        if e in blocked or all(per_hyp[s].connected(u, v) for s in holding):
            continue
        if global_dsu is not None and global_dsu.union(u, v) is None:
            continue
        chosen.append(e)
        if bulk is not None:
            blocked |= bulk.conflicting(u, v)
        for s in holding:
            per_hyp[s].union(u, v)
    g = SupportGraph(frozenset(chosen))
    if satisfies(g, h, c):
        return g
    return None


def _initial_incumbent(h: Hypergraph, c: ConstraintSet):
    """Best feasible support any heuristic can supply, or None."""
    if h.core():
        try:
            report = local_search(h, c)
            return report.length, frozenset(report.support.edges)
        except (EmptyCoreError, ValueError):
            pass
    report = mst_iteration(h)
    if satisfies(report.support, h, c):
        return report.length, frozenset(report.support.edges)
    g = _greedy_support(h, c)
    if g is not None:
        return total_length(g, h), frozenset(g.edges)
    return None


class _Capped(Exception):
    pass


def solve_exact(h: Hypergraph, c: ConstraintSet = UNRESTRICTED,
                limits: SolveLimits | None = None) -> ExactResult:
    """Provably-optimal support via branch and bound over edge inclusion.

    Edges are branched in (length, u, v) order, include-first. The lower
    bound at a node is the committed length plus the worst per-hyperedge MST
    completion cost (committed-in edges free, committed-out forbidden).
    Raises InfeasibleError when the completed search finds nothing feasible
    and LimitsExceededError when caps bite before any incumbent exists;
    otherwise a capped search returns its incumbent with
    proven_optimal=False.

    The bound is kept incrementally. Each hyperedge's weight matrix is
    updated in place as edges are decided and undone, and each node hands
    its per-hyperedge completions (value and Prim parent array) to its
    children. A child runs Prim again only for the hyperedges its branch
    can have changed: on the include branch, those containing the branched
    edge and those whose tree used a conflicting edge forced out; on the
    exclude branch, those whose tree used the excluded edge. A non-tree
    edge at most set a distance that a strictly smaller one later
    replaced, so forbidding it leaves every choice of Prim (strict
    improvement, first minimum), the parent array and the summed value
    unchanged, bit for bit. A clean value that already prunes ends the node
    before any recomputation. Bounds, node counts and supports are therefore
    those of recomputing every completion at every node.
    """
    limits = limits or SolveLimits()
    cands = candidate_edges(h)
    order = sorted(cands, key=lambda e: (h.edge_length(*e), e))
    m = len(order)
    elen = [h.edge_length(*e) for e in order]
    idx_of = {e: i for i, e in enumerate(order)}
    inf = math.inf
    k = h.k

    # weights[s] is hyperedge s's local weight matrix under the current
    # status (0.0 in, inf out, the length when undecided); edge_locals[e]
    # lists the (s, i, j) cells edge e occupies.
    weights: list[list[list[float]]] = []
    edge_locals: list[list[tuple[int, int, int]]] = [[] for _ in range(m)]
    for s, hyp in enumerate(h.hyperedges):
        mem = sorted(hyp)
        w = [[inf] * len(mem) for _ in mem]
        for i in range(len(mem)):
            for j in range(i + 1, len(mem)):
                eidx = idx_of[(mem[i], mem[j])]
                w[i][j] = w[j][i] = elen[eidx]
                edge_locals[eidx].append((s, i, j))
        weights.append(w)

    conflicts: list[list[int]] = [[] for _ in range(m)]
    if c.require_plane:
        for i, j in conflict_index_pairs(h, order):
            conflicts[i].append(j)
            conflicts[j].append(i)

    status = bytearray(m)  # 0 undecided, 1 in, 2 out

    def set_status(eidx: int, st: int) -> None:
        status[eidx] = st
        val = elen[eidx] if st == 0 else (0.0 if st == 1 else inf)
        for s, i, j in edge_locals[eidx]:
            w = weights[s]
            w[i][j] = w[j][i] = val

    def completion(s: int):
        """Prim from local vertex 0: (total, parent array), or (inf, None)
        when the hyperedge cannot be connected."""
        w = weights[s]
        cnt = len(w)
        if cnt <= 1:
            return 0.0, ()
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

    def tree_users(eidx: int, parents, into: set[int]) -> None:
        for s, i, j in edge_locals[eidx]:
            par = parents[s]
            if par[i] == j or par[j] == i:
                into.add(s)

    seed = _initial_incumbent(h, c)
    best_len, best_edges = seed if seed is not None else (None, None)

    included: list[int] = []
    gdsu = DisjointSet(h.n) if c.require_acyclic else None
    nodes = 0
    committed = 0.0
    t_start = time.perf_counter()

    def dfs(depth: int, values: list[float], parents: list, dirty: set[int]) -> None:
        nonlocal nodes, best_len, best_edges, committed
        nodes += 1
        if limits.node_cap is not None and nodes > limits.node_cap:
            raise _Capped
        if limits.time_cap is not None and nodes % 128 == 0 \
                and time.perf_counter() - t_start > limits.time_cap:
            raise _Capped

        if dirty:
            if best_len is not None:
                limit = best_len + _TOL
                for s in range(k):
                    if s not in dirty and committed + values[s] > limit:
                        return
            values = values[:]
            parents = parents[:]
            for s in dirty:
                comp, par = completion(s)
                if comp == inf:
                    return
                values[s] = comp
                parents[s] = par
        worst = max(values, default=0.0)
        if best_len is not None and committed + worst > best_len + _TOL:
            return
        if worst <= 0.0:
            # Committed edges already span every hyperedge; any deeper node
            # only adds edges, so this is the subtree's best solution.
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
        feasible = not (c.require_plane and any(status[j] == 1 for j in conflicts[d]))
        token = None
        if feasible and gdsu is not None:
            token = gdsu.union(u, v)
            feasible = token is not None  # None: (u, v) would close a cycle
        if feasible:
            set_status(d, 1)
            changed = {s for s, _, _ in edge_locals[d]}
            forced: list[int] = []
            if c.require_plane:
                for j in conflicts[d]:
                    if status[j] == 0:
                        set_status(j, 2)
                        forced.append(j)
                        tree_users(j, parents, changed)
            included.append(d)
            committed += elen[d]
            dfs(d + 1, values, parents, changed)
            committed -= elen[d]
            included.pop()
            for j in forced:
                set_status(j, 0)
            if token is not None:
                gdsu.undo(token)

        set_status(d, 2)
        changed = set()
        tree_users(d, parents, changed)
        dfs(d + 1, values, parents, changed)
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


def brute_force_oracle(h: Hypergraph, c: ConstraintSet = UNRESTRICTED) -> ExactResult:
    """Exhaustive DFS over candidate-edge subsets, pruned only by a running
    length bound. Independent of solve_exact: id-ordered enumeration, no MST
    bounds, no propagation; feasibility is checked per subset.
    """
    if h.n > 8:
        raise ValueError(f"oracle limited to n <= 8 vertices, got {h.n}")
    edges = candidate_edges(h)
    m = len(edges)
    elen = [h.edge_length(*e) for e in edges]

    conflicts: list[list[int]] = [[] for _ in range(m)]
    if c.require_plane:
        for i, j in conflict_index_pairs(h, edges):
            conflicts[i].append(j)
            conflicts[j].append(i)

    members_sorted = [sorted(s) for s in h.hyperedges]
    local_index = [{v: i for i, v in enumerate(mem)} for mem in members_sorted]
    edge_locals: list[list[tuple[int, int, int]]] = []
    for u, v in edges:
        locs = []
        for s in range(h.k):
            mem = h.hyperedges[s]
            if u in mem and v in mem:
                locs.append((s, local_index[s][u], local_index[s][v]))
        edge_locals.append(locs)

    seed = _initial_incumbent(h, c)
    best_len, best_edges = seed if seed is not None else (None, None)

    in_flag = bytearray(m)
    chosen: list[int] = []
    gdsu = DisjointSet(h.n) if c.require_acyclic else None
    nodes = 0

    def chosen_is_support() -> bool:
        for s in range(h.k):
            cnt = len(members_sorted[s])
            if cnt <= 1:
                continue
            dsu = DisjointSet(cnt)
            comps = cnt
            for eidx in chosen:
                for s2, li, lj in edge_locals[eidx]:
                    if s2 == s and dsu.union(li, lj) is not None:
                        comps -= 1
            if comps > 1:
                return False
        return True

    def dfs(i: int, partial: float) -> None:
        nonlocal best_len, best_edges, nodes
        nodes += 1
        if best_len is not None and partial > best_len + _TOL:
            return
        if i == m:
            if chosen_is_support():
                sol = frozenset(edges[j] for j in chosen)
                if _better_solution(partial, sol, best_len, best_edges):
                    best_len, best_edges = partial, sol
            return
        feasible = True
        if c.require_plane and any(in_flag[j] for j in conflicts[i]):
            feasible = False
        token = None
        if feasible and gdsu is not None:
            token = gdsu.union(*edges[i])
            feasible = token is not None
        if feasible and (best_len is None or partial + elen[i] <= best_len + _TOL):
            in_flag[i] = 1
            chosen.append(i)
            dfs(i + 1, partial + elen[i])
            chosen.pop()
            in_flag[i] = 0
        if token is not None:
            gdsu.undo(token)
        dfs(i + 1, partial)

    dfs(0, 0.0)
    if best_edges is None:
        raise InfeasibleError(
            f"no support satisfies constraints '{c.label}' for this instance")
    support = SupportGraph(best_edges)
    return ExactResult(support, total_length(support, h), True, nodes)
