"""The brute-force oracle that the tests check solve_exact against.

It shares with solve_exact only the seed incumbent and exact._better_solution,
the preference rule between equal-quality solutions, so the two results are
comparable edge for edge.
"""

from plane_supports.exact import (ExactResult, InfeasibleError, _better_solution,
                                  _initial_incumbent, _tables)
from plane_supports.heuristics import _TIE_EPS
from plane_supports.model import (UNRESTRICTED, ConstraintSet, DisjointSet, Hypergraph,
                                  SupportGraph, candidate_edges, conflict_index_pairs,
                                  total_length)


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

    seed = _initial_incumbent(_tables(h), c)
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
        if best_len is not None and partial > best_len + _TIE_EPS:
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
        if feasible and (best_len is None or partial + elen[i] <= best_len + _TIE_EPS):
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
