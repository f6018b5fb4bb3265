import math
import random

import pytest

from plane_supports.exact import (ExactResult, InfeasibleError, LimitsExceededError,
                                  SolveLimits, _greedy_support, brute_force_oracle,
                                  build_model, emit_lp, solve_exact)
from plane_supports.gen import DegreeScheme, generate
from plane_supports.heuristics import mst_approximation
from plane_supports.geom import segments_conflict
from plane_supports.model import (ALL_CONSTRAINTS, ConstraintSet, DisjointSet, Hypergraph,
                                  PLANE, PLANE_TREE, TREE, UNRESTRICTED, SupportGraph,
                                  candidate_edges, satisfies, total_length)
from plane_supports.mst import emst


def hg(points, hyperedges):
    return Hypergraph.build(points, hyperedges)


X_CONFIG = hg([(0, 0), (1, 1), (0, 1), (1, 0)], [{0, 1}, {2, 3}])


def small_instances(count, seed0=0):
    out = []
    i = 0
    while len(out) < count:
        n = 5 + i % 3
        k = 2 + i % 2
        scheme = list(DegreeScheme)[i % 4]
        out.append(generate(n, k, scheme, random.Random(seed0 + i)))
        i += 1
    return out


def test_build_model_counts():
    pts = [(i * 7 % 13, i * 11 % 17) for i in range(5)]
    h = hg(pts, [set(range(5))])
    m = build_model(h, UNRESTRICTED)
    assert len(m.edge_vars) == 10            # C(5, 2)
    assert len(m.flow_vars) == 20            # 5 * 4 ordered pairs
    assert m.crossing_pairs == ()            # plane flag off
    assert m.sinks == (0,)
    assert all(b == 4 for b in m.flow_bounds)


def test_build_model_flow_rhs_uses_hyperedge_size():
    h = hg([(0, 0), (1, 0), (0, 1), (5, 5)], [{0, 1, 2}, {0, 3}])
    m = build_model(h, UNRESTRICTED)
    text = emit_lp(m)
    assert " fa_0: f_0_1_0 + f_0_2_0 = 2" in text
    assert " fa_1: f_1_3_0 = 1" in text


def test_build_model_crossings_only_in_plane_mode():
    assert build_model(X_CONFIG, UNRESTRICTED).crossing_pairs == ()
    m = build_model(X_CONFIG, PLANE)
    assert m.crossing_pairs == (((0, 1), (2, 3)),)


def test_emit_lp_single_edge_instance():
    h = hg([(0, 0), (3, 4)], [{0, 1}])
    text = emit_lp(build_model(h, UNRESTRICTED))
    lines = text.splitlines()
    assert lines[0] == "Minimize"
    assert lines[1] == " obj: 5.000000000 e_0_1"
    assert " fa_0: f_0_1_0 = 1" in lines
    assert " fb_0_1: f_0_0_1 = 0" in lines
    assert " fc_0_1: f_0_1_0 - f_0_0_1 = 1" in lines
    assert " fd_0_0_1: f_0_0_1 - 1 e_0_1 <= 0" in lines
    assert " fd_0_1_0: f_0_1_0 - 1 e_0_1 <= 0" in lines
    assert " 0 <= f_0_0_1 <= 1" in lines
    assert lines[-1] == "End"
    assert text.index("Binaries") < text.index("Generals")


def test_emit_lp_x_configuration_has_one_crossing_row():
    text = emit_lp(build_model(X_CONFIG, PLANE))
    assert text.count("cx_") == 1
    assert " cx_0: e_0_1 + e_2_3 <= 1" in text


def test_emit_lp_tree_rows():
    h = hg([(0, 0), (1, 0), (0, 1)], [{0, 1, 2}])
    text = emit_lp(build_model(h, TREE))
    assert " tg_a: g_1_0 + g_2_0 = 2" in text
    assert " tg_count: e_0_1 + e_0_2 + e_1_2 = 2" in text
    assert " tg_d_0_1: g_0_1 - 2 e_0_1 <= 0" in text


def test_emit_lp_deterministic():
    h = generate(9, 3, DegreeScheme.MID, random.Random(17))
    for c in ALL_CONSTRAINTS:
        a = emit_lp(build_model(h, c))
        b = emit_lp(build_model(h, c))
        assert a == b


def test_solve_exact_single_hyperedge_is_emst():
    h = hg([(0, 0), (10, 0), (4, 3)], [{0, 1, 2}])
    res = solve_exact(h, UNRESTRICTED)
    assert res.proven_optimal
    assert res.support.edges == emst([0, 1, 2], h).edges


def test_solve_exact_x_configuration():
    with pytest.raises(InfeasibleError):
        solve_exact(X_CONFIG, PLANE)
    res = solve_exact(X_CONFIG, UNRESTRICTED)
    assert res.support.sorted_edges() == [(0, 1), (2, 3)]
    # under the forest reading of acyclicity the same two edges work
    res_t = solve_exact(X_CONFIG, TREE)
    assert res_t.support.sorted_edges() == [(0, 1), (2, 3)]


def test_solve_exact_matches_oracle_on_small_instances():
    for h in small_instances(12, seed0=50):
        for c in ALL_CONSTRAINTS:
            a = solve_exact(h, c)
            b = brute_force_oracle(h, c)
            assert a.proven_optimal and b.proven_optimal
            assert a.length == pytest.approx(b.length, abs=1e-9)
            assert a.support == b.support


def test_exact_never_longer_than_heuristics():
    from plane_supports.heuristics import local_search, mst_iteration
    for h in small_instances(6, seed0=80):
        opt = solve_exact(h, UNRESTRICTED).length
        assert opt <= mst_iteration(h).length + 1e-9
        assert opt <= local_search(h).length + 1e-9
        assert mst_approximation(h).length <= h.k * opt + 1e-9


def test_oracle_identical_hyperedges_yield_emst():
    pts = [(0, 0), (10, 0), (4, 3), (7, 8)]
    h = hg(pts, [set(range(4)), set(range(4))])
    res = brute_force_oracle(h, UNRESTRICTED)
    assert res.length == pytest.approx(total_length(emst(range(4), h), h))


def test_oracle_forced_edges():
    h = hg([(0, 0), (1, 0), (5, 5), (5, 6)], [{0, 1}, {2, 3}])
    res = brute_force_oracle(h, UNRESTRICTED)
    assert res.support.sorted_edges() == [(0, 1), (2, 3)]


def test_oracle_nesting():
    for h in small_instances(6, seed0=130):
        opt_u = brute_force_oracle(h, UNRESTRICTED).length
        opt_pt = brute_force_oracle(h, PLANE_TREE).length
        assert opt_pt >= opt_u - 1e-9


def test_oracle_rejects_large_instances():
    h = generate(9, 2, DegreeScheme.MID, random.Random(1))
    with pytest.raises(ValueError):
        brute_force_oracle(h)


def test_node_cap_returns_unproven_incumbent():
    h = generate(10, 2, DegreeScheme.MID, random.Random(5))
    res = solve_exact(h, UNRESTRICTED, SolveLimits(node_cap=5))
    assert res.proven_optimal is False
    assert satisfies(res.support, h, UNRESTRICTED)
    full = solve_exact(h, UNRESTRICTED)
    assert full.proven_optimal
    assert full.length <= res.length + 1e-9


# (n, k, seed of a MID instance, regime, node cap) -> (nodes explored,
# length, proven optimal, sorted edges), recorded from the solver that ran
# Prim for every hyperedge at every node. The incremental bound must explore
# the same tree and return the same support.
_SEARCH_PINS = {
    (8, 2, 4, "u", None): (841, 196.61409259919296, True,
                           [(0, 4), (0, 6), (1, 4), (2, 7), (3, 5), (3, 6), (4, 7)]),
    (8, 2, 4, "t", None): (676, 196.61409259919296, True,
                           [(0, 4), (0, 6), (1, 4), (2, 7), (3, 5), (3, 6), (4, 7)]),
    (8, 2, 4, "p", None): (429, 196.61409259919296, True,
                           [(0, 4), (0, 6), (1, 4), (2, 7), (3, 5), (3, 6), (4, 7)]),
    (8, 2, 4, "pt", None): (365, 196.61409259919296, True,
                            [(0, 4), (0, 6), (1, 4), (2, 7), (3, 5), (3, 6), (4, 7)]),
    (8, 3, 2, "u", None): (461, 208.53608233936453, True,
                           [(0, 3), (1, 6), (2, 7), (3, 4), (3, 6), (3, 7), (5, 7)]),
    (8, 3, 2, "t", None): (402, 208.53608233936453, True,
                           [(0, 3), (1, 6), (2, 7), (3, 4), (3, 6), (3, 7), (5, 7)]),
    (8, 3, 2, "p", None): (399, 213.43091622996988, True,
                           [(0, 3), (1, 6), (2, 7), (3, 4), (3, 5), (3, 6), (3, 7)]),
    (8, 3, 2, "pt", None): (341, 213.43091622996988, True,
                            [(0, 3), (1, 6), (2, 7), (3, 4), (3, 5), (3, 6), (3, 7)]),
    (8, 3, 4, "u", None): (2465, 321.0899351015403, True,
                           [(0, 2), (0, 3), (0, 6), (0, 7), (1, 4), (1, 5), (4, 6), (5, 7)]),
    (8, 3, 4, "t", None): (5053, 343.8862859244787, True,
                           [(0, 2), (0, 3), (0, 5), (0, 6), (0, 7), (1, 4), (4, 6)]),
    (8, 3, 4, "p", None): (1801, 341.06149592494125, True,
                           [(0, 2), (0, 3), (0, 4), (0, 6), (0, 7), (1, 4), (1, 5), (5, 7)]),
    (8, 3, 4, "pt", None): (3814, 401.8008524345189, True,
                            [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7)]),
    (9, 2, 4, "u", None): (251, 255.32303601974525, True,
                           [(0, 3), (1, 2), (1, 4), (2, 3), (2, 5), (4, 7), (5, 6), (5, 8)]),
    (9, 2, 4, "t", None): (242, 255.32303601974525, True,
                           [(0, 3), (1, 2), (1, 4), (2, 3), (2, 5), (4, 7), (5, 6), (5, 8)]),
    (9, 2, 4, "p", None): (243, 258.1415682502174, True,
                           [(0, 1), (1, 2), (1, 4), (2, 3), (2, 5), (4, 7), (5, 6), (5, 8)]),
    (9, 2, 4, "pt", None): (236, 258.1415682502174, True,
                            [(0, 1), (1, 2), (1, 4), (2, 3), (2, 5), (4, 7), (5, 6), (5, 8)]),
    (9, 3, 3, "u", None): (347, 258.7099600811283, True,
                           [(0, 1), (0, 8), (1, 3), (1, 4), (1, 6), (2, 4), (3, 5), (3, 7)]),
    (9, 3, 3, "t", None): (255, 258.7099600811283, True,
                           [(0, 1), (0, 8), (1, 3), (1, 4), (1, 6), (2, 4), (3, 5), (3, 7)]),
    (9, 3, 3, "p", None): (235, 258.7099600811283, True,
                           [(0, 1), (0, 8), (1, 3), (1, 4), (1, 6), (2, 4), (3, 5), (3, 7)]),
    (9, 3, 3, "pt", None): (179, 258.7099600811283, True,
                            [(0, 1), (0, 8), (1, 3), (1, 4), (1, 6), (2, 4), (3, 5), (3, 7)]),
    (9, 3, 7, "u", None): (2115, 272.61727593091393, True,
                           [(0, 1), (0, 5), (1, 4), (1, 8), (2, 7), (3, 4), (4, 6), (4, 7),
                            (5, 7)]),
    (9, 3, 7, "t", None): (2382, 277.8394986707699, True,
                           [(0, 1), (1, 4), (1, 5), (1, 8), (2, 7), (3, 4), (4, 6), (4, 7)]),
    (9, 3, 7, "p", None): (803, 283.55605063891556, True,
                           [(0, 1), (0, 5), (1, 4), (1, 8), (2, 7), (3, 4), (4, 7), (5, 7),
                            (6, 8)]),
    (9, 3, 7, "pt", None): (1301, 301.3161961526688, True,
                            [(0, 1), (1, 4), (1, 5), (1, 7), (1, 8), (2, 7), (3, 4), (4, 6)]),
    # Capped after the search has improved on the heuristic seed (301.32 and
    # 348.93) but before it has proven that improvement optimal.
    (9, 3, 7, "p", 400): (401, 283.55605063891556, False,
                          [(0, 1), (0, 5), (1, 4), (1, 8), (2, 7), (3, 4), (4, 7), (5, 7),
                           (6, 8)]),
    (9, 3, 11, "p", 1000): (1001, 341.5454344156613, False,
                            [(0, 5), (1, 4), (1, 7), (2, 5), (3, 5), (3, 7), (4, 5), (5, 6),
                             (5, 8)]),
}


def test_search_tree_and_supports_are_pinned():
    for (n, k, seed, label, cap), expected in _SEARCH_PINS.items():
        h = generate(n, k, DegreeScheme.MID, random.Random(seed))
        res = solve_exact(h, ConstraintSet.from_label(label), SolveLimits(node_cap=cap))
        got = (res.nodes_explored, res.length, res.proven_optimal, res.support.sorted_edges())
        assert got == expected, (n, k, seed, label, cap)


def test_limits_without_incumbent_raise():
    # Empty core and plane-infeasible, so no heuristic incumbent exists.
    with pytest.raises((LimitsExceededError, InfeasibleError)):
        solve_exact(X_CONFIG, PLANE, SolveLimits(node_cap=1))


def _parse_lp(text):
    """Tiny LP reader for the emitter's own dialect (tests only)."""
    sections = {"Minimize": [], "Subject To": [], "Bounds": [], "Binaries": [],
                "Generals": []}
    current = None
    logical: list[str] = []
    for raw in text.splitlines():
        if raw in sections or raw == "End":
            current = raw
            continue
        if current == "End":
            break
        if raw.startswith("  "):
            logical[-1] += " " + raw.strip()
        else:
            logical.append(raw.strip())
            sections[current].append(len(logical) - 1)
    by_section = {name: [logical[i] for i in idxs] for name, idxs in sections.items()}

    def parse_terms(expr):
        tokens = expr.split()
        terms = []
        sign = 1.0
        coef = None
        for tok in tokens:
            if tok == "+":
                sign, coef = 1.0, None
            elif tok == "-":
                sign, coef = -1.0, None
            else:
                try:
                    coef = float(tok)
                except ValueError:
                    terms.append((sign * (1.0 if coef is None else coef), tok))
                    sign, coef = 1.0, None
        return terms

    objective = parse_terms(by_section["Minimize"][0].split(":", 1)[1])
    rows = []
    for row in by_section["Subject To"]:
        body = row.split(":", 1)[1]
        for rel in ("<=", ">=", "="):
            if f" {rel} " in body:
                lhs, rhs = body.rsplit(f" {rel} ", 1)
                rows.append((parse_terms(lhs), rel, float(rhs)))
                break
    bounds = {}
    for row in by_section["Bounds"]:
        lo, _, var, _, hi = row.split()
        bounds[var] = (float(lo), float(hi))
    return {"objective": objective, "rows": rows, "bounds": bounds,
            "binaries": by_section["Binaries"], "generals": by_section["Generals"]}


@pytest.mark.parametrize("label", ["u", "p", "t", "pt"])
def test_lp_round_trip_through_external_milp(label):
    scipy_opt = pytest.importorskip("scipy.optimize")
    import numpy as np
    from plane_supports.model import ConstraintSet

    c = ConstraintSet.from_label(label)
    h = generate(7, 2, DegreeScheme.MID, random.Random(99))
    model = build_model(h, c)
    parsed = _parse_lp(emit_lp(model))

    variables = parsed["binaries"] + parsed["generals"]
    index = {v: i for i, v in enumerate(variables)}
    nvar = len(variables)
    obj = np.zeros(nvar)
    for coef, var in parsed["objective"]:
        obj[index[var]] += coef
    rows_a, lo_b, hi_b = [], [], []
    for terms, rel, rhs in parsed["rows"]:
        row = np.zeros(nvar)
        for coef, var in terms:
            row[index[var]] += coef
        rows_a.append(row)
        lo_b.append(-np.inf if rel == "<=" else rhs)
        hi_b.append(np.inf if rel == ">=" else rhs)
    lb = np.zeros(nvar)
    ub = np.ones(nvar)
    for var, (lo, hi) in parsed["bounds"].items():
        lb[index[var]], ub[index[var]] = lo, hi
    res = scipy_opt.milp(
        c=obj,
        constraints=scipy_opt.LinearConstraint(np.array(rows_a), lo_b, hi_b),
        integrality=np.ones(nvar),
        bounds=scipy_opt.Bounds(lb, ub),
    )
    assert res.success, res.message

    from plane_supports.model import SupportGraph
    chosen = [model.edge_vars[i] for i, var in enumerate(parsed["binaries"])
              if res.x[index[var]] > 0.5]
    g = SupportGraph.from_pairs(chosen)
    assert satisfies(g, h, c)
    assert total_length(g, h) == pytest.approx(res.fun, abs=1e-6)
    # the external optimum agrees with the internal solver
    assert res.fun == pytest.approx(solve_exact(h, c).length, abs=1e-6)


def _greedy_reference(h, c):
    """_greedy_support with its plane test written as a pairwise scan of
    segments_conflict against every chosen segment."""
    cands = sorted(candidate_edges(h), key=lambda e: (h.edge_length(*e), e))
    per_hyp = [DisjointSet(h.n) for _ in range(h.k)]
    global_dsu = DisjointSet(h.n) if c.require_acyclic else None
    chosen, segs = [], []
    for e in cands:
        useful = any(e[0] in mem and e[1] in mem and not per_hyp[s].connected(*e)
                     for s, mem in enumerate(h.hyperedges))
        if not useful:
            continue
        if c.require_plane:
            seg = h.segment(*e)
            if any(segments_conflict(seg, s2) for s2 in segs):
                continue
        if global_dsu is not None and global_dsu.connected(*e):
            continue
        chosen.append(e)
        segs.append(h.segment(*e))
        if global_dsu is not None:
            global_dsu.union(*e)
        for s, mem in enumerate(h.hyperedges):
            if e[0] in mem and e[1] in mem:
                per_hyp[s].union(*e)
    g = SupportGraph(frozenset(chosen))
    return g if satisfies(g, h, c) else None


# Empty-core instances on which mst_iteration's support is not plane, so
# solve_exact seeds its search with _greedy_support: (points, hyperedges,
# the optimum's edges, nodes under p, nodes under pt). The greedy support is
# the optimum on each. The pinned node counts are those of the pairwise scan.
EMPTY_CORE_PLANE = [
    ([(0, -1), (0, 1), (-1.5, 0), (1.5, 0), (0, 5)], [{0, 1}, {2, 3, 4}],
     [(0, 1), (2, 4), (3, 4)], 7, 7),
    ([(4, 2), (2, 4), (2, 1), (1, 4), (3, 2), (2, 2), (2, 0)],
     [{2, 3, 5}, {0, 1, 4}, {4, 5, 6}],
     [(0, 4), (1, 4), (2, 5), (3, 5), (4, 5), (4, 6)], 67, 67),
    ([(0, 1), (2, 1), (0, 2), (3, 4), (1, 2), (1, 1)], [{1, 2, 3, 5}, {0, 4}],
     [(0, 4), (1, 3), (1, 5), (2, 3)], 11, 11),
    ([(2, 2), (1, 1), (1, 3), (0, 0), (1, 4), (0, 1), (4, 2), (0, 2)],
     [{3, 4, 5, 6}, {0, 1, 2, 7}],
     [(0, 1), (0, 2), (1, 7), (3, 5), (3, 6), (4, 6)], 115, 104),
]


@pytest.mark.parametrize("points,hyperedges,edges,nodes_p,nodes_pt", EMPTY_CORE_PLANE)
def test_greedy_seed_under_plane_regimes(points, hyperedges, edges, nodes_p, nodes_pt):
    h = hg(points, hyperedges)
    assert not h.core()
    for c, nodes in ((PLANE, nodes_p), (PLANE_TREE, nodes_pt)):
        greedy = _greedy_support(h, c)
        assert greedy == _greedy_reference(h, c)
        assert greedy.sorted_edges() == edges
        res = solve_exact(h, c)
        assert res.support.sorted_edges() == edges
        assert res.nodes_explored == nodes
        assert res.proven_optimal


def test_greedy_seed_matches_pairwise_scan():
    # Crossing hyperedges whose only supports cross: the greedy pass fails
    # under p and pt, and so does the search.
    h = hg([(0, -1), (0, 1), (-1, 0), (1, 0)], [{0, 1}, {2, 3}])
    for c in (PLANE, PLANE_TREE):
        assert _greedy_support(h, c) is None
        with pytest.raises(InfeasibleError):
            solve_exact(h, c)
    # Random instances, half on an integer grid (collinear overlaps and
    # endpoints inside other segments), most with an empty core.
    rng = random.Random(5)
    found = 0
    for trial in range(300):
        n = rng.randint(5, 10)
        if trial % 2:
            points = rng.sample([(x, y) for x in range(5) for y in range(5)], n)
        else:
            points = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
        k = rng.choice((2, 3, 4))
        hyps = [set(rng.sample(range(n), rng.randint(2, min(5, n)))) for _ in range(k)]
        for v in set(range(n)) - set().union(*hyps):
            hyps[rng.randrange(k)].add(v)
        h = hg(points, hyps)
        for c in ALL_CONSTRAINTS:
            greedy = _greedy_support(h, c)
            assert greedy == _greedy_reference(h, c), (trial, c.label)
            found += greedy is not None and c.require_plane
    assert found > 100
