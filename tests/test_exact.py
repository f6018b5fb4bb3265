import hashlib
import math
import random
from types import SimpleNamespace

import pytest

from plane_supports import exact, heuristics
from plane_supports.exact import (InfeasibleError, LimitsExceededError,
                                  SolveLimits, _greedy_support, _tables, build_model, emit_lp,
                                  solve_exact)
from plane_supports.gen import DegreeScheme, adversarial_family, generate
from plane_supports.harness import TrialConfig
from plane_supports.heuristics import _climb, _star_seed, mst_approximation
from plane_supports.geom import segments_conflict
from plane_supports.model import (ALL_CONSTRAINTS, ConstraintSet, DisjointSet, Hypergraph,
                                  PLANE, PLANE_TREE, TREE, UNRESTRICTED, SupportGraph,
                                  candidate_edges, satisfies, total_length)
from plane_supports.mst import emst, star_support

from highs import highs_solve
from oracle import brute_force_oracle


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


def irregular_instances(count, seed0=0):
    """Hyperedges of 2-4 random vertices, n = 5-8, k = 2-4, over random
    points or (every other instance) cells of a 5 x 5 grid, with equal
    lengths and collinear triples: most have an empty core, and some have
    several components."""
    out = []
    for i in range(count):
        rng = random.Random(seed0 + i)
        n = rng.randint(5, 8)
        k = rng.randint(2, 4)
        if i % 2:
            points = rng.sample([(x, y) for x in range(5) for y in range(5)], n)
        else:
            points = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
        hyps = [set(rng.sample(range(n), rng.randint(2, 4))) for _ in range(k)]
        for v in set(range(n)).difference(*hyps):
            hyps[rng.randrange(k)].add(v)
        out.append(hg(points, hyps))
    return out


def _components(h):
    """The number of components of h's hyperedge intersection graph."""
    parts = DisjointSet(h.k)
    for a in range(h.k):
        for b in range(a + 1, h.k):
            if h.hyperedges[a] & h.hyperedges[b]:
                parts.union(a, b)
    return len({parts.find(s) for s in range(h.k)})


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


_LP_DIGESTS = {
    ("mid8-0", "u"): "08362231b73e1d333c554c8b37849527e8155756a334e446eddfef30b1cd2155",
    ("mid8-0", "t"): "04dca191784d1dcba8c246393dd10410099cf30240dffcdb0270680d86992f80",
    ("mid8-0", "p"): "aa248c70df07fafbacdacb3d0d19619cb88fb8aac5ab37172bc12fee006d89ce",
    ("mid8-0", "pt"): "5c0e48e2132b746503e3c3a14b5a126257e9ec30101d3b80634ae60f93220759",
    ("mid8-1", "u"): "b7916ef7f7947e26bedc1ae71428d6079334231f7f5be4cfb08ad6a009bfefc8",
    ("mid8-1", "t"): "ba4f463633cf985e77a0f5c813c6db7d3e7e101784b7bf743ff7febff15c37dc",
    ("mid8-1", "p"): "fd86f96b1ef976a8daa8f9bf184384b425c5198135e01a16389f6fb5ae88753f",
    ("mid8-1", "pt"): "7e654fe95d120f3a94835011cf44015585ab5df6a212985f265256c1ee501edb",
    ("mid8-2", "u"): "1209865aa0d9cf4c10563425d3c4a1f23a6a6a1501abb5a3fe9811d18028cbe3",
    ("mid8-2", "t"): "b94792d6863595e1f5dbc41029d5da533b0257b6b193c216bd21ff2a86fae096",
    ("mid8-2", "p"): "d7d77e9e1cb129f13607bf5daf68742686e8e410e70659e1ec6fb5a0620dab01",
    ("mid8-2", "pt"): "d199c664084a0f63e6eed4f739d8db05610cc6cc0282d0cdee303dad02619bd7",
    ("mid30-0", "u"): "5d4e7eb6155accc4af6bdbb0c44f18814c2b515d077afc33ef2d71d03573e4d6",
    ("mid30-0", "t"): "e779be772b1f9863cf02972506becccacb864d82d2904606545d4f75262fb9a8",
    ("mid30-0", "p"): "6d3accfa0e8afb27352a90e0054479e141746dbc591fe7f7f821b01b76d4d85d",
    ("mid30-0", "pt"): "e0e6825b47d7a036ec66f4507570d033807ed534062fb4c72dbf5951ecbfd4de",
    ("adversarial9", "u"): "21d8fa6e1c014a879aee865702a5dc548cd8f44b93e63914426b44e2df203fe8",
    ("adversarial9", "t"): "4cba4bc93420836e607704c88f5b6db6f11795d1fc2e8263dba46c4f798ca796",
    ("adversarial9", "p"): "7008942ab1b07b3805c61659a43d3a40e8eb836541c2dc202d7c4c5dfac4d566",
    ("adversarial9", "pt"): "69028f1c47a24d90d9e2421a00f4007d423b06e87cf067e51fb066c3c33b0ef8",
}


def test_emit_lp_bytes_are_pinned():
    # SHA-256 of the LP text in every regime. mid30-0's obj and fc rows wrap
    # at _LP_WIDTH, and the t and pt models carry the tree rows.
    instances = {f"mid8-{s}": generate(8, 2, DegreeScheme.MID, random.Random(s))
                 for s in range(3)}
    instances["mid30-0"] = generate(30, 4, DegreeScheme.MID, random.Random(0))
    instances["adversarial9"] = adversarial_family(9)
    got = {(name, c.label): hashlib.sha256(emit_lp(build_model(h, c)).encode()).hexdigest()
           for name, h in instances.items() for c in ALL_CONSTRAINTS}
    assert got == _LP_DIGESTS


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
    # The irregular instances add empty cores, several components and grid
    # ties to the generator's shapes.
    irregular = irregular_instances(24, seed0=400)
    assert sum(not h.core() for h in irregular) >= 6
    assert sum(_components(h) > 1 for h in irregular) >= 3
    for h in small_instances(12, seed0=50) + irregular:
        for c in ALL_CONSTRAINTS:
            try:
                b = brute_force_oracle(h, c)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    solve_exact(h, c)
                continue
            a = solve_exact(h, c)
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


def test_invalid_caps_are_rejected():
    # A NaN time cap never compares greater than the elapsed time, so it
    # would be ignored: the search would run uncapped.
    for kwargs in ({"time_cap": math.nan}, {"time_cap": -1.0}, {"node_cap": -5},
                   {"node_cap": math.nan}):
        with pytest.raises(ValueError, match="cap must be"):
            SolveLimits(**kwargs)
    assert SolveLimits(node_cap=0, time_cap=0.0) == SolveLimits(0, 0.0)
    assert SolveLimits(time_cap=math.inf).time_cap == math.inf
    with pytest.raises(ValueError, match="time cap"):
        TrialConfig(n=8, k=2, scheme=DegreeScheme.LOW, algorithm="exact", time_cap=math.nan)


# (n, k, seed of a MID instance, regime, node cap) -> (node ceiling, nodes
# explored, length, proven optimal, sorted edges). The ceiling is the count
# of the earlier bound, the larger of the worst hyperedge's MST and the sum
# of the component MSTs; the split bound returns the same supports from
# fewer nodes.
_SEARCH_PINS = {
    (8, 2, 4, "u", None): (29, 29, 196.61409259919296, True,
                           [(0, 4), (0, 6), (1, 4), (2, 7), (3, 5), (3, 6), (4, 7)]),
    (8, 2, 4, "t", None): (22, 22, 196.61409259919296, True,
                           [(0, 4), (0, 6), (1, 4), (2, 7), (3, 5), (3, 6), (4, 7)]),
    (8, 2, 4, "p", None): (29, 29, 196.61409259919296, True,
                           [(0, 4), (0, 6), (1, 4), (2, 7), (3, 5), (3, 6), (4, 7)]),
    (8, 2, 4, "pt", None): (22, 22, 196.61409259919296, True,
                            [(0, 4), (0, 6), (1, 4), (2, 7), (3, 5), (3, 6), (4, 7)]),
    (8, 3, 2, "u", None): (461, 41, 208.5360823393645, True,
                           [(0, 3), (1, 6), (2, 7), (3, 4), (3, 6), (3, 7), (5, 7)]),
    (8, 3, 2, "t", None): (402, 32, 208.5360823393645, True,
                           [(0, 3), (1, 6), (2, 7), (3, 4), (3, 6), (3, 7), (5, 7)]),
    (8, 3, 2, "p", None): (399, 31, 213.43091622996988, True,
                           [(0, 3), (1, 6), (2, 7), (3, 4), (3, 5), (3, 6), (3, 7)]),
    (8, 3, 2, "pt", None): (341, 28, 213.43091622996988, True,
                            [(0, 3), (1, 6), (2, 7), (3, 4), (3, 5), (3, 6), (3, 7)]),
    (8, 3, 4, "u", None): (1701, 191, 321.0899351015403, True,
                           [(0, 2), (0, 3), (0, 6), (0, 7), (1, 4), (1, 5), (4, 6), (5, 7)]),
    (8, 3, 4, "t", None): (3770, 602, 343.8862859244787, True,
                           [(0, 2), (0, 3), (0, 5), (0, 6), (0, 7), (1, 4), (4, 6)]),
    (8, 3, 4, "p", None): (1355, 137, 341.06149592494125, True,
                           [(0, 2), (0, 3), (0, 4), (0, 6), (0, 7), (1, 4), (1, 5), (5, 7)]),
    (8, 3, 4, "pt", None): (3507, 1133, 401.80085243451896, True,
                            [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7)]),
    (9, 2, 4, "u", None): (47, 31, 255.32303601974525, True,
                           [(0, 3), (1, 2), (1, 4), (2, 3), (2, 5), (4, 7), (5, 6), (5, 8)]),
    (9, 2, 4, "t", None): (42, 26, 255.32303601974525, True,
                           [(0, 3), (1, 2), (1, 4), (2, 3), (2, 5), (4, 7), (5, 6), (5, 8)]),
    (9, 2, 4, "p", None): (47, 31, 258.14156825021746, True,
                           [(0, 1), (1, 2), (1, 4), (2, 3), (2, 5), (4, 7), (5, 6), (5, 8)]),
    (9, 2, 4, "pt", None): (43, 27, 258.14156825021746, True,
                            [(0, 1), (1, 2), (1, 4), (2, 3), (2, 5), (4, 7), (5, 6), (5, 8)]),
    (9, 3, 3, "u", None): (231, 57, 258.7099600811283, True,
                           [(0, 1), (0, 8), (1, 3), (1, 4), (1, 6), (2, 4), (3, 5), (3, 7)]),
    (9, 3, 3, "t", None): (171, 47, 258.7099600811283, True,
                           [(0, 1), (0, 8), (1, 3), (1, 4), (1, 6), (2, 4), (3, 5), (3, 7)]),
    (9, 3, 3, "p", None): (187, 49, 258.7099600811283, True,
                           [(0, 1), (0, 8), (1, 3), (1, 4), (1, 6), (2, 4), (3, 5), (3, 7)]),
    (9, 3, 3, "pt", None): (142, 42, 258.7099600811283, True,
                            [(0, 1), (0, 8), (1, 3), (1, 4), (1, 6), (2, 4), (3, 5), (3, 7)]),
    (9, 3, 7, "u", None): (1795, 145, 272.61727593091393, True,
                           [(0, 1), (0, 5), (1, 4), (1, 8), (2, 7), (3, 4), (4, 6), (4, 7),
                            (5, 7)]),
    (9, 3, 7, "t", None): (2062, 192, 277.8394986707699, True,
                           [(0, 1), (1, 4), (1, 5), (1, 8), (2, 7), (3, 4), (4, 6), (4, 7)]),
    (9, 3, 7, "p", None): (695, 153, 283.55605063891556, True,
                           [(0, 1), (0, 5), (1, 4), (1, 8), (2, 7), (3, 4), (4, 7), (5, 7),
                            (6, 8)]),
    (9, 3, 7, "pt", None): (1163, 274, 301.31619615266885, True,
                            [(0, 1), (1, 4), (1, 5), (1, 7), (1, 8), (2, 7), (3, 4), (4, 6)]),
    # The earlier bound stopped at these caps after improving on the
    # heuristic seed (301.32 and 348.93) but before a proof; the split bound
    # proves the same supports optimal inside them.
    (9, 3, 7, "p", 400): (401, 153, 283.55605063891556, True,
                          [(0, 1), (0, 5), (1, 4), (1, 8), (2, 7), (3, 4), (4, 7), (5, 7),
                           (6, 8)]),
    (9, 3, 11, "p", 1000): (1001, 385, 341.5454344156613, True,
                            [(0, 5), (1, 4), (1, 7), (2, 5), (3, 5), (3, 7), (4, 5), (5, 6),
                             (5, 8)]),
    # Capped after the search has improved on the heuristic seed (404.02)
    # but before it has proven optimal the support it then finds (388.49,
    # at node 2365).
    (12, 3, 4, "p", 1000): (1001, 1001, 401.8448767405347, False,
                            [(0, 5), (0, 6), (0, 8), (1, 4), (1, 10), (2, 6), (2, 8), (3, 9),
                             (4, 5), (4, 11), (6, 10), (7, 10), (8, 9), (10, 11)]),
}


def test_search_tree_and_supports_are_pinned():
    for (n, k, seed, label, cap), (ceiling, *expected) in _SEARCH_PINS.items():
        h = generate(n, k, DegreeScheme.MID, random.Random(seed))
        c = ConstraintSet.from_label(label)
        res = solve_exact(h, c, SolveLimits(node_cap=cap))
        got = [res.nodes_explored, res.length, res.proven_optimal, res.support.sorted_edges()]
        assert got == expected, (n, k, seed, label, cap)
        assert res.nodes_explored <= ceiling


def test_limits_without_incumbent_raise():
    # Empty core and plane-infeasible, so no heuristic incumbent exists.
    with pytest.raises((LimitsExceededError, InfeasibleError)):
        solve_exact(X_CONFIG, PLANE, SolveLimits(node_cap=1))


def _patch_climb(monkeypatch, replacement):
    # exact holds its own reference to _climb; patch both names, so that a
    # climb made through local_search's cascade would be seen as well.
    monkeypatch.setattr(heuristics, "_climb", replacement)
    monkeypatch.setattr(exact, "_climb", replacement, raising=False)


def test_incumbent_is_one_climb_per_solve(monkeypatch):
    h = generate(9, 3, DegreeScheme.MID, random.Random(3))
    assert h.core()
    climbs = []
    real_climb = heuristics._climb

    def counting(tables, c, start, *args, **kwargs):
        climbs.append(c.label)
        return real_climb(tables, c, start, *args, **kwargs)

    _patch_climb(monkeypatch, counting)
    res = solve_exact(h, UNRESTRICTED)
    assert climbs == ["u"]
    assert (res.nodes_explored, res.length) == _SEARCH_PINS[9, 3, 3, "u", None][1:3]


def test_error_inside_the_incumbent_climb_propagates(monkeypatch):
    h = generate(9, 3, DegreeScheme.MID, random.Random(3))

    def failing(*args, **kwargs):
        raise ValueError("climb failed")

    def no_fallback(*args, **kwargs):
        raise AssertionError("fell back to mst_iteration")

    _patch_climb(monkeypatch, failing)
    monkeypatch.setattr(exact, "mst_iteration", no_fallback)
    with pytest.raises(ValueError, match="climb failed"):
        solve_exact(h, UNRESTRICTED)


def test_time_cap_counts_from_entry(monkeypatch):
    # A fake clock that only the set-up advances: a set-up past the cap
    # stops the search at its first time check, node 1, with its seed.
    h = generate(9, 3, DegreeScheme.MID, random.Random(7))
    full = solve_exact(h, UNRESTRICTED)
    assert full.nodes_explored > 128
    clock = [0.0]
    monkeypatch.setattr(exact, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    assert solve_exact(h, UNRESTRICTED, SolveLimits(time_cap=1.0)) == full
    real_incumbent = exact._initial_incumbent

    def slow_set_up(t, c):
        clock[0] += 10.0
        return real_incumbent(t, c)

    monkeypatch.setattr(exact, "_initial_incumbent", slow_set_up)
    res = solve_exact(h, UNRESTRICTED, SolveLimits(time_cap=1.0))
    assert (res.proven_optimal, res.nodes_explored) == (False, 1)
    assert satisfies(res.support, h, UNRESTRICTED)
    assert res.length >= full.length - 1e-9


def test_star_violating_the_regime_falls_back():
    # Core {0}; the star's spokes 0-1 and 0-2 overlap, so it is not plane.
    h = hg([(0, 0), (1, 0), (2, 0), (0, 1)], [{0, 1, 2}, {0, 3}])
    star = star_support(h)
    assert h.core() == {0}
    assert satisfies(star, h, TREE) and not satisfies(star, h, PLANE)
    for c in ALL_CONSTRAINTS:
        expected = brute_force_oracle(h, c)
        res = solve_exact(h, c)
        assert res.proven_optimal
        assert res.support == expected.support, c.label
        assert res.length == expected.length, c.label


# (n, k, seed of a MID instance, regime). Past the brute-force oracle's
# n <= 8, HiGHS on the emitted LP checks solve_exact's bound; each case
# here takes HiGHS at most about 2 s.
_MILP_CASES = ([pytest.param(7, 2, 99, label, id=label) for label in ("u", "p", "t", "pt")]
               + [(10, 3, 4, label) for label in ("u", "p", "t", "pt")]
               + [(11, 3, 0, "p"), (11, 3, 5, "t"), (11, 3, 5, "pt")])


@pytest.mark.parametrize("n,k,seed,label", _MILP_CASES)
def test_lp_round_trip_through_external_milp(n, k, seed, label):
    pytest.importorskip("scipy.optimize")
    c = ConstraintSet.from_label(label)
    h = generate(n, k, DegreeScheme.MID, random.Random(seed))
    res, g = highs_solve(h, c)
    assert res.success, res.message
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
# the optimum's edges, node ceilings under p and pt). The greedy support is
# the optimum on each. The ceilings are the counts of the per-hyperedge bound
# alone; _EMPTY_CORE_NODES maps them to the counts with the split bound.
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

_EMPTY_CORE_NODES = {(7, 7): (7, 7), (67, 67): (13, 13), (11, 11): (11, 11),
                     (115, 104): (69, 60)}


@pytest.mark.parametrize("points,hyperedges,edges,nodes_p,nodes_pt", EMPTY_CORE_PLANE)
def test_greedy_seed_under_plane_regimes(points, hyperedges, edges, nodes_p, nodes_pt):
    h = hg(points, hyperedges)
    assert not h.core()
    now_p, now_pt = _EMPTY_CORE_NODES[nodes_p, nodes_pt]
    for c, ceiling, nodes in ((PLANE, nodes_p, now_p), (PLANE_TREE, nodes_pt, now_pt)):
        greedy = _greedy_support(_tables(h), c)
        assert greedy == _greedy_reference(h, c)
        assert greedy.sorted_edges() == edges
        res = solve_exact(h, c)
        assert res.support.sorted_edges() == edges
        assert res.nodes_explored == nodes <= ceiling
        assert res.proven_optimal


# Empty-core instances whose hyperedge intersection graph has two or more
# components, at least one of them holding two or more hyperedges. Each is
# feasible in every regime, and on the first four the four optima all
# differ; the last two have two components of two hyperedges each.
MULTI_COMPONENT = [
    ([(1, 2), (3, 4), (4, 5), (0, 2), (1, 3), (2, 2), (5, 1)],
     [{0, 1, 3, 6}, {1, 3, 4}, {0, 1, 4}, {2, 5}]),
    ([(4, 5), (0, 5), (1, 4), (1, 2), (1, 3), (4, 4), (2, 2), (5, 0)],
     [{0, 2, 4, 6}, {0, 1, 6}, {0, 1, 2}, {3, 5, 7}]),
    ([(2, 2), (2, 0), (3, 4), (0, 5), (3, 0), (3, 3), (4, 2)],
     [{0, 1, 3, 5}, {1, 2, 3}, {1, 2, 5}, {4, 6}]),
    ([(4, 1), (4, 4), (3, 5), (2, 0), (3, 2), (2, 1), (5, 0), (1, 3)],
     [{2, 3, 4, 6}, {2, 5, 7}, {2, 3, 5}, {0, 1}]),
    ([(4, 3), (3, 1), (5, 5), (3, 0), (1, 0), (3, 2), (3, 5), (3, 4)],
     [{4, 5, 7}, {6, 7}, {0, 2}, {1, 2, 3}]),
    ([(1, 3), (4, 4), (5, 3), (1, 2), (3, 1), (2, 4), (0, 5), (1, 1)],
     [{6, 7}, {1, 3, 6}, {0, 4}, {2, 4, 5}]),
]


@pytest.mark.parametrize("points,hyperedges", MULTI_COMPONENT)
def test_multi_component_bound_matches_oracle(points, hyperedges):
    h = hg(points, hyperedges)
    assert 2 <= _components(h) < h.k
    for c in ALL_CONSTRAINTS:
        expected = brute_force_oracle(h, c)
        res = solve_exact(h, c)
        assert res.proven_optimal
        assert res.length == pytest.approx(expected.length, abs=1e-9)
        assert res.support == expected.support


def test_greedy_seed_matches_pairwise_scan():
    # Crossing hyperedges whose only supports cross: the greedy pass fails
    # under p and pt, and so does the search.
    h = hg([(0, -1), (0, 1), (-1, 0), (1, 0)], [{0, 1}, {2, 3}])
    for c in (PLANE, PLANE_TREE):
        assert _greedy_support(_tables(h), c) is None
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
            greedy = _greedy_support(_tables(h), c)
            assert greedy == _greedy_reference(h, c), (trial, c.label)
            found += greedy is not None and c.require_plane
    assert found > 100


def _grid_6x6(rng):
    # 14 cells of a 6 x 6 grid (equal lengths, collinear triples), vertex 0
    # in every hyperedge, so the core is never empty.
    cells = rng.sample([(x, y) for x in range(6) for y in range(6)], 14)
    order = rng.sample(range(1, 14), 13)
    return hg(cells, [{0, *order[i:i + 5], *rng.sample(range(1, 14), 2)} for i in (0, 5, 9)])


def test_exact_table_ranks_every_candidate():
    # solve_exact's one _Tables indexes every candidate_edges pair, in
    # (edge_length, e) order, with lengths bit-equal to edge_length; its
    # seed is the star, or no edges when the core is empty.
    rng = random.Random(41)
    cases = [generate(n, k, scheme, random.Random(900 + 10 * n + k))
             for n in (3, 8, 20) for k in (1, 3, 5) for scheme in DegreeScheme]
    cases += [_grid_6x6(rng) for _ in range(6)]
    cases += [hg(points, hyps) for points, hyps, *_ in EMPTY_CORE_PLANE + MULTI_COMPONENT]
    empty = 0
    for h in cases:
        t = _tables(h)
        ranked = sorted(candidate_edges(h), key=lambda e: (h.edge_length(*e), e))
        assert t.ncand == len(t.pairs) == len(ranked) and t.pairs == ranked
        assert [w.hex() for w in t.plen] == [h.edge_length(*e).hex() for e in ranked]
        assert t.index == {e: i for i, e in enumerate(ranked)}
        assert t.seed == (star_support(h) if h.core() else SupportGraph(frozenset()))
        empty += not h.core()
    assert empty >= 10


def test_climbs_on_the_exact_table_equal_local_search_climbs():
    # The exact table indexes every candidate, local search's only those no
    # longer than the star's longest edge; a climb reads no longer pair, so
    # the star-seeded climbs agree in every regime: support, rounds and
    # length to the last bit.
    rng = random.Random(43)
    cases = [generate(n, k, DegreeScheme.MID, random.Random(950 + 10 * n + k))
             for n in (8, 14, 24) for k in (2, 3, 4)]
    cases += [generate(14, 4, DegreeScheme.MID, random.Random(970 + i)) for i in range(8)]
    cases += [_grid_6x6(rng) for _ in range(16)]
    climbs = dict.fromkeys(("u", "t", "p", "pt"), 0)
    wider = 0
    for h in cases:
        star, bounded, fits = _star_seed(h)
        unbounded = _tables(h)
        assert unbounded.seed == star and unbounded.pairs[:bounded.ncand] == bounded.pairs
        wider += unbounded.ncand > bounded.ncand
        for c in ALL_CONSTRAINTS:
            if not fits(c):
                assert not unbounded.is_plane(star.edges)
                continue
            a, b = _climb(bounded, c, star), _climb(unbounded, c, star)
            assert (a.support, a.rounds_or_passes, repr(a.length)) == \
                (b.support, b.rounds_or_passes, repr(b.length)), c.label
            climbs[c.label] += 1
    assert wider >= 25 and min(climbs.values()) >= 12, climbs
