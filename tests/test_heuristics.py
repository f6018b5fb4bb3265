import dataclasses
import math
import random
from collections import Counter

import pytest

import plane_supports.model as model
from plane_supports.gen import DegreeScheme, adversarial_family, generate
from plane_supports.geom import segments_conflict
from plane_supports.heuristics import (_MAX_REPLACEMENT, _Forest, _Searcher,
                                       _Tables, _depth_first, _star_seed,
                                       local_search, local_search_all, local_search_round,
                                       local_search_seeded,
                                       mst_approximation, mst_iteration)
from plane_supports.model import (ALL_CONSTRAINTS, PLANE, PLANE_TREE, TREE, ConstraintSet,
                                  DisjointSet, Hypergraph, SupportGraph, UNRESTRICTED,
                                  satisfies, total_length)
from plane_supports.mst import (EmptyCoreError, complete_with_free_edges, emst, emst_order,
                                mst_with_free_edges, star_support)

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # only the property test of the kept tree needs it
    st = None


def hg(points, hyperedges):
    return Hypergraph.build(points, hyperedges)


# r = {(0,0),(10,0)}, b = r + {(5, 0.1)}: the reuse instance from the design
# table; approximation pays for the long edge twice (once directly, once via
# the two near-half edges), iteration reuses it for free.
REUSE = hg([(0, 0), (10, 0), (5, 0.1)], [{0, 1}, {0, 1, 2}])
_HALF = math.sqrt(25 + 0.01)


def test_mst_approximation_disjoint_pairs():
    h = hg([(0, 0), (1, 0), (5, 5), (5, 6)], [{0, 1}, {2, 3}])
    rep = mst_approximation(h)
    assert rep.support.sorted_edges() == [(0, 1), (2, 3)]
    assert rep.length == pytest.approx(2)


def test_mst_approximation_identical_hyperedges_share_tree():
    h = hg([(0, 0), (1, 0), (0, 1)], [{0, 1, 2}, {0, 1, 2}])
    rep = mst_approximation(h)
    assert rep.support.edges == emst([0, 1, 2], h).edges


def test_mst_approximation_reuse_instance_value():
    rep = mst_approximation(REUSE)
    assert rep.length == pytest.approx(10 + 2 * _HALF)
    assert rep.length == pytest.approx(20.002, abs=5e-4)


def test_mst_iteration_reuse_instance_value():
    rep = mst_iteration(REUSE)
    assert rep.support.sorted_edges() == [(0, 1), (0, 2)]
    assert rep.length == pytest.approx(10 + _HALF)
    assert rep.length == pytest.approx(15.001, abs=5e-4)
    assert rep.rounds_or_passes == 3


def test_mst_iteration_identical_hyperedges():
    h = hg([(0, 0), (1, 0), (0, 1)], [{0, 1, 2}, {0, 1, 2}])
    rep = mst_iteration(h)
    assert rep.support.edges == emst([0, 1, 2], h).edges


def test_mst_iteration_sequence_validation():
    with pytest.raises(ValueError):
        mst_iteration(REUSE, [0, 0])          # hyperedge 1 never computed
    with pytest.raises(IndexError):
        mst_iteration(REUSE, [0, 1, 7])
    with pytest.raises(ValueError):
        mst_iteration(REUSE, [])


def test_three_step_sequences_are_stable():
    # <r,b,r> and <r,b,r,b,r> land on identical edge sets.
    for seed in range(120):
        h = generate(10, 2, DegreeScheme(("even", "mid", "low", "high")[seed % 4]),
                     random.Random(seed))
        short = mst_iteration(h, [0, 1, 0])
        long = mst_iteration(h, [0, 1, 0, 1, 0])
        assert short.support == long.support


def test_consecutive_duplicate_steps_change_nothing():
    for seed in range(60):
        h = generate(10, 2, DegreeScheme.MID, random.Random(seed))
        assert mst_iteration(h, [0, 0, 1, 0]).support == mst_iteration(h, [0, 1, 0]).support


def test_iteration_never_longer_than_approximation():
    for seed in range(80):
        k = 2 + seed % 4
        h = generate(14, k, DegreeScheme(("even", "mid", "low", "high")[seed % 4]),
                     random.Random(1000 + seed))
        assert mst_iteration(h).length <= mst_approximation(h).length + 1e-9


def test_iteration_reports_pass_count_for_many_hyperedges():
    h = generate(20, 4, DegreeScheme.MID, random.Random(7))
    rep = mst_iteration(h)
    assert rep.rounds_or_passes >= 1
    assert satisfies(rep.support, h, UNRESTRICTED)


def _rebuild_every_tree_every_pass(h, max_passes=20):
    """mst_iteration for k > 2 without skipping: every pass rebuilds all k
    trees, each with the other trees' edges inside its hyperedge free."""
    members = [sorted(m) for m in h.hyperedges]
    trees = [emst(m, h).edges for m in members]
    passes = 0
    while passes < max_passes:
        before = frozenset().union(*trees)
        for s, mset in enumerate(h.hyperedges):
            free = {(u, v) for t, tree in enumerate(trees) if t != s
                    for u, v in tree if u in mset and v in mset}
            trees[s] = frozenset((u, v) for _, u, v in mst_with_free_edges(members[s], free, h))
        passes += 1
        if frozenset().union(*trees) == before:
            break
    support = SupportGraph(frozenset().union(*trees))
    return support, total_length(support, h), passes


def test_iteration_skips_only_rebuilds_that_change_nothing():
    # A step whose free set is unchanged since its tree was built keeps that
    # tree; the result must be the one of rebuilding every tree every pass.
    rng = random.Random(41)
    pool = [generate(8 + 3 * i, 3 + i % 4, scheme, random.Random(500 + i))
            for scheme in (DegreeScheme.MID, DegreeScheme.EVEN, DegreeScheme.HIGH)
            for i in range(12)]
    pool += [_grid_instance(rng) for _ in range(12)]
    for h in pool:
        rep = mst_iteration(h)
        support, length, passes = _rebuild_every_tree_every_pass(h)
        assert rep.support == support
        assert rep.length == pytest.approx(length, rel=1e-12, abs=0)
        assert rep.rounds_or_passes == passes


def test_a_changed_free_set_of_the_same_size_is_rebuilt():
    # Tree 0 was built with (0, 1) free; tree 1 now offers (0, 2) instead.
    h = hg([(0, 0), (10, 0), (5, 1), (5, -1)], [{0, 1, 2, 3}, {0, 2}])
    old = frozenset((u, v) for _, u, v in mst_with_free_edges([0, 1, 2, 3], [(0, 1)], h))
    new = frozenset((u, v) for _, u, v in mst_with_free_edges([0, 1, 2, 3], [(0, 2)], h))
    assert old != new
    built = {0: {(0, 1)}, 1: set()}
    forest = _Forest(h, {0: old, 1: frozenset({(0, 2)})}, built, {})
    forest.run([0])
    assert forest.trees[0] == new and built[0] == {(0, 2)}
    # The same free set again keeps whatever tree is there.
    forest = _Forest(h, {0: old, 1: frozenset({(0, 2)})}, built, {})
    forest.run([0])
    assert forest.trees[0] == old


def test_iteration_skip_saves_tree_computations(monkeypatch):
    # Prim runs once per hyperedge, for its EMST; every rebuild goes through
    # the Kruskal completion. Without the skip, k rebuilds per pass make
    # k * passes completions; on this instance some rebuilds would repeat
    # their free set.
    import plane_supports.heuristics as heuristics
    completions, orders = [], []

    def counting_completion(free, order, h):
        completions.append(order)
        return complete_with_free_edges(free, order, h)

    def counting_order(ids, h):
        orders.append(ids)
        return emst_order(ids, h)

    monkeypatch.setattr(heuristics, "complete_with_free_edges", counting_completion)
    monkeypatch.setattr(heuristics, "emst_order", counting_order)
    h = generate(20, 4, DegreeScheme.MID, random.Random(7))
    rep = mst_iteration(h)
    assert len(orders) == h.k
    assert 0 < len(completions) < h.k * rep.rounds_or_passes
    assert rep.support == _rebuild_every_tree_every_pass(h)[0]
    # The k = 2 orders <0,1,0> and <1,0,1> share one EMST per hyperedge.
    orders.clear()
    mst_iteration(generate(20, 2, DegreeScheme.MID, random.Random(7)))
    assert len(orders) == 2


def test_recomputing_a_tree_never_lengthens_the_support():
    # A step rebuilds its tree with the other trees' edges free, so replacing
    # an existing tree can only shorten the union. Replayed one step at a
    # time: both three-step orders for k=2, round-robin passes from the EMSTs
    # for k>2 (as mst_iteration runs them), and longer explicit sequences.
    rng = random.Random(29)
    pool = [generate(12, 2 + i % 4, DegreeScheme(("even", "mid", "low", "high")[i % 4]),
                     random.Random(3000 + i)) for i in range(24)]
    pool += [_grid_instance(rng) for _ in range(8)]
    recomputed = 0
    for h in pool:
        cycle = list(range(h.k))
        if h.k == 2:
            runs = [({}, [0, 1, 0]), ({}, [1, 0, 1]), ({}, [0, 1, 0, 1, 0, 1])]
        else:
            emsts = {s: frozenset(emst(sorted(h.hyperedges[s]), h).edges) for s in cycle}
            runs = [(emsts, cycle * 4), ({}, cycle * 3)]
        for trees, steps in runs:
            forest = _Forest(h, trees, {}, {})
            for s in steps:
                before = total_length(forest.run(()), h) if s in forest.trees else None
                forest.built.clear()  # rebuild at every step
                after = total_length(forest.run([s]), h)
                if before is not None:
                    assert after <= before + 1e-6, (h.k, s)
                    recomputed += 1
    assert recomputed > 300


def test_local_search_round_no_improvement_on_tiny_star():
    h = hg([(0, 0), (-1, 0), (1, 0)], [{0, 1}, {0, 2}])
    g = star_support(h)
    g2, improved = local_search_round(h, g, UNRESTRICTED)
    assert improved is False
    assert g2 == g


def test_local_search_round_improves_adversarial_star():
    h = adversarial_family(16)
    g = star_support(h)
    g2, improved = local_search_round(h, g, UNRESTRICTED)
    assert improved is True
    assert total_length(g2, h) < total_length(g, h) - 1e-9


def test_local_search_round_single_hyperedge_emst_is_local_opt():
    for seed in range(10):
        rng = random.Random(seed)
        pts = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(8)]
        h = hg(pts, [set(range(8))])
        g = emst(range(8), h)
        g2, improved = local_search_round(h, g, UNRESTRICTED)
        assert improved is False


def test_local_search_round_rejects_invalid_input():
    h = hg([(0, 0), (1, 0), (0, 1)], [{0, 1, 2}])
    from plane_supports.model import SupportGraph
    with pytest.raises(ValueError):
        local_search_round(h, SupportGraph(frozenset()), UNRESTRICTED)


def test_local_search_outputs_satisfy_each_regime():
    for seed in range(15):
        h = generate(14, 3, DegreeScheme.MID, random.Random(seed))
        star_len = total_length(star_support(h), h)
        for c in ALL_CONSTRAINTS:
            rep = local_search(h, c)
            assert satisfies(rep.support, h, c)
            assert rep.length <= star_len + 1e-9


def test_local_search_empty_core():
    h = hg([(0, 0), (1, 1), (0, 1), (1, 0)], [{0, 1}, {2, 3}])
    with pytest.raises(EmptyCoreError):
        local_search(h)


def test_local_search_seeded_matches_star_seed():
    for seed in range(10):
        h = generate(12, 2, DegreeScheme.LOW, random.Random(seed))
        plain = local_search(h, TREE)
        seeded = local_search_seeded(h, star_support(h), TREE)
        assert plain.support == seeded.support


def test_local_search_seeded_improves_on_iteration_seed():
    for seed in range(10):
        h = generate(15, 2, DegreeScheme.MID, random.Random(seed))
        base = mst_iteration(h)
        rep = local_search_seeded(h, base.support, UNRESTRICTED)
        assert rep.length <= base.length + 1e-9
        assert satisfies(rep.support, h, UNRESTRICTED)


def test_local_search_seeded_rejects_infeasible_seed():
    h = generate(10, 2, DegreeScheme.MID, random.Random(3))
    from plane_supports.model import SupportGraph
    with pytest.raises(ValueError):
        local_search_seeded(h, SupportGraph(frozenset()), UNRESTRICTED)


def test_local_search_on_already_optimal_seed_commits_zero_rounds():
    h = hg([(0, 0), (-1, 0), (1, 0)], [{0, 1}, {0, 2}])
    rep = local_search(h)
    assert rep.rounds_or_passes == 0


def test_swap_cache_equals_fresh_computation():
    # A climb keeps per-edge swap evaluations, the rooted tree and
    # conflict counts across rounds; replaying each round with a fresh
    # searcher must give the same support in every regime. The grids have
    # many equal lengths, and at n = 30-40 memo entries survive many rounds.
    rng = random.Random(53)
    pool = [generate(n, k, DegreeScheme.MID, random.Random(seed))
            for n, k, seed in [(18, 3, s) for s in range(10)] + [(14, 4, s) for s in range(10)]
            + [(30, 3, 0), (34, 4, 1), (40, 3, 2)]]
    pool += [_grid_instance(rng) for _ in range(8)]
    for i, h in enumerate(pool):
        star = star_support(h)
        for c in ALL_CONSTRAINTS:
            if not satisfies(star, h, c):
                continue  # a collinear grid star
            cached = local_search_seeded(h, star, c)
            g = star
            rounds = 0
            while True:
                g, improved = local_search_round(h, g, c)
                if not improved:
                    break
                rounds += 1
            assert g == cached.support, (i, c.label)
            assert rounds == cached.rounds_or_passes, (i, c.label)


def test_tree_swap_memo_saves_evaluations(monkeypatch):
    # On a spanning tree a commit changes only the cuts of the tree edges on
    # the cycle the replacement closes, so a t or pt climb picks a fresh
    # one-pair swap far fewer times than rounds times tree edges; under pt
    # a kept answer also needs the same pairs available.
    calls = []
    fresh = _Searcher._shortest_pair

    def counting(self, len_e, pool):
        calls.append(len_e)
        return fresh(self, len_e, pool)

    monkeypatch.setattr(_Searcher, "_shortest_pair", counting)
    h = generate(40, 4, DegreeScheme.MID, random.Random(1))
    star = star_support(h)
    for c in (TREE, PLANE_TREE):
        calls.clear()
        rounds = local_search_seeded(h, star, c).rounds_or_passes
        assert rounds > 10, c.label
        assert len(calls) < rounds * (h.n - 1) / 4, c.label


def _grid_instance(rng):
    # Integer coordinates give equal lengths and collinear triples; vertex
    # 0 is in every hyperedge, so the core is never empty.
    cells = rng.sample([(x, y) for x in range(6) for y in range(6)], 12)
    order = rng.sample(range(1, 12), 11)
    return hg(cells, [{0, *order[i:i + 4], *rng.sample(range(1, 12), 2)}
                      for i in (0, 4, 8)])


def test_tree_swap_matches_general_cover():
    # On a spanning-tree support under an acyclic regime, _best_swap answers
    # with one pair read off the kept tree; the general cut-cover search
    # over sorted lists, with a union-find for acyclicity (_list_cover),
    # must give the same gain and replacement for every edge.
    rng = random.Random(17)
    cases = [(generate(14, 3, DegreeScheme.MID, random.Random(700 + i)), c)
             for i in range(8) for c in (TREE, PLANE_TREE)]
    cases += [(_grid_instance(rng), TREE) for _ in range(16)]
    compared = 0
    for h, c in cases:
        star = star_support(h)
        searcher = _Searcher(_Tables(h, star), c, star.edges)
        while searcher.tree:
            for e in sorted(searcher.edges):
                broken = searcher._cuts(e)
                assert len(broken) == len(searcher.t.hyps(e))
                crossing = _list_crossing(searcher.t, e, broken)
                available = _list_available(searcher, e, crossing)
                fast = searcher._best_swap(e)
                assert fast == _list_cover(searcher, e, len(broken), crossing, available), \
                    (e, c.label)
                compared += fast is not None
            if not searcher.run_round():
                break
    assert compared > 300


def test_constraint_nesting_spot_check():
    for seed in range(12):
        h = generate(12, 3, DegreeScheme.MID, random.Random(400 + seed))
        lens = {c.label: local_search(h, c).length for c in ALL_CONSTRAINTS}
        assert lens["u"] <= lens["p"] + 1e-9
        assert lens["u"] <= lens["t"] + 1e-9
        assert lens["p"] <= lens["pt"] + 1e-9
        assert lens["t"] <= lens["pt"] + 1e-9


def test_stricter_regime_with_infeasible_star_contributes_nothing():
    # 0, 1 and 2 are collinear, so the star's spokes (0,1) and (0,2)
    # overlap: the star is a tree but not plane.
    h = hg([(0, 0), (1, 0), (2, 0), (0, 1)], [{0, 1, 3}, {0, 2}])
    for c in (PLANE, PLANE_TREE):
        with pytest.raises(ValueError):
            local_search(h, c)
    for c in (UNRESTRICTED, TREE):
        rep = local_search(h, c)
        assert rep.length == pytest.approx(4.0)
        assert rep.rounds_or_passes == 0
        assert satisfies(rep.support, h, c)


def test_sweep_equals_single_regime_calls():
    # local_search_all(h, c) holds c and every stricter regime, each equal,
    # support and rounds, to its own local_search call; a stricter regime is
    # None exactly when its own call refuses the star seed.
    rng = random.Random(23)
    cases = [generate(n, k, scheme, random.Random(800 + i))
             for i, (n, k, scheme) in enumerate(
                 (n, k, scheme) for n in (10, 16, 22) for k in (2, 3, 4)
                 for scheme in DegreeScheme)]
    cases += [_grid_instance(rng) for _ in range(6)]
    cases.append(hg([(0, 0), (1, 0), (2, 0), (0, 1)], [{0, 1, 3}, {0, 2}]))
    singles_seen = refused = 0
    for h in cases:
        singles = {}
        for c in ALL_CONSTRAINTS:
            try:
                singles[c.label] = local_search(h, c)
            except ValueError:
                singles[c.label] = None
        for c in ALL_CONSTRAINTS:
            if singles[c.label] is None:
                with pytest.raises(ValueError):
                    local_search_all(h, c)
                continue
            sweep = local_search_all(h, c)
            expected = {r.label for r in ALL_CONSTRAINTS
                        if r.require_plane >= c.require_plane
                        and r.require_acyclic >= c.require_acyclic}
            assert set(sweep) == expected
            for label, rep in sweep.items():
                assert rep == singles[label], (h.n, h.k, c.label, label)
                singles_seen += rep is not None
                refused += rep is None
    assert singles_seen > 200 and refused > 0


def test_sweep_leaves_out_regimes_the_star_violates():
    h = hg([(0, 0), (1, 0), (2, 0), (0, 1)], [{0, 1, 3}, {0, 2}])
    sweep = local_search_all(h)
    assert sweep["p"] is None and sweep["pt"] is None
    assert sweep["u"] == local_search(h) and sweep["t"] == local_search(h, TREE)
    assert local_search_all(h, TREE)["pt"] is None
    with pytest.raises(ValueError):
        local_search_all(h, PLANE)


def test_star_planarity_is_read_off_the_climb_tables(monkeypatch):
    # local_search_all decides whether the star seed is plane from the
    # conflict sets of its climb tables, never through model.is_plane, and
    # every regime's decision equals satisfies on the star.
    rng = random.Random(29)
    cases = [generate(n, k, scheme, random.Random(900 + i))
             for i, (n, k, scheme) in enumerate(
                 (n, k, scheme) for n in (5, 12, 24) for k in (2, 4)
                 for scheme in (DegreeScheme.MID, DegreeScheme.EVEN, DegreeScheme.LOW))]
    cases += [_grid_instance(rng) for _ in range(12)]
    # The points and hyperedges of tests/test_exact.py's
    # test_star_violating_the_regime_falls_back: spokes 0-1 and 0-2 overlap.
    collinear = hg([(0, 0), (1, 0), (2, 0), (0, 1)], [{0, 1, 2}, {0, 3}])
    cases.append(collinear)
    expected = [{c.label: satisfies(star_support(h), h, c) for c in ALL_CONSTRAINTS}
                for h in cases]
    assert any(fit["pt"] for fit in expected) and not all(fit["pt"] for fit in expected)

    def forbidden(g, h):
        raise AssertionError("model.is_plane called")

    monkeypatch.setattr(model, "is_plane", forbidden)
    for h, fit in zip(cases, expected):
        fits = _star_seed(h)[2]
        assert {c.label: fits(c) for c in ALL_CONSTRAINTS} == fit
        sweep = local_search_all(h)
        assert {label: rep is not None for label, rep in sweep.items()} == fit
    for c in (PLANE, PLANE_TREE):
        with pytest.raises(ValueError):
            local_search_all(collinear, c)
    sweep = local_search_all(collinear)
    assert sweep["p"] is None and sweep["pt"] is None


def test_seed_check_sees_crossing_longest_edges():
    # The seed's two longest edges are equally long and cross. The tables
    # store pairs up to and including the seed's longest edge, so each one's
    # conflict set holds the other.
    h = hg([(0, 0), (2, 2), (0, 2), (2, 0)], [{0, 1, 2, 3}])
    seed = SupportGraph.from_pairs([(0, 1), (2, 3), (0, 3)])
    tables = _Tables(h, seed)
    assert tables.length((0, 1)) == tables.length((2, 3)) > tables.length((0, 3))
    assert not tables.is_plane(seed.edges)
    assert tables.is_plane([(0, 1), (0, 3)])


def test_seed_check_sees_crossing_pairs_outside_every_hyperedge():
    # (0, 1) and (2, 3) lie in no hyperedge and cross each other. Such
    # pairs are indexed after every candidate and lie in no mask,
    # so their crossing is found by testing them pairwise.
    h = hg([(0, 0), (2, 2), (0, 2), (2, 0)], [{0, 2}, {1, 3}])
    seed = SupportGraph.from_pairs([(0, 2), (1, 3), (0, 1), (2, 3)])
    tables = _Tables(h, seed)
    assert tables.index_of((0, 1)) >= tables.ncand and tables.index_of((2, 3)) >= tables.ncand
    assert not tables.is_plane(seed.edges) and not model.is_plane(seed, h)
    assert tables.is_plane([(0, 2), (1, 3), (0, 1)])
    for c in (PLANE, PLANE_TREE):
        with pytest.raises(ValueError):
            local_search_seeded(h, seed, c)
        with pytest.raises(ValueError):
            local_search_round(h, seed, c)
    assert satisfies(local_search_seeded(h, seed, UNRESTRICTED).support, h, UNRESTRICTED)


def test_seed_check_matches_satisfies():
    # local_search_round accepts a caller's support exactly when
    # model.satisfies does, under every regime; planarity is read from the
    # climb tables, also for pairs that no hyperedge holds.
    rng = random.Random(83)
    checked = Counter()
    for i in range(150):
        if i % 3 == 0:
            side = rng.randint(2, 4)
            pts = rng.sample([(x, y) for x in range(side) for y in range(side)],
                             rng.randint(2, side * side))
            h = hg(pts, [set(rng.sample(range(len(pts)), rng.randint(1, len(pts))))
                         for _ in range(rng.randint(1, 3))] + [set(range(len(pts)))])
        else:
            h = generate(rng.randint(3, 9), rng.randint(1, 4), rng.choice(list(DegreeScheme)),
                         random.Random(i))
        pairs = [(u, v) for u in range(h.n) for v in range(u + 1, h.n)]
        g = SupportGraph(frozenset(e for e in pairs if rng.random() < 0.4))
        tables = _Tables(h, g)
        assert tables.is_plane(g.edges) == model.is_plane(g, h)
        for c in ALL_CONSTRAINTS:
            fits = satisfies(g, h, c)
            checked[c.label, fits] += 1
            if fits:
                local_search_round(h, g, c)
            else:
                with pytest.raises(ValueError):
                    local_search_round(h, g, c)
    assert all(checked[c.label, fits] for c in ALL_CONSTRAINTS for fits in (True, False))


def test_local_search_nests_where_single_climbs_invert():
    # Star-seeded climbs give p = 605.17 > pt = 574.71 on this instance;
    # p is then climbed again from the pt result (5 rounds, then 1 more).
    h = generate(20, 4, DegreeScheme.MID, random.Random(3246))
    star = star_support(h)
    single = {c.label: local_search_seeded(h, star, c) for c in ALL_CONSTRAINTS}
    assert single["p"].length > single["pt"].length + 1
    reps = {c.label: local_search(h, c) for c in ALL_CONSTRAINTS}
    assert reps["u"].length <= reps["p"].length <= reps["pt"].length
    assert reps["u"].length <= reps["t"].length <= reps["pt"].length
    for label in ("u", "t", "pt"):
        assert reps[label].support == single[label].support
        assert reps[label].rounds_or_passes == single[label].rounds_or_passes
    assert reps["p"].length == pytest.approx(570.65, abs=5e-3)
    assert reps["p"].rounds_or_passes == single["pt"].rounds_or_passes + 1
    assert satisfies(reps["p"].support, h, PLANE)


def test_local_search_goes_by_the_regime_not_the_constraint_object():
    # A ConstraintSet from another import of the package compares unequal
    # to this one's constants even with the same flags.
    other = dataclasses.make_dataclass(
        "ConstraintSet", [("require_plane", bool), ("require_acyclic", bool)],
        frozen=True, namespace={"label": ConstraintSet.label})
    h = generate(12, 3, DegreeScheme.MID, random.Random(5))
    for c in ALL_CONSTRAINTS:
        foreign = other(c.require_plane, c.require_acyclic)
        assert foreign != c
        assert local_search(h, foreign).support == local_search(h, c).support


def _replay(h, g, c):
    """The support and rounds of climbing from g one fresh round at a time."""
    rounds = 0
    while True:
        g, improved = local_search_round(h, g, c)
        if not improved:
            return g, rounds
        rounds += 1


def _bridged_instance(seed):
    # Two groups of two overlapping hyperedges, far apart, each spanned by
    # the star of its shared vertex; the shortest pair between the groups
    # that keeps the seed a plane tree lies in no hyperedge.
    rng = random.Random(seed)
    pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(7)]
    pts += [(rng.uniform(20, 30), rng.uniform(0, 10)) for _ in range(7)]
    hyperedges = []
    for c, rest in ((0, list(range(1, 7))), (7, list(range(8, 14)))):
        rng.shuffle(rest)
        hyperedges += [{c, *rest[:4]}, {c, *rest[2:]}]
    h = hg(pts, hyperedges)
    stars = [(0, v) for v in range(1, 7)] + [(7, v) for v in range(8, 14)]
    for pair in sorted(((a, b) for a in range(7) for b in range(7, 14)),
                       key=lambda e: h.edge_length(*e)):
        seed = SupportGraph.from_pairs(stars + [pair])
        if satisfies(seed, h, PLANE_TREE):
            return h, seed, pair
    raise AssertionError("no plane bridge")


def test_seed_pair_outside_every_hyperedge():
    # A seed pair that no hyperedge holds is indexed after every candidate
    # and lies in no mask; climbs from such a seed, the plane ones with
    # conflict counts for it, equal the round-by-round replay.
    for seed in range(6):
        h, g0, pair = _bridged_instance(seed)
        tables = _Tables(h, g0)
        i = tables.index_of(pair)
        assert i >= tables.ncand and tables.pairs[i] == pair
        assert not any(m >> i & 1 for m in tables.within + tables.incident)
        for c in ALL_CONSTRAINTS:
            rep = local_search_seeded(h, g0, c)
            assert pair not in rep.support.edges
            assert (rep.support, rep.rounds_or_passes) == _replay(h, g0, c), (seed, c.label)


def _list_crossing(tables, e, broken):
    """Pair -> bitmask of the broken cuts (by position) it crosses: a scan
    of each broken hyperedge's candidates sorted by (length, u, v)."""
    limit = tables.length(e) - 1e-12
    out = {}
    for bit, (s, side) in enumerate(broken):
        mem = sorted(tables.h.hyperedges[s])
        pairs = sorted((tables.h.edge_length(a, b), a, b)
                       for i, a in enumerate(mem) for b in mem[i + 1:])
        for w, a, b in pairs:
            if w >= limit:
                break
            if (side >> a ^ side >> b) & 1:
                out[a, b] = out.get((a, b), 0) | 1 << bit
    return out


def _list_available(searcher, e, crossing):
    """The crossing pairs outside the support that, under the plane
    regimes, conflict with no support edge but e (counted pairwise)."""
    h, edges = searcher.h, searcher.edges
    if not searcher.c.require_plane:
        return {ed for ed in crossing if ed not in edges}

    def hits(a, b):
        return segments_conflict(h.segment(*a), h.segment(*b))

    blocked = Counter(ed for ed in crossing for x in edges if hits(ed, x))
    return {ed for ed in crossing if ed not in edges and blocked[ed] == hits(ed, e)}


def _list_cover(searcher, e, nb, crossing, available):
    """The cheapest set of at most _MAX_REPLACEMENT available pairs that
    crosses every broken cut, searched over the available pairs sorted by
    (length, pair)."""
    h, c = searcher.h, searcher.c
    covered = 0
    for ed in available:
        covered |= crossing[ed]
    if covered != (1 << nb) - 1:
        return None
    length = searcher.t.length
    len_e = length(e)
    order = sorted(available, key=lambda ed: (length(ed), ed))
    per_bit = [[ed for ed in order if crossing[ed] >> bit & 1] for bit in range(nb)]
    dsu = None
    if c.require_acyclic:
        dsu = DisjointSet(h.n)
        for ed in searcher.edges - {e}:
            dsu.union(*ed)
    cap = min(_MAX_REPLACEMENT, nb)
    best = [None, None]
    chosen = []

    def dfs(uncovered, total):
        if uncovered == 0:
            repl = tuple(sorted(chosen))
            if (best[0] is None or total < best[0] - 1e-9
                    or (abs(total - best[0]) <= 1e-9 and repl < best[1])):
                best[:] = [total, repl]
            return
        if len(chosen) >= cap:
            return
        bit = (uncovered & -uncovered).bit_length() - 1
        for ed in per_bit[bit]:
            t2 = total + length(ed)
            if t2 >= len_e - 1e-12 or (best[0] is not None and t2 > best[0] + 1e-9):
                break
            if ed in chosen or (c.require_plane and any(
                    segments_conflict(h.segment(*ed), h.segment(*x)) for x in chosen)):
                continue
            token = dsu.union(*ed) if dsu is not None else None
            if dsu is not None and token is None:
                continue
            chosen.append(ed)
            dfs(uncovered & ~crossing[ed], t2)
            chosen.pop()
            if token is not None:
                dsu.undo(token)

    dfs((1 << nb) - 1, 0.0)
    return None if best[0] is None else (len_e - best[0], best[1])


def _forest_instance(rng):
    # Three groups of seven points far apart. In each, two or three random
    # hyperedges share the group's first point; no hyperedge spans two
    # groups, so every acyclic support is a forest, never a spanning tree.
    # Returns the hypergraph and the union of the groups' stars.
    pts, hyperedges, star = [], [], []
    for g in range(3):
        c, *rest = range(len(pts), len(pts) + 7)
        pts += [(40 * g + rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(7)]
        groups = [{c, *rng.sample(rest, 3)} for _ in range(rng.choice((2, 3)))]
        for v in rest:
            rng.choice(groups).add(v)
        hyperedges += groups
        star += [(c, v) for v in rest]
    return hg(pts, hyperedges), SupportGraph.from_pairs(star)


def test_mask_layer_matches_list_scan(monkeypatch):
    # Every edge evaluated by u and p, on and off the spanning tree, and by
    # t and pt off it gets the crossing set, the available set and the swap
    # of the list scans that the bitmasks replace. The reference cuts are
    # the depth-first search's bridges. t and pt climbs from forest seeds
    # are never on a tree, and their one-pair answers the reference finds
    # by a cut cover with a union-find. The grids have many equal lengths.
    fresh = _Searcher._best_swap
    evaluated = []

    def checked(self, e):
        res = fresh(self, e)
        if self.tree and self.c.require_acyclic:
            return res  # see test_tree_swap_matches_general_cover
        broken = self._cuts(e)
        if not broken:
            assert res == (self.t.length(e), ())
            return res
        t, w = self.t, self.t.length(e)
        masks = [t.crossing(side, t.members[s], w) & t.within[s] for s, side in broken]
        crossing = _list_crossing(self.t, e, broken)
        pairs = self.t.pairs
        assert {pairs[j]: sum(1 << b for b, x in enumerate(masks) if x >> j & 1)
                for x in masks for j in range(x.bit_length()) if x >> j & 1} == crossing
        available = _list_available(self, e, crossing)
        now = self._available(e, masks)
        assert {pairs[j] for j in range(now.bit_length()) if now >> j & 1} == available
        assert res == _list_cover(self, e, len(broken), crossing, available)
        evaluated.append((self.c.label, self.tree))
        return res

    monkeypatch.setattr(_Searcher, "_best_swap", checked)
    rng = random.Random(61)
    pool = [generate(n, k, DegreeScheme.MID, random.Random(seed))
            for n, k, seed in [(12, 3, s) for s in range(4)] + [(16, 4, s) for s in range(4)]
            + [(20, 5, s) for s in range(6)]]
    pool += [_grid_instance(rng) for _ in range(10)]
    for h in pool:
        star = star_support(h)
        for c in (UNRESTRICTED, PLANE):
            if satisfies(star, h, c):
                local_search_seeded(h, star, c)
    for _ in range(8):
        h, star = _forest_instance(rng)
        for c in (TREE, PLANE_TREE):
            assert satisfies(star, h, c)
            local_search_seeded(h, star, c)
    counts = Counter(evaluated)
    assert counts["u", False] > 200 and counts["p", False] > 200, counts
    assert counts["u", True] > 200 and counts["p", True] > 200, counts
    assert counts["t", False] > 200 and counts["pt", False] > 200, counts


def _spanning_tree(searcher):
    """Whether the support has n - 1 edges and reaches every vertex."""
    n = searcher.h.n
    return len(searcher.edges) == n - 1 and len(_depth_first(searcher.adj, range(n))[4]) == n + 1


def _tree_sides_agree(searcher):
    """The searcher keeps a tree exactly when the support is a spanning
    tree, and then each tree edge's kept side, the subtree below it, equals
    the depth-first search's."""
    assert searcher.tree == _spanning_tree(searcher)
    if not searcher.tree:
        return
    pos, end, parent, _, prefix = _depth_first(searcher.adj, range(searcher.h.n))
    kept_parent, sub = searcher.parent, searcher.sub
    for u, v in searcher.edges:
        child = v if parent[v] == u else u
        kept = sub[v] if kept_parent[v] == u else sub[u]
        assert kept == prefix[end[child]] ^ prefix[pos[child]]


@pytest.mark.skipif(st is None, reason="hypothesis is not installed")
def test_kept_tree_matches_depth_first():
    # The rooted tree kept across the commits of climbs in every regime
    # gives every tree edge the side that a fresh search of the support
    # gives. Under u and p a commit may add two or three pairs, which ends
    # the tree, and a later one may remove a redundant edge again.
    seen = Counter()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def check(data):
        seed = data.draw(st.integers(0, 10**6))
        if data.draw(st.booleans()):
            h = _grid_instance(random.Random(seed))
        else:
            h = generate(data.draw(st.integers(5, 30)), data.draw(st.integers(2, 4)),
                         DegreeScheme.MID, random.Random(seed))
        star = star_support(h)
        for c in ALL_CONSTRAINTS:
            if not satisfies(star, h, c):
                continue
            searcher = _Searcher(_Tables(h, star), c, star.edges)
            assert searcher.tree
            _tree_sides_agree(searcher)
            while searcher.run_round():
                _tree_sides_agree(searcher)
                seen[c.label, searcher.tree] += 1

    check()
    assert all(seen[label, True] for label in ("u", "p", "t", "pt")), seen


def test_disconnected_support_with_n_minus_1_edges_is_no_tree():
    # Three far-apart groups spanned by their own stars, plus two pairs that
    # close a cycle inside a group: n - 1 edges, yet not a spanning tree, so
    # the climb must take its cuts from the depth-first searches, and it
    # equals the round-by-round replay.
    rng = random.Random(67)
    climbs = 0
    for _ in range(6):
        h, star = _forest_instance(rng)
        extra = [e for e in _Tables(h, star).pairs if e not in star.edges][:2]
        g = SupportGraph.from_pairs(sorted(star.edges) + extra)
        assert len(g.edges) == h.n - 1
        for c in (UNRESTRICTED, PLANE):
            if not satisfies(g, h, c):
                continue
            searcher = _Searcher(_Tables(h, g), c, g.edges)
            assert not searcher.tree and not _spanning_tree(searcher)
            rep = local_search_seeded(h, g, c)
            assert (rep.support, rep.rounds_or_passes) == _replay(h, g, c), c.label
            climbs += 1
    assert climbs >= 6


def test_tree_cuts_equal_depth_first_bridges():
    # On a spanning tree under u and p, _best_swap reads the cut of each
    # hyperedge holding e off the kept tree, as the subtree below e less the
    # vertices outside the hyperedge. Those are exactly the hyperedges in
    # whose induced subgraph e is a bridge, and each cut is the side that
    # the depth-first search cuts off, or the rest of the hyperedge.
    rng = random.Random(23)
    pool = [generate(n, k, DegreeScheme.MID, random.Random(400 + i))
            for i, (n, k) in enumerate([(12, 3), (16, 4), (20, 5), (24, 3)] * 3)]
    pool += [_grid_instance(rng) for _ in range(8)]
    compared = 0
    for h in pool:
        star = star_support(h)
        for c in (UNRESTRICTED, PLANE):
            if not satisfies(star, h, c):
                continue
            searcher = _Searcher(_Tables(h, star), c, star.edges)
            while searcher.tree:
                t = searcher.t
                for u, v in sorted(searcher.edges):
                    kept = searcher.sub[v] if searcher.parent[v] == u else searcher.sub[u]
                    bridges = searcher._cuts((u, v))
                    assert [s for s, _ in bridges] == list(t.hyps((u, v)))
                    for s, side in bridges:
                        assert kept & t.members[s] in (side, t.members[s] ^ side)
                        compared += 1
                if not searcher.run_round():
                    break
    assert compared > 1000


def _reference_tables(h, seed):
    """_Tables' pair data built the way it was before the one-pass build:
    each pair's held mask from the hyperedges' member lists, ranked by
    (h.edge_length, u, v) tuples and kept up to the seed's longest edge.
    Returns (pairs, plen, held, index, incident, within, common)."""
    held = {}
    for s, members in enumerate(h.hyperedges):
        mem = sorted(members)
        for i, a in enumerate(mem):
            for b in mem[i + 1:]:
                held[a, b] = held.get((a, b), 0) | 1 << s
    longest = max((h.edge_length(*e) for e in seed.edges), default=0.0)
    ranked = [r for r in sorted((h.edge_length(a, b), a, b) for a, b in held) if r[0] <= longest]
    plen = [w for w, _, _ in ranked]
    pairs = [(a, b) for _, a, b in ranked]
    held_of = [held[e] for e in pairs]
    index = {e: i for i, e in enumerate(pairs)}
    incident = [sum(1 << i for i, e in enumerate(pairs) if v in e) for v in range(h.n)]
    within = [sum(1 << i for i, (a, b) in enumerate(pairs) if a in m and b in m)
              for m in h.hyperedges]
    common = {}
    for m in set(held_of):
        mask = -1
        for s in range(h.k):
            if m >> s & 1:
                mask &= within[s]
        common[m] = mask
    return pairs, plen, held_of, index, incident, within, common


def test_one_pass_tables_match_the_reference_build():
    # The lengths are compared bit for bit (float.hex), and a seed pair that
    # no hyperedge holds still gets the next index, after every candidate.
    # Exactly the candidates no longer than the seed's longest edge are
    # indexed; asking for a longer one raises.
    rng = random.Random(31)
    cases = [(generate(n, k, scheme, random.Random(500 + i)), None)
             for i, (n, k, scheme) in enumerate(
                 (n, k, scheme) for n in (3, 9, 25, 40) for k in (1, 3, 5)
                 for scheme in DegreeScheme)]
    cases += [(_grid_instance(rng), None) for _ in range(10)]
    cases += [_bridged_instance(seed)[:2] for seed in range(4)]  # a seed pair in no hyperedge
    outside = beyond = 0
    for h, seed in cases:
        if seed is None:
            seed = star_support(h) if h.core() else mst_iteration(h).support
        tables = _Tables(h, seed)
        pairs, plen, held, index, incident, within, common = _reference_tables(h, seed)
        m = tables.ncand
        assert m == len(pairs) and tables.pairs[:m] == pairs
        assert [w.hex() for w in tables.plen[:m]] == [w.hex() for w in plen]
        assert tables.held[:m] == held
        assert {e: tables.index[e] for e in pairs} == index
        assert tables.incident == incident and tables.within == within
        assert {m: tables.common[m] for m in common} == common
        longest = max(h.edge_length(*e) for e in seed.edges)
        for e in model.candidate_edges(h):
            if h.edge_length(*e) <= longest:
                assert tables.index[e] < m
            else:
                assert e not in tables.index
                with pytest.raises(ValueError):
                    tables.index_of(e)
                beyond += 1
        # The seed's pairs that no hyperedge holds, indexed on first use,
        # after every candidate.
        extra = {e for e in seed.edges if e not in index}
        for e in extra:
            tables.index_of(e)
        assert set(tables.pairs[m:]) == extra and len(tables.pairs) == m + len(extra)
        outside += len(extra)
        for i in range(m, len(tables.pairs)):
            e = tables.pairs[i]
            assert tables.index[e] == tables.index_of(e) == i and tables.held[i] == 0
            assert tables.plen[i].hex() == h.edge_length(*e).hex()
        assert len(tables.index) == len(tables.pairs)
    assert outside == 4 and beyond > 1000


def test_tables_refuse_a_held_pair_beyond_the_bound():
    # The star at 0 is the seed, its longest edge sqrt(2): (1, 2) is exactly
    # as long and indexed, (1, 3) and (2, 3) are longer and held by
    # hyperedge 0, so asking for them raises rather than indexing them as
    # pairs that no hyperedge holds. (3, 4) lies in no hyperedge and is
    # indexed after every candidate.
    h = hg([(0, 0), (1, 0), (0, 1), (-1, -1), (0, -0.5)], [{0, 1, 2, 3}, {0, 4}])
    tables = _Tables(h, star_support(h))
    assert tables.pairs == [(0, 4), (0, 1), (0, 2), (0, 3), (1, 2)] == tables.pairs[:tables.ncand]
    for e in ((1, 3), (2, 3)):
        for lookup in (tables.index_of, tables.length, tables.hyps):
            with pytest.raises(ValueError):
                lookup(e)
    assert tables.index_of((3, 4)) == tables.ncand and tables.held[-1] == 0
    assert tables.hyps((3, 4)) == () and len(tables.pairs) == tables.ncand + 1


def _plane_counts(searcher):
    """Per indexed candidate, the number of support edges whose segments
    conflict with it, counted pairwise."""
    h, t = searcher.h, searcher.t
    return [sum(segments_conflict(h.segment(*t.pairs[i]), h.segment(*x)) for x in searcher.edges)
            for i in range(t.ncand)]


def test_copied_seed_counts_equal_a_fresh_count():
    # A plane climb starts from a copy of the seed's conflict counts, moved
    # by the edges its start adds to the seed and drops from it; the counts,
    # zero and one equal a fresh pairwise count, before and after each round.
    climbs = 0
    for i in range(12):
        h = generate(10 + i, 2 + i % 3, DegreeScheme.MID, random.Random(800 + i))
        star = star_support(h)
        if not satisfies(star, h, PLANE_TREE):
            continue
        tables = _Tables(h, star)
        starts = [star, local_search_seeded(h, star, PLANE_TREE).support]
        for c, start in [(PLANE, star), (PLANE_TREE, star), (PLANE, starts[1])]:
            searcher = _Searcher(tables, c, start.edges)
            climbs += 1
            while True:
                fresh = _plane_counts(searcher)
                kept = [sum((plane >> j & 1) << b for b, plane in enumerate(searcher.counts))
                        for j in range(tables.ncand)]
                assert kept == fresh
                assert [searcher.zero >> j & 1 for j in range(tables.ncand)] == \
                    [int(n == 0) for n in fresh]
                assert [searcher.one >> j & 1 for j in range(tables.ncand)] == \
                    [int(n == 1) for n in fresh]
                assert searcher.zero >> tables.ncand == 0
                if not searcher.run_round():
                    break
        assert tables.seed_counts() is tables.seed_counts()
    assert climbs >= 24
