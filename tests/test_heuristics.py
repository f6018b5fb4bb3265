import dataclasses
import math
import random

import pytest

import plane_supports.model as model
from plane_supports.gen import DegreeScheme, adversarial_family, generate
from plane_supports.heuristics import (ComputationSequence, _Searcher, _Tables,
                                       _execute_sequence, _star_seed, _union_support,
                                       local_search, local_search_all, local_search_round,
                                       local_search_seeded,
                                       mst_approximation, mst_iteration)
from plane_supports.model import (ALL_CONSTRAINTS, PLANE, PLANE_TREE, TREE, ConstraintSet,
                                  Hypergraph, SupportGraph, UNRESTRICTED, satisfies,
                                  total_length)
from plane_supports.mst import (EmptyCoreError, complete_with_free_edges, emst, emst_order,
                                mst_with_free_edges, star_support)


def hg(points, hyperedges):
    return Hypergraph.build(points, hyperedges)


# r = {(0,0),(10,0)}, b = r + {(5, 0.1)}: the reuse instance from the design
# table; approximation pays for the long edge twice (once directly, once via
# the two near-half edges), iteration reuses it for free.
REUSE = hg([(0, 0), (10, 0), (5, 0.1)], [{0, 1}, {0, 1, 2}])
_HALF = math.sqrt(25 + 0.01)


def test_computation_sequence_validation():
    ComputationSequence((0, 1, 0))
    with pytest.raises(ValueError):
        ComputationSequence(())
    with pytest.raises(ValueError):
        ComputationSequence((0, 0, 1))


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
            trees[s] = mst_with_free_edges(members[s], free, h).edges
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
    old = mst_with_free_edges([0, 1, 2, 3], [(0, 1)], h).edges
    new = mst_with_free_edges([0, 1, 2, 3], [(0, 2)], h).edges
    assert old != new
    built = {0: {(0, 1)}, 1: set()}
    trees = _execute_sequence(h, [0], {0: old, 1: frozenset({(0, 2)})}, built)
    assert trees[0] == new and built[0] == {(0, 2)}
    # The same free set again keeps whatever tree is there.
    assert _execute_sequence(h, [0], {0: old, 1: frozenset({(0, 2)})}, built)[0] == old


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
            for s in steps:
                before = total_length(_union_support(trees), h) if s in trees else None
                trees = _execute_sequence(h, [s], trees)
                if before is not None:
                    assert total_length(_union_support(trees), h) <= before + 1e-6, (h.k, s)
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
    # A climb keeps per-edge swap results, tree-swap memo entries and
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
    # Under t on a spanning tree, a commit changes only the answers of the
    # tree edges on the cycle the replacement closes, so a climb evaluates
    # far fewer tree swaps than rounds times tree edges; pt, which is not
    # memoised, evaluates more.
    calls = []
    fresh = _Searcher._best_tree_swap

    def counting(self, e):
        calls.append(e)
        return fresh(self, e)

    monkeypatch.setattr(_Searcher, "_best_tree_swap", counting)
    h = generate(40, 4, DegreeScheme.MID, random.Random(1))
    star = star_support(h)
    evaluated, rounds = {}, {}
    for c in (TREE, PLANE_TREE):
        calls.clear()
        rounds[c.label] = local_search_seeded(h, star, c).rounds_or_passes
        evaluated[c.label] = len(calls)
    assert rounds["t"] > 10
    assert evaluated["t"] < rounds["t"] * (h.n - 1) / 4
    assert evaluated["t"] < evaluated["pt"]


def _grid_instance(rng):
    # Integer coordinates give equal lengths and collinear triples; vertex
    # 0 is in every hyperedge, so the core is never empty.
    cells = rng.sample([(x, y) for x in range(6) for y in range(6)], 12)
    order = rng.sample(range(1, 12), 11)
    return hg(cells, [{0, *order[i:i + 4], *rng.sample(range(1, 12), 2)}
                      for i in (0, 4, 8)])


def test_tree_swap_matches_general_cover():
    # On a spanning-tree support under an acyclic regime, _best_swap answers
    # through _best_tree_swap; the general cut-cover search (_cover with its
    # union-find) must give the same gain and replacement for every edge.
    rng = random.Random(17)
    cases = [(generate(14, 3, DegreeScheme.MID, random.Random(700 + i)), c)
             for i in range(4) for c in (TREE, PLANE_TREE)]
    cases += [(_grid_instance(rng), TREE) for _ in range(8)]
    compared = 0
    for h, c in cases:
        star = star_support(h)
        for max_replacement in (3, 1):
            searcher = _Searcher(_Tables(h, star), c, star.edges, max_replacement)
            while searcher.tree:
                for e in sorted(searcher.edges):
                    fast = searcher._best_tree_swap(e)
                    searcher.tree = False
                    general = searcher._best_swap(e)
                    searcher.tree = True
                    assert fast == general, (e, c.label, max_replacement)
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
