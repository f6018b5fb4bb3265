import random

import pytest

import plane_supports.model as model
from plane_supports.geom import segments_conflict
from plane_supports.gen import DegreeScheme, generate
from plane_supports.model import (ALL_CONSTRAINTS, ConstraintSet, Hypergraph, PLANE,
                                  PLANE_TREE, SupportGraph, TREE, UNRESTRICTED,
                                  candidate_edges, conflicting_edge_pairs, crossing_count,
                                  hyperedge_induced_connected, is_acyclic, is_plane,
                                  is_support, satisfies, total_length)
from plane_supports.mst import star_support


def hg(points, hyperedges):
    return Hypergraph.build(points, hyperedges)


X_CONFIG = hg([(0, 0), (1, 1), (0, 1), (1, 0)], [{0, 1}, {2, 3}])


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        hg([(0, 0), (1, 0)], [set()])                 # empty hyperedge
    with pytest.raises(ValueError):
        hg([(0, 0), (1, 0)], [{0}])                   # vertex 1 uncovered
    with pytest.raises(ValueError):
        hg([(0, 0), (0, 0)], [{0, 1}])                # duplicate positions
    with pytest.raises(ValueError):
        hg([(0, 0), (1, 0)], [{0, 1, 5}])             # unknown vertex id


def test_constraint_labels():
    assert UNRESTRICTED.label == "u"
    assert TREE.label == "t"
    assert PLANE.label == "p"
    assert PLANE_TREE.label == "pt"
    for c in ALL_CONSTRAINTS:
        assert ConstraintSet.from_label(c.label) == c
    with pytest.raises(ValueError):
        ConstraintSet.from_label("x")


def test_induced_connected_examples():
    h = hg([(0, 0), (1, 0), (0.5, 1), (3, 3)], [{0, 1, 3}, {0, 1, 2, 3}])
    assert hyperedge_induced_connected(SupportGraph.from_pairs([(0, 1)]), h, 0) is False
    h2 = hg([(0, 0), (1, 0)], [{0, 1}])
    assert hyperedge_induced_connected(SupportGraph.from_pairs([(0, 1)]), h2, 0)
    # path through a vertex outside the hyperedge does not count
    h3 = hg([(0, 0), (2, 0), (1, 1), (5, 5)], [{0, 1}, {0, 1, 2, 3}])
    g3 = SupportGraph.from_pairs([(0, 2), (2, 1)])
    assert hyperedge_induced_connected(g3, h3, 0) is False
    # singleton hyperedge is trivially connected
    h4 = hg([(0, 0), (1, 0), (4, 4)], [{0, 1}, {2}, {0, 1, 2}])
    assert hyperedge_induced_connected(SupportGraph(frozenset()), h4, 1)
    with pytest.raises(IndexError):
        hyperedge_induced_connected(SupportGraph(frozenset()), h4, 9)


def test_is_support_examples():
    h = hg([(0, 0), (1, 0), (0.5, 1)], [{0, 1, 2}, {0, 1}])
    assert not is_support(SupportGraph(frozenset()), h)
    assert is_support(SupportGraph.from_pairs([(0, 1), (1, 2)]), h)
    star = star_support(h)
    assert is_support(star, h)


def test_is_support_monotone_under_edge_addition():
    rng = random.Random(5)
    for seed in range(20):
        h = generate(8, 2, DegreeScheme.MID, random.Random(seed))
        star = star_support(h)
        assert is_support(star, h)
        extra = set(star.edges)
        for e in candidate_edges(h):
            extra.add(e)
            assert is_support(SupportGraph(frozenset(extra)), h)
            if rng.random() < 0.5:
                break


def test_is_plane_examples():
    assert not is_plane(SupportGraph.from_pairs([(0, 1), (2, 3)]), X_CONFIG)
    assert crossing_count(SupportGraph.from_pairs([(0, 1), (2, 3)]), X_CONFIG) == 1
    h = hg([(0, 0), (1, 0), (0, 1)], [{0, 1, 2}])
    assert is_plane(SupportGraph.from_pairs([(0, 1)]), h)
    assert is_plane(SupportGraph.from_pairs([(0, 1), (0, 2)]), h)


def test_conflict_pairs_in_row_major_order_and_is_plane_stops_at_first(monkeypatch):
    for seed in range(20):
        h = generate(9, 3, DegreeScheme.MID, random.Random(seed))
        cands = candidate_edges(h)
        g = SupportGraph.from_pairs(random.Random(seed).sample(cands, min(8, len(cands))))
        edges = g.sorted_edges()
        expected = [(a, b) for i, a in enumerate(edges) for b in edges[i + 1:]
                    if segments_conflict(h.segment(*a), h.segment(*b))]
        assert conflicting_edge_pairs(g, h) == expected
        assert is_plane(g, h) == (not expected)

    calls = []

    def counting(s1, s2):
        calls.append((s1, s2))
        return segments_conflict(s1, s2)

    monkeypatch.setattr(model, "segments_conflict", counting)
    h = hg([(0, 0), (2, 2), (0, 2), (2, 0), (5, 0), (6, 0)], [{0, 1, 2, 3, 4, 5}])
    # (0, 1) and (2, 3) cross and come first; (4, 5) is never tested.
    assert not is_plane(SupportGraph.from_pairs([(0, 1), (2, 3), (4, 5)]), h)
    assert len(calls) == 1


def test_is_acyclic_examples():
    assert not is_acyclic(SupportGraph.from_pairs([(0, 1), (1, 2), (0, 2)]))
    assert is_acyclic(SupportGraph.from_pairs([(0, 1), (1, 2)]))
    assert is_acyclic(SupportGraph(frozenset()))


def test_total_length_examples():
    h = hg([(0, 0), (3, 4)], [{0, 1}])
    assert total_length(SupportGraph.from_pairs([(0, 1)]), h) == 5
    assert total_length(SupportGraph(frozenset()), h) == 0
    h2 = hg([(0, 0), (1, 0), (2, 0)], [{0, 1, 2}])
    assert total_length(SupportGraph.from_pairs([(0, 1), (1, 2)]), h2) == pytest.approx(2)


def test_total_length_ignores_duplicates_and_order():
    h = hg([(0, 0), (3, 4), (6, 0)], [{0, 1, 2}])
    a = SupportGraph.from_pairs([(0, 1), (1, 2)])
    b = SupportGraph.from_pairs([(2, 1), (1, 0), (0, 1)])
    assert a == b
    assert total_length(a, h) == total_length(b, h)


def test_acyclic_implies_edge_bound():
    for seed in range(20):
        h = generate(12, 3, DegreeScheme.LOW, random.Random(seed))
        star = star_support(h)
        assert is_acyclic(star)
        assert len(star) <= h.n - 1


def test_satisfies_examples():
    h = hg([(0, 0), (1, 0), (0.5, 1)], [{0, 1, 2}, {0, 1}])
    star = star_support(h)
    assert satisfies(star, h, PLANE_TREE)
    x_support = SupportGraph.from_pairs([(0, 1), (2, 3)])
    assert satisfies(x_support, X_CONFIG, UNRESTRICTED)
    assert not satisfies(x_support, X_CONFIG, PLANE)


def test_candidate_edges_universe():
    h = hg([(0, 0), (1, 1), (0, 1), (1, 0)], [{0, 1}, {2, 3}])
    assert candidate_edges(h) == [(0, 1), (2, 3)]
    h2 = hg([(0, 0), (1, 0), (2, 0)], [{0, 1, 2}])
    assert candidate_edges(h2) == [(0, 1), (0, 2), (1, 2)]


def test_disjoint_set_union_connected_and_undo_round_trip():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 12)
        dsu = model.DisjointSet(n)
        comp = list(range(n))  # reference: component label per vertex
        history = []
        for _ in range(3 * n):
            if history and rng.random() < 0.3:
                token, before = history.pop()
                dsu.undo(token)
                comp = before
            else:
                a, b = rng.randrange(n), rng.randrange(n)
                token = dsu.union(a, b)
                assert (token is None) == (comp[a] == comp[b])
                if token is not None:
                    history.append((token, comp))
                    comp = [comp[a] if x == comp[b] else x for x in comp]
            for a in range(n):
                for b in range(n):
                    assert dsu.connected(a, b) == (comp[a] == comp[b])
        while history:
            token, comp = history.pop()
            dsu.undo(token)
        assert dsu.parent == list(range(n))
        assert dsu.rank == [0] * n
