import itertools
import math
import random

import pytest

from plane_supports.gen import DegreeScheme, generate
from plane_supports.model import DisjointSet, Hypergraph, SupportGraph, edge_key, total_length
from plane_supports.mst import (EmptyCoreError, complete_with_free_edges, emst, emst_order,
                                mst_with_free_edges, star_support)

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # only the property test below needs it
    st = None


def hg(points, hyperedges):
    return Hypergraph.build(points, hyperedges)


def prim_tree(ids, free, h) -> SupportGraph:
    """mst_with_free_edges' edges as a support graph, after checking the
    weight it hands out with each: zero for a free edge, else bit for bit
    the edge's length."""
    free = {edge_key(a, b) for a, b in free}
    weighted = mst_with_free_edges(ids, free, h)
    for w, u, v in weighted:
        assert w == (0.0 if (u, v) in free else h.edge_length(u, v)), (w, u, v)
    return SupportGraph(frozenset((u, v) for _, u, v in weighted))


def enumerate_spanning_trees(ids, h):
    """Brute-force oracle: every spanning tree of the complete graph on ids,
    with its Euclidean length. Only sensible for len(ids) <= 7."""
    ids = sorted(ids)
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    trees = []
    for combo in itertools.combinations(pairs, len(ids) - 1):
        dsu = DisjointSet(max(ids) + 1)
        if all(dsu.union(u, v) for u, v in combo):
            trees.append((sum(h.edge_length(u, v) for u, v in combo), combo))
    return trees


def test_emst_collinear_triple():
    h = hg([(0, 0), (1, 0), (2, 0)], [{0, 1, 2}])
    g = emst([0, 1, 2], h)
    assert g.sorted_edges() == [(0, 1), (1, 2)]
    assert total_length(g, h) == pytest.approx(2)


def test_emst_unit_square_tie_break():
    # Prim from vertex 0 under the (length, min id, max id) tie-break.
    h = hg([(0, 0), (1, 0), (0, 1), (1, 1)], [{0, 1, 2, 3}])
    g = emst([0, 1, 2, 3], h)
    assert g.sorted_edges() == [(0, 1), (0, 2), (1, 3)]
    assert total_length(g, h) == pytest.approx(3)
    best = min(length for length, _ in enumerate_spanning_trees([0, 1, 2, 3], h))
    assert total_length(g, h) == pytest.approx(best)


def test_emst_singleton_and_empty():
    h = hg([(0, 0), (1, 0)], [{0, 1}])
    assert emst([0], h).sorted_edges() == []
    with pytest.raises(ValueError):
        emst([], h)


def test_emst_never_beaten_by_enumeration():
    for seed in range(25):
        rng = random.Random(seed)
        pts = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(6)]
        h = hg(pts, [set(range(6))])
        g = emst(range(6), h)
        assert len(g) == 5
        best = min(length for length, _ in enumerate_spanning_trees(range(6), h))
        assert total_length(g, h) <= best + 1e-9


def test_free_edges_example():
    # d(0,2) = d(1,2) = sqrt(26); the tie goes to the smaller vertex id.
    h = hg([(0, 0), (10, 0), (5, 1)], [{0, 1, 2}])
    g = prim_tree([0, 1, 2], [(0, 1)], h)
    assert g.sorted_edges() == [(0, 1), (0, 2)]
    non_free = total_length(g, h) - h.edge_length(0, 1)
    assert non_free == pytest.approx(math.sqrt(26))
    # enumeration check: no spanning tree is cheaper under the free weights
    free = {(0, 1)}
    best = min(sum(h.edge_length(u, v) for u, v in combo if (u, v) not in free)
               for _, combo in enumerate_spanning_trees([0, 1, 2], h))
    assert non_free <= best + 1e-9


def test_free_edges_degenerate_cases():
    h = hg([(0, 0), (10, 0), (5, 1)], [{0, 1, 2}])
    assert prim_tree([0, 1, 2], [], h).edges == emst([0, 1, 2], h).edges
    # free edges already spanning: zero non-free contribution
    g = prim_tree([0, 1, 2], [(0, 1), (1, 2)], h)
    assert g.edges <= {(0, 1), (1, 2)}
    assert len(g) == 2
    with pytest.raises(ValueError):
        mst_with_free_edges([0, 1], [(0, 2)], h)


def test_zero_weight_mst_contained_in_free_union_emst():
    # The containment lemma, exact under the shared tie-break.
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(3, 9)
        pts = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
        h = hg(pts, [set(range(n))])
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        free = {p for p in pairs if rng.random() < 0.3}
        tree = prim_tree(range(n), free, h)
        allowed = free | set(emst(range(n), h).edges)
        assert tree.edges <= allowed


def kruskal_oracle(ids, free, h):
    """Kruskal under the shared order (weight, min id, max id), with the
    free edges at weight zero."""
    ids = sorted(set(ids))
    free = {edge_key(a, b) for a, b in free}
    order = sorted((0.0 if (u, v) in free else h.edge_length(u, v), u, v)
                   for i, u in enumerate(ids) for v in ids[i + 1:])
    dsu = DisjointSet(max(ids) + 1)
    return {(u, v) for _, u, v in order if dsu.union(u, v) is not None}


def _oracle_cases(count):
    """Uniform floats and 3x3..8x8 integer grids (many equal lengths), on
    random id subsets, with random free sets: none, sparse, dense, a free
    cycle, or a free spanning tree plus extras."""
    rng = random.Random(1957)
    for t in range(count):
        if t % 2:
            side = 3 + (t // 2) % 6
            cells = [(x, y) for x in range(side) for y in range(side)]
            pts = rng.sample(cells, rng.randint(2, len(cells)))
        else:
            pts = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(rng.randint(2, 25))]
        n = len(pts)
        ids = list(range(n)) if t % 3 == 0 else rng.sample(range(n), rng.randint(1, n))
        pairs = [edge_key(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
        kind = t % 5
        if kind == 0:
            free = []
        elif kind in (1, 2):
            free = [e for e in pairs if rng.random() < (0.1 if kind == 1 else 0.6)]
        else:
            walk = rng.sample(ids, len(ids))
            if kind == 3:   # a free cycle through part of the ids
                walk = walk[:max(3, len(walk) // 2)]
                steps = zip(walk, walk[1:] + walk[:1])
            else:           # a free spanning tree: the free edges already span
                steps = ((v, rng.choice(walk[:i])) for i, v in enumerate(walk) if i)
            free = [edge_key(a, b) for a, b in steps if a != b]
            free += [e for e in pairs if rng.random() < 0.1]
        yield Hypergraph.build(pts, [set(range(n))]), ids, free


def test_free_edge_mst_equals_kruskal_oracle():
    # The order (weight, min id, max id) is strict, so the spanning tree is
    # unique: Prim must return exactly Kruskal's edge set.
    for h, ids, free in _oracle_cases(1500):
        assert prim_tree(ids, free, h).edges == kruskal_oracle(ids, free, h), \
            (h.vertices, ids, free)


def test_emst_order_equals_the_measured_order():
    # emst_order sorts by the weights Prim hands out; it must equal sorting
    # the EMST's edges by their measured lengths, ties included (the
    # integer grids have many equal lengths).
    for h, ids, _ in _oracle_cases(600):
        measured = sorted((h.edge_length(u, v), u, v) for u, v in emst(ids, h).edges)
        assert emst_order(ids, h) == [(u, v) for _, u, v in measured], (h.vertices, ids)


def test_mst_approximation_length_is_total_length_bit_for_bit():
    from plane_supports.heuristics import mst_approximation
    rng = random.Random(8)
    for i in range(150):
        h = generate(rng.randint(2, 60), rng.randint(1, 8), rng.choice(list(DegreeScheme)),
                     random.Random(i))
        rep = mst_approximation(h)
        assert repr(rep.length) == repr(total_length(rep.support, h))


@pytest.mark.skipif(st is None, reason="hypothesis is not installed")
def test_kruskal_completion_equals_dense_prim():
    # complete_with_free_edges works from the EMST alone; under the strict
    # order the tree is unique, so it must equal the dense Prim exactly.
    # Integer grids give many equal lengths, so the tie-breaks decide.
    floats = st.floats(0, 100, allow_nan=False)
    grid = st.integers(0, 5)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def check(data):
        coord = grid if data.draw(st.booleans()) else floats
        pts = data.draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=18,
                                 unique=True))
        n = len(pts)
        ids = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
        free = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        h = Hypergraph.build(pts, [set(range(n))])
        assert complete_with_free_edges(free, emst_order(ids, h), h) == \
            prim_tree(ids, free, h).edges

    check()


def test_star_support_examples():
    # single-core star
    h = hg([(0, 0), (-1, 0), (1, 0)], [{0, 1}, {0, 2}])
    g = star_support(h)
    assert g.sorted_edges() == [(0, 1), (0, 2)]
    assert total_length(g, h) == pytest.approx(2)
    # two-vertex core plus one red extra; nearest core comparison 1 vs sqrt(2)
    h2 = hg([(0, 0), (1, 0), (0, 1)], [{0, 1, 2}, {0, 1}])
    g2 = star_support(h2)
    assert g2.sorted_edges() == [(0, 1), (0, 2)]
    assert total_length(g2, h2) == pytest.approx(2)


def test_star_support_empty_core():
    h = hg([(0, 0), (1, 1), (0, 1), (1, 0)], [{0, 1}, {2, 3}])
    with pytest.raises(EmptyCoreError):
        star_support(h)


def test_star_support_satisfies_pt_on_generated_instances():
    from plane_supports.model import PLANE_TREE, satisfies
    for seed in range(40):
        h = generate(15, 3, DegreeScheme.EVEN, random.Random(seed))
        g = star_support(h)
        assert satisfies(g, h, PLANE_TREE)


def test_determinism():
    h = generate(15, 2, DegreeScheme.MID, random.Random(9))
    ids = sorted(h.hyperedges[0])
    a = emst(ids, h)
    b = emst(ids, h)
    assert a == b
    assert star_support(h) == star_support(h)


def _rows(rng, n):
    """n points on one to three horizontal rows with integer x, so that
    many triples are collinear and many spokes overlap."""
    rows = rng.randint(1, 3)
    cells = rng.sample([(x, y) for x in range(20) for y in range(rows)], n)
    return [(float(x), float(y)) for x, y in cells]


def _cover(rng, n, k, core):
    """k hyperedges over n vertices that together cover them, each with
    vertex 0 when `core` (a nonempty core) and otherwise random."""
    sets = [set() for _ in range(k)]
    for v in range(n):
        sets[rng.randrange(k)].add(v)
        for s in sets:
            if rng.random() < 0.3:
                s.add(v)
    for s in sets:
        if core or not s:
            s.add(0)
    return sets


@pytest.mark.skipif(st is None, reason="hypothesis is not installed")
def test_star_is_a_spanning_tree_support_whenever_the_core_is_nonempty():
    # heuristics._star_seed relies on this and checks only the star's
    # planarity: |core| - 1 core edges plus one spoke per other vertex, and
    # every hyperedge holds the core and its vertices' spokes' core ends.
    from plane_supports.model import TREE, satisfies

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def check(data):
        layout = data.draw(st.sampled_from(("scheme", "grid", "rows")))
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
        if layout == "scheme":
            h = generate(data.draw(st.integers(2, 30)), data.draw(st.integers(1, 5)),
                         data.draw(st.sampled_from(list(DegreeScheme))), rng)
        else:
            n = data.draw(st.integers(1, 20))
            points = (_rows(rng, n) if layout == "rows"
                      else rng.sample([(x, y) for x in range(6) for y in range(6)], n))
            h = hg(points, _cover(rng, n, data.draw(st.integers(1, 4)), data.draw(st.booleans())))
        if not h.core():
            with pytest.raises(EmptyCoreError):
                star_support(h)
            return
        g = star_support(h)
        assert len(g.edges) == h.n - 1
        assert satisfies(g, h, TREE)

    check()
