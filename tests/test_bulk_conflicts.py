"""Property tests: the bulk conflict query, as built alone and as local
search builds it, and the float pairwise walk give the answers of
segments_conflict, on float and integer-grid point sets, some of them wider
than one 64-bit word of a side bitmask; the exact solver's conflict lists
and build_model's crossing rows, both read off the bulk query, give the
walk's pairs."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from plane_supports.exact import _conflict_list, _tables, build_model  # noqa: E402
from plane_supports.geom import Point, Segment, SegmentConflicts, segments_conflict  # noqa: E402
from plane_supports.heuristics import _Tables  # noqa: E402
from plane_supports.model import (PLANE, Hypergraph, SupportGraph, candidate_edges,  # noqa: E402
                                  conflict_index_pairs)

# (grid side, fewest points, most points) per layout; side None means
# uniform floats. Grids give collinear overlaps, endpoints in interiors and
# shared endpoints; "wide" sets have more than 64 points, so side and
# partner bitmasks span several machine words.
LAYOUTS = {"floats": (None, 2, 24), "grid": (6, 2, 24), "wide": (12, 65, 90)}


@st.composite
def point_sets(draw, layout):
    side, low, high = LAYOUTS[layout]
    if side is None:
        coord = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
        coords = draw(st.lists(st.tuples(coord, coord), min_size=low, max_size=high,
                               unique=True))
    else:
        cells = [(float(x), float(y)) for x in range(side) for y in range(side)]
        coords = draw(st.permutations(cells))[:draw(st.integers(low, high))]
    return [Point(x, y) for x, y in coords]


@st.composite
def stored_pairs(draw, n):
    """A random subset of the (i, j), i < j, pairs, one in `skip` on
    average, leaving some points with no stored partner at all."""
    lonely = draw(st.sets(st.integers(0, n - 1), max_size=max(1, n // 4)))
    skip = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return [(i, j) for i in range(n) for j in range(i + 1, n)
            if i not in lonely and j not in lonely and not rng.randrange(skip)]


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bulk_walk_and_float_pairs_match_the_pairwise_predicate(layout, data):
    points = data.draw(point_sets(layout))
    n = len(points)
    pairs = data.draw(stored_pairs(n))
    bulk = SegmentConflicts(points, pairs)
    everything = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # Stored and unstored queries alike, including ones ending at a point
    # with no stored partner.
    queries = data.draw(st.lists(st.sampled_from(everything), min_size=1, max_size=8))
    for a, b in queries:
        query = Segment(points[a], points[b])
        expected = sum(1 << pid for pid, (i, j) in enumerate(pairs)
                       if segments_conflict(query, Segment(points[i], points[j])))
        assert bulk.conflicting(a, b) == expected, (a, b)

    h = Hypergraph(tuple(points), (frozenset(range(n)),))
    edges = data.draw(st.lists(st.sampled_from(everything), max_size=30, unique=True))
    reference = [(i, j) for i in range(len(edges)) for j in range(i + 1, len(edges))
                 if segments_conflict(h.segment(*edges[i]), h.segment(*edges[j]))]
    assert list(conflict_index_pairs(h, edges)) == reference


@pytest.mark.parametrize("layout", ["floats", "grid"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_the_index_local_search_builds_matches_the_pairwise_predicate(layout, data):
    # _Tables hands the bulk index its own pairs, those no longer than the
    # seed's longest edge, and its own incident masks; conflicts_of numbers
    # the answer by the tables' indices.
    points = data.draw(point_sets(layout))
    n = len(points)
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    hyperedges = [frozenset(range(n))] + [frozenset(rng.sample(range(n), rng.randint(1, n)))
                                          for _ in range(rng.randint(0, 3))]
    h = Hypergraph(tuple(points), tuple(hyperedges))
    everything = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seed = SupportGraph(frozenset(data.draw(st.lists(st.sampled_from(everything), min_size=1,
                                                     max_size=n, unique=True))))
    tables = _Tables(h, seed)
    tables.conflicts_of(everything[0])
    bulk = tables._bulk
    assert bulk.pairs == tables.pairs[:tables.ncand] and bulk.incident is tables.incident
    for a, b in data.draw(st.lists(st.sampled_from(everything), min_size=1, max_size=8)):
        query = Segment(points[a], points[b])
        expected = sum(1 << i for i, (c, d) in enumerate(tables.pairs[:tables.ncand])
                       if segments_conflict(query, Segment(points[c], points[d])))
        assert tables.conflicts_of((a, b)) == expected, (a, b)


@pytest.mark.parametrize("layout", ["floats", "grid"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_exact_conflict_lists_and_crossing_rows_match_the_pairwise_walk(layout, data):
    # solve_exact numbers the candidates by rank in its _Tables, build_model
    # in (u, v) order; each reads a candidate's conflicts off one bulk query,
    # and must list the pairs of the conflict_index_pairs walk over the same
    # candidates. The cores may be empty.
    points = data.draw(point_sets(layout))
    n = len(points)
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    hyperedges = [set(rng.sample(range(n), rng.randint(1, n))) for _ in range(rng.randint(1, 4))]
    hyperedges[-1] |= set(range(n)).difference(*hyperedges)
    h = Hypergraph(tuple(points), tuple(map(frozenset, hyperedges)))
    tables = _tables(h)
    ranked = tables.pairs[:tables.ncand]
    expected = [[] for _ in ranked]
    for i, j in conflict_index_pairs(h, ranked):
        expected[i].append(j)
        expected[j].append(i)
    assert [_conflict_list(tables, i) for i in range(tables.ncand)] == expected
    edges = candidate_edges(h)
    assert build_model(h, PLANE).crossing_pairs == \
        tuple((edges[i], edges[j]) for i, j in conflict_index_pairs(h, edges))
