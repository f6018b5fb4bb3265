import random
from fractions import Fraction

import pytest

from plane_supports.geom import (ORIENT_EPS, Orientation, Point, Segment, SegmentConflicts,
                                 distance, orientation, segments_conflict)


def seg(ax, ay, bx, by):
    return Segment(Point(ax, ay), Point(bx, by))


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Point(0.0, float("inf"))


def test_segment_rejects_zero_length():
    with pytest.raises(ValueError):
        Segment(Point(1, 2), Point(1, 2))


def test_orientation_examples():
    assert orientation(Point(0, 0), Point(1, 0), Point(2, 0)) is Orientation.COLLINEAR
    assert orientation(Point(0, 0), Point(1, 0), Point(1, 1)) is Orientation.COUNTERCLOCKWISE
    assert orientation(Point(0, 0), Point(1, 0), Point(1, -1)) is Orientation.CLOCKWISE


def test_orientation_antisymmetric_in_last_two_args():
    rng = random.Random(7)
    for _ in range(300):
        p, q, r = (Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(3))
        assert orientation(p, q, r) == -orientation(p, r, q)


def test_distance_examples():
    assert distance(Point(0, 0), Point(3, 4)) == 5
    assert distance(Point(0, 0), Point(0, 0)) == 0
    assert distance(Point(0, 0), Point(1, 1)) == pytest.approx(2 ** 0.5)


def test_distance_triangle_inequality():
    rng = random.Random(11)
    for _ in range(300):
        p, q, r = (Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(3))
        assert distance(p, r) <= distance(p, q) + distance(q, r) + 1e-9


def test_conflict_examples():
    # X-configuration crosses
    assert segments_conflict(seg(0, 0, 1, 1), seg(0, 1, 1, 0))
    # shared endpoint only: no conflict
    assert not segments_conflict(seg(0, 0, 1, 0), seg(0, 0, 0, 1))
    # collinear overlap conflicts
    assert segments_conflict(seg(0, 0, 2, 0), seg(1, 0, 3, 0))


def test_conflict_touch_and_overlap_cases():
    # interior of one passes through the other's endpoint
    assert segments_conflict(seg(0, 0, 2, 0), seg(1, 0, 1, 1))
    # collinear, touching at one endpoint only: no conflict
    assert not segments_conflict(seg(0, 0, 1, 0), seg(1, 0, 2, 0))
    # collinear sharing an endpoint but overlapping
    assert segments_conflict(seg(0, 0, 2, 0), seg(0, 0, 1, 0))
    # identical segments fully overlap
    assert segments_conflict(seg(0, 0, 1, 1), seg(0, 0, 1, 1))
    # containment
    assert segments_conflict(seg(0, 0, 3, 0), seg(1, 0, 2, 0))
    # disjoint parallel
    assert not segments_conflict(seg(0, 0, 1, 0), seg(0, 1, 1, 1))


def _conflict_oracle(s1, s2):
    """Independent exact predicate on rational coordinates.

    Intersects the two supporting lines with Fraction arithmetic and checks
    the meeting set against the 'shared point that is no common endpoint'
    definition; collinear segments are compared as 1-d intervals.
    """
    a = (Fraction(s1.a.x), Fraction(s1.a.y))
    b = (Fraction(s1.b.x), Fraction(s1.b.y))
    c = (Fraction(s2.a.x), Fraction(s2.a.y))
    d = (Fraction(s2.b.x), Fraction(s2.b.y))
    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    denom = r[0] * s[1] - r[1] * s[0]
    ac = (c[0] - a[0], c[1] - a[1])
    cross_ac_r = ac[0] * r[1] - ac[1] * r[0]
    endpoints1 = {a, b}
    endpoints2 = {c, d}
    if denom == 0:
        if cross_ac_r != 0:
            return False  # parallel, never meet
        # collinear: project on the dominant axis and intersect intervals
        axis = 0 if r[0] != 0 else 1
        i1 = sorted((a[axis], b[axis]))
        i2 = sorted((c[axis], d[axis]))
        lo, hi = max(i1[0], i2[0]), min(i1[1], i2[1])
        if lo > hi:
            return False
        if lo < hi:
            return True  # overlap of positive length
        # single touching point: conflict unless it is an endpoint of both
        shared = [p for p in endpoints1 & endpoints2 if p[axis] == lo]
        return not shared
    t = (ac[0] * s[1] - ac[1] * s[0]) / denom
    u = cross_ac_r / denom
    if not (0 <= t <= 1 and 0 <= u <= 1):
        return False
    point = (a[0] + t * r[0], a[1] + t * r[1])
    return not (point in endpoints1 and point in endpoints2)


def test_conflict_matches_independent_oracle():
    rng = random.Random(23)
    cases = 0
    while cases < 1500:
        coords = [rng.randint(0, 7) for _ in range(8)]
        try:
            s1 = seg(coords[0], coords[1], coords[2], coords[3])
            s2 = seg(coords[4], coords[5], coords[6], coords[7])
        except ValueError:
            continue
        cases += 1
        assert segments_conflict(s1, s2) == _conflict_oracle(s1, s2), (s1, s2)


def test_conflict_symmetry():
    rng = random.Random(31)
    done = 0
    while done < 500:
        coords = [rng.uniform(0, 10) for _ in range(8)]
        s1 = seg(coords[0], coords[1], coords[2], coords[3])
        s2 = seg(coords[4], coords[5], coords[6], coords[7])
        assert segments_conflict(s1, s2) == segments_conflict(s2, s1)
        done += 1


def test_bulk_conflicts_match_pairwise_predicate():
    # Integer grids give collinear overlaps, endpoints in interiors and
    # shared endpoints; uniform points give proper crossings.
    rng = random.Random(41)
    for trial in range(60):
        if trial % 2:
            coords = {(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(10)}
        else:
            coords = {(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(10)}
        points = [Point(float(x), float(y)) for x, y in sorted(coords)]
        pairs = [(i, j) for i in range(len(points)) for j in range(i + 1, len(points))
                 if rng.random() < 0.7]
        bulk = SegmentConflicts(points, pairs)
        for a in range(len(points)):
            for b in range(a + 1, len(points)):
                query = Segment(points[a], points[b])
                expected = sum(1 << pid for pid, (i, j) in enumerate(pairs)
                               if segments_conflict(query, Segment(points[i], points[j])))
                assert bulk.conflicting(a, b) == expected, (trial, a, b)


def _reference_conflict(s1, s2):
    """segments_conflict as written on Point and Orientation before it moved
    to raw float coordinates: the reference the float code must match."""
    def strictly_between(a, b, p):
        if p == a or p == b:
            return False
        return (min(a.x, b.x) <= p.x <= max(a.x, b.x)
                and min(a.y, b.y) <= p.y <= max(a.y, b.y))

    a, b = s1.a, s1.b
    c, d = s2.a, s2.b
    if {a, b} == {c, d}:
        return True
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    return ((o1 == Orientation.COLLINEAR and strictly_between(a, b, c))
            or (o2 == Orientation.COLLINEAR and strictly_between(a, b, d))
            or (o3 == Orientation.COLLINEAR and strictly_between(c, d, a))
            or (o4 == Orientation.COLLINEAR and strictly_between(c, d, b)))


def _reference_point_sets():
    """Named point sets: uniform points, integer grids, jittered grids with
    a step near 3e-5, so that cross products straddle ORIENT_EPS, points
    whose cross products are exactly ORIENT_EPS, and points written with
    +0.0 and -0.0."""
    rng = random.Random(53)
    sets = []
    for _ in range(4):
        sets.append(("uniform", [(rng.uniform(0, 100), rng.uniform(0, 100))
                                 for _ in range(9)]))
    sets.append(("grid", [(float(x), float(y)) for x in range(3) for y in range(3)]))
    for _ in range(4):
        sets.append(("grid", sorted({(float(rng.randint(0, 4)), float(rng.randint(0, 4)))
                                     for _ in range(10)})))
    # A lattice triangle of area 1/2 has |cross| = step**2 = ORIENT_EPS;
    # the jitter moves that by about 1%, to either side.
    step = ORIENT_EPS ** 0.5
    for _ in range(6):
        sets.append(("near-eps", [(x * step + rng.uniform(-2e-7, 2e-7),
                                   y * step + rng.uniform(-2e-7, 2e-7))
                                  for x in range(3) for y in range(3)]))
    # Cross products of exactly ORIENT_EPS, in either endpoint order: (0, 0)
    # lies on (-1, 0)-(1, 1e-9) within the tolerance. (0, -5e-10)-(0, 1)
    # crosses (1, 0)-(-1, 0), but its first endpoint counts as collinear with
    # that segment and lies outside its bounding box, so they do not conflict.
    sets.append(("at-eps", [(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (1.0, 1e-9),
                            (1.0, -1e-9), (0.5, 1.0), (0.0, -5e-10), (0.0, 1.0)]))
    sets.append(("signed-zero", [(-0.0, 0.0), (0.0, 1.0), (-0.0, -1.0), (1.0, -0.0),
                                 (-1.0, 0.0), (-1.0, -1.0), (1.0, 1.0)]))
    return sets


def test_conflicts_match_orientation_reference():
    # Every ordered pair of segments on each point set, both endpoint orders
    # of each, so identical segments come in both orientations.
    kinds = {"identical": 0, "shared-endpoint": 0, "overlap": 0, "touch": 0,
             "cross-below-eps": 0, "cross-above-eps": 0, "conflict-at-eps": 0,
             "signed-zero": 0}
    for kind, coords in _reference_point_sets():
        points = [Point(x, y) for x, y in coords]
        if kind == "signed-zero":
            # The same points with every zero's sign flipped: equal to the
            # originals, so shared endpoints may differ in the sign of 0.
            points += [Point(-x if x == 0 else x, -y if y == 0 else y) for x, y in coords]
        segs = [Segment(p, q) for p in points for q in points if p != q]
        for s1 in segs:
            for s2 in segs:
                expected = _reference_conflict(s1, s2)
                assert segments_conflict(s1, s2) is expected, (kind, s1, s2)
                ends = {s1.a, s1.b} & {s2.a, s2.b}
                collinear = (orientation(s1.a, s1.b, s2.a) == 0
                             and orientation(s1.a, s1.b, s2.b) == 0)
                if len(ends) == 2:
                    kinds["identical"] += 1
                elif len(ends) == 1 and not expected:
                    kinds["shared-endpoint"] += 1
                elif collinear and expected:
                    kinds["overlap"] += 1
                elif expected and (orientation(s1.a, s1.b, s2.a) == 0
                                   or orientation(s1.a, s1.b, s2.b) == 0):
                    kinds["touch"] += 1
                if kind == "signed-zero" and expected:
                    kinds["signed-zero"] += 1
                p, q, r = s1.a, s1.b, s2.a
                cross = abs((q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x))
                if cross == ORIENT_EPS and expected:
                    kinds["conflict-at-eps"] += 1
                elif 0.9 * ORIENT_EPS < cross < ORIENT_EPS:
                    kinds["cross-below-eps"] += 1
                elif ORIENT_EPS < cross < 1.1 * ORIENT_EPS:
                    kinds["cross-above-eps"] += 1
    assert all(kinds.values()), kinds


def test_bulk_conflicts_match_orientation_reference():
    rng = random.Random(59)
    for kind, coords in _reference_point_sets():
        points = [Point(x, y) for x, y in coords]
        pairs = [(i, j) for i in range(len(points)) for j in range(i + 1, len(points))
                 if rng.random() < 0.8]
        bulk = SegmentConflicts(points, pairs)
        for a in range(len(points)):
            for b in range(a + 1, len(points)):
                query = Segment(points[a], points[b])
                expected = sum(1 << pid for pid, (i, j) in enumerate(pairs)
                               if _reference_conflict(query, Segment(points[i], points[j])))
                assert bulk.conflicting(a, b) == expected, (kind, a, b)


def test_bulk_conflicts_reject_pairs_not_in_min_max_form():
    points = [Point(0, 0), Point(1, 0), Point(0, 1)]
    with pytest.raises(ValueError):
        SegmentConflicts(points, [(0, 1), (2, 1)])
