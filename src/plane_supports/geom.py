"""Planar geometry primitives: distance, orientation, segment conflicts.

Coordinates are plain floats. Predicates compare the cross product against
ORIENT_EPS, an absolute tolerance, instead of using exact arithmetic, which
is plenty for the coordinate scales this package works at (generated
instances live in a 100 x 100 square). The segment-conflict arithmetic
lives in two places: coords_conflict, the pairwise test on coordinate
4-tuples (segments_conflict unpacks two Segments into it, and
model.conflict_index_pairs walks the edges of a support through it), and
SegmentConflicts, the bulk query over bitmasks of stored pairs (its
passing-through index, its side pass over the incident masks and its
straddling-pair test). Both compute the cross products of orientation()
inline, with the same operands and the same ORIENT_EPS cut, so they give
its answers exactly.

Because the tolerance is absolute, answers change under scaling:
(0, 0)-(2, 2) and (1, 0)-(3, 1) do not conflict, but with every coordinate
multiplied by 1e-5 all four cross products fall below ORIENT_EPS, so the
segments read as collinear and overlapping, hence conflicting.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import IntEnum

# Absolute tolerance on cross products below which three points count as
# collinear. Instance feature sizes are O(1)..O(100), far above this.
ORIENT_EPS = 1e-9
_ONES = re.compile("1").finditer


class Orientation(IntEnum):
    CLOCKWISE = -1
    COLLINEAR = 0
    COUNTERCLOCKWISE = 1


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class Segment:
    a: Point
    b: Point

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError(f"zero-length segment at {self.a}")


def distance(p: Point, q: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(q.x - p.x, q.y - p.y)


def orientation(p: Point, q: Point, r: Point) -> Orientation:
    """Turn direction of the path p -> q -> r (sign of (q-p) x (r-p)),
    COLLINEAR when |cross| <= ORIENT_EPS."""
    cross = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    if cross > ORIENT_EPS:
        return Orientation.COUNTERCLOCKWISE
    if cross < -ORIENT_EPS:
        return Orientation.CLOCKWISE
    return Orientation.COLLINEAR


def _strictly_between(ax: float, ay: float, bx: float, by: float,
                      px: float, py: float) -> bool:
    # p is already known to be collinear with a-b; true iff p lies on the
    # closed segment but is not one of its endpoints.
    if (px == ax and py == ay) or (px == bx and py == by):
        return False
    return ((ax <= px <= bx or bx <= px <= ax)
            and (ay <= py <= by or by <= py <= ay))


def segments_conflict(s1: Segment, s2: Segment) -> bool:
    """True iff the segments share any point that is not a common endpoint.

    Segments meeting only at one shared endpoint do not conflict. Collinear
    overlaps conflict, as does a segment whose interior passes through the
    other's endpoint. The test itself is coords_conflict's.
    """
    a, b, c, d = s1.a, s1.b, s2.a, s2.b
    return coords_conflict((a.x, a.y, b.x, b.y), (c.x, c.y, d.x, d.y))


def coords_conflict(s1: tuple[float, float, float, float],
                    s2: tuple[float, float, float, float]) -> bool:
    """segments_conflict for segments given as raw coordinate 4-tuples
    (ax, ay, bx, by) of distinct endpoints.

    The four cross products are those of orientation(), with the same
    operands and the same ORIENT_EPS cut.
    """
    ax, ay, bx, by = s1
    cx, cy, dx, dy = s2
    if ((ax == cx and ay == cy and bx == dx and by == dy)
            or (ax == dx and ay == dy and bx == cx and by == cy)):
        return True
    abx, aby, cdx, cdy = bx - ax, by - ay, dx - cx, dy - cy
    # Signs of orientation(a, b, c), (a, b, d), (c, d, a) and (c, d, b).
    cross = abx * (cy - ay) - aby * (cx - ax)
    o1 = 1 if cross > ORIENT_EPS else -1 if cross < -ORIENT_EPS else 0
    cross = abx * (dy - ay) - aby * (dx - ax)
    o2 = 1 if cross > ORIENT_EPS else -1 if cross < -ORIENT_EPS else 0
    cross = cdx * (ay - cy) - cdy * (ax - cx)
    o3 = 1 if cross > ORIENT_EPS else -1 if cross < -ORIENT_EPS else 0
    cross = cdx * (by - cy) - cdy * (bx - cx)
    o4 = 1 if cross > ORIENT_EPS else -1 if cross < -ORIENT_EPS else 0
    # Proper crossing: each segment's endpoints strictly straddle the other.
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    # Touching cases: an endpoint in the other segment's interior. This also
    # covers every collinear overlap of non-identical segments.
    return ((o1 == 0 and _strictly_between(ax, ay, bx, by, cx, cy))
            or (o2 == 0 and _strictly_between(ax, ay, bx, by, dx, dy))
            or (o3 == 0 and _strictly_between(cx, cy, dx, dy, ax, ay))
            or (o4 == 0 and _strictly_between(cx, cy, dx, dy, bx, by)))


def bit_mask(ids, size: int) -> int:
    """The bitmask of the indices `ids`, each below `size`, repeats allowed.
    The bits go into a bytearray that is converted once, so the build is
    linear in size."""
    buf = bytearray((size >> 3) + 1)
    for i in ids:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def bit_ids(mask: int) -> list[int]:
    """The positions of mask's set bits, ascending, off its binary digits."""
    return [found.start() for found in _ONES(bin(mask)[:1:-1])]


def incident_masks(pairs, n: int) -> list[int]:
    """By point 0..n-1, the bitmask of the positions in `pairs` of the
    pairs ending there; one pass sets each bit in the bytes of both ends."""
    by_point = [bytearray((len(pairs) >> 3) + 1) for _ in range(n)]
    for i, (a, b) in enumerate(pairs):
        byte, bit = i >> 3, 1 << (i & 7)
        by_point[a][byte] |= bit
        by_point[b][byte] |= bit
    return [int.from_bytes(buf, "little") for buf in by_point]


class SegmentConflicts:
    """segments_conflict in bulk, for the segments between pairs of one set
    of distinct points.

    `pairs` are distinct (i, j) index pairs with i < j, each standing for
    Segment(points[i], points[j]); a pair's id is its position in `pairs`.
    conflicting(a, b) returns the bitmask of the ids of the pairs whose
    segments conflict with Segment(points[a], points[b]), a < b. It makes
    the tests of segments_conflict, but computes each point's side of the
    query line once per query instead of once per pair. The pairs with one
    end strictly on each side are the OR of the incident masks (incident[v]:
    the ids of the pairs ending at v) of the points left of the line, ANDed
    with the same OR for the points right of it; only those try a proper
    crossing, with operands stored once per pair. The touching cases come
    from the same masks and from through[v], the ids of the pairs whose
    interior passes through v, built at construction (trying only the
    points in each pair's bounding box, found as bitmasks). A caller that
    already has the incident masks of `pairs` may pass them in.
    """

    def __init__(self, points, pairs, incident=None):
        self.xs = xs = [p.x for p in points]
        self.ys = ys = [p.y for p in points]
        self.pairs = list(pairs)
        self.incident = incident = incident or incident_masks(self.pairs, len(xs))
        # The query's side pass walks the points with a pair alone.
        self._rows = [(xs[v], ys[v], m, v) for v, m in enumerate(incident) if m]
        # Per axis, below[v] and upto[v] are the bitmasks of the points whose
        # coordinate is less than v's, and at most v's.
        masks = []
        for coords in (xs, ys):
            order = sorted(range(len(coords)), key=coords.__getitem__)
            ordered = [coords[v] for v in order]
            prefix = [0]
            for v in order:
                prefix.append(prefix[-1] | 1 << v)
            masks.append(([prefix[bisect_left(ordered, t)] for t in coords],
                          [prefix[bisect_right(ordered, t)] for t in coords]))
        (xbelow, xupto), (ybelow, yupto) = masks
        # By pair, the operands of its side of the crossing test; by point,
        # the pairs whose segment has it in its interior. Only the points in
        # a segment's bounding box are tried for the latter.
        self._operands = []
        self.through = through = [0] * len(xs)
        for i, p in enumerate(self.pairs):
            c, d = p
            if not c < d:
                raise ValueError(f"pair {p} is not in (min, max) form")
            cx, cy, dx, dy = xs[c], ys[c], xs[d], ys[d]
            self._operands.append((cx, cy, dx - cx, dy - cy))
            # The points in the segment's bounding box, but for c and d.
            xbox = xupto[d] ^ xbelow[c] if cx <= dx else xupto[c] ^ xbelow[d]
            ybox = yupto[d] ^ ybelow[c] if cy <= dy else yupto[c] ^ ybelow[d]
            inside = xbox & ybox ^ (1 << c | 1 << d)
            while inside:
                low = inside & -inside
                inside ^= low
                v = low.bit_length() - 1
                vx, vy = xs[v], ys[v]
                cross = (dx - cx) * (vy - cy) - (dy - cy) * (vx - cx)
                if (not (cross > ORIENT_EPS or cross < -ORIENT_EPS)
                        and _strictly_between(cx, cy, dx, dy, vx, vy)):
                    through[v] |= 1 << i

    def conflicting(self, a: int, b: int) -> int:
        xs, ys = self.xs, self.ys
        ax, ay, bx, by = xs[a], ys[a], xs[b], ys[b]
        abx, aby = bx - ax, by - ay
        # Identical segments, and touching: an endpoint of either segment
        # in the other's interior.
        incident = self.incident
        out = incident[a] & incident[b] | self.through[a] | self.through[b]
        # Each point's side of the query line, as the sign of
        # orientation(points[a], points[b], point), gathered as the pairs
        # ending strictly left of it and strictly right of it. a and b lie
        # on it exactly, as do the points that may be in its interior.
        left = right = 0
        for x, y, m, v in self._rows:
            cross = abx * (y - ay) - aby * (x - ax)
            if cross > ORIENT_EPS:
                left |= m
            elif cross < -ORIENT_EPS:
                right |= m
            elif v != a and v != b and _strictly_between(ax, ay, bx, by, x, y):
                out |= m
        # Proper crossings: each segment's endpoints strictly straddle the
        # other. Only pairs with one endpoint on each side can straddle.
        # Their ids are read off the mask's binary digits, bit 0 first:
        # clearing bits one at a time costs a wide mask's width per bit.
        operands = self._operands
        for found in _ONES(bin(left & right)[:1:-1]):
            i = found.start()
            cx, cy, cdx, cdy = operands[i]
            ca = cdx * (ay - cy) - cdy * (ax - cx)
            cb = cdx * (by - cy) - cdy * (bx - cx)
            if ((ca > ORIENT_EPS and cb < -ORIENT_EPS)
                    or (ca < -ORIENT_EPS and cb > ORIENT_EPS)):
                out |= 1 << i
        return out
