"""Random spatial hypergraph generation and the adversarial chain family.

Instances are generated in four steps: draw a degree histogram under one of
four schemes, patch it so some vertex has full degree and the degree mass is
at least 2k, then place vertices uniformly in a 100-wide square and assign
each one its hyperedges, preferring hyperedges that do not yet have two
members. Everything is driven by a caller-supplied random.Random, so a seed
fully determines the instance.
"""

from __future__ import annotations

import math
import random
from enum import Enum

from .geom import Point
from .model import Hypergraph

# Second parameters of the degree-scheme normals, read as standard deviations.
MID_SIGMA = 2 / 9
TAIL_SIGMA = 2 / 5

# How often step 4 may be retried before giving up; a retry is only needed in
# the rare draws where the assignment order leaves some hyperedge below two
# members even though the degree mass makes a valid assignment possible.
_MAX_ASSIGN_ATTEMPTS = 200

class DegreeScheme(str, Enum):
    EVEN = "even"
    MID = "mid"
    LOW = "low"
    HIGH = "high"


def _draw_degree(scheme: DegreeScheme, k: int, rng: random.Random) -> int:
    # Normal draws whose mapped degree falls outside [1, k] are redrawn,
    # not clamped; clamping would pile mass onto the extreme degrees.
    while True:
        if scheme is DegreeScheme.MID:
            g = rng.normalvariate(0.5, MID_SIGMA)
            d = 1 + math.floor(k * g)
        elif scheme is DegreeScheme.LOW:
            g = rng.normalvariate(0.0, TAIL_SIGMA)
            d = 1 + math.floor(k * abs(g))
        elif scheme is DegreeScheme.HIGH:
            g = rng.normalvariate(0.0, TAIL_SIGMA)
            d = k - math.floor(k * abs(g))
        else:
            raise ValueError(f"scheme {scheme} draws no random degrees")
        if 1 <= d <= k:
            return d


def degree_array(n: int, k: int, scheme: DegreeScheme, rng: random.Random) -> list[int]:
    """Degree histogram: counts[d-1] vertices of degree d, for d in 1..k.

    After the two patch-up steps the histogram always has counts[k-1] >= 1
    (some vertex joins every hyperedge) and sum(d * counts[d-1]) >= 2k
    (enough memberships for two per hyperedge).
    """
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got {n}")
    if k < 1:
        raise ValueError(f"need at least 1 hyperedge, got {k}")
    scheme = DegreeScheme(scheme)

    counts = [0] * k
    if scheme is DegreeScheme.EVEN:
        base, extra = divmod(n, k)
        for d in range(k):
            counts[d] = base + (1 if d < extra else 0)
    else:
        for _ in range(n):
            counts[_draw_degree(scheme, k, rng) - 1] += 1

    # Ensure at least one vertex of degree k.
    if counts[k - 1] == 0:
        top = max(d for d in range(k) if counts[d] > 0)
        counts[top] -= 1
        counts[k - 1] = 1

    # Ensure the total membership mass covers two vertices per hyperedge.
    while sum((d + 1) * counts[d] for d in range(k)) < 2 * k:
        low = min(d for d in range(k) if counts[d] > 0)
        counts[low] -= 1
        counts[low + 1] += 1

    return counts


def _assign(n: int, k: int, counts: list[int], rng: random.Random):
    """One attempt at step 4; returns (points, hyperedges as lists of vertex
    ids) or None. `nonzero` (degrees still to place) and `underfilled`
    (hyperedges below two members) stay ascending as vertices are placed,
    so every draw sees the lists that a rebuild before it would give."""
    remaining = list(counts)
    left = sum(remaining)
    nonzero = [d + 1 for d in range(k) if remaining[d] > 0]
    underfilled = list(range(k))
    points: list[Point] = []
    seen: set[tuple[float, float]] = set()
    hyperedges: list[list[int]] = [[] for _ in range(k)]
    sizes = [0] * k
    while left:
        deg = rng.choice(nonzero)
        while True:
            p = (rng.random() * 100.0, rng.random() * 100.0)
            if p not in seen:
                break
        seen.add(p)
        v = len(points)
        points.append(Point(*p))
        if len(underfilled) >= deg:
            mine = rng.sample(underfilled, deg)
        elif underfilled:
            rest = [s for s in range(k) if sizes[s] >= 2]
            mine = underfilled + rng.sample(rest, deg - len(underfilled))
        else:
            mine = rng.sample(range(k), deg)
        for s in mine:
            hyperedges[s].append(v)
            sizes[s] += 1
            if sizes[s] == 2:
                underfilled.remove(s)
        remaining[deg - 1] -= 1
        if not remaining[deg - 1]:
            nonzero.remove(deg)
        left -= 1
    if min(sizes) < 2:
        return None
    return points, hyperedges


def generate(n: int, k: int, scheme: DegreeScheme, rng: random.Random) -> Hypergraph:
    """Random hypergraph: n vertices in [0, 100)^2, k hyperedges, degrees
    drawn under `scheme`. Every hyperedge gets at least two vertices and at
    least one vertex joins all hyperedges, so the core is never empty.
    """
    counts = degree_array(n, k, scheme, rng)
    for _ in range(_MAX_ASSIGN_ATTEMPTS):
        result = _assign(n, k, counts, rng)
        if result is not None:
            points, hyperedges = result
            return Hypergraph(tuple(points), tuple(map(frozenset, hyperedges)))
    raise RuntimeError(f"could not assign hyperedges after {_MAX_ASSIGN_ATTEMPTS} attempts "
                       f"(n={n}, k={k}, scheme={scheme})")


# Fixed geometry of the adversarial family. The three shared vertices are
# u=(0,0), v=(SPAN,0) and w=(0,1), so their EMST has length SPAN + 1; the
# remaining vertices sit on two mirrored convex arcs inside a unit disk just
# left of the midpoint of u-v, alternating between the two hyperedges.
_SPAN = 40.0
_DISK_X = _SPAN / 2 - 2.0
_ARC_HALF_WIDTH = 0.7
_ARC_BASE_Y = 0.15
_ARC_BULGE = 0.4


def adversarial_family(n: int) -> Hypergraph:
    """Two-hyperedge family on which any support containing the core EMST is
    a factor Theta(n) longer than the best support.

    A star seed must hang every chain vertex on a far-away core vertex, while
    short intra-chain links plus a couple of long hooks suffice, so the
    star-to-optimum ratio grows linearly with n.
    """
    if n < 7:
        raise ValueError(f"adversarial family needs n >= 7, got {n}")
    points: list[tuple[float, float]] = [(0.0, 0.0), (_SPAN, 0.0), (0.0, 1.0)]
    red = {0, 1, 2}
    blue = {0, 1, 2}
    m = n - 3
    m_top = (m + 1) // 2
    for chain_index, (count, sign) in enumerate(((m_top, 1.0), (m - m_top, -1.0))):
        for i in range(count):
            t = (i + 0.37) / count
            x = _DISK_X - _ARC_HALF_WIDTH + 2 * _ARC_HALF_WIDTH * t
            y = sign * (_ARC_BASE_Y + _ARC_BULGE * math.sin(math.pi * t))
            vid = len(points)
            points.append((x, y))
            # Colours alternate left to right along each chain; the lower
            # chain starts on the other colour to balance the two sets.
            if (i + chain_index) % 2 == 0:
                red.add(vid)
            else:
                blue.add(vid)
    return Hypergraph.build(points, [red, blue])
