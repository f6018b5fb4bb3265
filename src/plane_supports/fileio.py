"""Text formats for hypergraphs and supports, plus a small SVG renderer.

The .hg grammar: comment lines start with '#'; a header "H <n> <k>"; then
exactly n lines "V <id> <x> <y> <m> <s1> ... <sm>" with dense ids 0..n-1,
decimal coordinates, and m >= 1 hyperedge ids in 0..k-1. Support files hold
"E <u> <v>" lines. Serialisation is canonical (sorted), so parse after
serialize is the identity.
"""

from __future__ import annotations

from .model import Hypergraph, SupportGraph, edge_key


class ParseError(ValueError):
    pass


def parse_hypergraph(text: str) -> Hypergraph:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, line))
    if not rows:
        raise ParseError("empty hypergraph file")

    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "H":
        raise ParseError(f"line {lineno}: expected header 'H <n> <k>', got {header!r}")
    try:
        n, k = int(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(f"line {lineno}: header counts must be integers") from None
    if n < 1 or k < 1:
        raise ParseError(f"line {lineno}: need n >= 1 and k >= 1")
    if len(rows) - 1 != n:
        raise ParseError(f"expected {n} vertex lines, found {len(rows) - 1}")

    points: list = [None] * n
    memberships: list = [None] * n
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) < 5 or parts[0] != "V":
            raise ParseError(f"line {lineno}: expected 'V <id> <x> <y> <m> <s...>'")
        try:
            vid = int(parts[1])
            x, y = float(parts[2]), float(parts[3])
            m = int(parts[4])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed vertex fields") from None
        if not 0 <= vid < n:
            raise ParseError(f"line {lineno}: vertex id {vid} outside 0..{n - 1}")
        if points[vid] is not None:
            raise ParseError(f"line {lineno}: duplicate vertex id {vid}")
        if m < 1:
            raise ParseError(f"line {lineno}: vertex {vid} must join at least one hyperedge")
        if len(parts) != 5 + m:
            raise ParseError(f"line {lineno}: expected {m} hyperedge ids, "
                             f"found {len(parts) - 5}")
        try:
            mine = [int(p) for p in parts[5:]]
        except ValueError:
            raise ParseError(f"line {lineno}: hyperedge ids must be integers") from None
        for s in mine:
            if not 0 <= s < k:
                raise ParseError(f"line {lineno}: hyperedge id {s} outside 0..{k - 1}")
        if len(set(mine)) != len(mine):
            raise ParseError(f"line {lineno}: vertex {vid} lists a hyperedge twice")
        points[vid] = (x, y)
        memberships[vid] = mine

    hyperedges = [set() for _ in range(k)]
    for vid, mine in enumerate(memberships):
        for s in mine:
            hyperedges[s].add(vid)
    try:
        return Hypergraph.build(points, hyperedges)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_hypergraph(h: Hypergraph) -> str:
    lines = [f"H {h.n} {h.k}"]
    for vid in range(h.n):
        p = h.vertices[vid]
        mine = sorted(s for s in range(h.k) if vid in h.hyperedges[s])
        tail = " ".join(str(s) for s in mine)
        lines.append(f"V {vid} {p.x!r} {p.y!r} {len(mine)} {tail}")
    return "\n".join(lines) + "\n"


def parse_support(text: str, h: Hypergraph) -> SupportGraph:
    edges = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] != "E":
            raise ParseError(f"line {lineno}: expected 'E <u> <v>'")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"line {lineno}: edge endpoints must be integers") from None
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        for w in (u, v):
            if not 0 <= w < h.n:
                raise ParseError(f"line {lineno}: vertex id {w} outside 0..{h.n - 1}")
        edges.add(edge_key(u, v))
    return SupportGraph(frozenset(edges))


def serialize_support(g: SupportGraph) -> str:
    lines = [f"E {u} {v}" for u, v in g.sorted_edges()]
    return "\n".join(lines) + ("\n" if lines else "")


# The renderer's fixed style: one colour per hyperedge, so at most 10.
_PALETTE = (
    "#d7263d", "#1b6ca8", "#2a9d34", "#f4a100", "#7b2d8b",
    "#00838f", "#c2571a", "#5c6b1f", "#9c1f5f", "#3f51b5",
)
_VERTEX_RADIUS = 1.0
_RING_GAP = 0.7
_STROKE_WIDTH = 0.45
_OFFSET_STEP = 0.5
_MARGIN = 6.0


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def render_svg(h: Hypergraph, g: SupportGraph | None = None) -> str:
    """Standalone SVG for an instance and (optionally) a support.

    Every support edge is stroked once per hyperedge whose induced subgraph
    uses it, in that hyperedge's palette colour, offset perpendicular to the
    edge so shared edges show as parallel strokes. Vertices are dots with
    one concentric ring per containing hyperedge. Output is deterministic.
    """
    if len(_PALETTE) < h.k:
        raise ValueError(f"palette has {len(_PALETTE)} colours, need {h.k}")

    xs = [p.x for p in h.vertices]
    ys = [p.y for p in h.vertices]
    min_x, max_x = min(xs) - _MARGIN, max(xs) + _MARGIN
    min_y, max_y = min(ys) - _MARGIN, max(ys) + _MARGIN
    width = max_x - min_x
    height = max_y - min_y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(min_x)} {_fmt(min_y)} {_fmt(width)} {_fmt(height)}" '
        f'width="{_fmt(width * 8)}" height="{_fmt(height * 8)}">',
        f'<rect x="{_fmt(min_x)}" y="{_fmt(min_y)}" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" fill="white"/>',
    ]

    if g is not None:
        for u, v in g.sorted_edges():
            pu, pv = h.vertices[u], h.vertices[v]
            users = [s for s in range(h.k)
                     if u in h.hyperedges[s] and v in h.hyperedges[s]]
            dx, dy = pv.x - pu.x, pv.y - pu.y
            norm = (dx * dx + dy * dy) ** 0.5
            nx, ny = -dy / norm, dx / norm
            if not users:
                # An edge outside the candidate universe (hand-written
                # support); draw it once so it is not silently invisible.
                parts.append(
                    f'<line x1="{_fmt(pu.x)}" y1="{_fmt(pu.y)}" x2="{_fmt(pv.x)}" '
                    f'y2="{_fmt(pv.y)}" stroke="#888888" '
                    f'stroke-width="{_fmt(_STROKE_WIDTH)}"/>')
            for rank, s in enumerate(users):
                off = _OFFSET_STEP * rank
                ox, oy = nx * off, ny * off
                parts.append(
                    f'<line x1="{_fmt(pu.x + ox)}" y1="{_fmt(pu.y + oy)}" '
                    f'x2="{_fmt(pv.x + ox)}" y2="{_fmt(pv.y + oy)}" '
                    f'stroke="{_PALETTE[s]}" '
                    f'stroke-width="{_fmt(_STROKE_WIDTH)}"/>')

    for vid in range(h.n):
        p = h.vertices[vid]
        parts.append(f'<circle cx="{_fmt(p.x)}" cy="{_fmt(p.y)}" '
                     f'r="{_fmt(_VERTEX_RADIUS)}" fill="#222222"/>')
        mine = [s for s in range(h.k) if vid in h.hyperedges[s]]
        for rank, s in enumerate(mine):
            r = _VERTEX_RADIUS + _RING_GAP * (rank + 1)
            parts.append(f'<circle cx="{_fmt(p.x)}" cy="{_fmt(p.y)}" r="{_fmt(r)}" '
                         f'fill="none" stroke="{_PALETTE[s]}" '
                         f'stroke-width="{_fmt(_STROKE_WIDTH)}"/>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
