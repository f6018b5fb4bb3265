import random
import xml.etree.ElementTree as ET

import pytest

from plane_supports.fileio import (ParseError, parse_hypergraph, parse_support, render_svg,
                                   serialize_hypergraph, serialize_support)
from plane_supports.gen import DegreeScheme, generate
from plane_supports.heuristics import mst_iteration
from plane_supports.model import Hypergraph, SupportGraph


def test_parse_minimal_instance():
    text = "H 2 1\nV 0 0 0 1 0\nV 1 3 4 1 0\n"
    h = parse_hypergraph(text)
    assert h.n == 2 and h.k == 1
    assert h.edge_length(0, 1) == pytest.approx(5)


def test_parse_accepts_comments_and_blank_lines():
    text = "# instance\n\nH 2 1\n# vertices\nV 0 0 0 1 0\nV 1 3 4 1 0\n"
    assert parse_hypergraph(text).n == 2


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_hypergraph("H 2 1\nV 0 0 0 1 5\nV 1 3 4 1 0\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_hypergraph("H 2 1\nV 0 0 0 1 0\nV 9 3 4 1 0\n")
    with pytest.raises(ParseError):
        parse_hypergraph("H 2 2\nV 0 0 0 1 0\nV 1 3 4 1 0\n")  # hyperedge 1 empty
    with pytest.raises(ParseError):
        parse_hypergraph("")
    with pytest.raises(ParseError):
        parse_hypergraph("H 2 1\nV 0 0 0 1 0\n")               # missing vertex line


def test_hypergraph_round_trip():
    for seed in range(25):
        h = generate(12, 3, DegreeScheme.MID, random.Random(seed))
        assert parse_hypergraph(serialize_hypergraph(h)) == h


def test_support_round_trip_and_canonical_order():
    h = parse_hypergraph("H 3 1\nV 0 0 0 1 0\nV 1 1 0 1 0\nV 2 2 0 1 0\n")
    g = parse_support("E 2 1\nE 1 0\n", h)
    assert serialize_support(g) == "E 0 1\nE 1 2\n"
    assert parse_support(serialize_support(g), h) == g
    assert serialize_support(SupportGraph(frozenset())) == ""


def test_support_parse_errors():
    h = parse_hypergraph("H 2 1\nV 0 0 0 1 0\nV 1 3 4 1 0\n")
    with pytest.raises(ParseError):
        parse_support("E 0 0\n", h)
    with pytest.raises(ParseError):
        parse_support("E 0 5\n", h)
    with pytest.raises(ParseError):
        parse_support("X 0 1\n", h)


def test_render_svg_well_formed_and_deterministic():
    h = generate(10, 3, DegreeScheme.MID, random.Random(2))
    g = mst_iteration(h).support
    svg1 = render_svg(h, g)
    svg2 = render_svg(h, g)
    assert svg1 == svg2
    root = ET.fromstring(svg1)
    assert root.tag.endswith("svg")


def test_render_svg_vertices_only():
    h = generate(6, 2, DegreeScheme.LOW, random.Random(3))
    svg = render_svg(h)
    assert "<line" not in svg
    assert svg.count("<circle") >= h.n


def test_render_svg_parallel_strokes_for_shared_edges():
    # one edge inside both hyperedges -> two strokes; spoke edges -> one
    h = Hypergraph.build([(0, 0), (1, 0), (0, 1)], [{0, 1, 2}, {0, 1}])
    g = SupportGraph.from_pairs([(0, 1), (0, 2)])
    svg = render_svg(h, g)
    assert svg.count("<line") == 3


def test_render_svg_requires_enough_colours():
    # The fixed palette has 10 colours, one per hyperedge.
    points = [(0, 0), (1, 0)]
    render_svg(Hypergraph.build(points, [{0, 1}] * 10))
    with pytest.raises(ValueError):
        render_svg(Hypergraph.build(points, [{0, 1}] * 11))
