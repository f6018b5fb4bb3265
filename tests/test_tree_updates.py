"""The spanning-tree swaps that keep solve_exact's component bounds current,
checked against a fresh Prim after every step of random include, exclude
and undo sequences."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from plane_supports.exact import _prim, _tree_cut_replace, _tree_swap_in  # noqa: E402

INF = math.inf


@st.composite
def matrices_and_steps(draw):
    """A symmetric weight matrix with small integer weights (so tree sums
    are exact and ties are common) and some missing edges, plus a list of
    (operation, edge) steps."""
    cnt = draw(st.integers(2, 8))
    pairs = [(i, j) for i in range(cnt) for j in range(i + 1, cnt)]
    w = [[INF] * cnt for _ in range(cnt)]
    for i, j in pairs:
        if draw(st.integers(0, 4)):  # one pair in five is not a candidate
            w[i][j] = w[j][i] = float(draw(st.integers(1, 9)))
    steps = draw(st.lists(st.tuples(st.sampled_from(("in", "out", "undo")),
                                    st.sampled_from(pairs)), max_size=30))
    return w, steps


def _by_weight(w):
    """Every finite cell (i, j), i < j, of w in nondecreasing weight."""
    cnt = len(w)
    cells = [(w[i][j], i, j) for i in range(cnt) for j in range(i + 1, cnt) if w[i][j] < INF]
    return [(i, j) for _, i, j in sorted(cells)]


def _tree_weight(w, parent):
    """Weight of the spanning tree `parent` (rooted at 0), checking that it
    is one: every other vertex reaches the root along finite edges."""
    cnt = len(parent)
    assert parent[0] == -1
    total = 0.0
    for v in range(1, cnt):
        seen, x = set(), v
        while x != 0:
            assert x not in seen
            seen.add(x)
            x = parent[x]
        assert w[v][parent[v]] < INF
        total += w[v][parent[v]]
    return total


@settings(max_examples=300, deadline=None)
@given(matrices_and_steps())
def test_swaps_keep_a_minimum_spanning_tree(case):
    w, steps = case
    length = [row[:] for row in w]
    value, parent = _prim(w)
    hypothesis.assume(parent is not None)
    status = {}  # (i, j) -> "in" or "out" for decided pairs
    undo = []  # (pair, value, parent) per decision, latest last
    for op, (i, j) in steps:
        if op == "undo":
            if not undo:
                continue
            (i, j), value, parent = undo.pop()
            del status[(i, j)]
            w[i][j] = w[j][i] = length[i][j]
            continue
        if (i, j) in status or length[i][j] == INF:
            continue
        tree_edge = parent[i] == j or parent[j] == i
        before = parent[:]
        new_parent = parent
        if op == "in":
            w[i][j] = w[j][i] = 0.0
            delta, new_parent = _tree_swap_in(w, parent, i, j, length[i][j])
            new_value = value + delta
        else:
            w[i][j] = w[j][i] = INF
            new_value = value
            if tree_edge:
                delta, new_parent = _tree_cut_replace(w, parent, i, j, length[i][j],
                                                      _by_weight(w))
                new_value += delta
        assert parent == before  # siblings in the search share the parent's tree
        fresh, fresh_parent = _prim(w)
        if fresh_parent is None:
            # Forbidding the edge disconnected the matrix: the cut finds no
            # replacement, and the solver prunes this branch.
            assert new_value == INF and new_parent == parent
            w[i][j] = w[j][i] = length[i][j]
            continue
        assert new_value == fresh
        assert _tree_weight(w, new_parent) == fresh
        undo.append(((i, j), value, parent))
        status[(i, j)] = op
        value, parent = new_value, new_parent
