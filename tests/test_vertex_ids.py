"""One rule for the vertex ids a caller passes, applied by every entry point.

A vertex id is an integer by ``numeric.as_int`` (a numpy integer passes; a
bool, float or string does not) with 0 <= v < n.  Each function that takes
a vertex from its caller raises ``ValueError`` with the same message for a
bad id and gives a numpy integer the int's answer.  The range test on a
caller's id is written once, in ``graph_core.vertex_id``; a guard below
fails if a second copy appears in the package.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from hermitia import (
    UNIT_ONE,
    QuartGainGraph,
    are_twins,
    coalesce,
    complete_multipartite_parts,
    components_avoiding,
    cycle_signature,
    cycle_value,
    delete_vertex,
    induced_subgraph,
    lem311_check,
    parse_graph,
    relabel,
    two_way_directed,
    two_way_mixed,
)
from hermitia.graph_core import bfs_forest, vertex_id

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hermitia"

# A triangle 0-1-2 with arcs out of 0, and an arc 0 -> 3: every crossing
# edge of the cut {0} is an arc pointing out of it, so both two-way
# operations accept that cut.
G = parse_graph("n 4\nA 0 1\nA 0 2\nU 1 2\nA 0 3\n")
K3 = parse_graph("n 3\nU 0 1\nU 0 2\nU 1 2\n")
PAW = QuartGainGraph(4, list(K3.edges) + [(0, 3, UNIT_ONE)])

# Entry point -> (its call with the id under test as v, the valid id to try).
# Functions of two ids are tried in each place, the other id valid.
ENTRY_POINTS = {
    "has_edge(v, w)": (lambda v: G.has_edge(v, 1), 0),
    "has_edge(w, v)": (lambda v: G.has_edge(1, v), 0),
    "gain(v, w)": (lambda v: G.gain(v, 1), 0),
    "gain(w, v)": (lambda v: G.gain(1, v), 0),
    "neighbors": (lambda v: G.neighbors(v), 0),
    "neighbor_gains": (lambda v: list(G.neighbor_gains(v)), 0),
    "degree": (lambda v: G.degree(v), 0),
    "bfs_forest": (lambda v: bfs_forest(G, removed=(v,)), 0),
    "induced_subgraph": (lambda v: induced_subgraph(G, [1, v]), 0),
    "delete_vertex": (lambda v: delete_vertex(G, v), 0),
    "coalesce(v, w)": (lambda v: coalesce(G, v, K3, 1), 0),
    "coalesce(w, v)": (lambda v: coalesce(K3, 1, G, v), 0),
    "components_avoiding": (lambda v: components_avoiding(G, v), 0),
    "two_way_directed": (lambda v: two_way_directed(G, (v,)), 0),
    "two_way_mixed": (lambda v: two_way_mixed(G, (v,)), 0),
    "cycle_value": (lambda v: cycle_value(G, (v, 1, 2)), 0),
    "cycle_signature": (lambda v: cycle_signature(G, (v, 1, 2)), 0),
    "are_twins(v, w)": (lambda v: are_twins(G, v, 2), 1),
    "are_twins(w, v)": (lambda v: are_twins(G, 2, v), 1),
    "complete_multipartite_parts": (lambda v: complete_multipartite_parts(G, [v, 1, 2]), 0),
    "lem311_check": (lambda v: lem311_check(K3, PAW, v), 3),
}

# Bad ids and the message each must raise.  Every entry point above takes
# its id from G, the paw or a graph of order 4.
BAD_IDS = {
    "-1": (-1, "vertex id -1 out of range"),
    "n": (4, "vertex id 4 out of range"),
    "1.5": (1.5, "vertex id must be an integer, got 1.5"),
    "True": (True, "vertex id must be an integer, got True"),
    "'0'": ("0", "vertex id must be an integer, got '0'"),
}


@pytest.mark.parametrize("bad", BAD_IDS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_point_refuses_bad_vertex_id(entry, bad):
    call, _ = ENTRY_POINTS[entry]
    value, message = BAD_IDS[bad]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_numpy_integer_id_answers_as_the_int(entry):
    call, valid = ENTRY_POINTS[entry]
    assert call(np.int64(valid)) == call(valid)


def test_every_entry_point_is_covered():
    names = {entry.split("(")[0] for entry in ENTRY_POINTS}
    assert len(names) == 17


def test_negative_id_no_longer_wraps_to_the_last_vertex():
    g = parse_graph("n 3\nU 0 2\n")
    assert g.has_edge(2, 0)
    with pytest.raises(ValueError, match="^vertex id -1 out of range$"):
        g.has_edge(-1, 0)
    with pytest.raises(ValueError, match="^vertex id 3 out of range$"):
        g.has_edge(0, 3)


def test_gain_on_valid_non_adjacent_ids_names_the_pair():
    with pytest.raises(ValueError, match=r"^no edge between 1 and 3$"):
        G.gain(1, 3)
    assert G.has_edge(1, 3) is False


def test_bool_id_is_refused_where_its_int_is_a_neighbour():
    # Vertex 1 is a neighbour of 0, and True == 1 hashes as 1, so a bare
    # lookup in row 0 would answer for vertex 1.
    assert G.has_edge(0, 1) and G.gain(0, 1) == G.gain(0, np.int64(1))
    for call in (G.has_edge, G.gain):
        with pytest.raises(ValueError, match="^vertex id must be an integer, got True$"):
            call(0, True)


# A path 0-1-2 and, for the silent case, an edge 0-1 with vertex 2 isolated.
P3 = parse_graph("n 3\nU 0 1\nA 1 2\n")
ISOLATED = parse_graph("n 3\nU 0 1")


@pytest.mark.parametrize(
    "graph, perm, message",
    [
        (P3, [0, True, 2], "vertex id must be an integer, got True"),
        (P3, [0, 1.0, 2], "vertex id must be an integer, got 1.0"),
        (ISOLATED, [0, 1, 2.0], "vertex id must be an integer, got 2.0"),
        (P3, [0, 1, 3], "vertex id 3 out of range"),
        (P3, [0, 1, -1], "vertex id -1 out of range"),
        (P3, [0, 1, 1], "perm is not a permutation of the vertex ids"),
        (P3, [0, 1], "perm is not a permutation of the vertex ids"),
        (P3, [0, 1, 2, 0], "perm is not a permutation of the vertex ids"),
    ],
)
def test_relabel_applies_the_vertex_id_rule_to_each_entry(graph, perm, message):
    # A plain ValueError from the permutation check, never the constructor's
    # GraphFormatError, and never a silent relabeling.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as caught:
        relabel(graph, perm)
    assert type(caught.value) is ValueError


def test_relabel_takes_numpy_ids_as_ints():
    assert relabel(P3, np.array([2, 0, 1])) == relabel(P3, [2, 0, 1]) == parse_graph("n 3\nA 0 1\nU 0 2\n")


def test_vertex_id_returns_a_plain_int():
    got = vertex_id(G, np.int64(3))
    assert got == 3 and type(got) is int


# -- one copy of the range test --------------------------------------------------

# (module, enclosing function) -> count of the range tests allowed in the
# package: the vertex-id rule itself, and the record check of
# QuartGainGraph.__init__, one test per end of an edge.
ALLOWED = {("graph_core.py", "vertex_id"): 1, ("graph_core.py", "__init__"): 2}


def range_tests(source: str) -> list[str]:
    """The innermost enclosing function (None at module level) of each
    ``0 <= x < y`` or ``0 <= x <= y`` comparison in ``source``."""
    found = []

    def visit(node: ast.AST, func: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        elif (
            isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Constant)
            and node.left.value == 0
            and len(node.ops) == 2
            and isinstance(node.ops[0], ast.LtE)
            and isinstance(node.ops[1], (ast.Lt, ast.LtE))
        ):
            found.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_range_test_is_written_once():
    sites = Counter(
        (path.name, name) for path in PACKAGE.glob("*.py") for name in range_tests(path.read_text())
    )
    assert sites == ALLOWED


def test_guard_sees_a_second_copy():
    assert range_tests("def f(g, v):\n    if not 0 <= v < g.n:\n        raise ValueError") == ["f"]
    assert range_tests("def f(g, v):\n    def ok(u):\n        return 0 <= u <= g.n\n    return ok") == ["ok"]
    assert range_tests("def f(g, v):\n    return 1 <= v <= g.n") == []
    assert range_tests("def f(g, v):\n    return vertex_id(g, v)") == []
