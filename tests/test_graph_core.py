import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hermitia import (
    GraphFormatError,
    QuartGainGraph,
    UNIT_I,
    UNIT_MINUS_I,
    UNIT_MINUS_ONE,
    UNIT_ONE,
    coalesce,
    components,
    components_avoiding,
    connected_underlying,
    cut_vertices,
    delete_vertex,
    disjoint_union,
    induced_subgraph,
    inertia,
    parse_graph,
    pendant_vertices,
    relabel,
    serialize_graph,
    underlying,
    unit_conj,
)
from hermitia import graph_core

from conftest import quart_graphs, random_graph


def test_parse_single_undirected_edge():
    g = parse_graph("n 2\nU 0 1")
    assert g.edges == ((0, 1, UNIT_ONE),)


def test_parse_arc_orientation_convention():
    # Arc 1 -> 0 is stored for the pair (0, 1) with the conjugate gain.
    g = parse_graph("n 2\nA 1 0")
    assert g.edges == ((0, 1, UNIT_MINUS_I),)
    assert g.gain(1, 0) == UNIT_I


def test_parse_duplicate_edge_rejected():
    with pytest.raises(GraphFormatError, match="line 3"):
        parse_graph("n 3\nU 0 1\nU 0 1")


def test_parse_error_catalogue():
    with pytest.raises(GraphFormatError, match="header"):
        parse_graph("U 0 1")
    with pytest.raises(GraphFormatError, match="self-loop"):
        parse_graph("n 2\nU 1 1")
    with pytest.raises(GraphFormatError, match=">= n"):
        parse_graph("n 2\nU 0 2")
    with pytest.raises(GraphFormatError, match="gain token"):
        parse_graph("n 2\nG 0 1 2i")
    with pytest.raises(GraphFormatError, match="record type"):
        parse_graph("n 2\nX 0 1")
    with pytest.raises(GraphFormatError, match="line 4"):
        parse_graph("n 3\nU 0 1\n# fine\nA 0\n")


def test_parse_order_cap():
    from hermitia.graph_core import MAX_ORDER

    assert MAX_ORDER >= 64
    assert parse_graph(f"n {MAX_ORDER}").n == MAX_ORDER
    with pytest.raises(GraphFormatError, match="maximum order"):
        parse_graph(f"n {MAX_ORDER + 1}\nU 0 1")


def test_parse_ignores_comments_and_blanks():
    g = parse_graph("# header comment\n\nn 3\n# edge next\nU 0 2\n\n")
    assert g.edges == ((0, 2, UNIT_ONE),)


def test_serialize_all_gain_kinds():
    g = QuartGainGraph(
        4,
        [(0, 1, UNIT_ONE), (1, 2, UNIT_I), (2, 3, UNIT_MINUS_I), (0, 3, UNIT_MINUS_ONE)],
    )
    assert serialize_graph(g) == "n 4\nU 0 1\nG 0 3 -1\nA 1 2\nA 3 2\n"


@given(quart_graphs())
def test_parse_serialize_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g


def test_parse_graph_builds_no_second_check(monkeypatch):
    # parse_graph checks every line itself, so it must not hand its records
    # to the checking constructor.  serialize_graph writes a -i edge as
    # "A v u" with v > u, which the parser orients back.
    rng = random.Random(2024)
    graphs = [random_graph(rng, 16) for _ in range(200)]
    texts = [serialize_graph(g) for g in graphs]
    arcs = [line.split()[1:] for t in texts for line in t.splitlines() if line.startswith("A ")]
    assert any(int(a) > int(b) for a, b in arcs)

    def _refuse(self, n, edges=()):
        raise AssertionError("parse_graph ran the checking constructor")

    monkeypatch.setattr(QuartGainGraph, "__init__", _refuse)
    for g, text in zip(graphs, texts):
        assert parse_graph(text) == g


@given(quart_graphs(max_n=9), st.randoms(use_true_random=False))
def test_neighbors_increasing_from_shuffled_edges(g, rng):
    # g came from sorted records; the shuffled and re-oriented copy must be
    # sorted and oriented back to the same records.
    edges = [(v, u, unit_conj(w)) if rng.random() < 0.5 else (u, v, w) for u, v, w in g.edges]
    rng.shuffle(edges)
    rebuilt = QuartGainGraph(g.n, edges)
    assert rebuilt == g and rebuilt.edges == g.edges and hash(rebuilt) == hash(g)
    for u in range(g.n):
        got = rebuilt.neighbors(u)
        assert got == g.neighbors(u)
        assert all(a < b for a, b in zip(got, got[1:]))
        assert list(got) == sorted(v for v in range(g.n) if rebuilt.has_edge(u, v))
        assert list(rebuilt.neighbor_gains(u)) == [(x, rebuilt.gain(u, x)) for x in got]


def test_edge_records_are_stored_as_tuples():
    g = QuartGainGraph(3, [[0, 1, UNIT_I], [1, 2, UNIT_ONE]])
    assert g.edges == ((0, 1, UNIT_I), (1, 2, UNIT_ONE))
    assert all(type(edge) is tuple for edge in g.edges)


@pytest.mark.parametrize("k", [0, 2, 4])
def test_sorted_records_with_one_bad_edge_raise_as_before(k):
    # Five valid sorted edges on 5 vertices; the k-th is replaced by a bad one.
    good = [(0, 1, UNIT_ONE), (0, 3, UNIT_I), (1, 2, UNIT_MINUS_I), (2, 4, UNIT_ONE), (3, 4, UNIT_MINUS_ONE)]
    u, v, _ = good[k]
    bad_edges = {
        (u, v, 4): "invalid gain code 4",
        (u, 5, UNIT_ONE): f"vertex id out of range in edge ({u}, 5)",
        (v, v, UNIT_ONE): f"self-loop at vertex {v}",
    }
    for bad, message in bad_edges.items():
        with pytest.raises(GraphFormatError) as info:
            QuartGainGraph(5, good[:k] + [bad] + good[k + 1 :])
        assert str(info.value) == message
    with pytest.raises(GraphFormatError) as info:
        QuartGainGraph(5, good[: k + 1] + [good[k]] + good[k + 1 :])
    assert str(info.value) == f"duplicate edge ({u}, {v})"


def test_one_reversed_record_in_sorted_input():
    good = [(0, 1, UNIT_ONE), (0, 3, UNIT_I), (1, 2, UNIT_MINUS_I), (2, 4, UNIT_ONE)]
    expected = QuartGainGraph(5, good)
    for k, (u, v, g) in enumerate(good):
        reversed_one = good[:k] + [(v, u, unit_conj(g))] + good[k + 1 :]
        got = QuartGainGraph(5, reversed_one)
        assert got == expected and got.edges == tuple(good)
        assert [got.neighbors(w) for w in range(5)] == [expected.neighbors(w) for w in range(5)]


@pytest.mark.parametrize("k", [0, 2, 4])
@pytest.mark.parametrize(
    "bad, message",
    [
        ((0, 1, 1.0), "gain code must be an integer, got 1.0"),
        ((0, 1, True), "gain code must be an integer, got True"),
        ((0, 1, None), "gain code must be an integer, got None"),
        ((0.0, 1, 0), "vertex id must be an integer, got 0.0"),
        ((0, 1.0, 0), "vertex id must be an integer, got 1.0"),
        ((False, 1, 0), "vertex id must be an integer, got False"),
        (("0", 1, 0), "vertex id must be an integer, got '0'"),
    ],
)
def test_non_integer_records_rejected(bad, message, k):
    # Stored, such a record would serialize wrongly or break a later query,
    # so it must fail at construction wherever it sits in sorted input.
    good = [(0, 2, UNIT_ONE), (0, 3, UNIT_I), (1, 2, UNIT_MINUS_I), (2, 4, UNIT_ONE), (3, 4, UNIT_MINUS_ONE)]
    with pytest.raises(GraphFormatError) as info:
        QuartGainGraph(5, good[:k] + [bad] + good[k:])
    assert str(info.value) == message


@pytest.mark.parametrize("n", [2.0, True, "2", None])
def test_non_integer_order_rejected(n):
    with pytest.raises(GraphFormatError, match="vertex count must be an integer"):
        QuartGainGraph(n)


def test_integer_like_records_stored_as_ints():
    g = QuartGainGraph(np.int64(3), [(np.int64(1), np.int32(2), np.int8(3)), (0, 1, 0)])
    assert g == QuartGainGraph(3, [(0, 1, 0), (1, 2, 3)])
    assert type(g.n) is int and all(type(x) is int for edge in g.edges for x in edge)


@given(quart_graphs(max_n=9), st.randoms(use_true_random=False))
def test_gain_arrays_match_gain_grids(g, rng):
    sub = induced_subgraph(g, rng.sample(range(g.n), rng.randint(0, g.n)))
    re, im = graph_core.gain_arrays(sub)
    grid_re, grid_im = graph_core.gain_grids(sub)
    assert re.dtype == im.dtype == float and re.shape == (sub.n, sub.n)
    assert re.tolist() == grid_re and im.tolist() == grid_im


def test_underlying():
    arc = parse_graph("n 2\nA 0 1")
    assert underlying(arc) == parse_graph("n 2\nU 0 1")
    k3 = parse_graph("n 3\nU 0 1\nU 0 2\nU 1 2")
    assert underlying(k3) == k3
    odd = parse_graph("n 3\nA 0 1\nU 1 2\nU 0 2")
    assert underlying(odd) == k3


def test_induced_subgraph():
    k3 = parse_graph("n 3\nU 0 1\nU 0 2\nU 1 2")
    assert induced_subgraph(k3, [0, 1]) == parse_graph("n 2\nU 0 1")
    assert induced_subgraph(k3, [0, 1, 2]) == k3
    odd = parse_graph("n 3\nA 0 1\nU 1 2\nU 0 2")
    assert induced_subgraph(odd, [0, 1]) == parse_graph("n 2\nA 0 1")
    with pytest.raises(ValueError):
        induced_subgraph(k3, [0, 5])


def test_structural_queries_on_path():
    p3 = parse_graph("n 3\nU 0 1\nU 1 2")
    assert pendant_vertices(p3) == (0, 2)
    assert cut_vertices(p3) == (1,)


def test_k4_has_no_cut_vertex():
    k4 = QuartGainGraph(4, [(u, v, UNIT_ONE) for u in range(4) for v in range(u + 1, 4)])
    assert cut_vertices(k4) == ()


def test_two_triangles_sharing_a_vertex():
    g = parse_graph("n 5\nU 0 1\nU 0 2\nU 1 2\nU 0 3\nU 0 4\nU 3 4")
    assert cut_vertices(g) == (0,)
    assert len(components(delete_vertex(g, 0))) == 2
    assert components_avoiding(g, 0) == [(1, 2), (3, 4)]


def test_components_sorted_by_smallest_member():
    g = parse_graph("n 5\nU 3 4\nU 0 1")
    assert components(g) == [(0, 1), (2,), (3, 4)]


def test_coalesce_edge_edge_is_path():
    edge = parse_graph("n 2\nU 0 1")
    assert coalesce(edge, 1, edge, 0) == parse_graph("n 3\nU 0 1\nU 1 2")


def test_coalesce_triangles_is_bowtie():
    k3 = parse_graph("n 3\nU 0 1\nU 0 2\nU 1 2")
    bowtie = coalesce(k3, 0, k3, 0)
    assert bowtie.n == 5
    assert len(bowtie.edges) == 6
    assert cut_vertices(bowtie) == (0,)


def test_coalesce_k3_with_odd_triangle_inertia():
    # Expected value from the exact oracle: the odd-triangle side keeps its
    # rank when the merge vertex is added back, so the whole splits as
    # In(edge) + In(K3) = (2, 3, 0).  Cross-checked by the float oracle in
    # the spectra tests.
    k3 = parse_graph("n 3\nU 0 1\nU 0 2\nU 1 2")
    odd = parse_graph("n 3\nA 0 1\nU 1 2\nU 0 2")
    assert inertia(coalesce(k3, 0, odd, 0)).as_tuple() == (2, 3, 0)


def test_coalesce_merge_point_is_cut_vertex():
    k3 = parse_graph("n 3\nU 0 1\nU 0 2\nU 1 2")
    c4 = parse_graph("n 4\nU 0 1\nU 1 2\nU 2 3\nU 0 3")
    for v1 in range(3):
        for v2 in range(4):
            merged = coalesce(k3, v1, c4, v2)
            assert cut_vertices(merged) == (v1,)


@given(quart_graphs())
def test_underlying_ignores_gains(g):
    stripped = underlying(g)
    regained = QuartGainGraph(g.n, [(u, v, UNIT_I) for u, v, _ in g.edges])
    assert underlying(regained) == stripped


@given(quart_graphs(max_n=5))
def test_cut_vertex_definition(g):
    base = len(components(g))
    for v in range(g.n):
        increases = len(components(delete_vertex(g, v))) > base
        assert (v in cut_vertices(g)) == increases


def _cut_vertices_by_definition(g):
    base = len(components(g))
    return tuple(
        v for v in range(g.n) if len(components(delete_vertex(g, v))) > base
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_cut_vertices_match_definition_exhaustively(n):
    # Every connected graph of order n, alone, next to an isolated vertex,
    # and in a disjoint union with a smaller connected graph.
    pool = [
        QuartGainGraph(n, [(u, v, UNIT_ONE) for u, v in edges])
        for edges in connected_underlying(n)
    ]
    small = [
        QuartGainGraph(m, [(u, v, UNIT_ONE) for u, v in edges])
        for m in range(1, 4)
        for edges in connected_underlying(m)
    ]
    for g in pool:
        for h in [g, disjoint_union(QuartGainGraph(1), g)] + [
            disjoint_union(g, s) for s in small
        ]:
            assert cut_vertices(h) == _cut_vertices_by_definition(h)


@given(quart_graphs(max_n=6))
def test_components_avoiding_matches_deletion(g):
    for v in range(g.n):
        rest = [u for u in range(g.n) if u != v]
        mapped = [tuple(rest[i] for i in comp) for comp in components(delete_vertex(g, v))]
        assert components_avoiding(g, v) == mapped


def test_relabel_and_union():
    arc = parse_graph("n 2\nA 0 1")
    assert relabel(arc, [1, 0]) == parse_graph("n 2\nA 1 0")
    both = disjoint_union(arc, arc)
    assert both.n == 4
    assert both.edges == ((0, 1, UNIT_I), (2, 3, UNIT_I))


def test_empty_graph_round_trip():
    g = parse_graph("n 0")
    assert g.n == 0 and g.edges == ()
    assert parse_graph(serialize_graph(g)) == g


@pytest.mark.parametrize(
    "text, message",
    [
        ("n ²", "line 1: expected header"),
        ("n 3\nU 0 ¹", "line 2: bad vertex id '¹'"),
        ("n 3\nA ٣ 1", "line 2: bad vertex id"),
        ("n -3", "line 1: expected header"),
        ("n 3\nG 0 -1 i", "line 2: bad vertex id '-1'"),
    ],
)
def test_parse_accepts_only_ascii_digits(text, message):
    with pytest.raises(GraphFormatError, match=message):
        parse_graph(text)
