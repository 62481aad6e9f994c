"""The neighbour index of ``QuartGainGraph``, built on the first query.

A graph's value is ``n`` and ``edges``; the index behind ``has_edge``,
``gain``, ``neighbors``, ``neighbor_gains`` and ``degree`` sits in a slot
that holds ``None`` until ``_index`` fills it from ``edges``, the first time
one of them runs.  The referee below reads ``edges`` into its own
neighbour -> gain dicts and shares no code with ``graph_core``.  Each graph
is checked once per query method, on a fresh copy whose index that method
builds, so every method is exercised as the first access.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from hermitia import (
    EnumSpec,
    QuartGainGraph,
    classes_up_to,
    enumerate_switching_classes,
    induced_subgraph,
    parse_graph,
    pendant_vertices,
    serialize_graph,
)
from hermitia.graph_core import bfs_forest

from conftest import random_graph

QUERIES = ("has_edge", "gain", "neighbors", "neighbor_gains", "degree")


def reference_index(g: QuartGainGraph) -> list[dict[int, int]]:
    """Per vertex u, {x: gain of u -> x} with x increasing.  The gain i**k
    read against its stored orientation is i**(4 - k)."""
    index: list[dict[int, int]] = [{} for _ in range(g.n)]
    for u, v, k in g.edges:
        index[u][v] = k
        index[v][u] = (4 - k) % 4
    return [dict(sorted(row.items())) for row in index]


def has_index(g: QuartGainGraph) -> bool:
    return g._adj is not None


def first_query(g: QuartGainGraph, method: str, ref: list[dict[int, int]]) -> None:
    """Call ``method`` once on g and check its answer.  With an edge, the
    call reads the last edge from its larger end, the conjugate orientation."""
    u, v = (g.edges[-1][1], g.edges[-1][0]) if g.edges else (0, 0)
    if method == "has_edge":
        assert g.has_edge(u, v) == bool(g.edges)
    elif method == "gain":
        if g.edges:
            assert g.gain(u, v) == ref[u][v]
        else:
            with pytest.raises(ValueError):
                g.gain(u, v)
    elif method == "neighbors":
        assert g.neighbors(u) == tuple(ref[u])
    elif method == "neighbor_gains":
        assert list(g.neighbor_gains(u)) == list(ref[u].items())
    else:
        assert g.degree(u) == len(ref[u])


def check_every_answer(g: QuartGainGraph, ref: list[dict[int, int]]) -> None:
    for u in range(g.n):
        assert g.neighbors(u) == tuple(ref[u])
        assert list(g.neighbor_gains(u)) == list(ref[u].items())
        assert g.degree(u) == len(ref[u])
        for x in range(g.n):
            assert g.has_edge(u, x) == (x in ref[u])
            if x in ref[u]:
                assert g.gain(u, x) == ref[u][x]
            else:
                with pytest.raises(ValueError):
                    g.gain(u, x)


def check_graph(g: QuartGainGraph) -> None:
    ref = reference_index(g)
    unbuilt = QuartGainGraph(g.n, g.edges)
    for method in QUERIES:
        fresh = QuartGainGraph(g.n, g.edges)
        assert not has_index(fresh)
        first_query(fresh, method, ref)
        assert has_index(fresh)
        check_every_answer(fresh, ref)
        # The index is not part of the value.
        assert not has_index(unbuilt)
        assert fresh == unbuilt and hash(fresh) == hash(unbuilt)
        assert serialize_graph(fresh) == serialize_graph(unbuilt)
        assert repr(fresh) == repr(unbuilt)


def seeded_graphs():
    rng = random.Random(1717)
    return [random_graph(rng, 20, rng.choice((0.1, 0.3, 0.6, 0.9))) for _ in range(150)]


def test_index_matches_referee_on_every_class_up_to_order_5():
    classes = list(classes_up_to(5))
    assert len(classes) == 6088
    for g in classes:
        check_graph(g)


def test_index_matches_referee_on_seeded_graphs():
    for g in seeded_graphs():
        check_graph(g)


def test_pendant_vertices_build_no_index():
    # pendant_vertices counts degrees off the edge tuple.
    for g in list(classes_up_to(5)) + seeded_graphs():
        fresh = QuartGainGraph(g.n, g.edges)
        ref = reference_index(g)
        assert pendant_vertices(fresh) == tuple(v for v in range(g.n) if len(ref[v]) == 1)
        assert not has_index(fresh)


@pytest.mark.parametrize("method", QUERIES)
def test_first_query_raises_nothing(method):
    """The first query fills the index without raising and catching an
    exception on the way; later queries read the same index object."""
    raised: list[str] = []

    def tracer(frame, event, arg):
        if event == "exception":
            raised.append(f"{arg[0].__name__} in {frame.f_code.co_name}")
        return tracer

    for g in seeded_graphs()[:20] + [QuartGainGraph(1)]:
        ref = reference_index(g)
        fresh = QuartGainGraph(g.n, g.edges)
        assert fresh._adj is None
        if method == "gain" and not g.edges:
            continue  # the one query whose answer is an exception
        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            first_query(fresh, method, ref)
        finally:
            sys.settrace(previous)
        assert raised == []
        assert fresh._index() is fresh._index() is fresh._adj


def test_bfs_forest_walks_index_rows_in_increasing_order():
    # bfs_forest reads the index rows directly; the referee searches the
    # reference rows, which are sorted, so the order of each row is pinned.
    for g in seeded_graphs():
        ref = reference_index(g)
        for removed in ((), (g.n // 2,)):
            seen = set(removed)
            order: list[int] = []
            parent = [-1] * g.n
            for root in range(g.n):
                if root in seen:
                    continue
                seen.add(root)
                queue = [root]
                for u in queue:
                    for w in ref[u]:
                        if w not in seen:
                            seen.add(w)
                            parent[w] = u
                            queue.append(w)
                order += queue
            assert bfs_forest(QuartGainGraph(g.n, g.edges), removed) == (order, parent)


def test_edgeless_graph_queries():
    check_graph(QuartGainGraph(1))
    check_graph(QuartGainGraph(3))


@pytest.mark.parametrize(
    "spec",
    [
        EnumSpec(n=5),
        EnumSpec(n=5, mixed_only=True),
        EnumSpec(n=6, mixed_only=True, has_cut_vertex=True, limit=2000),
    ],
    ids=lambda spec: repr(spec),
)
def test_streamed_classes_have_no_index(spec):
    count = 0
    for g in enumerate_switching_classes(spec):
        assert not has_index(g)
        count += 1
    assert count > 100


def test_parsed_and_derived_graphs_have_no_index():
    for g in seeded_graphs()[:40]:
        parsed = parse_graph(serialize_graph(g))
        assert parsed == g and not has_index(parsed)
        sub = induced_subgraph(parsed, range(0, g.n, 2))
        assert not has_index(sub)
        parsed.degree(0)
        assert has_index(parsed)


def test_threads_racing_on_the_first_query_agree():
    graphs = seeded_graphs()
    refs = [reference_index(g) for g in graphs]
    shared = [QuartGainGraph(g.n, g.edges) for g in graphs]
    errors: list[BaseException] = []

    def reader() -> None:
        # Every reader walks the graphs in the same order, so they meet at
        # each graph's first query.
        try:
            for g, ref in zip(shared, refs):
                check_every_answer(g, ref)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert all(has_index(g) for g in shared)
