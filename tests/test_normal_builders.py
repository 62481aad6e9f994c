"""The builders that store their records unchecked emit normal records.

The enumeration stream, ``parse_graph``, ``induced_subgraph``,
``delete_vertex``, ``converse``, ``apply_switch`` (which checks only its
switch values), ``underlying``, ``disjoint_union`` and the suites'
``_random_graph`` skip the constructor's per-record checks.  Each output
is rebuilt here through the checking constructor, from a list of its
records: that path sorts, orients and range-checks every record, so the
rebuilt graph equals the output only if the output's records were
already int triples with 0 <= u < v < n, strictly increasing in (u, v),
and gains in 0..3.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from hermitia import (
    EnumSpec,
    GraphFormatError,
    QuartGainGraph,
    UNIT_I,
    UNIT_MINUS_I,
    UNIT_ONE,
    UNITS,
    apply_switch,
    classes_up_to,
    converse,
    delete_vertex,
    disjoint_union,
    enumerate_switching_classes,
    induced_subgraph,
    parse_graph,
    tree_normalize,
    underlying,
    unit_conj,
    unit_token,
)
from hermitia.suites import _random_graph

from conftest import random_graph


def assert_normal(g: QuartGainGraph) -> None:
    assert type(g.n) is int
    assert type(g.edges) is tuple
    for record in g.edges:
        assert type(record) is tuple and len(record) == 3
        assert all(type(x) is int for x in record)
    assert QuartGainGraph(g.n, list(g.edges)) == g


def check_derived(g: QuartGainGraph, other: QuartGainGraph, rng: random.Random) -> None:
    """Every unchecked builder on ``g``, against the checking path."""
    assert_normal(g)
    assert_normal(converse(g))
    assert_normal(underlying(g))
    assert_normal(disjoint_union(g, other))
    assert_normal(disjoint_union(other, g))
    for v in range(g.n):
        assert_normal(delete_vertex(g, v))
    subset = [v for v in range(g.n) if rng.random() < 0.5]
    rng.shuffle(subset)
    assert_normal(induced_subgraph(g, subset))
    assert_normal(induced_subgraph(g, range(g.n)))
    theta = [rng.choice(UNITS) for _ in range(g.n)]
    switched = apply_switch(g, tuple(theta))
    assert_normal(switched)
    numpy_switched = apply_switch(g, tuple(np.int64(t) for t in theta))
    assert_normal(numpy_switched)
    assert numpy_switched == switched


def check_corpus(graphs: list[QuartGainGraph], seed: int) -> None:
    rng = random.Random(seed)
    for g in graphs:
        check_derived(g, rng.choice(graphs), rng)


def _refuse(self, *args, **kwargs):
    raise AssertionError("checking constructor called")


def test_every_class_up_to_order_5():
    for mixed_only in (False, True):
        classes = list(classes_up_to(5, mixed_only=mixed_only))
        assert len(classes) == (6088 if not mixed_only else 6087)
        check_corpus(classes, seed=5)


@pytest.mark.parametrize(
    "spec",
    [
        EnumSpec(n=6, has_cut_vertex=True),
        EnumSpec(n=6, has_pendant=True, mixed_only=True),
        EnumSpec(n=6, no_pendant=True, mixed_only=True, limit=20000),
    ],
    ids=repr,
)
def test_seeded_sample_at_order_6(spec):
    rng = random.Random(6)
    sample = []
    for g in enumerate_switching_classes(spec):
        assert_normal(g)
        if rng.random() < 0.05:
            sample.append(g)
    assert len(sample) > 200
    check_corpus(sample, seed=66)


def test_seeded_random_graphs():
    rng = random.Random(2121)
    graphs = [random_graph(rng, 24, rng.choice((0.1, 0.3, 0.6, 0.9))) for _ in range(300)]
    check_corpus(graphs, seed=21)
    # Derived graphs of derived graphs: unchecked records feeding unchecked builders.
    for g in graphs[:60]:
        h = induced_subgraph(converse(disjoint_union(g, g)), range(0, 2 * g.n, 3))
        check_derived(h, g, rng)


def test_suite_random_graphs(monkeypatch):
    rng = random.Random(2424)
    with monkeypatch.context() as patched:
        patched.setattr(QuartGainGraph, "__init__", _refuse)
        graphs = [_random_graph(rng, 9, rng.choice((0.0, 0.2, 0.5, 0.9, 1.0))) for _ in range(300)]
    assert {g.n for g in graphs} == set(range(1, 10))
    check_corpus(graphs, seed=24)


def _scrambled_qgg(g: QuartGainGraph, rng: random.Random) -> str:
    """.qgg text of ``g`` with its edge lines shuffled and about half of
    them written from the larger end: ``U b a``, ``A`` for the other
    direction, or ``G b a`` with the conjugate gain."""
    lines = []
    for u, v, gain in g.edges:
        if rng.random() < 0.5:
            u, v, gain = v, u, unit_conj(gain)
        if gain == UNIT_ONE and rng.random() < 0.5:
            lines.append(f"U {u} {v}")
        elif gain in (UNIT_I, UNIT_MINUS_I) and rng.random() < 0.5:
            lines.append(f"A {u} {v}" if gain == UNIT_I else f"A {v} {u}")
        else:
            lines.append(f"G {u} {v} {unit_token(gain)}")
    rng.shuffle(lines)
    return "\n".join([f"n {g.n}", *lines]) + "\n"


def test_parse_graph_of_scrambled_text():
    rng = random.Random(2222)
    flipped = 0
    for _ in range(300):
        g = random_graph(rng, 24, rng.choice((0.1, 0.3, 0.6, 0.9)))
        text = _scrambled_qgg(g, rng)
        flipped += sum(int(a) > int(b) for a, b in (line.split()[1:3] for line in text.splitlines()[1:]))
        parsed = parse_graph(text)
        assert_normal(parsed)
        assert parsed == g
    assert flipped > 1000


def test_edgeless_and_empty_graphs():
    for n in (0, 1, 3):
        check_derived(QuartGainGraph(n), QuartGainGraph(2, [(0, 1, 3)]), random.Random(n))


def test_referee_sees_broken_records():
    # Records a faulty builder could emit: reversed, unrelabeled, out of
    # order.  Each is stored unchecked and must fail the referee.
    reversed_record = QuartGainGraph._from_normal(3, ((0, 1, 1), (2, 1, 0)))
    unrelabeled = QuartGainGraph._from_normal(2, ((1, 3, 0),))
    out_of_order = QuartGainGraph._from_normal(4, ((2, 3, 1), (0, 1, 0)))
    not_int = QuartGainGraph._from_normal(2, ((0, 1, True),))
    for broken in (reversed_record, out_of_order, not_int):
        with pytest.raises(AssertionError):
            assert_normal(broken)
    with pytest.raises(GraphFormatError):
        assert_normal(unrelabeled)


def test_switch_builders_never_call_the_checking_constructor(monkeypatch):
    rng = random.Random(2323)
    graphs = [random_graph(rng, 12, rng.choice((0.3, 0.6, 0.9))) for _ in range(40)]
    monkeypatch.setattr(QuartGainGraph, "__init__", _refuse)
    for g in graphs:
        normal = tree_normalize(g)
        assert apply_switch(g, normal.assignment) == normal.graph
        assert tree_normalize(normal.graph).graph == normal.graph
        assert apply_switch(g, tuple(np.int64(t) for t in normal.assignment)) == normal.graph
