import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermitia import (
    GraphFormatError,
    QuartGainGraph,
    UNIT_I,
    UNIT_MINUS_I,
    UNIT_MINUS_ONE,
    UNIT_ONE,
    UNITS,
    apply_switch,
    are_twins,
    classes_up_to,
    components,
    converse,
    cycle_signature,
    cycle_value,
    eig_float,
    gen_c3t,
    gen_cycle,
    hermitian_matrix,
    inertia,
    is_even_triangle,
    is_odd_triangle,
    is_positive,
    parse_graph,
    relabel,
    switching_equivalent,
    switching_equivalent_up_to_iso,
    switching_witness,
    tree_normalize,
    twin_partition,
    twin_reduction,
    two_way_directed,
    two_way_mixed,
    underlying,
)
from hermitia.switching_twins import MAX_ISO_ORDER, _walk_values

from conftest import (
    brute_force_equivalent,
    quart_graphs,
    random_graph,
    random_switch,
    timed_under_alarm,
)
from iso_reference import switching_equivalent_up_to_iso_unpruned

ODD = "n 3\nA 0 1\nU 1 2\nU 0 2"
K3 = "n 3\nU 0 1\nU 0 2\nU 1 2"
POSITIVE_TRIANGLE = "n 3\nA 0 1\nA 2 1\nU 0 2"  # gains i, -i, 1: value 1


def test_apply_switch_examples():
    arc = parse_graph("n 2\nA 0 1")
    assert apply_switch(arc, (UNIT_ONE, UNIT_MINUS_I)) == parse_graph("n 2\nU 0 1")
    g = parse_graph(ODD)
    assert apply_switch(g, (UNIT_ONE,) * 3) == g
    edge = parse_graph("n 2\nU 0 1")
    switched = apply_switch(edge, (UNIT_ONE, UNIT_MINUS_ONE))
    assert switched.gain(0, 1) == UNIT_MINUS_ONE
    assert not switched.is_mixed


def test_apply_switch_rejects_switch_values_that_are_not_integers():
    # Switch values pass the same check as records: numpy integers are read
    # as ints, floats, bools and strings are refused.
    edge = parse_graph("n 2\nU 0 1")
    assert apply_switch(edge, (np.int64(0), np.int8(2))) == apply_switch(edge, (0, 2))
    for bad in (1.0, True, "1"):
        message = f"switch value must be an integer, got {bad!r}"
        with pytest.raises(GraphFormatError, match=re.escape(message)):
            apply_switch(edge, (UNIT_ONE, bad))


def test_apply_switch_preserves_underlying_and_inertia():
    rng = random.Random(4)
    for _ in range(60):
        g = random_graph(rng, 6)
        theta = random_switch(rng, g.n)
        switched = apply_switch(g, theta)
        assert underlying(switched) == underlying(g)
        assert inertia(switched) == inertia(g)


def test_converse():
    assert converse(parse_graph("n 2\nA 0 1")) == parse_graph("n 2\nA 1 0")
    k3 = parse_graph(K3)
    assert converse(k3) == k3
    tri = parse_graph("n 3\nA 0 1\nA 1 2\nU 0 2")
    assert converse(tri) == parse_graph("n 3\nA 1 0\nA 2 1\nU 0 2")


def test_two_way_directed():
    arc = parse_graph("n 2\nA 0 1")
    assert two_way_directed(arc, (0,)) == parse_graph("n 2\nA 1 0")
    with pytest.raises(ValueError):
        two_way_directed(parse_graph("n 2\nU 0 1"), (0,))


def test_two_way_mixed():
    edge = parse_graph("n 2\nU 0 1")
    flipped = two_way_mixed(edge, (0,))
    assert underlying(flipped) == underlying(edge)
    assert flipped.gain(0, 1) in (UNIT_I, UNIT_MINUS_I)
    # Empty cut: identity.
    g = parse_graph(ODD)
    assert two_way_mixed(g, ()) == g
    assert two_way_directed(g, ()) == g


def test_two_way_mixed_keeps_mixedness_and_reverses():
    # Arcs into the cut side become undirected; undirected edges become arcs
    # opposite to the former arc direction.
    g = parse_graph("n 3\nA 0 2\nU 1 2")
    out = two_way_mixed(g, (0, 1))
    assert out.is_mixed
    assert out.gain(0, 2) == UNIT_ONE
    assert out.gain(2, 1) == UNIT_I  # arc 2 -> 1, opposite side of former 0 -> 2
    with pytest.raises(ValueError):
        two_way_mixed(parse_graph("n 3\nA 0 2\nA 2 1"), (0, 1))


def test_cycle_value_and_signature():
    k3 = parse_graph(K3)
    assert cycle_value(k3, (0, 1, 2)) == UNIT_ONE
    assert cycle_signature(k3, (0, 1, 2)) == 0
    tri = parse_graph("n 3\nA 0 1\nA 1 2\nA 2 0")
    assert cycle_value(tri, (0, 1, 2)) == UNIT_MINUS_I
    assert cycle_signature(tri, (0, 1, 2)) == 3
    # Reversal conjugates the value and negates the signature.
    assert cycle_value(tri, (2, 1, 0)) == UNIT_I
    assert cycle_signature(tri, (2, 1, 0)) == -3
    with pytest.raises(ValueError):
        cycle_value(parse_graph("n 3\nU 0 1\nU 1 2"), (0, 1, 2))
    with pytest.raises(ValueError):
        cycle_signature(parse_graph("n 3\nG 0 1 -1\nU 1 2\nU 0 2"), (0, 1, 2))


@pytest.mark.parametrize("bad", [3, 4, -1])
def test_cycle_with_vertex_id_out_of_range(bad):
    k3 = parse_graph(K3)
    for fn in (cycle_value, cycle_signature):
        with pytest.raises(ValueError, match=f"^vertex id {bad} out of range$"):
            fn(k3, (bad, 0, 1))


def test_even_cycle_with_one_arc_has_full_rank():
    g = gen_cycle(4, (0,))
    assert cycle_signature(g, (0, 1, 2, 3)) == 1
    assert inertia(g).eta == 0


def test_tree_normalize_examples():
    arc = parse_graph("n 2\nA 0 1")
    normal, theta = tree_normalize(arc)
    assert normal == parse_graph("n 2\nU 0 1")
    assert apply_switch(arc, theta) == normal

    positive = parse_graph(POSITIVE_TRIANGLE)
    assert tree_normalize(positive).graph == parse_graph(K3)

    negative_quad = parse_graph("n 4\nG 0 1 -1\nU 1 2\nU 2 3\nU 0 3")
    normal = tree_normalize(negative_quad).graph
    non_tree_gains = sorted(g for _, _, g in normal.edges if g != UNIT_ONE)
    assert non_tree_gains == [UNIT_MINUS_ONE]


@given(quart_graphs())
def test_tree_normalize_idempotent(g):
    normal = tree_normalize(g).graph
    again, theta = tree_normalize(normal)
    assert again == normal
    assert all(t == UNIT_ONE for t in theta)


@settings(max_examples=60)
@given(quart_graphs(max_n=6), st.data())
def test_normal_form_switch_invariant(g, data):
    theta = tuple(data.draw(st.sampled_from((0, 1, 2, 3))) for _ in range(g.n))
    assert tree_normalize(apply_switch(g, theta)).graph == tree_normalize(g).graph


def test_switching_equivalent_examples():
    assert switching_equivalent(parse_graph("n 2\nA 0 1"), parse_graph("n 2\nU 0 1"))
    assert switching_equivalent(parse_graph(POSITIVE_TRIANGLE), parse_graph(K3))
    assert not switching_equivalent(parse_graph(ODD), parse_graph(K3))


def test_switching_witness_semantics():
    g1 = parse_graph(ODD)
    g2 = converse(apply_switch(g1, (UNIT_I, UNIT_MINUS_ONE, UNIT_ONE)))
    witness = switching_witness(g1, g2)
    assert witness is not None
    theta, took_converse = witness
    result = apply_switch(g1, theta)
    if took_converse:
        result = converse(result)
    assert result == g2


def _pair_for_witness(rng, style):
    """g1 and a g2 that is: a switch of g1; a converse switch of g1; g1's
    edge set with new gains; a graph of another order; or a different edge
    set with as many edges."""
    g1 = random_graph(rng, 5)
    if style == "switched":
        return g1, apply_switch(g1, random_switch(rng, g1.n))
    if style == "converse":
        return g1, converse(apply_switch(g1, random_switch(rng, g1.n)))
    if style == "regained":
        return g1, QuartGainGraph(g1.n, [(u, v, rng.choice(UNITS)) for u, v, _ in g1.edges])
    if style == "order":
        g2 = random_graph(rng, 5)
        while g2.n == g1.n:
            g2 = random_graph(rng, 5)
        return g1, g2
    pairs = list(itertools.combinations(range(g1.n), 2))
    while not 0 < len(g1.edges) < len(pairs):
        g1 = random_graph(rng, 5)
        pairs = list(itertools.combinations(range(g1.n), 2))
    chosen = rng.sample(pairs, len(g1.edges))
    while set(chosen) == {(u, v) for u, v, _ in g1.edges}:
        chosen = rng.sample(pairs, len(g1.edges))
    return g1, QuartGainGraph(g1.n, [(u, v, rng.choice(UNITS)) for u, v in chosen])


def test_switching_equivalent_agrees_with_brute_force():
    rng = random.Random(11)
    found = {}
    for _ in range(100):
        for style in ("switched", "converse", "regained", "order", "edges"):
            g1, g2 = _pair_for_witness(rng, style)
            witness = switching_witness(g1, g2)
            assert (witness is not None) == brute_force_equivalent(g1, g2), (g1, g2)
            assert switching_equivalent(g1, g2) == (witness is not None)
            found[style] = found.get(style, 0) + (witness is not None)
            if witness is None:
                continue
            theta, took_converse = witness
            replayed = apply_switch(g1, theta)
            assert (converse(replayed) if took_converse else replayed) == g2
            # As `equiv --iso` prints it: 1 at each component's smallest vertex.
            assert all(theta[min(comp)] == UNIT_ONE for comp in components(g1))
    assert found["switched"] == found["converse"] == 100
    assert found["order"] == found["edges"] == 0


def test_converse_normal_form_negates_the_switch():
    rng = random.Random(13)
    for g in classes_up_to(5):
        g = apply_switch(g, random_switch(rng, g.n))
        nf = tree_normalize(g)
        negated = tuple((-a) % 4 for a in nf.assignment)
        assert tree_normalize(converse(g)) == (converse(nf.graph), negated)


def test_equivalence_implies_equal_spectra():
    rng = random.Random(12)
    for _ in range(40):
        g1 = random_graph(rng, 6)
        g2 = apply_switch(g1, random_switch(rng, g1.n))
        if rng.random() < 0.5:
            g2 = converse(g2)
        assert switching_equivalent(g1, g2)
        assert inertia(g1) == inertia(g2)
        e1 = eig_float(hermitian_matrix(g1))
        e2 = eig_float(hermitian_matrix(g2))
        assert all(abs(a - b) < 1e-8 for a, b in zip(e1, e2))


def test_cycle_value_switch_invariant_signature_not():
    c4 = gen_cycle(4)
    theta = (UNIT_ONE, UNIT_I, UNIT_MINUS_ONE, UNIT_MINUS_I)
    switched = apply_switch(c4, theta)
    assert switched.is_mixed
    assert cycle_value(switched, (0, 1, 2, 3)) == cycle_value(c4, (0, 1, 2, 3))
    assert cycle_signature(c4, (0, 1, 2, 3)) == 0
    assert cycle_signature(switched, (0, 1, 2, 3)) == 4


def test_cycle_positivity_iff_signature_zero_mod_4():
    for n in (3, 4, 5, 6):
        for arcs in range(n + 1):
            g = gen_cycle(n, range(arcs))
            sigma = cycle_signature(g, tuple(range(n)))
            assert is_positive(g) == (sigma % 4 == 0)


def test_is_positive_examples():
    assert is_positive(parse_graph(K3))
    assert is_positive(parse_graph(POSITIVE_TRIANGLE))
    assert not is_positive(parse_graph(ODD))
    # Disconnected: both components must be positive.
    g = parse_graph("n 6\nU 0 1\nU 1 2\nU 0 2\nA 3 4\nU 4 5\nU 3 5")
    assert not is_positive(g)


def test_up_to_iso_examples():
    assert switching_equivalent_up_to_iso(
        parse_graph("n 2\nA 1 0"), parse_graph("n 2\nU 0 1")
    ) is not None
    even = parse_graph("n 3\nA 0 1\nA 2 1\nU 0 2")
    assert switching_equivalent_up_to_iso(parse_graph(ODD), even) is None
    # Same class, different arc placement.
    g1 = gen_c3t(1, 1, 1)
    g2 = parse_graph("n 3\nU 0 1\nA 1 2\nU 0 2")
    witness = switching_equivalent_up_to_iso(g1, g2)
    assert witness is not None
    from hermitia import relabel

    relabeled = apply_switch(relabel(g1, witness.perm), witness.theta)
    if witness.took_converse:
        relabeled = converse(relabeled)
    assert relabeled == g2


def test_up_to_iso_size_cap():
    big = gen_c3t(5, 5, 5)
    with pytest.raises(ValueError):
        switching_equivalent_up_to_iso(big, big)


def _circulant_edges(n: int, jumps) -> list[tuple[int, int]]:
    return sorted({(min(v, (v + j) % n), max(v, (v + j) % n)) for v in range(n) for j in jumps})


# Vertex-transitive underlying graphs, on which every vertex has the same
# degree, so only the gains and the search tell the vertices apart.
SYMMETRIC = (
    (6, [(u, v) for u in range(3) for v in range(3, 6)]),  # K_{3,3}
    (7, _circulant_edges(7, (1, 2))),  # C7(1,2)
    (6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)]),  # prism(3)
)


def _iso_pair(rng: random.Random, kind: int, max_n: int = 7):
    """A seeded pair of order <= max_n: 0 relabeled switch (half of them also
    conversed), 1 the same with one gain changed, 2 fresh gains on a relabeled
    copy of the underlying graph, 3 two unrelated graphs, 4 kind 0 or 1 on
    random gains over one of the :data:`SYMMETRIC` graphs."""
    if kind == 4:
        n, edges = rng.choice([(n, edges) for n, edges in SYMMETRIC if n <= max_n])
        g1 = QuartGainGraph(n, [(u, v, rng.choice(UNITS)) for u, v in edges])
        kind = rng.choice((0, 1))
    else:
        g1 = random_graph(rng, max_n, rng.choice([0.3, 0.5, 0.7, 0.9]))
    if kind == 3:
        return g1, random_graph(rng, max_n, rng.choice([0.3, 0.5, 0.7, 0.9]))
    perm = list(range(g1.n))
    rng.shuffle(perm)
    if kind == 2:
        regained = QuartGainGraph(g1.n, [(u, v, rng.choice(UNITS)) for u, v, _ in g1.edges])
        return g1, relabel(regained, perm)
    g2 = apply_switch(relabel(g1, perm), random_switch(rng, g1.n))
    if rng.random() < 0.5:
        g2 = converse(g2)
    if kind == 1 and g2.edges:
        edges = list(g2.edges)
        k = rng.randrange(len(edges))
        u, v, g = edges[k]
        edges[k] = (u, v, (g + rng.choice((1, 2, 3))) % 4)
        g2 = QuartGainGraph(g2.n, edges)
    return g1, g2


def test_up_to_iso_matches_unpruned_reference():
    # Same search order, so the gain-pruned search must return the very
    # witness the unpruned one finds, or None with it.
    rng = random.Random(20261018)
    kinds = {"found": 0, "converse": 0, "none": 0}
    for i in range(1000):
        g1, g2 = _iso_pair(rng, i % 5)
        expected = switching_equivalent_up_to_iso_unpruned(g1, g2)
        assert switching_equivalent_up_to_iso(g1, g2) == expected, (g1, g2)
        if expected is None:
            kinds["none"] += 1
        else:
            kinds["converse" if expected.took_converse else "found"] += 1
    assert min(kinds.values()) >= 50, kinds


def test_up_to_iso_existence_matches_permutation_brute_force():
    rng = random.Random(5)
    outcomes = []
    for i in range(600):
        g1, g2 = _iso_pair(rng, i % 4, max_n=5)
        exists = g1.n == g2.n and any(
            switching_witness(relabel(g1, perm), g2) is not None
            for perm in itertools.permutations(range(g1.n))
        )
        witness = switching_equivalent_up_to_iso(g1, g2)
        assert (witness is not None) == exists, (g1, g2)
        if witness is not None:
            replay = apply_switch(relabel(g1, witness.perm), witness.theta)
            assert (converse(replay) if witness.took_converse else replay) == g2
        outcomes.append(exists)
    assert 100 <= sum(outcomes) <= 500


@pytest.mark.parametrize("n", [8, 10, 12])
def test_up_to_iso_inequivalent_complete_graphs_are_fast(n):
    # Without gain pruning every one of the n! maps of K_n reaches a complete
    # map: K8 alone takes about 12 s, so a timer signal stops the call early.
    # All-ones K_n against K_n with edge (0, 1) negated defeats gain pruning
    # too, since any map avoiding that edge's triangles survives; the search
    # alone takes seconds on K9 and hours on K12.  So does the triangle-free
    # K_{a,a}, a = n/2, with edge (0, a) negated: 0.5 s at a = 5 and 8 s at
    # a = 6.  The closed-walk values reject all of these before searching.
    rng = random.Random(n)
    edges = list(itertools.combinations(range(n), 2))

    def gain_complete():
        return QuartGainGraph(n, [(u, v, rng.choice(UNITS)) for u, v in edges])

    def spectra_equal(a, b):
        return eig_float(hermitian_matrix(a)) == pytest.approx(eig_float(hermitian_matrix(b)), abs=1e-6)

    def negate(g, edge):
        return QuartGainGraph(n, [(u, v, (x + 2) % 4 if (u, v) == edge else x) for u, v, x in g.edges])

    def keeps_triangle_values(g, u, v):
        # Negating (u, v) swaps the values 1 and -1 on its triangles.
        values = [cycle_value(g, (u, v, w)) for w in range(n) if w not in (u, v)]
        return values.count(UNIT_ONE) == values.count(UNIT_MINUS_ONE)

    g1, g2 = gain_complete(), gain_complete()
    while spectra_equal(g1, g2):
        g2 = gain_complete()
    ones = QuartGainGraph(n, [(u, v, UNIT_ONE) for u, v in edges])
    # A pair with equal triangle values, so only gain pruning decides it.
    g3 = g4 = gain_complete()
    while spectra_equal(g3, g4):
        g3 = gain_complete()
        edge = next((e for e in edges if keeps_triangle_values(g3, *e)), None)
        g4 = g3 if edge is None else negate(g3, edge)
    half = n // 2
    bipartite = QuartGainGraph(n, [(u, v, UNIT_ONE) for u in range(half) for v in range(half, n)])
    cases = (
        (g1, g2, f"random-gain K{n}"),
        (ones, negate(ones, (0, 1)), f"one-edge-negated K{n}"),
        (g3, g4, f"equal-triangle-values K{n}"),
        (bipartite, negate(bipartite, (0, half)), f"one-edge-negated K{half},{half}"),
    )
    for a, b, what in cases:
        got, elapsed = timed_under_alarm(
            lambda: switching_equivalent_up_to_iso(a, b), f"iso search on inequivalent {what}"
        )
        assert got is None
        assert elapsed < 1.0


def _equal_inertia_pairs(n, edges, negated, more, count, seed):
    """count seeded pairs of signed graphs on ``edges``: ``negated`` random
    edges negated, against a copy with ``more`` further edges negated, kept
    when the two inertias agree.  Triangle-free or vertex-transitive
    underlying graphs then leave nothing but the search to tell them apart
    without the closed-walk values."""
    rng = random.Random(seed)

    def signed(minus):
        return QuartGainGraph(n, [(u, v, UNIT_MINUS_ONE if (u, v) in minus else UNIT_ONE) for u, v in edges])

    pairs = []
    while len(pairs) < count:
        minus = set(rng.sample(edges, negated))
        g1, g2 = signed(minus), signed(minus | set(rng.sample([e for e in edges if e not in minus], more)))
        if inertia(g1) == inertia(g2):
            pairs.append((g1, g2))
    return pairs


PETERSEN = sorted(
    (min(u, v), max(u, v))
    for i in range(5)
    for u, v in ((i, (i + 1) % 5), (i, i + 5), (5 + i, 5 + (i + 2) % 5))
)


@pytest.mark.parametrize(
    "n, edges, negated, more, count",
    [
        (12, [(u, v) for u in range(6) for v in range(6, 12)], 3, 2, 40),
        (10, PETERSEN, 7, 1, 10),
        (12, _circulant_edges(12, (1, 3, 5)), 18, 1, 10),
    ],
    ids=["K6,6", "Petersen", "C12(1,3,5)"],
)
def test_up_to_iso_equal_inertia_symmetric_pairs_are_fast(n, edges, negated, more, count):
    # Without the closed-walk values these pairs agree on degrees, triangle
    # values and inertia, and the search decided the K6,6 pairs in up to 3 s
    # and the C12(1,3,5) pairs in up to 0.36 s each.
    for g1, g2 in _equal_inertia_pairs(n, edges, negated, more, count, seed=7):
        witness, elapsed = timed_under_alarm(
            lambda: switching_equivalent_up_to_iso(g1, g2), "iso search on an equal-inertia signed pair"
        )
        assert elapsed < 0.05
        if witness is not None:
            replay = apply_switch(relabel(g1, witness.perm), witness.theta)
            assert (converse(replay) if witness.took_converse else replay) == g2


def test_walk_values_follow_switch_relabel_and_converse():
    rng = random.Random(11)
    for _ in range(200):
        g = random_graph(rng, 8, rng.choice([0.3, 0.6, 0.9]))
        values = _walk_values(g)
        assert len(values) == g.n and all(len(row) == max(g.n - 1, 0) for row in values)
        assert all(row[0] == g.degree(v) for v, row in enumerate(values) if row)
        assert _walk_values(apply_switch(g, random_switch(rng, g.n))) == values
        assert _walk_values(converse(g)) == values
        perm = list(range(g.n))
        rng.shuffle(perm)
        moved = _walk_values(relabel(g, perm))
        assert [moved[perm[v]] for v in range(g.n)] == values


def test_walk_value_sums_are_eigenvalue_power_sums():
    # All-ones K12 has the largest values below the cap, (11^12 + 11) / 12
    # at k = 12, and H = J - I gives them in closed form.
    ones = QuartGainGraph(12, [(u, v, UNIT_ONE) for u, v in itertools.combinations(range(12), 2)])
    assert _walk_values(ones) == [tuple((11**k + 11 * (-1) ** k) // 12 for k in range(2, 13))] * 12
    rng = random.Random(12)
    for _ in range(100):
        g = random_graph(rng, 9, rng.choice([0.3, 0.6, 0.9]))
        eigs = eig_float(hermitian_matrix(g))
        values = _walk_values(g)
        for k in range(2, g.n + 1):
            expected = sum(x**k for x in eigs)
            assert sum(row[k - 2] for row in values) == pytest.approx(expected, rel=1e-9, abs=1e-6)


def _walk_values_by_powers(g):
    """(H^k)_vv for k = 2..n, by repeated products of Python-int (re, im) pairs."""
    parts = ((1, 0), (0, 1), (-1, 0), (0, -1))
    h = [[parts[g.gain(u, v)] if g.has_edge(u, v) else (0, 0) for v in range(g.n)] for u in range(g.n)]
    cols = list(zip(*h))
    power, diagonals = h, []
    for _ in range(g.n - 1):
        power = [
            [
                (
                    sum(a[0] * b[0] - a[1] * b[1] for a, b in zip(row, col)),
                    sum(a[0] * b[1] + a[1] * b[0] for a, b in zip(row, col)),
                )
                for col in cols
            ]
            for row in power
        ]
        assert all(power[v][v][1] == 0 for v in range(g.n))
        diagonals.append([power[v][v][0] for v in range(g.n)])
    return [tuple(d[v] for d in diagonals) for v in range(g.n)]


def test_walk_values_match_python_int_powers():
    rng = random.Random(13)
    n = MAX_ISO_ORDER
    graphs = [QuartGainGraph(n, [(u, v, UNIT_ONE) for u, v in itertools.combinations(range(n), 2)])]
    graphs += [random_graph(rng, n, rng.choice([0.3, 0.6, 0.9, 1.0])) for _ in range(60)]
    for g in graphs:
        assert _walk_values(g) == _walk_values_by_powers(g)


def test_twins_examples():
    g = gen_c3t(2, 1, 1)
    assert are_twins(g, 0, 1) == UNIT_ONE
    edge = parse_graph("n 2\nU 0 1")
    assert are_twins(edge, 0, 1) is None
    with pytest.raises(ValueError):
        are_twins(edge, 0, 0)


def test_twins_with_nontrivial_alpha():
    # Rows of 0 and 1 differ by the unit -1.
    g = parse_graph("n 3\nU 0 2\nG 1 2 -1")
    assert are_twins(g, 0, 1) == UNIT_MINUS_ONE
    assert are_twins(g, 1, 0) == UNIT_MINUS_ONE


def test_isolated_vertices_are_twins():
    g = parse_graph("n 4\nU 0 1")
    assert are_twins(g, 2, 3) == UNIT_ONE


def test_twin_partition_structure():
    g = gen_c3t(2, 2, 1)
    part = twin_partition(g)
    assert part.classes == ((0, 1), (2, 3), (4,))
    assert part.representatives == (0, 2, 4)
    assert all(a == UNIT_ONE for a in part.alphas)


def test_twin_reduction_of_c3t_is_odd_triangle():
    for sizes in ((1, 1, 1), (2, 1, 1), (3, 2, 1), (2, 2, 2)):
        reduced = twin_reduction(gen_c3t(*sizes))
        assert is_odd_triangle(reduced)


def test_triangle_parity_predicates():
    assert is_odd_triangle(parse_graph(ODD))
    assert not is_even_triangle(parse_graph(ODD))
    even = parse_graph("n 3\nA 0 1\nA 2 1\nU 0 2")
    assert is_even_triangle(even)
    assert is_even_triangle(parse_graph(K3))
    p3 = parse_graph("n 3\nU 0 1\nU 1 2")
    assert not is_odd_triangle(p3)
    assert not is_even_triangle(p3)


def test_twin_reduction_equivalence_mirrors_graph_equivalence():
    # Same underlying graph: equivalent iff the twin structures agree and
    # the reductions are equivalent.
    rng = random.Random(21)
    for _ in range(150):
        g1 = random_graph(rng, 5, 0.6)
        if rng.random() < 0.5:
            g2 = apply_switch(g1, random_switch(rng, g1.n))
            if rng.random() < 0.5:
                g2 = converse(g2)
        else:
            g2 = QuartGainGraph(
                g1.n, [(u, v, rng.choice((0, 1, 2, 3))) for u, v, _ in g1.edges]
            )
        lhs = switching_equivalent(g1, g2)
        p1, p2 = twin_partition(g1), twin_partition(g2)
        rhs = p1.classes == p2.classes and switching_equivalent(
            twin_reduction(g1), twin_reduction(g2)
        )
        assert lhs == rhs


def test_twin_partition_records_alphas():
    g = parse_graph("n 3\nU 0 2\nG 1 2 -1")
    part = twin_partition(g)
    assert part.classes == ((0, 1), (2,))
    assert part.alphas[0] == UNIT_ONE      # representatives carry alpha 1
    assert part.alphas[1] == UNIT_MINUS_ONE
