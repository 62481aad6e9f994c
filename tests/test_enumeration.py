import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from hermitia import (
    EnumSpec,
    InertiaTriple,
    QuartGainGraph,
    UNIT_I,
    UNIT_MINUS_ONE,
    UNIT_ONE,
    UNITS,
    apply_switch,
    classes_up_to,
    connected_underlying,
    cut_vertices,
    delete_vertex,
    enumerate_switching_classes,
    inertia,
    mixed_representative,
    p1_characterize,
    pendant_vertices,
    serialize_graph,
    switching_equivalent,
    tree_normalize,
    underlying,
)
from hermitia.enumeration import (
    _automorphisms,
    _equitable_cells,
    _least_degree_non_cut_last,
    _mixed_tuples,
    _neighbour_masks,
    _setup,
    canonical_form,
    count_switching_classes,
)

import enumeration_reference
from conftest import anchored_switches, timed_under_alarm
from connected_reference import _is_connected_edges, connected_underlying_bruteforce, reference_form
from mixed_reference import least_switch_bruteforce, mixed_representative_bruteforce


def test_connected_graph_counts():
    # 1, 1, 2, 6, 21, 112 connected graphs up to isomorphism on 1..6 vertices.
    assert [len(connected_underlying(n)) for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_extension_generation_matches_bruteforce(n):
    # One graph per class: as many graphs as classes, and every class met.
    generated = connected_underlying(n)
    reference = connected_underlying_bruteforce(n)
    assert len(generated) == len(reference)
    assert {reference_form(n, edges) for edges in generated} == reference


def test_single_edge_is_the_only_order_two_class():
    classes = list(enumerate_switching_classes(EnumSpec(n=2)))
    assert classes == [QuartGainGraph(2, [(0, 1, UNIT_ONE)])]


def test_order_three_classes():
    # P3 contributes one class, the triangle contributes four.
    classes = list(enumerate_switching_classes(EnumSpec(n=3)))
    assert len(classes) == 5
    mixed = list(enumerate_switching_classes(EnumSpec(n=3, mixed_only=True)))
    assert len(mixed) == 5
    assert all(g.is_mixed for g in mixed)


def test_emitted_classes_pairwise_inequivalent():
    # Emission is one representative per four-way-switching class; pairs
    # related only by the converse are deliberately kept distinct (the
    # fundamental-cycle values i and -i are distinct invariants).
    from hermitia import tree_normalize

    classes = list(enumerate_switching_classes(EnumSpec(n=4)))
    forms = [tree_normalize(g).graph for g in classes]
    assert len(set(forms)) == len(classes)


def test_determinism_and_limit():
    first = [serialize_graph(g) for g in enumerate_switching_classes(EnumSpec(n=4))]
    second = [serialize_graph(g) for g in enumerate_switching_classes(EnumSpec(n=4))]
    assert first == second
    capped = list(enumerate_switching_classes(EnumSpec(n=4, limit=7)))
    assert len(capped) == 7
    assert [serialize_graph(g) for g in capped] == first[:7]


def test_limit_zero_emits_nothing_and_negative_raises():
    assert list(enumerate_switching_classes(EnumSpec(n=3, limit=0))) == []
    assert list(enumerate_switching_classes(EnumSpec(n=3, mixed_only=True, limit=0))) == []
    with pytest.raises(ValueError, match="limit"):
        list(enumerate_switching_classes(EnumSpec(n=3, limit=-5)))


def test_filters():
    for g in enumerate_switching_classes(EnumSpec(n=5, has_pendant=True)):
        assert pendant_vertices(g)
    for g in enumerate_switching_classes(
        EnumSpec(n=5, has_cut_vertex=True, no_pendant=True)
    ):
        assert not pendant_vertices(g)


def test_hard_cap():
    with pytest.raises(ValueError):
        list(enumerate_switching_classes(EnumSpec(n=8)))
    with pytest.raises(ValueError):
        list(enumerate_switching_classes(EnumSpec(n=0)))


def _brute_class_count(n: int, edges, with_converse: bool) -> tuple[int, int]:
    """Independent oracle: count gain-assignment orbits of a fixed labeled
    underlying graph under anchored switchings (optionally plus converse),
    and how many orbits contain a mixed graph.

    Canonicalizes each assignment by the lexicographically least serialized
    orbit member; never touches the spanning-tree normal form used by the
    library.
    """
    from hermitia import converse as conv

    base = QuartGainGraph(n, [(u, v, UNIT_ONE) for u, v in edges])
    orbits: dict = {}
    for gains in itertools.product(UNITS, repeat=len(edges)):
        g = QuartGainGraph(n, [(u, v, k) for (u, v), k in zip(edges, gains)])
        best = None
        has_mixed = False
        for theta in anchored_switches(base):
            switched = apply_switch(g, theta)
            variants = (switched, conv(switched)) if with_converse else (switched,)
            for variant in variants:
                text = serialize_graph(variant)
                if variant.is_mixed:
                    has_mixed = True
                if best is None or text < best:
                    best = text
        orbits[best] = orbits.get(best, False) or has_mixed
    return len(orbits), sum(1 for v in orbits.values() if v)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumeration_complete_against_bruteforce(n):
    per_underlying: dict = {}
    for g in enumerate_switching_classes(EnumSpec(n=n)):
        key = tuple((u, v) for u, v, _ in underlying(g).edges)
        per_underlying[key] = per_underlying.get(key, 0) + 1
    mixed_counts: dict = {}
    for g in enumerate_switching_classes(EnumSpec(n=n, mixed_only=True)):
        key = tuple((u, v) for u, v, _ in underlying(g).edges)
        mixed_counts[key] = mixed_counts.get(key, 0) + 1
    assert set(per_underlying) == set(connected_underlying(n))
    for edges in connected_underlying(n):
        total, mixed = _brute_class_count(n, edges, with_converse=False)
        assert per_underlying[edges] == total
        assert mixed_counts.get(edges, 0) == mixed


@pytest.mark.parametrize("n", [2, 3, 4])
def test_full_equivalence_quotient_matches_bruteforce(n):
    # Quotienting the emitted stream by switching_equivalent (which also
    # takes the converse) must reproduce the brute-force orbit count under
    # switchings plus converse.
    from hermitia import tree_normalize, converse as conv

    per_underlying: dict = {}
    for g in enumerate_switching_classes(EnumSpec(n=n)):
        key = tuple((u, v) for u, v, _ in underlying(g).edges)
        nf = tree_normalize(g).graph
        nf_conv = tree_normalize(conv(g)).graph
        canon = min(serialize_graph(nf), serialize_graph(nf_conv))
        per_underlying.setdefault(key, set()).add(canon)
    for edges in connected_underlying(n):
        total, _ = _brute_class_count(n, edges, with_converse=True)
        assert len(per_underlying[edges]) == total


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_plain_classes_are_tree_normal_forms(n):
    # Enumeration fixes the same spanning tree that tree_normalize switches
    # to all-1 gains, so every emitted class is already in normal form.
    for g in enumerate_switching_classes(EnumSpec(n=n)):
        assert tree_normalize(g).graph == g


def test_mixed_representative():
    negative_edge = QuartGainGraph(2, [(0, 1, 2)])
    rep = mixed_representative(negative_edge)
    assert rep is not None and rep.is_mixed
    assert switching_equivalent(rep, negative_edge)


def test_mixed_representative_matches_bruteforce_on_plain_classes():
    missing = []
    for n in range(1, 6):
        for g in enumerate_switching_classes(EnumSpec(n=n)):
            expected = mixed_representative_bruteforce(g)
            assert mixed_representative(g) == expected, g
            if expected is None:
                missing.append(g)
    # One class of order at most 5 has no mixed member: K5 whose vertex 0
    # is joined with gain 1 to a clique of gain -1.
    clique = [(u, v, UNIT_MINUS_ONE) for u, v in itertools.combinations(range(1, 5), 2)]
    assert missing == [QuartGainGraph(5, [(0, v, UNIT_ONE) for v in range(1, 5)] + clique)]


def test_mixed_representative_matches_bruteforce_on_random_graphs():
    # Gains lean to -1 so that some graphs have no mixed member; densities
    # from 0 give edgeless and disconnected graphs too.
    rng = random.Random(2024)
    weighted_units = UNITS + (UNIT_MINUS_ONE,) * 4
    outcomes = []
    for _ in range(2000):
        n = rng.randint(1, 7)
        density = rng.choice((0.0, 0.3, 0.6, 0.9, 1.0))
        pairs = [pair for pair in itertools.combinations(range(n), 2) if rng.random() < density]
        g = QuartGainGraph(n, [(u, v, rng.choice(weighted_units)) for u, v in pairs])
        expected = mixed_representative_bruteforce(g)
        assert mixed_representative(g) == expected, g
        outcomes.append(expected is None)
    assert 0 < sum(outcomes) < len(outcomes)


def test_mixed_representative_order_six_example_has_none():
    # Vertices 0 and 1 joined to everything with gain 1, gain -1 among the rest.
    edges = [(u, v, UNIT_ONE) for u in (0, 1) for v in range(u + 1, 6)]
    edges += [(u, v, UNIT_MINUS_ONE) for u, v in itertools.combinations(range(2, 6), 2)]
    g = QuartGainGraph(6, edges)
    assert mixed_representative_bruteforce(g) is None
    assert mixed_representative(g) is None


def _negated_on(n, negative):
    return QuartGainGraph(
        n, [(u, v, UNIT_MINUS_ONE if (u, v) in negative else UNIT_ONE) for u, v in itertools.combinations(range(n), 2)]
    )


@pytest.mark.parametrize(
    "g, expected",
    [
        (_negated_on(5, set(itertools.combinations(range(5), 2))), InertiaTriple(4, 1, 0)),
        (_negated_on(6, {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}), InertiaTriple(3, 3, 0)),
    ],
    ids=["K5_all_negative", "K6_negative_5_cycle"],
)
def test_minimal_non_mixed_obstructions(g, expected):
    # The two classes up to order 6 with no mixed member whose every
    # vertex-deleted subgraph has one; both have p >= 3.
    assert inertia(g) == expected
    assert mixed_representative(g) is None
    assert mixed_representative_bruteforce(g) is None
    for v in range(g.n):
        assert mixed_representative(delete_vertex(g, v)) is not None, v
    assert p1_characterize(g) is None


def test_mixed_representative_bounded_without_representative():
    # A path 0..7 with gain i leaves 3^7 switches of vertices 1..7, and each
    # one fails only on the clique 8..11 (gain -1), joined to 7 with gain 1.
    # Trying all 4^11 switches took about 8.5 s; the search backtracks early.
    edges = [(v, v + 1, UNIT_I) for v in range(7)]
    edges += [(7, v, UNIT_ONE) for v in range(8, 12)]
    edges += [(u, v, UNIT_MINUS_ONE) for u, v in itertools.combinations(range(8, 12), 2)]
    g = QuartGainGraph(12, edges)
    got, elapsed = timed_under_alarm(lambda: mixed_representative(g), "mixed_representative on order 12")
    assert got is None
    assert elapsed < 1.0


def _switched(records, theta):
    return tuple([(u, v, (g - theta[u] + theta[v]) % 4) for u, v, g in records])


RESUME_BASES = [
    # Connected underlying graphs of orders 6 and 7 on which a resumed
    # search backtracks below its resume vertex.
    ((0, 1), (0, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)),
    ((0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)),
    ((0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 6), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)),
    ((0, 1), (0, 2), (0, 6), (1, 2), (1, 6), (2, 6), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)),
    # K5 on 0..4 and vertex 5 joined to 3 and 4: the head is the K5, and its
    # search fails when vertex 0 is joined with gain 1 to a clique of gain -1.
    (*itertools.combinations(range(5), 2), (3, 5), (4, 5)),
]


def test_resumed_search_matches_bruteforce_on_every_gain_tuple():
    # The stream searches each head tuple up to the resume vertex `stop` and
    # resumes from a copy of that state on each tail tuple.  Every gain tuple
    # of these graphs is checked against the brute-force least switch, as is
    # mixed_representative, which searches from vertex 1 to n.  A least switch
    # that differs below `stop` from its head's least prefix switch is one
    # the resumed search found only by backtracking below `stop`.
    backtracked = failed_heads = 0
    for pairs in RESUME_BASES:
        n = max(v for _, v in pairs) + 1
        setup = choices, _, split, stop = _setup(QuartGainGraph(n, [(u, v, UNIT_ONE) for u, v in pairs]))
        expected = []
        for head in itertools.product(*choices[:split]):
            prefix = least_switch_bruteforce(stop, [record for record in head if record[1] < stop])
            failed_heads += prefix is None
            for tail in itertools.product(*choices[split:]):
                records = head + tail
                theta = least_switch_bruteforce(n, records)
                representative = mixed_representative(QuartGainGraph(n, records))
                if theta is None:
                    assert representative is None, records
                    continue
                assert representative.edges == _switched(records, theta), records
                backtracked += theta[:stop] != prefix
                expected.append((records, representative.edges))
        got = [
            (records, records if theta is None else _switched(records, theta))
            for records, theta in _mixed_tuples(n, *setup)
        ]
        assert got == expected, pairs
    assert backtracked > 0
    assert failed_heads > 0


def test_mixed_only_emits_mixed_members_of_same_class():
    plain = {
        underlying(g).edges: g for g in enumerate_switching_classes(EnumSpec(n=3))
    }
    for g in enumerate_switching_classes(EnumSpec(n=3, mixed_only=True)):
        assert g.is_mixed


def test_order_seven_underlying_count():
    # 853 connected graphs on 7 vertices up to isomorphism (the hard cap),
    # every form and its place pinned by the SHA-256 of the tuple's repr.
    graphs = connected_underlying(7)
    assert len(graphs) == 853
    assert hashlib.sha256(repr(graphs).encode()).hexdigest() == (
        "6310f8f826c85e7f6732d0e372bcd02eba5b17da4300c9eacd39c20cd1314a44"
    )


# Fills order 6, then counts the canonical_form searches of the order-7 fill.
_SEARCH_PROBE = """
from hermitia import enumeration
enumeration.connected_underlying(6)
form, calls = enumeration.canonical_form, []
enumeration.canonical_form = lambda *args: calls.append(args) or form(*args)
enumeration.connected_underlying(7)
print(len(calls))
"""


def test_order_seven_fill_runs_only_the_searches_the_deletion_rule_keeps():
    # A fresh process, since this one's cache may already hold order 7.  With
    # orbit pruning alone the fill ran 3,771 searches.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _SEARCH_PROBE], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    assert int(done.stdout) == 1192


def _stream(enumerate_classes, spec, limit=None):
    return [serialize_graph(g) for g in itertools.islice(enumerate_classes(spec), limit)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_streams_match_reference_for_every_filter_combination(n):
    # The reference builds each candidate as a graph and switches it with
    # the brute-force least switch; the package switches the gain list.
    for cut, no_pendant, pendant, mixed in itertools.product((False, True), repeat=4):
        spec = EnumSpec(n=n, has_cut_vertex=cut, no_pendant=no_pendant, has_pendant=pendant, mixed_only=mixed)
        assert _stream(enumerate_switching_classes, spec) == _stream(
            enumeration_reference.enumerate_switching_classes, spec
        ), spec


def test_cut_vertex_filter_keeps_the_classes_with_a_cut_vertex_in_order():
    # The cutvertex suite streams the filter instead of testing every class.
    every = [g for g in classes_up_to(5) if cut_vertices(g)]
    assert list(classes_up_to(5, has_cut_vertex=True)) == every
    assert len(every) == 138


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_count_matches_stream_length_for_every_filter_combination(n):
    # The count builds no graph; it must agree with the stream it stands for,
    # limits included (a limit above the stream's length changes nothing).
    for cut, no_pendant, pendant, mixed in itertools.product((False, True), repeat=4):
        for limit in (None, 0, 1, 5, 37, 1000, 5000):
            spec = EnumSpec(
                n=n, has_cut_vertex=cut, no_pendant=no_pendant, has_pendant=pendant, mixed_only=mixed, limit=limit
            )
            count = count_switching_classes(spec)
            assert type(count) is int
            assert count == sum(1 for _ in enumerate_switching_classes(spec)), spec


def test_count_rejects_what_the_stream_rejects():
    non_integers = [EnumSpec(n=True), EnumSpec(n=4.0), EnumSpec(n=4, limit=True), EnumSpec(n=4, limit=2.5)]
    non_integers += [EnumSpec(n=4, mixed_only=True, limit=True)]
    for spec in (EnumSpec(n=0), EnumSpec(n=8), EnumSpec(n=3, limit=-1), *non_integers):
        with pytest.raises(ValueError) as streamed:
            list(enumerate_switching_classes(spec))
        with pytest.raises(ValueError) as counted:
            count_switching_classes(spec)
        assert str(counted.value) == str(streamed.value)


def test_orders_and_limits_follow_the_integer_rule():
    # Orders and limits take any integer, numpy's included, as a plain int;
    # a bool or a float is a ValueError, as for graph records.
    for spec in (EnumSpec(n=True), EnumSpec(n=4, limit=True), EnumSpec(n=4, limit=2.5)):
        with pytest.raises(ValueError, match="must be an integer"):
            count_switching_classes(spec)
    first = next(enumerate_switching_classes(EnumSpec(n=np.int64(1))))
    assert serialize_graph(first) == "n 1\n"
    assert count_switching_classes(EnumSpec(n=np.int64(4), limit=np.int64(7))) == 7
    assert len(list(enumerate_switching_classes(EnumSpec(n=4, limit=np.int64(3))))) == 3
    # The cache of order 2 must not answer for 2.0, nor order 1's for True.
    connected_underlying(1), connected_underlying(2)
    for order in (2.0, True, "2"):
        with pytest.raises(ValueError, match="order must be an integer"):
            connected_underlying(order)
    assert connected_underlying(np.int64(4)) == connected_underlying(4)


def test_classes_up_to_follows_the_integer_rule():
    for order in (True, 2.5, 3.0):
        with pytest.raises(ValueError, match="order must be an integer"):
            list(classes_up_to(order))
    assert len(list(classes_up_to(np.int64(3)))) == len(list(classes_up_to(3))) == 1 + 1 + (1 + 4)


@pytest.mark.parametrize("mixed", [False, True])
def test_order_six_stream_prefix_matches_reference(mixed):
    spec = EnumSpec(n=6, mixed_only=mixed)
    got = _stream(enumerate_switching_classes, spec, 20000)
    assert len(got) == 20000
    assert got == _stream(enumeration_reference.enumerate_switching_classes, spec, 20000)


@pytest.mark.parametrize(
    "spec, classes, digest",
    [
        (
            EnumSpec(n=7, has_cut_vertex=True, no_pendant=True, mixed_only=True),
            39932,
            "31db26424086c72e1261135b9b41cf39b7421e846826125f79ed0ffad33dd753",
        ),
        (
            EnumSpec(n=6, has_pendant=True, mixed_only=True),
            8405,
            "7cac45437cda829955580fe68f1dccadb6aa39686ba4a533cc5f076a832a9412",
        ),
    ],
    ids=repr,
)
def test_whole_streams_past_the_reference_keep_their_digest(spec, classes, digest):
    # The reference is too slow to run on these streams; the SHA-256 of the
    # serialized stream, one "\n"-terminated graph after another, pins them.
    # One class past the expected count is enough to fail a longer stream.
    sha = hashlib.sha256()
    emitted = 0
    for g in itertools.islice(enumerate_switching_classes(spec), classes + 1):
        sha.update((serialize_graph(g) + "\n").encode())
        emitted += 1
    assert emitted == classes
    assert sha.hexdigest() == digest
    assert count_switching_classes(spec) == classes


@pytest.mark.parametrize("n", [6, 7])
def test_canonical_forms_match_reference(n):
    # Every form that generating connected_underlying(n) asks for.
    for smaller in connected_underlying(n - 1):
        for bits in range(1, 1 << (n - 1)):
            edges = smaller + tuple((u, n - 1) for u in range(n - 1) if bits >> u & 1)
            assert canonical_form(n, edges) == enumeration_reference.canonical_form(n, edges), edges


@pytest.mark.parametrize("n", range(1, 8))
def test_generation_matches_unpruned_reference(n):
    # The reference extends by every nonempty mask, with neither orbit
    # pruning nor the deletion rule, and takes its own forms.
    assert connected_underlying(n) == enumeration_reference.connected_underlying(n)


def _relabeled(edges, perm):
    return tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges))


def _cycle(n):
    return _relabeled([(v, (v + 1) % n) for v in range(n)], range(n))


def _complete_multipartite(*sizes):
    part = [j for j, size in enumerate(sizes) for _ in range(size)]
    return tuple((u, v) for u, v in itertools.combinations(range(len(part)), 2) if part[u] != part[v])


def _petersen():
    return _relabeled(
        [(v, (v + 1) % 5) for v in range(5)] + [(v, v + 5) for v in range(5)]
        + [(5 + v, 5 + (v + 2) % 5) for v in range(5)],
        range(10),
    )


# Symmetric inputs, where the search keeps many orders or skips many twins.
_SYMMETRIC = {
    "K8": (8, tuple(itertools.combinations(range(8), 2))),
    "C8": (8, _cycle(8)),
    "K4,4": (8, _complete_multipartite(4, 4)),
    "cube": (8, tuple((u, v) for u, v in itertools.combinations(range(8), 2) if (u ^ v).bit_count() == 1)),
    "K2,3,3": (8, _complete_multipartite(2, 3, 3)),
}


@pytest.mark.parametrize("name", sorted(_SYMMETRIC))
def test_canonical_forms_match_reference_on_symmetric_graphs(name):
    n, edges = _SYMMETRIC[name]
    form = canonical_form(n, edges)
    assert form == enumeration_reference.canonical_form(n, edges)
    rng = random.Random(name)
    for _ in range(3):
        assert canonical_form(n, _relabeled(edges, rng.sample(range(n), n))) == form


def test_canonical_forms_match_reference_on_random_relabelings():
    # Seeded random order-8 graphs, connected or not, each under three
    # random relabelings: every form is the reference's, and all four agree.
    rng = random.Random(8)
    for _ in range(40):
        density = rng.choice((0.3, 0.5, 0.7))
        edges = tuple(pair for pair in itertools.combinations(range(8), 2) if rng.random() < density)
        form = canonical_form(8, edges)
        assert form == enumeration_reference.canonical_form(8, edges), edges
        for _ in range(3):
            moved = _relabeled(edges, rng.sample(range(8), 8))
            assert canonical_form(8, moved) == form, (edges, moved)
            assert enumeration_reference.canonical_form(8, moved) == form, (edges, moved)


@pytest.mark.parametrize("name", ["K10", "Petersen"])
def test_canonical_form_of_symmetric_order_10_is_fast(name):
    # Trying every order within the one color class walks 10! = 3,628,800
    # orders, tens of seconds; the search takes milliseconds.  The bound is
    # on this process's CPU time.
    edges = tuple(itertools.combinations(range(10), 2)) if name == "K10" else _petersen()
    form, elapsed = timed_under_alarm(lambda: canonical_form(10, edges), f"canonical_form of {name}", time.process_time)
    assert len(form) == len(edges)
    assert canonical_form(10, _relabeled(edges, random.Random(10).sample(range(10), 10))) == form
    assert elapsed < 1.0


def _cells_and_reference(n, edges):
    """The search's first cells, and the reference's colour classes as
    masks in ascending colour."""
    nbr = [0] * n
    adj = [set() for _ in range(n)]
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
        adj[u].add(v)
        adj[v].add(u)
    colors = enumeration_reference._refine_colors(n, adj)
    reference = [sum(1 << v for v in range(n) if colors[v] == c) for c in sorted(set(colors))]
    return _equitable_cells(nbr), reference


@pytest.mark.parametrize("n", range(2, 8))
def test_equitable_cells_match_reference_colour_classes(n):
    # Every graph test_canonical_forms_match_reference builds at order n.
    for smaller in connected_underlying(n - 1):
        for bits in range(1, 1 << (n - 1)):
            edges = smaller + tuple((u, n - 1) for u in range(n - 1) if bits >> u & 1)
            cells, reference = _cells_and_reference(n, edges)
            assert cells == reference, edges


def test_equitable_cells_match_reference_on_random_graphs():
    # Orders 1-14 at four densities, connected or not: no other test reaches
    # the cells above order 10.
    rng = random.Random(14)
    for n in range(1, 15):
        for density in (0.15, 0.3, 0.5, 0.8):
            for _ in range(25):
                edges = tuple(pair for pair in itertools.combinations(range(n), 2) if rng.random() < density)
                cells, reference = _cells_and_reference(n, edges)
                assert cells == reference, (n, edges)


_REGULAR = {
    "Petersen": (10, _petersen()),
    "C12": (12, _cycle(12)),
    "K4,4": _SYMMETRIC["K4,4"],
    "cube": _SYMMETRIC["cube"],
}


@pytest.mark.parametrize("name", sorted(_REGULAR))
def test_equitable_cells_match_reference_on_symmetric_graphs(name):
    n, edges = _REGULAR[name]
    cells, reference = _cells_and_reference(n, edges)
    assert cells == reference


@pytest.mark.parametrize("n", range(1, 7))
def test_automorphisms_are_automorphisms(n):
    # Orbit pruning in connected_underlying is sound only if every
    # permutation it uses maps the graph onto itself.
    for edges in connected_underlying(n):
        for image in _automorphisms(n, edges):
            assert sorted(image) == list(range(n))
            assert _relabeled(edges, image) == edges, (edges, image)


def _without(edges, w):
    """The edges of the graph minus vertex w, the later vertices moved down."""
    return tuple((u - (u > w), v - (v > w)) for u, v in edges if w not in (u, v))


def _deletion_rule_bruteforce(n, edges):
    """No vertex but the last has a smaller degree and leaves the rest connected."""
    degree = [sum(w in pair for pair in edges) for w in range(n)]
    return not any(
        degree[w] < degree[n - 1] and _is_connected_edges(n - 1, _without(edges, w)) for w in range(n - 1)
    )


@pytest.mark.parametrize("n", range(3, 8))
def test_every_graph_passes_the_deletion_rule_by_a_least_degree_non_cut_vertex(n):
    # connected_underlying(n) gives a form only to extensions that pass the
    # rule.  Each graph H, with a least-degree non-cut vertex w moved last,
    # is the extension of the connected H - w by w's mask, and must pass.
    smaller = set(connected_underlying(n - 1))
    for edges in connected_underlying(n):
        degree = [sum(w in pair for pair in edges) for w in range(n)]
        w = min((w for w in range(n) if _is_connected_edges(n - 1, _without(edges, w))), key=degree.__getitem__)
        moved = _relabeled(edges, [*range(w), n - 1, *range(w, n - 1)])
        assert canonical_form(n - 1, _without(moved, n - 1)) in smaller, (edges, w)
        assert _least_degree_non_cut_last(_neighbour_masks(n, moved)), (edges, w)


@pytest.mark.parametrize("n", range(2, 8))
def test_deletion_rule_matches_bruteforce_on_every_extension(n):
    for smaller in connected_underlying(n - 1):
        for bits in range(1, 1 << (n - 1)):
            edges = smaller + tuple((u, n - 1) for u in range(n - 1) if bits >> u & 1)
            got = _least_degree_non_cut_last(_neighbour_masks(n, edges))
            assert got == _deletion_rule_bruteforce(n, edges), edges


def _cycle_with_last(n, v):
    """The n-cycle 0, 1, ..., n - 1 with v swapped with the last vertex."""
    perm = list(range(n))
    perm[v], perm[n - 1] = n - 1, v
    return _relabeled(_cycle(n), perm)


def test_deletion_rule_by_hand():
    # Order 2 is not filtered: both ends have degree 1.
    assert _least_degree_non_cut_last(_neighbour_masks(2, ((0, 1),)))
    assert connected_underlying(2) == (((0, 1),),)
    # A pendant vertex elsewhere rejects a new vertex of degree 2, but not
    # one of degree 1.
    assert not _least_degree_non_cut_last(_neighbour_masks(4, ((0, 1), (1, 2), (1, 3), (2, 3))))
    assert _least_degree_non_cut_last(_neighbour_masks(4, ((0, 1), (1, 2), (2, 3))))
    # Every vertex of a cycle is a least-degree non-cut vertex.
    for n in (3, 5, 8):
        for v in range(n):
            assert _least_degree_non_cut_last(_neighbour_masks(n, _cycle_with_last(n, v))), (n, v)
    # Two K4s joined through a vertex of degree 2: that vertex is a cut
    # vertex, so a new vertex of degree 3 passes; a degree-2 vertex whose
    # deletion leaves the rest connected rejects it.
    def k4(first):
        return tuple(itertools.combinations(range(first, first + 4), 2))

    assert _least_degree_non_cut_last(_neighbour_masks(9, k4(0) + ((0, 4), (4, 5)) + k4(5)))
    assert not _least_degree_non_cut_last(_neighbour_masks(5, ((0, 1), (0, 2)) + k4(1)))
