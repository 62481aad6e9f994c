"""Parts and twins as neighborhood classes, refereed by the pairwise versions.

``tests/parts_twins_reference.py`` keeps the complement search, the pairwise
twin scan and the switch-and-read extension check; every function here must
give exactly their outputs, exceptions included.
"""

import itertools
import random

import pytest

from hermitia import (
    HypothesisViolation,
    QuartGainGraph,
    UNITS,
    apply_switch,
    are_twins,
    classes_up_to,
    complete_multipartite_parts,
    disjoint_union,
    gen_c3t,
    gen_complete_multipartite,
    lem311_check,
    p1_characterize,
    relabel,
    twin_partition,
    twin_reduction,
)

from conftest import random_graph, random_switch, timed_under_alarm
from parts_twins_reference import (
    are_twins_reference,
    complete_multipartite_parts_reference,
    lem311_check_reference,
    p1_characterize_reference,
    twin_partition_reference,
)


def _assert_same_reading(g: QuartGainGraph) -> None:
    assert complete_multipartite_parts(g) == complete_multipartite_parts_reference(g)
    assert p1_characterize(g) == p1_characterize_reference(g)
    got, want = twin_partition(g), twin_partition_reference(g)
    assert (got.classes, got.representatives, got.alphas) == (
        want.classes,
        want.representatives,
        want.alphas,
    )
    for u, w in itertools.permutations(range(g.n), 2):
        assert are_twins(g, u, w) == are_twins_reference(g, u, w)


def _switched_multipartite(rng: random.Random, min_parts: int = 1) -> QuartGainGraph:
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(min_parts, 4))]
    plain = gen_complete_multipartite(sizes)
    return apply_switch(plain, random_switch(rng, plain.n))


def _perturbed(rng: random.Random, g: QuartGainGraph) -> QuartGainGraph:
    """Toggle or regain one random pair, pad with isolated vertices and shuffle."""
    edges = {(u, v): gain for u, v, gain in g.edges}
    if g.n >= 2 and rng.random() < 0.7:
        u, v = sorted(rng.sample(range(g.n), 2))
        if (u, v) in edges and rng.random() < 0.5:
            del edges[(u, v)]
        else:
            edges[(u, v)] = rng.choice(UNITS)
    g = QuartGainGraph(g.n, [(u, v, gain) for (u, v), gain in edges.items()])
    g = disjoint_union(g, QuartGainGraph(rng.randint(0, 2)))
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def test_every_class_up_to_order_5_matches_reference():
    for g in classes_up_to(5):
        _assert_same_reading(g)


def test_random_graphs_and_vertex_subsets_match_reference():
    rng = random.Random(2024)
    for _ in range(600):
        g = random_graph(rng, 14, rng.choice([0.2, 0.5, 0.8]))
        _assert_same_reading(g)
        for _ in range(3):
            subset = [rng.randrange(g.n) for _ in range(rng.randint(0, g.n + 2))]
            assert complete_multipartite_parts(g, subset) == complete_multipartite_parts_reference(
                g, subset
            )


def test_switched_and_perturbed_multipartite_graphs_match_reference():
    rng = random.Random(77)
    for _ in range(600):
        g = _switched_multipartite(rng)
        _assert_same_reading(g)
        _assert_same_reading(_perturbed(rng, g))


def test_c3t_instances_match_reference():
    rng = random.Random(5)
    for t1, t2, t3 in itertools.product(range(1, 4), repeat=3):
        g = gen_c3t(t1, t2, t3)
        _assert_same_reading(g)
        _assert_same_reading(_perturbed(rng, apply_switch(g, random_switch(rng, g.n))))


def _outcome(check, f1, f2, v):
    try:
        return check(f1, f2, v)
    except HypothesisViolation as exc:
        return f"HypothesisViolation: {exc}"


def test_lem311_attachments_match_reference():
    # v joins a connected switched multipartite f1 at a random position,
    # seeing whole parts with one gain each or a random subset with random
    # gains; most draws fail a hypothesis, mostly the rank step.
    rng = random.Random(311)
    held = 0
    for _ in range(1500):
        f1 = _switched_multipartite(rng, min_parts=2)
        seen = {}
        if rng.random() < 0.5:
            for part in complete_multipartite_parts(f1):
                if rng.random() < 0.6:
                    seen.update(dict.fromkeys(part, rng.choice(UNITS)))
        else:
            seen = {u: rng.choice(UNITS) for u in range(f1.n) if rng.random() < 0.5}
        if rng.random() < 0.2 and seen:
            u = rng.choice(sorted(seen))
            seen[u] = (seen[u] + 1) % 4
        v = rng.randint(0, f1.n)
        old_to_new = [u if u < v else u + 1 for u in range(f1.n)]
        edges = [(old_to_new[a], old_to_new[b], gain) for a, b, gain in f1.edges]
        edges += [(v, old_to_new[u], gain) for u, gain in seen.items()]
        f2 = QuartGainGraph(f1.n + 1, edges)
        got = _outcome(lem311_check, f1, f2, v)
        assert got == _outcome(lem311_check_reference, f1, f2, v)
        held += got is True
    assert held > 100


def test_twin_reduction_of_dense_order_1024_is_fast():
    # The pairwise twin scan compared each vertex with every earlier
    # representative, about n^2 / 2 neighbor-set comparisons: over 20 s here.
    rng = random.Random(1024)
    n = 1024
    g = QuartGainGraph(
        n,
        [(u, v, rng.choice(UNITS)) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5],
    )
    reduced, elapsed = timed_under_alarm(lambda: twin_reduction(g), "twin_reduction on order 1024")
    assert reduced.n == n
    assert elapsed < 2.0


@pytest.mark.parametrize("u, w", [(0, 0), (0, 9), (-1, 0)])
def test_are_twins_rejects_bad_pairs(u, w):
    g = gen_complete_multipartite([2, 2])
    with pytest.raises(ValueError):
        are_twins(g, u, w)
