import random

import pytest

from hermitia import (
    FamilySpec,
    FamilySpecError,
    UNIT_I,
    UNIT_MINUS_I,
    UNIT_MINUS_ONE,
    UNIT_ONE,
    coalesce,
    cut_vertices,
    delete_vertex,
    format_family_spec,
    gen_c3t,
    gen_complete_multipartite,
    gen_cycle,
    gen_K_gain,
    gen_K_plain,
    gen_star,
    inertia,
    is_odd_triangle,
    parse_family_spec,
    pendant_vertices,
    realize,
    twin_reduction,
)

from hermitia.families import MAX_COALESCE_DEPTH

import family_reference
from family_spec_reference import reference_parse

from conftest import random_graph


def test_gen_c3t_smallest_is_odd_triangle():
    g = gen_c3t(1, 1, 1)
    assert is_odd_triangle(g)
    assert inertia(g).rank == 2


def test_gen_c3t_examples():
    g = gen_c3t(2, 1, 1)
    assert g.n == 4 and len(g.edges) == 5
    assert inertia(g).as_tuple() == (1, 1, 2)
    assert inertia(gen_c3t(3, 2, 1)).as_tuple() == (1, 1, 4)


def test_gen_c3t_rank_two_across_sizes():
    for t1 in range(1, 5):
        for t2 in range(1, 5):
            for t3 in range(1, 5):
                triple = inertia(gen_c3t(t1, t2, t3))
                assert (triple.p, triple.n_neg) == (1, 1)


def test_gen_c3t_twin_reduction():
    assert is_odd_triangle(twin_reduction(gen_c3t(3, 1, 2)))


def test_gen_multipartite_star_cycle():
    k3 = gen_complete_multipartite([1, 1, 1])
    assert len(k3.edges) == 3
    s4 = gen_star(4)
    assert inertia(s4).as_tuple() == (1, 1, 2)
    assert pendant_vertices(s4) == (1, 2, 3)
    c4 = gen_cycle(4, {0})
    assert inertia(c4).eta == 0
    with pytest.raises(FamilySpecError):
        gen_cycle(2)
    with pytest.raises(FamilySpecError):
        gen_star(1)
    with pytest.raises(FamilySpecError):
        gen_complete_multipartite([])
    with pytest.raises(FamilySpecError):
        gen_c3t(0, 1, 1)


def test_multipartite_positive_inertia_one():
    rng = random.Random(3)
    for _ in range(25):
        k = rng.randint(2, 4)
        sizes = [rng.randint(1, 3) for _ in range(k)]
        assert inertia(gen_complete_multipartite(sizes)).p == 1


def test_gen_K_plain_layout():
    g = gen_K_plain([1, 1], [1, 1], 1)
    # apex 0; q-side vertices 1, 2; n-side vertices 3, 4; p = 1 covers 3.
    assert g.has_edge(0, 1) and g.has_edge(0, 2) and g.has_edge(1, 2)
    assert g.has_edge(3, 4) and g.has_edge(0, 3) and not g.has_edge(0, 4)
    assert inertia(g).p == 2


def test_gen_K_plain_figure_two_shape():
    g = gen_K_plain([3, 2], [2, 2, 3], 2)
    assert g.n == 1 + 5 + 7
    # apex adjacent to the whole q-side and to the first two n-parts.
    assert all(g.has_edge(0, u) for u in range(1, 6))
    assert all(g.has_edge(0, u) for u in range(6, 10))
    assert not any(g.has_edge(0, u) for u in range(10, 13))


def test_gen_K_plain_empty_q():
    g = gen_K_plain([], [2, 2], 1)
    assert g.n == 5
    assert cut_vertices(g) == ()


def test_gen_K_gain_pattern():
    g = gen_K_gain([3, 2], [3, 1], 1, 1, 0, 0)
    assert g.gain(0, 6) == UNIT_I and g.gain(0, 7) == UNIT_I and g.gain(0, 8) == UNIT_I
    assert g.gain(0, 9) == UNIT_MINUS_I
    assert all(g.gain(0, u) == UNIT_ONE for u in range(1, 6))
    assert inertia(g).p == 2


def test_gen_K_gain_degenerates_to_plain():
    assert gen_K_gain([1, 2], [2, 1], 0, 0, 1, 0) == gen_K_plain([1, 2], [2, 1], 1)


def test_gen_K_gain_mixedness():
    assert gen_K_gain([1, 1], [1, 1], 1, 1, 0, 0).is_mixed
    assert not gen_K_gain([1, 1], [1, 1], 0, 0, 1, 1).is_mixed


def test_gen_K_gain_validation():
    with pytest.raises(FamilySpecError):
        gen_K_gain([1], [1, 1], 0, 0, 0, 0)
    with pytest.raises(FamilySpecError):
        gen_K_gain([1], [1, 1], 2, 1, 0, 0)
    with pytest.raises(FamilySpecError):
        gen_K_plain([1], [1, 1], 3)


def test_generators_match_pairwise_reference():
    rng = random.Random(2020)

    def sizes(low: int, high: int) -> list[int]:
        return [rng.randint(1, 4) for _ in range(rng.randint(low, high))]

    for _ in range(300):
        t = sizes(3, 3)
        assert gen_c3t(*t) == family_reference.c3t(*t), t
        parts = sizes(1, 6)
        assert gen_complete_multipartite(parts) == family_reference.multipartite(parts), parts
        order = rng.randint(3, 12)
        arcs = rng.sample(range(order), rng.randint(0, order))
        assert gen_cycle(order, arcs) == family_reference.cycle(order, arcs), (order, arcs)
        q, n = sizes(0, 4), sizes(1, 5)
        p = rng.randint(1, len(n))
        assert gen_K_plain(q, n, p) == family_reference.k_plain(q, n, p), (q, n, p)
        counts = [0, 0, 0, 0]
        for _ in range(rng.randint(1, len(n))):
            counts[rng.randrange(4)] += 1
        assert gen_K_gain(q, n, *counts) == family_reference.k_gain(q, n, *counts), (q, n, counts)
    for order in range(2, 40):
        assert gen_star(order) == family_reference.star(order)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: gen_cycle(4, [4]), "arc positions"),
        (lambda: gen_cycle(4, [-1]), "arc positions"),
        (lambda: gen_K_gain([1, 0], [1, 1], 1, 0, 0, 0), "q part sizes"),
        (lambda: gen_K_gain([1], [1, 0], 1, 0, 0, 0), "n part sizes"),
        (lambda: gen_K_plain([1], [], 1), "n part sizes"),
        (lambda: realize(FamilySpec("c3t", sizes=(1, 2))), "three part sizes"),
        (lambda: realize(FamilySpec("star", sizes=(2, 3))), "one order"),
        (lambda: realize(FamilySpec("cycle", sizes=(3, 4))), "one order"),
        (lambda: realize(FamilySpec("wheel", sizes=(5,))), "unknown family kind 'wheel'"),
        (lambda: format_family_spec(FamilySpec("wheel", sizes=(5,))), "unknown family kind 'wheel'"),
    ],
)
def test_family_errors(build, match):
    with pytest.raises(FamilySpecError, match=match):
        build()


def test_coalescence_p_bounds_on_random_pairs():
    rng = random.Random(17)
    for _ in range(60):
        a = random_graph(rng, 5, 0.6)
        b = random_graph(rng, 5, 0.6)
        va, vb = rng.randrange(a.n), rng.randrange(b.n)
        g = coalesce(a, va, b, vb)
        lower = inertia(delete_vertex(a, va)).p + inertia(delete_vertex(b, vb)).p
        upper = inertia(a).p + inertia(b).p
        assert lower <= inertia(g).p <= upper


def test_spec_round_trip():
    specs = [
        "c3t:2,1,1",
        "multipartite:3,2,1",
        "star:5",
        "cycle:6",
        "cycle:6;arcs=0,2",
        "K:q=3,2;n=3,1;p=2",
        "K:q=;n=2,2;p=1",
        "K:q=3,2;n=3,1;a=1,b=1,c=0,d=0",
        "coalesce:(c3t:1,1,1)@0+(star:4)@0",
    ]
    for text in specs:
        spec = parse_family_spec(text)
        assert format_family_spec(spec) == text
        realize(spec)


def test_nested_coalesce_round_trip_and_depth_cap():
    spec = "c3t:1,1,1"
    for depth in range(1, MAX_COALESCE_DEPTH + 2):
        spec = f"coalesce:(star:3)@1+({spec})@{depth % 3}"
        if depth in (5, 60, MAX_COALESCE_DEPTH):
            parsed = parse_family_spec(spec)
            assert format_family_spec(parsed) == spec
            assert realize(parsed).n == 3 + 2 * depth
    with pytest.raises(FamilySpecError, match="nest at most"):
        parse_family_spec(spec)


def test_realize_dispatch():
    assert realize(parse_family_spec("c3t:1,1,1")) == gen_c3t(1, 1, 1)
    assert realize(parse_family_spec("K:q=1,1;n=1,1;p=1")) == gen_K_plain([1, 1], [1, 1], 1)
    bowtie = realize(parse_family_spec("coalesce:(multipartite:1,1,1)@0+(multipartite:1,1,1)@0"))
    assert bowtie.n == 5 and len(bowtie.edges) == 6


def test_spec_parse_errors():
    for bad in (
        "c3t:1,1",
        "nope:3",
        "K:q=1,1;n=1,1",
        "K:q=1,1;n=1,1;a=1,b=1",
        "cycle:5;arms=1",
        "coalesce:c3t:1,1,1@0",
        "star:x",
    ):
        with pytest.raises(FamilySpecError):
            parse_family_spec(bad)


_FUZZ_SEEDS = (
    "coalesce:(c3t:1,1,1)@0+(star:4)@0",
    "coalesce:(multipartite:1,2)@1+(coalesce:(star:3)@1+(cycle:4;arcs=0,2)@2)@0",
    "coalesce:(coalesce:(c3t:2,1,1)@3+(K:q=1;n=2,1;p=1)@0)@2+(K:q=;n=1,1;a=1,b=0,c=1,d=0)@1",
    "K:q=3,2;n=3,1;p=2",
    "K:q=;n=2,2;a=1,b=1,c=0,d=0",
    "cycle:6;arcs=0,2,5",
)
_FUZZ_ALPHABET = "()+@,:;=-0123456789"


def _mutate(rng: random.Random, text: str) -> str:
    """One to four random insertions, deletions, replacements or swaps of characters."""
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(chars) + 1)
        op = rng.randrange(4) if i < len(chars) else 0
        if op == 0:
            chars.insert(i, rng.choice(_FUZZ_ALPHABET))
        elif op == 1:
            del chars[i]
        elif op == 2:
            chars[i] = rng.choice(_FUZZ_ALPHABET)
        else:
            j = rng.randrange(len(chars))
            chars[i], chars[j] = chars[j], chars[i]
    return "".join(chars)


def _parse_outcome(parse, text: str):
    try:
        return parse(text)
    except FamilySpecError as exc:
        return str(exc)


def test_spec_parser_matches_hand_counted_reference_on_fuzzed_specs():
    rng = random.Random(1515)
    parsed = 0
    for _ in range(20000):
        text = _mutate(rng, rng.choice(_FUZZ_SEEDS))
        got = _parse_outcome(parse_family_spec, text)
        assert got == _parse_outcome(reference_parse, text), text
        parsed += isinstance(got, FamilySpec)
    # Both outcomes are common, so each path of the scans is compared.
    assert 500 < parsed < 19500


def test_spec_parser_matches_reference_with_whitespace_and_deep_nesting():
    # Whitespace around pieces is stripped by offsets, so fuzz with it too.
    rng = random.Random(1616)
    for _ in range(5000):
        text = _mutate(rng, rng.choice(_FUZZ_SEEDS))
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(" \t\n\u3000") + text[i:]
        assert _parse_outcome(parse_family_spec, text) == _parse_outcome(reference_parse, text), text
    right = left = "star:3"
    for depth in range(1, MAX_COALESCE_DEPTH + 1):
        right = f"coalesce:(star:3)@1+( {right} )@{depth % 3}"
        left = f"coalesce:({left})@{depth % 3} + (star:3)@1"
    for text in (right, left, left + ")", "(" + left, left.replace("@1", "@", 1)):
        assert _parse_outcome(parse_family_spec, text) == _parse_outcome(reference_parse, text)


@pytest.mark.parametrize(
    "bad", ["star:--5", "star:²", "star:٣", "c3t:1,¹,1", "star:-", "K:q=1,1;n=1,1;p=--1"]
)
def test_spec_rejects_malformed_digit_tokens(bad):
    with pytest.raises(FamilySpecError, match="expected an integer"):
        parse_family_spec(bad)


def test_spec_accepts_one_leading_minus():
    # A negative count parses, then fails the family's own range check.
    spec = parse_family_spec("K:q=1,1;n=1,1;p=-1")
    assert spec.p == -1
    with pytest.raises(FamilySpecError, match="a\\+b\\+c\\+d"):
        realize(spec)
