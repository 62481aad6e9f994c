import itertools
import math
import random
import time

import numpy as np
import pytest

from hermitia import (
    HermitianMatrix,
    InertiaTriple,
    QuartGainGraph,
    UNIT_ONE,
    UNITS,
    classes_up_to,
    congruence,
    disjoint_union,
    eig_float,
    gen_c3t,
    gen_cycle,
    hermitian_matrix,
    inertia,
    inertia_exact,
    inertia_float,
    parse_graph,
)
from hermitia import spectra
from hermitia.graph_core import gain_grids, gaussian_matmul

from bareiss_reference import bareiss_inertia, graph_grids
from charpoly_reference import charpoly_inertia
from conftest import random_graph, timed_under_alarm
from fraction_kernel import inertia_fraction


def test_hermitian_matrix_single_edge():
    h = hermitian_matrix(parse_graph("n 2\nU 0 1"))
    assert (h.re, h.im) == (((0, 1), (1, 0)), ((0, 0), (0, 0)))


@pytest.mark.parametrize(
    "line, parts",
    [("U 0 1", (1, 0)), ("A 0 1", (0, 1)), ("G 0 1 -1", (-1, 0)), ("G 0 1 -i", (0, -1))],
    ids=["1", "i", "-1", "-i"],
)
def test_hermitian_matrix_arc(line, parts):
    # Each gain i**k sits at (0, 1) as its (re, im) parts, conjugated at (1, 0).
    h = hermitian_matrix(parse_graph(f"n 2\n{line}"))
    re, im = parts
    assert (h.re[0][1], h.im[0][1]) == (re, im)
    assert (h.re[1][0], h.im[1][0]) == (re, -im)
    assert h.re[0][0] == h.im[0][0] == h.re[1][1] == h.im[1][1] == 0


def test_hermitian_matrix_empty():
    h = hermitian_matrix(parse_graph("n 3"))
    assert h.n == 3
    assert h.re == h.im == ((0, 0, 0),) * 3


def test_hermitian_matrix_equals_the_checked_constructor_on_every_class_up_to_5():
    # hermitian_matrix skips the constructor's checks on the grids it builds.
    for g in itertools.chain([parse_graph("n 0")], classes_up_to(5)):
        h = hermitian_matrix(g)
        assert h == HermitianMatrix(*gain_grids(g)), g
        assert h.n == g.n
        assert type(h.re) is type(h.im) is tuple
        assert all(type(row) is tuple for row in h.re + h.im)


def test_hermitian_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        HermitianMatrix([[0, 1], [2, 0]], [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="Hermitian"):
        HermitianMatrix([[0]], [[1]])
    with pytest.raises(ValueError, match="square"):
        HermitianMatrix([[0, 1]], [[0, 0]])


def test_hermitian_matrix_rejects_non_integer_entries():
    # Unchecked, the kernel would answer (p=1, n=0, eta=1) for this
    # positive definite matrix.
    with pytest.raises(ValueError, match="matrix entry must be an integer, got 0.1"):
        HermitianMatrix([[0.1, 0], [0, 0.2]], [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="got True"):
        HermitianMatrix([[True, 0], [0, 1]], [[0, 0], [0, 0]])
    h = HermitianMatrix([[np.int64(2), np.int32(1)], [1, 0]], [[0, np.int8(-1)], [1, 0]])
    assert h == HermitianMatrix([[2, 1], [1, 0]], [[0, -1], [1, 0]])
    assert all(type(x) is int for grid in (h.re, h.im) for row in grid for x in row)
    with pytest.raises(ValueError, match="must be an integer"):
        congruence(h, [[0.5, 0], [0, 1]], [[0, 0], [0, 0]])


def test_inertia_exact_k3():
    g = parse_graph("n 3\nU 0 1\nU 0 2\nU 1 2")
    assert inertia_exact(hermitian_matrix(g)).as_tuple() == (1, 2, 0)


def test_inertia_exact_odd_triangle():
    g = parse_graph("n 3\nA 0 1\nU 1 2\nU 0 2")
    assert inertia_exact(hermitian_matrix(g)).as_tuple() == (1, 1, 1)


def test_inertia_exact_c3t_222():
    assert inertia_exact(hermitian_matrix(gen_c3t(2, 2, 2))).as_tuple() == (1, 1, 4)


def test_inertia_p2_and_c4():
    assert inertia(parse_graph("n 2\nU 0 1")).as_tuple() == (1, 1, 0)
    assert inertia(gen_cycle(4)).as_tuple() == (1, 1, 2)


def test_inertia_additive_over_components():
    p2 = parse_graph("n 2\nU 0 1")
    assert inertia(disjoint_union(p2, p2)).as_tuple() == (2, 2, 0)


def test_inertia_triple_arithmetic():
    t = InertiaTriple(1, 2, 3)
    assert t.rank == 3
    assert (t + InertiaTriple(1, 1, -1)).as_tuple() == (2, 3, 2)


def _cycle_spectrum(n: int, value_exponent: int) -> list[float]:
    # Closed form for a gain cycle whose value is i**value_exponent:
    # eigenvalues 2 cos((theta + 2 pi j) / n) with theta = value_exponent*pi/2.
    theta = value_exponent * math.pi / 2
    return sorted(2.0 * math.cos((theta + 2.0 * math.pi * j) / n) for j in range(n))


def test_eig_float_p2_and_k3():
    assert eig_float(hermitian_matrix(parse_graph("n 2\nU 0 1"))) == pytest.approx([-1.0, 1.0])
    k3 = parse_graph("n 3\nU 0 1\nU 0 2\nU 1 2")
    assert eig_float(hermitian_matrix(k3)) == pytest.approx([-1.0, -1.0, 2.0])


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
@pytest.mark.parametrize("arcs", [0, 1, 2, 3])
def test_eig_float_matches_cycle_closed_form(n, arcs):
    g = gen_cycle(n, range(arcs))
    got = eig_float(hermitian_matrix(g))
    assert got == pytest.approx(_cycle_spectrum(n, arcs % 4), abs=1e-9)


def test_eig_float_c4_spectrum():
    got = eig_float(hermitian_matrix(gen_cycle(4)))
    assert got == pytest.approx([-2.0, 0.0, 0.0, 2.0], abs=1e-9)


def test_inertia_float_examples():
    assert inertia_float(hermitian_matrix(parse_graph("n 2\nU 0 1")), 1e-9).as_tuple() == (1, 1, 0)
    assert inertia_float(hermitian_matrix(parse_graph("n 4")), 1e-9).as_tuple() == (0, 0, 4)
    empty = hermitian_matrix(parse_graph("n 0"))
    assert eig_float(empty) == []
    assert inertia_float(empty, 1e-9).as_tuple() == (0, 0, 0)
    odd = parse_graph("n 3\nA 0 1\nU 1 2\nU 0 2")
    assert inertia_float(hermitian_matrix(odd), 1e-9) == inertia_exact(hermitian_matrix(odd))
    with pytest.raises(ValueError):
        inertia_float(hermitian_matrix(odd), 0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_inertia_float_rejects_a_tol_outside_zero_to_infinity(tol):
    # NaN compares false both ways: "tol <= 0" let it through, and every
    # eigenvalue then counted as zero.
    h = hermitian_matrix(gen_c3t(1, 1, 1))
    assert inertia_float(h).as_tuple() == (1, 1, 1)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        inertia_float(h, tol)


def _threshold(eigs: list[float], tol: float) -> tuple[int, int, int]:
    cut = tol * max(1.0, max((abs(e) for e in eigs), default=0.0))
    p = sum(e > cut for e in eigs)
    n_neg = sum(e < -cut for e in eigs)
    return (p, n_neg, len(eigs) - p - n_neg)


def test_inertia_float_many_matches_inertia_float_per_matrix():
    # One eigvalsh per order on the stacked matrices of that order, the
    # answers back in input order, with every order from 0 to 10 mixed.
    rng = random.Random(1010)
    matrices = [hermitian_matrix(random_graph(rng, 10)) for _ in range(400)]
    matrices += [hermitian_matrix(parse_graph("n 0")), hermitian_matrix(gen_cycle(8))]
    assert {h.n for h in matrices} == set(range(11))
    for tol in (1e-9, 1e-3):
        got = spectra.inertia_float_many(matrices, tol)
        assert got == [inertia_float(h, tol) for h in matrices]
        assert [t.as_tuple() for t in got] == [_threshold(eig_float(h), tol) for h in matrices]
    assert spectra.inertia_float_many([], 1e-9) == []
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        spectra.inertia_float_many(matrices, math.nan)


def test_oracle_agreement_sample():
    rng = random.Random(99)
    for _ in range(400):
        g = random_graph(rng, 8)
        h = hermitian_matrix(g)
        assert inertia_exact(h) == inertia_float(h, 1e-9)


def test_exact_matches_numpy_eigvalsh_sample():
    # Third-party cross-check on top of the in-repo oracle pair.
    rng = random.Random(7)
    for _ in range(100):
        g = random_graph(rng, 7)
        h = hermitian_matrix(g)
        eigs = np.linalg.eigvalsh(h.to_complex_array())
        p = int((eigs > 1e-9).sum())
        n_neg = int((eigs < -1e-9).sum())
        assert inertia_exact(h).as_tuple() == (p, n_neg, g.n - p - n_neg)


def _numpy_inertia(g) -> tuple[int, int, int]:
    eigs = np.linalg.eigvalsh(hermitian_matrix(g).to_complex_array())
    tol = 1e-9 * max(1.0, float(np.abs(eigs).max(initial=0.0)))
    p = int((eigs > tol).sum())
    n_neg = int((eigs < -tol).sum())
    return (p, n_neg, g.n - p - n_neg)


def _random_bipartite(rng: random.Random, a: int, b: int, edge_prob: float) -> QuartGainGraph:
    edges = [
        (u, v, rng.choice(UNITS))
        for u in range(a)
        for v in range(a, a + b)
        if rng.random() < edge_prob
    ]
    return QuartGainGraph(a + b, edges)


def _assert_kernels_agree(g) -> int:
    """inertia, inertia_exact, the Fraction kernel and the exact-division
    referee agree on g; returns the referee's count of zero-diagonal steps
    taken after a pivot, where Bareiss's divisor q is already above 1."""
    h = hermitian_matrix(g)
    want = inertia_fraction(h)
    assert inertia_exact(h) == want, g
    assert inertia(g) == want, g
    refereed, late_zero_steps = bareiss_inertia(*graph_grids(g))
    assert refereed == want.as_tuple(), g
    return late_zero_steps


def test_kernel_matches_fraction_reference_random():
    rng = random.Random(31337)
    for _ in range(3000):
        _assert_kernels_agree(random_graph(rng, 10))


def test_kernel_matches_fraction_reference_all_classes_up_to_5():
    for g in classes_up_to(5):
        _assert_kernels_agree(g)


def test_inertia_matches_charpoly_referee_all_classes_up_to_5():
    for g in classes_up_to(5):
        assert inertia(g).as_tuple() == charpoly_inertia(g), g


def test_inertia_matches_charpoly_referee_orders_12_to_24(monkeypatch):
    # From order 16 (CERT_ORDER) up, inertia tries the float certificate
    # first; the referee reads chi(x) and eliminates nothing.
    answers = []
    certify = spectra._certified_signature

    def counted(*arrays):
        answers.append(certify(*arrays))
        return answers[-1]

    monkeypatch.setattr(spectra, "_certified_signature", counted)
    rng = random.Random(1224)
    singular = 0
    for n in range(12, 25):
        for density in (0.1, 0.2, 0.5, 0.9):
            pairs = [pair for pair in itertools.combinations(range(n), 2) if rng.random() < density]
            g = QuartGainGraph(n, [(u, v, rng.choice(UNITS)) for u, v in pairs])
            want = charpoly_inertia(g)
            assert inertia(g).as_tuple() == want, g
            singular += want[2] > 0
    # Both certificate outcomes are refereed: proved, and declined (the
    # kernel then answers).
    assert singular >= 15
    assert sum(answer is not None for answer in answers) >= 20
    assert None in answers


def _zero_diagonal_corpus():
    # Every H(G) starts with a zero diagonal, and a pivot keeps it zero away
    # from the pivot's neighbours, so on matchings, trees and even cycles the
    # kernel takes a 2x2 step, and the referee a zero-diagonal step, every
    # few vertices.
    rng = random.Random(4242)
    for _ in range(300):
        n = rng.randint(2, 12)
        perm = rng.sample(range(n), n)
        tree = [(perm[rng.randrange(v)], perm[v], rng.choice(UNITS)) for v in range(1, n)]
        yield QuartGainGraph(n, tree)
        matching = [(perm[2 * i], perm[2 * i + 1], rng.choice(UNITS)) for i in range(n // 2)]
        yield QuartGainGraph(n, matching)
        a, b = rng.randint(1, 6), rng.randint(1, 6)
        yield _random_bipartite(rng, a, b, rng.choice([0.3, 0.6, 1.0]))
    for n in (4, 6, 8, 10, 12):
        for arcs in range(4):
            yield gen_cycle(n, range(arcs))


def test_kernel_matches_fraction_reference_zero_diagonal():
    assert sum(map(_assert_kernels_agree, _zero_diagonal_corpus())) > 100


def test_bareiss_referee_on_bipartite_up_to_40():
    rng = random.Random(40)
    late_zero_steps = 0
    for _ in range(40):
        a = rng.randint(1, 39)
        g = _random_bipartite(rng, a, rng.randint(1, 40 - a), rng.choice([0.1, 0.3, 0.6, 1.0]))
        late_zero_steps += _assert_kernels_agree(g)
    assert late_zero_steps > 0


def test_kernel_matches_fraction_reference_rational_congruence():
    # S has entries in Q(i) with denominators 1..5; 60 S lies in Z[i] and
    # 60^2 S* H S has the inertia of S* H S.
    rng = random.Random(777)
    for _ in range(200):
        g = random_graph(rng, 6)
        h = hermitian_matrix(g)
        s_re, s_im = [], []
        for _ in range(g.n):
            row_re, row_im = [], []
            for _ in range(g.n):
                row_re.append(60 * rng.randint(-4, 4) // rng.randint(1, 5))
                row_im.append(60 * rng.randint(-4, 4) // rng.randint(1, 5))
            s_re.append(row_re)
            s_im.append(row_im)
        c = congruence(h, s_re, s_im)
        assert inertia_exact(c) == inertia_fraction(c)
        assert bareiss_inertia(c.re, c.im)[0] == inertia_fraction(c).as_tuple()


def _random_tree(rng: random.Random, n: int) -> QuartGainGraph:
    return QuartGainGraph(n, [(rng.randrange(v), v, rng.choice(UNITS)) for v in range(1, n)])


def _random_sparse(rng: random.Random, n: int, m: int) -> QuartGainGraph:
    """A random gain graph of order n with m edges."""
    pairs = set()
    while len(pairs) < m:
        pairs.add(tuple(sorted(rng.sample(range(n), 2))))
    return QuartGainGraph(n, [(u, v, rng.choice(UNITS)) for u, v in sorted(pairs)])


def _grid(width: int) -> QuartGainGraph:
    """The width x width grid graph, every gain 1."""
    n = width * width
    edges = [(v, v + 1, UNIT_ONE) for v in range(n) if (v + 1) % width]
    edges += [(v, v + width, UNIT_ONE) for v in range(n - width)]
    return QuartGainGraph(n, edges)


def _sparse_corpus():
    # The kernel pivots by fewest nonzeros, and trees, even cycles and
    # sparse bipartite graphs keep running out of nonzero diagonal entries,
    # so 2x2 steps meet rows that the last steps missed.  The unions of order 100 and 200 reach the kernel
    # whole through inertia_exact and per component through inertia.
    rng = random.Random(16200)
    for n in (16, 17, 19, 22, 26, 30, 36, 48):
        yield _random_tree(rng, n)
        yield _random_sparse(rng, n, n + n // 4)
        yield _random_bipartite(rng, n // 2, n - n // 2, 3 / n)
        yield gen_cycle(2 * (n // 2), rng.sample(range(2 * (n // 2)), 2 * rng.randint(0, 2)))
    for n in (100, 200):
        parts = []
        while sum(part.n for part in parts) < n - 30:
            m = rng.randint(3, 30)
            parts.append(_random_tree(rng, m) if rng.random() < 0.5 else _random_sparse(rng, m, m))
        parts.append(gen_cycle(n - sum(part.n for part in parts)))
        union = parts[0]
        for part in parts[1:]:
            union = disjoint_union(union, part)
        yield union


def test_kernel_matches_referees_on_sparse_orders_16_to_200():
    singular = charpoly_checked = 0
    for g in _sparse_corpus():
        want = inertia_fraction(hermitian_matrix(g))
        assert inertia_exact(hermitian_matrix(g)) == want, g
        assert inertia(g) == want, g
        if g.n <= 30:
            assert charpoly_inertia(g) == want.as_tuple(), g
            charpoly_checked += 1
        singular += want.eta > 0
    assert charpoly_checked >= 20
    assert singular >= 25


def _sparse_integer_matrix(rng: random.Random, n: int, diagonal: float) -> HermitianMatrix:
    """About three entries a row, Gaussian integers with parts in -3..3, and
    a nonzero diagonal entry in a share ``diagonal`` of the rows."""
    re = [[0] * n for _ in range(n)]
    im = [[0] * n for _ in range(n)]
    for s in range(n):
        if rng.random() < diagonal:
            re[s][s] = rng.choice([-3, -2, -1, 1, 2, 3])
    for _ in range(3 * n // 2):
        s, t = rng.sample(range(n), 2)
        re[s][t] = re[t][s] = rng.randint(-3, 3)
        im[s][t] = rng.randint(-3, 3)
        im[t][s] = -im[s][t]
    return HermitianMatrix(re, im)


def test_kernel_matches_fraction_reference_on_sparse_integer_matrices():
    # Unlike a graph's, these pivots grow well past 1, so a row that is not
    # brought up to date before it is read gives a wrong answer.  With a
    # zero diagonal, 2x2 steps read such rows too.
    rng = random.Random(3316)
    singular = 0
    for n in (16, 18, 21, 25, 30, 36, 44, 60):
        for diagonal in (0.0, 0.0, 0.3):
            h = _sparse_integer_matrix(rng, n, diagonal)
            want = inertia_fraction(h)
            assert inertia_exact(h) == want
            singular += want.eta > 0
    assert singular >= 5


def test_exact_matches_numpy_orders_8_to_24():
    rng = random.Random(824)
    for _ in range(120):
        n = rng.randint(8, 24)
        p = rng.choice([0.2, 0.35, 0.5, 0.8])
        edges = [
            (u, v, rng.choice(UNITS))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        g = QuartGainGraph(n, edges)
        assert inertia(g).as_tuple() == _numpy_inertia(g)
        assert inertia_exact(hermitian_matrix(g)).as_tuple() == _numpy_inertia(g)


def test_exact_matches_numpy_bipartite_up_to_60():
    # These take 2x2 steps at every order.  A kernel whose divisor there is
    # too small lets the entries grow without bound instead of failing, so a
    # timer signal stops the loop, which takes well under 1 s.
    rng = random.Random(60)
    graphs = []
    for _ in range(40):
        a = rng.randint(1, 30)
        b = rng.randint(1, 30)
        graphs.append(_random_bipartite(rng, a, b, rng.choice([0.1, 0.3, 0.6])))
    got, _ = timed_under_alarm(
        lambda: [inertia(g).as_tuple() for g in graphs], "inertia of bipartite graphs up to order 60"
    )
    assert got == [_numpy_inertia(g) for g in graphs]


def _dense_graph(n: int) -> QuartGainGraph:
    rng = random.Random(n)
    edges = [
        (u, v, rng.choice(UNITS)) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.9
    ]
    return QuartGainGraph(n, edges)


def _hadamard_tight(m: int) -> HermitianMatrix:
    """[[0, F], [F*, 0]] with F = [[1, i], [i, 1]] to the m-th Kronecker
    power: F[r][c] = i^popcount(r xor c)."""
    half = 1 << m
    parts = ((1, 0), (0, 1), (-1, 0), (0, -1))
    re = [[0] * 2 * half for _ in range(2 * half)]
    im = [[0] * 2 * half for _ in range(2 * half)]
    for r in range(half):
        for c in range(half):
            a, b = parts[bin(r ^ c).count("1") % 4]
            re[r][half + c] = re[half + c][r] = a
            im[r][half + c], im[half + c][r] = b, -b
    return HermitianMatrix(re, im)


@pytest.mark.parametrize("m", range(1, 7))
def test_kernel_on_input_that_meets_hadamards_bound(m):
    # The kernel packs a + b*i as a + b*2^K, with K from Hadamard's bound
    # on the rows, and decodes pivot-column entries, which are minors.
    # Here H^2 = 2^m I, so every row has squared norm 2^m and |det H| meets
    # the bound: the minors are as large as the packing must hold.  At order
    # 128 K is 386, and a K of 367 or less breaks the run.
    h = _hadamard_tight(m)
    order = 2 << m
    re, im = (np.array(grid, dtype=object) for grid in (h.re, h.im))
    square_re, square_im = gaussian_matmul(re, im, re, im)
    assert square_re.tolist() == [[(1 << m) * (r == c) for c in range(order)] for r in range(order)]
    assert not square_im.any()
    got, elapsed = timed_under_alarm(
        lambda: inertia_exact(h), f"exact kernel on a Hadamard-tight matrix of order {order}", time.process_time
    )
    assert got.as_tuple() == (1 << m, 1 << m, 0)
    assert elapsed < 1.0


def test_inertia_dense_order_64_is_fast():
    # The exact division by the previous pivot keeps every entry a minor of
    # the matrix, so Hadamard's bound caps its size.  Without a division the
    # entries grow doubly exponentially: order 24 already takes seconds and
    # order 64 does not finish, so a timer signal stops the call early.
    g = _dense_graph(64)
    got, elapsed = timed_under_alarm(lambda: inertia(g), "inertia of a dense order-64 graph")
    assert got.as_tuple() == _numpy_inertia(g)
    assert elapsed < 1.0


def test_inertia_dense_order_128_is_fast():
    # One order up the cubic step count and the growing minors compound:
    # a dense order-128 graph takes under a second with the exact division.
    g = _dense_graph(128)
    got, elapsed = timed_under_alarm(lambda: inertia(g), "inertia of a dense order-128 graph")
    assert got.as_tuple() == _numpy_inertia(g)
    assert elapsed < 5.0


def _kernel_refused(rows, k):
    raise AssertionError("exact kernel entered")


def test_inertia_dense_order_256_is_certified_fast(monkeypatch):
    # The exact kernel takes about 15 s here; the congruence guessed from a
    # float eigenbasis and checked in exact integers takes well under 1 s.
    # The kernel must not run at all, and the bound is on this process's
    # CPU time, so other processes on the machine cannot fail it; a cold
    # process's one-off LAPACK warm-up costs about 1.1 s of it.
    g = _dense_graph(256)
    monkeypatch.setattr(spectra, "_signature", _kernel_refused)
    got, elapsed = timed_under_alarm(
        lambda: inertia(g), "inertia of a dense order-256 graph", time.process_time
    )
    assert got.as_tuple() == _numpy_inertia(g)
    assert elapsed < 2.0


def test_exact_kernel_dense_order_64_is_fast(monkeypatch):
    # inertia certifies dense order 64 without the kernel, so the kernel's
    # own guard calls it directly: without the exact division by the
    # previous pivot its entries grow doubly exponentially.  The bound is
    # on this process's CPU time, as above, and the kernel must run once.
    g = _dense_graph(64)
    h = hermitian_matrix(g)
    entered = []
    kernel = spectra._signature
    monkeypatch.setattr(spectra, "_signature", lambda rows, k: entered.append(1) or kernel(rows, k))
    got, elapsed = timed_under_alarm(
        lambda: inertia_exact(h), "exact kernel on a dense order-64 matrix", time.process_time
    )
    assert entered == [1]
    assert got.as_tuple() == _numpy_inertia(g)
    assert elapsed < 1.0


# Singular sparse inputs of order 1024 (MAX_ORDER).  Through inertia the
# cycle and the tree go straight to the kernel (see the test below), and the
# certificate declines the grid and the random graph before the kernel
# answers them.  Rescaling every row the pivot column misses at every pivot
# costs 38-50 s of CPU on each; bringing rows up to date only where they are
# read, pivoting by fewest nonzeros and taking 2x2 steps on a zero diagonal,
# takes under 1 s.  The bound is on the kernel alone: at this order the
# certificate's eigh costs about 1.4 s of CPU by itself.
_SPARSE_GUARDS = {
    "cycle1024": lambda: gen_cycle(1024),
    "grid32x32": lambda: _grid(32),
    "tree1024": lambda: _random_tree(random.Random(1024), 1024),
    "random1024": lambda: _random_sparse(random.Random(1536), 1024, 1536),
}


@pytest.mark.parametrize("name", sorted(_SPARSE_GUARDS))
def test_exact_kernel_sparse_order_1024_is_fast(name):
    g = _SPARSE_GUARDS[name]()
    h = hermitian_matrix(g)
    got, elapsed = timed_under_alarm(
        lambda: inertia_exact(h), f"exact kernel on {name}", time.process_time
    )
    assert got.as_tuple() == _numpy_inertia(g)
    assert got.eta > 0
    assert elapsed < 2.0


def test_inertia_sends_trees_and_cycles_straight_to_the_kernel(monkeypatch):
    # A component with no more edges than vertices never reaches the
    # certificate, whose eigh alone takes about three times as long as the
    # kernel at order 1024, whether it then declines or not.
    def forbidden(*arrays):
        raise AssertionError("the certificate ran on a tree or a cycle")

    monkeypatch.setattr(spectra, "_certified_signature", forbidden)
    assert inertia(gen_cycle(1024)).as_tuple() == (511, 511, 2)
    assert inertia(gen_cycle(1024, range(1))).as_tuple() == (512, 512, 0)
    tree = _SPARSE_GUARDS["tree1024"]()
    assert inertia(tree).as_tuple() == _numpy_inertia(tree)


def test_float_referee_dense_orders_32_to_128():
    # The referee must stay cheap next to the exact kernel at large orders; a
    # hand-rolled Python eigensolver needs seconds at order 128, so a timer
    # signal stops the referee calls early.
    graphs = [_dense_graph(n) for n in (32, 64, 128)]
    got, elapsed = timed_under_alarm(
        lambda: [inertia_float(hermitian_matrix(g)) for g in graphs],
        "float referee on dense orders 32-128",
    )
    assert got == [inertia(g) for g in graphs]
    assert elapsed < 1.0


def test_congruence_invariance_fixed():
    g = parse_graph("n 3\nA 0 1\nU 1 2\nU 0 2")
    h = hermitian_matrix(g)
    # S = [[1, i, 2], [0, 1, 1 - i], [0, 0, -1]]
    s_re = [[1, 0, 2], [0, 1, 1], [0, 0, -1]]
    s_im = [[0, 1, 0], [0, 0, -1], [0, 0, 0]]
    assert inertia_exact(congruence(h, s_re, s_im)) == inertia_exact(h)


def test_congruence_shape_check():
    h = hermitian_matrix(parse_graph("n 2\nU 0 1"))
    with pytest.raises(ValueError):
        congruence(h, [[1]], [[0]])


def _congruence_by_definition(h_re, h_im, s_re, s_im):
    """(S* H S)_ij as the sum of conj(S_ki) H_kl S_lj, in Python ints."""
    n = len(h_re)
    re = [[0] * n for _ in range(n)]
    im = [[0] * n for _ in range(n)]
    for i, j, k, l in itertools.product(range(n), repeat=4):
        ar, ai = s_re[k][i], -s_im[k][i]
        br = ar * h_re[k][l] - ai * h_im[k][l]
        bi = ar * h_im[k][l] + ai * h_re[k][l]
        re[i][j] += br * s_re[l][j] - bi * s_im[l][j]
        im[i][j] += br * s_im[l][j] + bi * s_re[l][j]
    return re, im


@pytest.mark.parametrize("n", range(9))
def test_congruence_is_exact_beyond_int64(n):
    rng = random.Random(4100 + n)

    def big() -> int:
        return rng.randint(-(2**70), 2**70)

    for _ in range(3):
        h_re = [[0] * n for _ in range(n)]
        h_im = [[0] * n for _ in range(n)]
        for s in range(n):
            h_re[s][s] = big()
            for t in range(s + 1, n):
                h_re[s][t] = h_re[t][s] = big()
                h_im[s][t] = big()
                h_im[t][s] = -h_im[s][t]
        s_re = [[big() for _ in range(n)] for _ in range(n)]
        s_im = [[big() for _ in range(n)] for _ in range(n)]
        got = congruence(HermitianMatrix(h_re, h_im), s_re, s_im)
        assert got == HermitianMatrix(*_congruence_by_definition(h_re, h_im, s_re, s_im))
        assert all(type(x) is int for row in got.re + got.im for x in row)
        assert n == 0 or max(abs(x) for row in got.re for x in row) > 2**63
