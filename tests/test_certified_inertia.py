"""The route ``inertia`` takes for graphs of order ``CERT_ORDER`` and up.

Such a graph is twin-reduced once, which merges all its isolated vertices
into one.  On each component of the reduced graph of order ``CERT_ORDER``
and up, ``spectra._certified_signature`` then tries to prove its inertia
from a float eigenbasis checked by an exact congruence; the exact kernel
answers the other components and those it declines.  The referee is the
rational kernel in ``fraction_kernel``, which shares no code with either
step.  The law suites that test the twin law or the kernel must never
reach this route, or they would check a law with itself.
"""

from __future__ import annotations

import random

import pytest

from hermitia import (
    InertiaTriple,
    QuartGainGraph,
    UNITS,
    coalesce,
    disjoint_union,
    gen_c3t,
    gen_complete_multipartite,
    gen_cycle,
    gen_K_gain,
    hermitian_matrix,
    inertia,
    inertia_exact,
    relabel,
    verify_suite,
)
from hermitia import spectra
from hermitia.graph_core import gain_arrays

from fraction_kernel import inertia_fraction


def _random(rng: random.Random, n: int, density: float) -> QuartGainGraph:
    return QuartGainGraph(
        n,
        [(u, v, rng.choice(UNITS)) for u in range(n) for v in range(u + 1, n) if rng.random() < density],
    )


def _with_twins(rng: random.Random, base: QuartGainGraph, extra: int) -> QuartGainGraph:
    """``base`` plus ``extra`` new vertices, each a unit multiple of the row
    of a random base vertex, so the twin reduction gives ``base`` back."""
    edges = list(base.edges)
    for w in range(base.n, base.n + extra):
        u, alpha = rng.randrange(base.n), rng.choice(UNITS)
        edges += [(w, x, (alpha + base.gain(u, x)) % 4) for x in base.neighbors(u)]
    return QuartGainGraph(base.n + extra, edges)


def _path(n: int, rng: random.Random) -> QuartGainGraph:
    return QuartGainGraph(n, [(v, v + 1, rng.choice(UNITS)) for v in range(n - 1)])


def _tree(n: int, rng: random.Random) -> QuartGainGraph:
    return QuartGainGraph(n, [(rng.randrange(v), v, rng.choice(UNITS)) for v in range(1, n)])


def _cycle_nullity(n: int, sigma: int) -> int:
    """The cycle nullity table: eta of a mixed n-cycle with signature sigma."""
    if n % 2 == 1:
        return sigma % 2
    return 2 if sigma % 2 == 0 and (n + sigma) % 4 == 0 else 0


def _corpus() -> list[tuple[str, QuartGainGraph]]:
    rng = random.Random(1416)
    corpus = []
    for density in (0.1, 0.2, 0.35, 0.5, 0.7, 0.9):
        n = rng.randint(16, 48 if density <= 0.35 else 32)
        corpus.append((f"random n={n} p={density}", _random(rng, n, density)))
    for _ in range(4):
        base = _random(rng, rng.randint(16, 22), rng.choice((0.3, 0.6)))
        corpus.append((f"twinned random n={base.n}", _with_twins(rng, base, rng.randint(2, 10))))
    for n in (16, 17, 31, 48):
        corpus.append((f"path {n}", _path(n, rng)))
        corpus.append((f"tree {n}", _tree(n, rng)))
    # (n, sigma) with eta 2, 2, 2, 0 and 1 by the table.
    for n, sigma in ((16, 0), (18, 2), (24, 4), (20, 2), (33, 1)):
        corpus.append((f"cycle {n} sigma={sigma}", gen_cycle(n, range(sigma))))
    c3t = gen_c3t(5, 6, 7)
    multipartite = gen_complete_multipartite((3, 4, 5, 6))
    k_gain = gen_K_gain((3, 4), (2, 3, 5), 1, 1, 1, 0)
    corpus += [
        ("c3t 5,6,7", c3t),
        ("multipartite 3,4,5,6", multipartite),
        ("K q=3,4 n=2,3,5 a=b=c=1", k_gain),
        ("K:c3t coalescence", coalesce(k_gain, 0, c3t, 3)),
        ("multipartite:cycle coalescence", coalesce(multipartite, 2, gen_cycle(16, (0, 5)), 0)),
        ("random:c3t coalescence", coalesce(_random(rng, 18, 0.4), 0, c3t, 0)),
    ]
    return corpus


CORPUS = _corpus()


@pytest.fixture(scope="module")
def refereed():
    return [(name, g, inertia_fraction(hermitian_matrix(g))) for name, g in CORPUS]


def test_inertia_matches_fraction_kernel(refereed):
    for name, g, expected in refereed:
        assert inertia(g) == expected, name
        if name.startswith("cycle"):
            n, sigma = g.n, int(name.split("=")[1])
            assert expected.eta == _cycle_nullity(n, sigma), name


def test_certificate_declines_every_singular_matrix(refereed):
    accepted = 0
    for name, g, expected in refereed:
        got = spectra._certified_signature(*gain_arrays(g))
        if expected.eta:
            assert got is None, name
        elif got is not None:
            assert got == expected, name
            accepted += 1
    # The certificate must carry most nonsingular inputs, or the test above
    # would only exercise the kernel.
    nonsingular = sum(1 for _, _, expected in refereed if not expected.eta)
    assert accepted * 2 > nonsingular


def test_certificate_declines_singular_cycle_before_any_product(monkeypatch):
    # cycle:1024 is singular (eta 2).  Its eigenvalues from eigh already
    # show it, so S is never rounded and neither product of S* H S is
    # computed; a nonsingular input still takes both.
    calls = []
    matmul = spectra.gaussian_matmul
    monkeypatch.setattr(spectra, "gaussian_matmul", lambda *parts: calls.append(1) or matmul(*parts))
    assert spectra._certified_signature(*gain_arrays(gen_cycle(1024))) is None
    assert calls == []
    assert spectra._certified_signature(*gain_arrays(gen_cycle(20, range(2)))) == InertiaTriple(10, 10, 0)
    assert len(calls) == 2


# Twin-rich components: two small ones, and one of order 16 whose twin
# reduction, K4, falls below CERT_ORDER.
TWIN_RICH = (gen_c3t(1, 2, 2), gen_complete_multipartite((2, 3)), gen_complete_multipartite((4, 4, 4, 4)))


def _disconnected(rng: random.Random) -> QuartGainGraph:
    """One component of order 16-24 (twin-free or with twins), one to three
    small components of order 2-5, up to three of ``TWIN_RICH`` and up to
    five isolated vertices, with every vertex relabeled at random so the
    components interleave."""
    big = _random(rng, rng.randint(16, 20), rng.choice((0.3, 0.5, 0.8)))
    if rng.random() < 0.5:
        big = _with_twins(rng, big, rng.randint(1, 4))
    parts = [big] + [_random(rng, rng.randint(2, 5), 0.7) for _ in range(rng.randint(1, 3))]
    parts += rng.sample(TWIN_RICH, rng.randint(0, 3))
    parts += [QuartGainGraph(1)] * rng.randint(0, 5)
    g = parts[0]
    for part in parts[1:]:
        g = disjoint_union(g, part)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def test_inertia_of_disconnected_graphs_matches_fraction_kernel():
    rng = random.Random(1815)
    for _ in range(40):
        g = _disconnected(rng)
        assert inertia(g) == inertia_fraction(hermitian_matrix(g)), g


def _signed_graphs(rng: random.Random):
    """Trees, random graphs and complete bipartite graphs of order 16-30
    with gains +-1.  H is real, so D's off-diagonal weight sits mostly in
    its real part, and the check must count it."""
    for trial in range(300):
        n = rng.randint(16, 30)
        if trial % 3 == 0:
            yield QuartGainGraph(n, [(rng.randrange(v), v, rng.choice((0, 2))) for v in range(1, n)])
        elif trial % 3 == 1:
            yield QuartGainGraph(
                n,
                [(u, v, rng.choice((0, 2))) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3],
            )
        else:
            a = rng.randint(2, n - 2)
            yield QuartGainGraph(n, [(u, v, 0) for u in range(a) for v in range(a, n)])


def test_certificate_declines_singular_signed_graphs():
    singular = 0
    for g in _signed_graphs(random.Random(3)):
        if inertia_exact(hermitian_matrix(g)).eta:
            singular += 1
            assert spectra._certified_signature(*gain_arrays(g)) is None, g
    assert singular > 150


# Default checked counts, the same as ``hermitia verify --all --json``.
LAW_SUITE_COUNTS = {
    "twins": 30339,
    "twin_rank3": 6087,
    "pendant": 142,
    "interlacing": 30332,
    "cutvertex": 175,
    "p1": 6989,
    "thm11": 123,
    "thm12": 432,
}


@pytest.mark.parametrize("suite", sorted(LAW_SUITE_COUNTS))
def test_law_suites_stay_on_the_exact_kernel(suite, monkeypatch):
    def forbidden(*args):
        raise AssertionError("a law suite left the exact kernel")

    monkeypatch.setattr(spectra, "twin_reduction", forbidden)
    monkeypatch.setattr(spectra, "_certified_signature", forbidden)
    report = verify_suite(suite)
    assert report.passed, report.failures[:5]
    assert report.checked == LAW_SUITE_COUNTS[suite]
