"""Acceptance battery.

Each test enforces one acceptance criterion at its stated tolerance and
prints a single PASS line (pytest -s shows them; a failure raises).  The
heavyweight corpora make this module the slowest in the suite; everything
is deterministic, seeds included.
"""

from __future__ import annotations

import random
import time

import pytest

from hermitia import (
    QuartGainGraph,
    UNITS,
    apply_switch,
    converse,
    cycle_signature,
    gen_c3t,
    gen_cycle,
    gen_K_gain,
    hermitian_matrix,
    inertia,
    inertia_exact,
    inertia_float,
    switching_equivalent,
    tree_normalize,
    verify_suite,
)

from conftest import brute_force_equivalent, random_graph, random_switch


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_oracle_equivalence():
    rng = random.Random(20260810)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(10000):
        g = random_graph(rng, 10)
        h = hermitian_matrix(g)
        if inertia_exact(h) != inertia_float(h, 1e-9):
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    _report("1 oracle equivalence", f"10000 graphs, 0 mismatches, {elapsed:.1f}s")


def _expected_cycle_nullity(n: int, sigma: int) -> int:
    if n % 2 == 1:
        return 1 if sigma % 2 == 1 else 0
    if sigma % 2 == 1:
        return 0
    return 2 if (n + sigma) % 4 == 0 else 0


def test_criterion_2_cycle_nullity_table():
    checked = 0
    for n in range(3, 13):
        for arcs in range(0, n + 1):
            g = gen_cycle(n, range(arcs))
            sigma = cycle_signature(g, tuple(range(n)))
            assert sigma == arcs
            assert inertia(g).eta == _expected_cycle_nullity(n, sigma)
            checked += 1
    _report("2 cycle nullity table", f"{checked} cycles, orders 3..12")


def test_criterion_3_c3t_rank():
    for t1 in range(1, 5):
        for t2 in range(1, 5):
            for t3 in range(1, 5):
                assert inertia(gen_c3t(t1, t2, t3)).rank == 2
    _report("3 blown-up odd triangle rank", "64 instances, rank 2 exact")


def test_criterion_4_predicate_sweeps():
    for name in ("lem38", "cor39", "lem310"):
        report = verify_suite(name)
        assert report.passed, report.failures[:5]
    _report("4 predicate sweeps", "lem38, cor39, lem310: 100% agreement")


def test_criterion_5_figure_instances():
    first = gen_K_gain([3, 2], [3, 1], 1, 1, 0, 0)
    assert inertia(first).p == 2
    # Second instance: two gain-i parts, one gain-1 part, one skipped
    # singleton part; satisfies the a >= 2, c = 1 closed-form condition.
    second = gen_K_gain([2, 2, 2], [2, 2, 2, 1], 2, 0, 1, 0)
    assert inertia(second).p == 2
    _report("5 worked examples", "both apex instances have p = 2")


def test_criterion_6_thm11_exhaustive():
    start = time.perf_counter()
    report = verify_suite("thm11", n=5)
    elapsed = time.perf_counter() - start
    assert report.passed, report.failures[:5]
    _report(
        "6 pendant characterization",
        f"{report.checked} classes on <= 5 vertices, 0 failures, {elapsed:.1f}s",
    )


def test_criterion_7_thm12_exhaustive():
    report5 = verify_suite("thm12", n=5)
    assert report5.passed, report5.failures[:5]
    report6 = verify_suite("thm12", n=6)
    assert report6.passed, report6.failures[:5]
    _report(
        "7 cut-vertex characterization",
        f"{report5.checked} classes at n <= 5 and {report6.checked} at n <= 6, 0 failures",
    )


# pendant, interlacing, cutvertex, p1, twins and twin_rank3 run at n = 5,
# their default order, in test_certified_inertia's
# test_law_suites_stay_on_the_exact_kernel, which also pins their checked
# counts; running them here again would only repeat it.
@pytest.mark.parametrize("suite", ["sylvester", "coalescence_bounds", "lem311"])
def test_criterion_8_law_suites(suite):
    report = verify_suite(suite, n=5)
    assert report.passed, report.failures[:5]
    _report(f"8 suite {suite}", f"{report.checked} instances, 0 failures")


def test_criterion_9_canonicalization_soundness():
    rng = random.Random(424242)
    for _ in range(1000):
        g = random_graph(rng, 7)
        theta = random_switch(rng, g.n)
        assert tree_normalize(apply_switch(g, theta)).graph == tree_normalize(g).graph
    checked = 0
    for _ in range(300):
        g1 = random_graph(rng, 5)
        style = rng.random()
        if style < 0.35:
            g2 = apply_switch(g1, random_switch(rng, g1.n))
        elif style < 0.55:
            g2 = converse(apply_switch(g1, random_switch(rng, g1.n)))
        else:
            g2 = QuartGainGraph(
                g1.n, [(u, v, rng.choice(UNITS)) for u, v, _ in g1.edges]
            )
        assert switching_equivalent(g1, g2) == brute_force_equivalent(g1, g2)
        checked += 1
    _report(
        "9 canonicalization",
        f"1000 switch pairs invariant; {checked} equivalence queries match brute force",
    )
