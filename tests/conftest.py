"""Shared test helpers: graph strategies and brute-force oracles.

The brute-force switching oracle here deliberately avoids the library's
canonical-form machinery: it enumerates raw switch assignments (anchored at
one vertex per component) and compares graphs directly, so it can referee
``switching_equivalent``.  ``timed_under_alarm`` bounds the speed guards.
Importing this module imports ``hermitia`` before numpy, so numpy's BLAS
runs one thread, as in ``perfbench/run.py``, and a busy machine cannot stall
a timed test on OpenBLAS's thread pool.
"""

from __future__ import annotations

import itertools
import random
import signal
import time

from hypothesis import strategies as st

from hermitia import (
    QuartGainGraph,
    UNIT_ONE,
    UNITS,
    apply_switch,
    components,
    converse,
)


def random_graph(rng: random.Random, max_n: int, edge_prob: float = 0.5) -> QuartGainGraph:
    n = rng.randint(1, max_n)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                edges.append((u, v, rng.choice(UNITS)))
    return QuartGainGraph(n, edges)


def random_switch(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.choice(UNITS) for _ in range(n))


def anchored_switches(graph: QuartGainGraph):
    """All switch assignments with the smallest vertex of each component
    pinned to 1; exhaustive up to the trivial per-component global phase."""
    anchors = {comp[0] for comp in components(graph)}
    free = [v for v in range(graph.n) if v not in anchors]
    for values in itertools.product(UNITS, repeat=len(free)):
        theta = [UNIT_ONE] * graph.n
        for v, value in zip(free, values):
            theta[v] = value
        yield tuple(theta)


def brute_force_equivalent(g1: QuartGainGraph, g2: QuartGainGraph) -> bool:
    """Independent oracle for label-preserving switching equivalence."""
    if g1.n != g2.n:
        return False
    targets = (g2, converse(g2))
    for theta in anchored_switches(g1):
        switched = apply_switch(g1, theta)
        if switched in targets:
            return True
    return False


@st.composite
def quart_graphs(draw, max_n: int = 6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = []
    for u, v in pairs:
        if draw(st.booleans()):
            edges.append((u, v, draw(st.sampled_from(UNITS))))
    return QuartGainGraph(n, edges)


def timed_under_alarm(call, what: str, clock=time.perf_counter):
    """call() and its time on ``clock`` (wall time by default); a 5 s wall
    timer signal stops a call that hangs."""

    def _expire(signum, frame):
        raise TimeoutError(f"{what} ran past 5 s")

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        start = clock()
        result = call()
        return result, clock() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
