"""Verification suites: each replays one spectral law over an exhaustive or
seeded corpus and reports every violation.

Laws that hold for arbitrary Hermitian congruence (pivoting, pendant
recursion, interlacing, cut-vertex composition, twin duplication) run over
every switching class including -1 gains; laws about mixed graphs (the p = 1
and p = 2 characterizations, rank-3 reduction) run over the mixed classes,
which is their stated scope.  Randomized suites draw from a fixed seed that
the HERMITIA_SEED environment variable or an explicit argument overrides.

A suite is a generator ``(n, seed) -> Iterator[Check]`` of checks
``(ok, where, expected, got)``: ``where`` names the instance as a graph, a
``(graph, suffix)`` pair or a label string.  ``verify_suite`` alone counts
the checks and records the failed ones.  A new suite reads::

    def _suite_order(n, seed):
        for g in classes_up_to(n):
            yield sum(inertia(g).as_tuple()) == g.n, g, g.n, "another order"
"""

from __future__ import annotations

import itertools
import os
import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Optional

from .classify import (
    HypothesisViolation,
    cor39_condition,
    lem310_condition,
    lem311_check,
    lem38_condition,
    p1_characterize,
    thm11_classify,
    thm12_classify,
)
from .enumeration import HARD_CAP, classes_up_to
from .families import (
    gen_c3t,
    gen_complete_multipartite,
    gen_cycle,
    gen_K_gain,
    gen_K_plain,
    part_ranges,
)
from .graph_core import (
    QuartGainGraph,
    compact_str,
    components_avoiding,
    cut_vertices,
    coalesce,
    delete_vertex,
    disjoint_union,
    gaussian_matmul,
    induced_subgraph,
    pendant_vertices,
)
from .numeric import UNITS, as_int
from .spectra import (
    InertiaTriple,
    congruence,
    hermitian_matrix,
    inertia,
    inertia_exact,
    inertia_float_many,
)
from .switching_twins import (
    apply_switch,
    cycle_signature,
    is_even_triangle,
    twin_reduction,
)

if TYPE_CHECKING:
    import numpy as np

DEFAULT_SEED = 1729

Check = tuple[bool, object, object, object]


@dataclass
class SuiteReport:
    suite: str
    checked: int = 0
    failures: list[tuple[str, str, str]] = field(default_factory=list)
    millis: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, instance: str, expected: object, got: object) -> None:
        self.failures.append((instance, str(expected), str(got)))

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "checked": self.checked,
            "failures": [
                {"graph": g, "expected": e, "got": o}
                for g, e, o in sorted(self.failures)
            ],
            "millis": self.millis,
        }


def _random_graph(rng: random.Random, max_n: int, edge_prob: float = 0.5) -> QuartGainGraph:
    n = rng.randint(1, max_n)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                edges.append((u, v, rng.choice(UNITS)))
    return QuartGainGraph._from_normal(n, tuple(edges))  # u < v, in increasing order


def _random_switch(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.choice(UNITS) for _ in range(n))


def _agree(g: QuartGainGraph, fact: str, holds: bool, verdict: str, says: bool) -> Check:
    """Check that the classifier's verdict ``says`` agrees with the fact ``holds``."""
    return says == holds, g, f"{fact}={holds}", f"{verdict}={says}"


# -- individual suites --------------------------------------------------------------


def _suite_sylvester(n: Optional[int], seed: int) -> Iterator[Check]:
    """Inertia is invariant under congruence by random invertible matrices."""
    rng = random.Random(seed)
    for _ in range(120):
        g = _random_graph(rng, n)
        h = hermitian_matrix(g)
        s_re, s_im = _random_invertible(rng, g.n)
        base = inertia_exact(h)
        conj = inertia_exact(congruence(h, s_re, s_im))
        yield base == conj, g, base, conj


def _random_invertible(rng: random.Random, n: int) -> tuple[np.ndarray, np.ndarray]:
    # 4 * L D U as (re, im) arrays of Python ints, invertible by
    # construction: L unit lower and U unit upper triangular with entries in
    # (1/2)Z + iZ, built as 2L and 2U, and D a nonzero Gaussian-integer diagonal.
    import numpy as np

    def small() -> tuple[int, int]:
        num, den = rng.randint(-2, 2), rng.randint(1, 2)
        return 2 * num // den, 2 * rng.randint(-1, 1)

    l_re, l_im, u_re, u_im, d_re, d_im = (np.zeros((n, n), dtype=object) for _ in range(6))
    for i in range(n):
        l_re[i][i] = u_re[i][i] = 2
        for j in range(i):
            l_re[i][j], l_im[i][j] = small()
            u_re[j][i], u_im[j][i] = small()
    for i in range(n):
        d_re[i][i], d_im[i][i] = rng.choice([1, -1, 2]), rng.choice([0, 1])
    return gaussian_matmul(*gaussian_matmul(l_re, l_im, d_re, d_im), u_re, u_im)


def _suite_pendant(n: Optional[int], seed: int) -> Iterator[Check]:
    """Deleting a pendant vertex and its neighbor costs exactly (1, 1, 0)."""
    for g in classes_up_to(n, has_pendant=True):
        whole = inertia(g)
        for v1 in pendant_vertices(g):
            v2 = g.neighbors(v1)[0]
            rest = inertia(induced_subgraph(g, [u for u in range(g.n) if u not in (v1, v2)]))
            expected = rest + InertiaTriple(1, 1, 0)
            yield whole == expected, g, expected, whole


def _suite_interlacing(n: Optional[int], seed: int) -> Iterator[Check]:
    """Vertex deletion changes p and n by at most one, never upward."""
    for g in classes_up_to(n):
        if g.n < 2:
            continue
        whole = inertia(g)
        for u in range(g.n):
            sub = inertia(delete_vertex(g, u))
            ok = (
                whole.p - 1 <= sub.p <= whole.p
                and whole.n_neg - 1 <= sub.n_neg <= whole.n_neg
            )
            yield ok, (g, f"minus {u}"), whole, sub


def _suite_cutvertex(n: Optional[int], seed: int) -> Iterator[Check]:
    """Cut-vertex composition laws for the rank of the augmented components."""
    for g in classes_up_to(n, has_cut_vertex=True):
        cuts = cut_vertices(g)
        whole = inertia(g)
        for v in cuts:
            comps = components_avoiding(g, v)
            ranks = []
            for comp in comps:
                alone = inertia(induced_subgraph(g, comp))
                with_v = inertia(induced_subgraph(g, sorted(comp + (v,))))
                ranks.append((alone, with_v))
            minus_v = inertia(delete_vertex(g, v))
            if any(w.rank == a.rank + 2 for a, w in ranks):
                expected = minus_v + InertiaTriple(1, 1, -1)
                yield whole == expected, (g, f"at {v} (rank+2)"), expected, whole
            for comp, (alone, with_v) in zip(comps, ranks):
                if with_v.rank == alone.rank:
                    other = inertia(
                        induced_subgraph(g, [u for u in range(g.n) if u not in comp])
                    )
                    split = alone + other
                    yield whole == split, (g, f"at {v} split {comp}"), split, whole
            if all(w.rank == a.rank for a, w in ranks):
                expected = minus_v + InertiaTriple(0, 0, 1)
                yield whole == expected, (g, f"at {v} (rank+0)"), expected, whole


def _cycle_nullity_expected(n: int, sigma: int) -> int:
    if n % 2 == 1:
        return 1 if sigma % 2 == 1 else 0
    if sigma % 2 == 1:
        return 0
    return 2 if (n + sigma) % 4 == 0 else 0


def _suite_cycle_nullity(n: Optional[int], seed: int) -> Iterator[Check]:
    """Nullity of every mixed cycle follows the five-case parity table."""
    for length in range(3, n + 1):
        for arcs in range(0, length + 1):
            g = gen_cycle(length, range(arcs))
            sigma = cycle_signature(g, tuple(range(length)))
            if sigma != arcs:
                yield False, g, f"sigma={arcs}", f"sigma={sigma}"
                continue
            expected = _cycle_nullity_expected(length, sigma)
            eta = inertia(g).eta
            yield eta == expected, g, f"eta={expected}", f"eta={eta}"


def _suite_p1(n: Optional[int], seed: int) -> Iterator[Check]:
    """p = 1 holds exactly for blown-up odd triangles and positive
    complete multipartite graphs (plus isolated vertices)."""
    for g in _p1_corpus(n, seed):
        yield _agree(g, "p1", inertia(g).p == 1, "tagged", p1_characterize(g) is not None)


def _p1_corpus(n: int, seed: int) -> Iterator[QuartGainGraph]:
    """The mixed classes, seeded unions of two small ones, seeded padded classes."""
    # The classes are streamed twice rather than held: at n = 6 they are
    # 1.6 million graphs.  Only the small ones are kept, for the unions.
    small: list[QuartGainGraph] = []
    for g in classes_up_to(n, mixed_only=True):
        yield g
        if g.n <= max(2, n - 2):
            small.append(g)
    rng = random.Random(seed)
    for _ in range(300):
        a = rng.choice(small)
        b = rng.choice(small)
        g = disjoint_union(a, b)
        if rng.random() < 0.3:
            g = disjoint_union(g, QuartGainGraph(1))
        yield g
    for g in classes_up_to(n, mixed_only=True):
        if rng.random() < 0.1:
            yield disjoint_union(g, QuartGainGraph(rng.randint(1, 2)))


def _add_twin(g: QuartGainGraph, u: int) -> QuartGainGraph:
    edges = list(g.edges) + [(g.n, x, gain) for x, gain in g.neighbor_gains(u)]
    return QuartGainGraph(g.n + 1, edges)


def _suite_twins(n: Optional[int], seed: int) -> Iterator[Check]:
    """Duplicating a vertex into its twin class fixes (p, n) and bumps eta;
    removing a singleton class from a positive multipartite graph drops the
    rank by one."""
    for g in classes_up_to(n):
        base = inertia(g)
        for u in range(g.n):
            grown = inertia(_add_twin(g, u))
            expected = InertiaTriple(base.p, base.n_neg, base.eta + 1)
            yield grown == expected, (g, f"twin {u}"), expected, grown
    rng = random.Random(seed)
    for sizes in ([1, 1, 1], [1, 2, 2], [1, 1, 3], [1, 2, 1, 2], [1, 1, 1, 1], [1, 3, 2, 2]):
        plain = gen_complete_multipartite(sizes)
        g = apply_switch(plain, _random_switch(rng, plain.n))
        singleton = sizes.index(1)
        v = sum(sizes[:singleton])
        yield inertia(g).rank == inertia(delete_vertex(g, v)).rank + 1, g, "rank drop 1", "other"


def _suite_twin_rank3(n: Optional[int], seed: int) -> Iterator[Check]:
    """Connected mixed graphs have rank 3 exactly when the twin reduction
    is an even triangle."""
    for g in classes_up_to(n, mixed_only=True):
        reduced = is_even_triangle(twin_reduction(g))
        yield _agree(g, "rank3", inertia(g).rank == 3, "even-triangle", reduced)


def _suite_c3t_rank(n: Optional[int], seed: int) -> Iterator[Check]:
    """Every blown-up odd triangle has inertia (1, 1, n - 2)."""
    for t1, t2, t3 in itertools.product(range(1, 5), repeat=3):
        g = gen_c3t(t1, t2, t3)
        got = inertia(g)
        expected = InertiaTriple(1, 1, g.n - 2)
        yield got == expected, f"c3t:{t1},{t2},{t3}", expected, got


def _suite_coalescence_bounds(n: Optional[int], seed: int) -> Iterator[Check]:
    """p of a one-vertex identification is squeezed between the deleted and
    whole-side sums; joining two non-star positive multipartite blocks with
    p = 1 gives exactly p = 2."""
    rng = random.Random(seed)
    for _ in range(150):
        a = _random_graph(rng, 5, 0.6)
        b = _random_graph(rng, 5, 0.6)
        va = rng.randrange(a.n)
        vb = rng.randrange(b.n)
        g = coalesce(a, va, b, vb)
        lower = inertia(delete_vertex(a, va)).p + inertia(delete_vertex(b, vb)).p
        upper = inertia(a).p + inertia(b).p
        mid = inertia(g).p
        yield lower <= mid <= upper, g, f"{lower} <= p <= {upper}", mid
    # Exact p = 2 for non-star positive complete multipartite sides.
    size_pool = [[1, 1, 1], [2, 2], [2, 1, 1], [2, 3], [1, 1, 1, 1], [3, 2, 1]]
    for _ in range(60):
        sa = rng.choice(size_pool)
        sb = rng.choice(size_pool)
        a = apply_switch(gen_complete_multipartite(sa), _random_switch(rng, sum(sa)))
        b = apply_switch(gen_complete_multipartite(sb), _random_switch(rng, sum(sb)))
        g = coalesce(a, rng.randrange(a.n), b, rng.randrange(b.n))
        got = inertia(g).p
        yield got == 2, g, 2, got


def _apex_instances(seed: int, two_roles: bool):
    """(q sizes, n sizes, roles) of an apex-family sweep: every all-singleton
    family with 2 <= r <= 5 and 2 <= k <= 7, then 25 seeded blow-ups.  roles
    holds the number of n-side parts in the first role (p for cor39, a
    otherwise) and, with ``two_roles``, in the second (b for lem38, c for
    lem310)."""
    rng = random.Random(seed)

    def roles_for(k: int, first: int) -> list[tuple[int, ...]]:
        if not two_roles:
            return [(first,)]
        return [(first, second) for second in range(min(first, k - first) + 1)]

    for r in range(2, 6):
        for k in range(2, 8):
            for first in range(1, k + 1):
                for roles in roles_for(k, first):
                    yield [1] * r, [1] * k, roles
    for _ in range(25):
        r, k = rng.randint(2, 4), rng.randint(2, 5)
        first = rng.randint(1, k)
        roles = (first, rng.randint(0, min(first, k - first))) if two_roles else (first,)
        q_sizes = [rng.randint(1, 3) for _ in range(r)]
        n_sizes = [rng.randint(1, 3) for _ in range(k)]
        yield q_sizes, n_sizes, roles


# Each apex sweep names its predicate and family, looked up at call time, so
# a rebound module attribute, such as a tracing wrapper, is the one called.
def _suite_cor39(n: Optional[int], seed: int) -> Iterator[Check]:
    """Corollary 3.9's predicate vs p = 2 of the all-undirected apex family."""
    for q, k, roles in _apex_instances(seed, False):
        predicted = cor39_condition(len(q), len(k), *roles)
        actual = inertia(gen_K_plain(q, k, *roles)).p == 2
        yield predicted == actual, f"q={q},n={k},roles={roles}", predicted, actual


def _suite_lem38(n: Optional[int], seed: int) -> Iterator[Check]:
    """Lemma 3.8's predicate vs p = 2 of the apex family with a gain-i and b gain--i parts."""
    for q, k, (a, b) in _apex_instances(seed, True):
        predicted = lem38_condition(len(q), len(k), a, b)
        actual = inertia(gen_K_gain(q, k, a, b, 0, 0)).p == 2
        yield predicted == actual, f"q={q},n={k},roles={(a, b)}", predicted, actual


def _suite_lem310(n: Optional[int], seed: int) -> Iterator[Check]:
    """Lemma 3.10's predicate vs p = 2 of the apex family with a gain-i and c gain-1 parts."""
    for q, k, (a, c) in _apex_instances(seed, True):
        predicted = lem310_condition(len(q), len(k), a, c)
        actual = inertia(gen_K_gain(q, k, a, 0, c, 0)).p == 2
        yield predicted == actual, f"q={q},n={k},roles={(a, c)}", predicted, actual


def _suite_lem311(n: Optional[int], seed: int) -> Iterator[Check]:
    """Whenever the one-vertex-extension hypotheses hold, the structural
    conclusion must hold; tried over systematic apex attachments."""
    rng = random.Random(seed)
    size_pool = [[1, 1], [2, 1], [2, 2], [1, 1, 1], [2, 1, 1], [2, 2, 1], [2, 2, 2]]
    for sizes in size_pool:
        f1 = gen_complete_multipartite(sizes)
        total = f1.n
        blocks = part_ranges(sizes)
        # Whole-class attachments with one gain per class (0 = skip class).
        for gains in itertools.product((None,) + UNITS, repeat=len(sizes)):
            if all(g is None for g in gains):
                continue
            edges = list(f1.edges)
            for block, g in zip(blocks, gains):
                if g is None:
                    continue
                edges.extend((u, total, (-g) % 4) for u in block)
            yield from _check_lem311_instance(f1, QuartGainGraph(total + 1, edges), total)
    # Partial attachments: arbitrary neighbor subsets with random gains.
    for _ in range(200):
        sizes = rng.choice(size_pool)
        f1 = apply_switch(
            gen_complete_multipartite(sizes), _random_switch(rng, sum(sizes))
        )
        total = f1.n
        subset = [u for u in range(total) if rng.random() < 0.5]
        if not subset:
            continue
        edges = list(f1.edges) + [(u, total, rng.choice(UNITS)) for u in subset]
        yield from _check_lem311_instance(f1, QuartGainGraph(total + 1, edges), total)


def _check_lem311_instance(f1: QuartGainGraph, f2: QuartGainGraph, v: int) -> Iterator[Check]:
    try:
        conclusion = lem311_check(f1, f2, v)
    except HypothesisViolation:
        return
    yield conclusion, f2, "conclusion holds", "conclusion fails"


def _suite_thm11(n: Optional[int], seed: int) -> Iterator[Check]:
    """Over every mixed class with a pendant vertex: classified iff p = 2."""
    for g in classes_up_to(n, has_pendant=True, mixed_only=True):
        yield _agree(g, "p2", inertia(g).p == 2, "classified", thm11_classify(g) is not None)


def _suite_thm12(n: Optional[int], seed: int) -> Iterator[Check]:
    """Over every mixed class with a cut vertex and no pendant vertex:
    at least one family case matches iff p = 2."""
    for g in classes_up_to(n, has_cut_vertex=True, no_pendant=True, mixed_only=True):
        yield _agree(g, "p2", inertia(g).p == 2, "matched", bool(thm12_classify(g).cases))


def _suite_oracle_agreement(n: Optional[int], seed: int) -> Iterator[Check]:
    """Exact congruence inertia equals the LAPACK ``eigvalsh`` float inertia at 1e-9.

    10,000 graphs, drawn in 40 chunks of 250: the float side takes one
    ``eigvalsh`` per order and chunk, and a chunk's stacked copies stay small.
    """
    rng = random.Random(seed)
    for _ in range(40):
        graphs = [_random_graph(rng, n) for _ in range(250)]
        matrices = [hermitian_matrix(g) for g in graphs]
        for g, h, floated in zip(graphs, matrices, inertia_float_many(matrices, 1e-9)):
            exact = inertia_exact(h)
            yield exact == floated, g, exact, floated


class _Suite(NamedTuple):
    run: Callable[[Optional[int], int], Iterator[Check]]
    default_n: Optional[int]  # None: the suite ignores n
    max_n: Optional[int]  # None: any n >= 1


# Each largest n is one at which a run still ends in minutes (README,
# "Verification suites").  The enumerated corpora stream every order up to
# n.  Order 7 holds 1.6 billion plain classes, about 1,000 times order 6, so
# the suites that walk every class stop at 6; thm11 and thm12 keep a small
# filtered part of each order and stop at the enumerator's HARD_CAP.
# sylvester and oracle_agreement draw graphs of up to n vertices, and
# cycle_nullity checks every cycle up to length n.
_SUITES: dict[str, _Suite] = {
    "sylvester": _Suite(_suite_sylvester, 7, 12),
    "pendant": _Suite(_suite_pendant, 5, 6),
    "interlacing": _Suite(_suite_interlacing, 5, 6),
    "cutvertex": _Suite(_suite_cutvertex, 5, 6),
    "cycle_nullity": _Suite(_suite_cycle_nullity, 12, 12),
    "p1": _Suite(_suite_p1, 5, 6),
    "twins": _Suite(_suite_twins, 5, 6),
    "twin_rank3": _Suite(_suite_twin_rank3, 5, 6),
    "c3t_rank": _Suite(_suite_c3t_rank, None, None),
    "coalescence_bounds": _Suite(_suite_coalescence_bounds, None, None),
    "lem38": _Suite(_suite_lem38, None, None),
    "cor39": _Suite(_suite_cor39, None, None),
    "lem310": _Suite(_suite_lem310, None, None),
    "lem311": _Suite(_suite_lem311, None, None),
    "thm11": _Suite(_suite_thm11, 5, HARD_CAP),
    "thm12": _Suite(_suite_thm12, 6, HARD_CAP),
    "oracle_agreement": _Suite(_suite_oracle_agreement, 10, 10),
}

SUITE_NAMES = tuple(_SUITES)


def _resolve_n(name: str, n: Optional[int]) -> Optional[int]:
    """The n suite ``name`` runs at: its default when n is None, else n as an
    int (:func:`as_int`) checked against the suite's largest."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    suite = _SUITES[name]
    if n is None:
        return suite.default_n
    n = as_int(n, "n")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if suite.max_n is not None and n > suite.max_n:
        raise ValueError(f"suite {name!r} needs n <= {suite.max_n}, got {n}")
    return n


def verify_suite(name: str, n: Optional[int] = None, seed: Optional[int] = None) -> SuiteReport:
    """Run one named suite and report instances checked and failures."""
    n = _resolve_n(name, n)
    if seed is None:
        seed = int(os.environ.get("HERMITIA_SEED", DEFAULT_SEED))
    report = SuiteReport(suite=name)
    start = time.perf_counter()
    for ok, where, expected, got in _SUITES[name].run(n, seed):
        report.checked += 1
        if not ok:
            if isinstance(where, tuple):
                where = f"{compact_str(where[0])} {where[1]}"
            elif isinstance(where, QuartGainGraph):
                where = compact_str(where)
            report.record(where, expected, got)
    report.millis = int((time.perf_counter() - start) * 1000)
    report.failures.sort()
    return report


def verify_all(n: Optional[int] = None, seed: Optional[int] = None) -> list[SuiteReport]:
    """Run every suite, after checking n against each of them."""
    for name in SUITE_NAMES:
        _resolve_n(name, n)
    return [verify_suite(name, n=n, seed=seed) for name in SUITE_NAMES]
