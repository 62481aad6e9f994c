"""Exhaustive enumeration of switching classes at desk scale.

Connected underlying graphs are generated up to isomorphism by vertex
extension with canonical-form deduplication (color refinement narrows the
permutations tried; exhaustive within color classes, so exact at these
orders).  For each underlying graph, the tree of the canonical BFS spanning
forest (:func:`graph_core.bfs_forest`, the tree that
:func:`switching_twins.tree_normalize` also switches to all-1 gains) is
fixed and every assignment of gains to the non-tree edges is emitted: the
non-tree gains are the fundamental-cycle values, a complete invariant of
four-way switching, so distinct assignments are pairwise inequivalent and
together exhaust the label-preserving four-way-switching classes (pairs
related only by the converse are kept distinct; there are 4^(m-n+1) classes
per connected underlying graph).  Without ``mixed_only``, every emitted
class is therefore its own ``tree_normalize`` form.

With ``mixed_only`` set, a class is emitted only if some four-way switching
of it has no -1 gain, and :func:`mixed_representative` emits the switching
by the lexicographically least such switch, pinned to 1 on vertex 0 (a
global phase acts trivially on gains).  It finds that switch by a
depth-first search over the vertices in order, where each edge rules out
one value at its larger end, instead of trying all 4^(n-1) switches.

A gain assignment is the tuple of per-edge gains in sorted edge order, one
pick per edge from ``(1,)`` on a tree edge and from ``UNITS`` otherwise.
The stream runs the same search on each tuple and switches it, so every
emitted class is built as a graph exactly once.
:func:`count_switching_classes` counts a stream from the same tuples
without building any graph.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .graph_core import (
    QuartGainGraph,
    bfs_forest,
    cut_vertices,
    pendant_vertices,
)
from .numeric import UNIT_MINUS_ONE, UNIT_ONE, UNITS, Unit
from .switching_twins import apply_switch

Pair = tuple[int, int]
EdgeTuple = tuple[Pair, ...]

# Largest order enumerate_switching_classes accepts.
HARD_CAP = 7

# Most gain assignments a mixed count_switching_classes may search, under a minute
# at the order-6 rate; order 7 unfiltered would need 1,611,636,134.
MAX_COUNT_SEARCHES = 10**7


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate: connected graphs of exact order ``n``, plus
    population filters.

    ``limit`` stops the stream after that many classes; 0 emits none and a
    negative limit is a ``ValueError``.
    """

    n: int
    has_cut_vertex: bool = False
    no_pendant: bool = False
    has_pendant: bool = False
    mixed_only: bool = False
    limit: Optional[int] = None


# -- canonical labeling ----------------------------------------------------------


def _refine_colors(n: int, adj: list[set[int]]) -> list[int]:
    colors = [len(adj[v]) for v in range(n)]
    while True:
        keys = [
            (colors[v], tuple(sorted(colors[w] for w in adj[v]))) for v in range(n)
        ]
        ranks = {key: i for i, key in enumerate(sorted(set(keys)))}
        refined = [ranks[key] for key in keys]
        if refined == colors:
            return colors
        colors = refined


def canonical_form(n: int, edges: EdgeTuple) -> EdgeTuple:
    """Lexicographically least relabeling of the edge set.

    Only vertex orderings that respect the color-refinement classes are
    tried; the classes are isomorphism-invariant, so isomorphic graphs get
    identical forms.
    """
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    colors = _refine_colors(n, adj)
    classes: list[list[int]] = []
    for color in sorted(set(colors)):
        classes.append([v for v in range(n) if colors[v] == color])
    # Codes min * n + max order like the pairs they stand for, so the least
    # sorted code list is the least sorted edge tuple.
    codes = [[min(a, b) * n + max(a, b) for b in range(n)] for a in range(n)]
    position = [0] * n
    best: Optional[list[int]] = None
    for arrangement in itertools.product(
        *(itertools.permutations(cls) for cls in classes)
    ):
        for idx, old in enumerate(itertools.chain.from_iterable(arrangement)):
            position[old] = idx
        mapped = sorted([codes[position[u]][position[v]] for u, v in edges])
        if best is None or mapped < best:
            best = mapped
    assert best is not None
    return tuple(divmod(code, n) for code in best)


@lru_cache(maxsize=None)
def connected_underlying(n: int) -> tuple[EdgeTuple, ...]:
    """All connected graphs of order n up to isomorphism, as canonical
    sorted edge tuples, generated by single-vertex extension."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if n == 1:
        return ((),)
    result: set[EdgeTuple] = set()
    for smaller in connected_underlying(n - 1):
        for bits in range(1, 1 << (n - 1)):
            extra = tuple((u, n - 1) for u in range(n - 1) if bits >> u & 1)
            result.add(canonical_form(n, smaller + extra))
    return tuple(sorted(result))


# -- class emission -----------------------------------------------------------------


def mixed_representative(graph: QuartGainGraph) -> Optional[QuartGainGraph]:
    """The switching of ``graph`` by its lexicographically least switch
    that leaves no -1 gain, or None when no switch does.

    Vertex 0 is pinned to 1; that suffices because rescaling a whole
    component leaves every gain unchanged.  :func:`_least_switch` finds the
    switch by a depth-first search whose first complete switch is the one
    that the 4^(n-1) product over ``UNITS`` would meet first.

    Its exponential worst case is inherent unless P = NP: with every gain
    -1, a switch leaves no -1 gain exactly when theta_u != theta_v on every
    edge, a proper 4-colouring of the underlying graph, which is NP-complete
    to decide.  :data:`HARD_CAP` bounds it.
    """
    edges = graph.edges
    if all(g != UNIT_MINUS_ONE for _, _, g in edges):
        return graph
    back = _back_lists(graph.n, [(u, v) for u, v, _ in edges])
    theta = _least_switch(graph.n, back, [g for _, _, g in edges])
    return None if theta is None else apply_switch(graph, theta)


def _back_lists(n: int, pairs: Sequence[Pair]) -> list[list[Pair]]:
    """Per vertex v, (u, k) for each k-th pair (u, v), u < v."""
    back: list[list[Pair]] = [[] for _ in range(n)]
    for k, (u, v) in enumerate(pairs):
        back[v].append((u, k))
    return back


def _least_switch(n: int, back: list[list[Pair]], gains: Sequence[Unit]) -> Optional[list[Unit]]:
    """The least switch theta, theta[0] = 1, that leaves no -1 gain, or None.

    ``gains[k]`` is the gain of the k-th edge, and ``back`` is
    :func:`_back_lists` of the edges' (u, v) pairs.  The search assigns
    theta to vertices 1, 2, ... in turn, trying units in ``UNITS`` order, and
    checks each edge once theta[v] is set: switching turns g into -1 for
    exactly one value, theta[v] = theta[u] - g + 2 (mod 4).  A vertex with no
    value left sends the search back to the one before it.
    """
    theta = [UNIT_ONE] * n
    # Bit k of untried[v] is set while unit k is still to be tried at v; the
    # codes are UNITS = (0, 1, 2, 3), so the lowest bit is the next in order.
    untried = [0b1111] * n
    v = 1
    while v < n:
        free = untried[v]
        for u, k in back[v]:
            free &= ~(1 << (theta[u] - gains[k] + UNIT_MINUS_ONE) % 4)
        if free:
            lowest = free & -free
            theta[v] = lowest.bit_length() - 1
            untried[v] = free ^ lowest
            v += 1
        else:
            untried[v] = 0b1111
            v -= 1
            if v == 0:
                return None
    return theta


def _check_spec(spec: EnumSpec) -> None:
    if not 1 <= spec.n <= HARD_CAP:
        raise ValueError(f"order {spec.n} outside 1..{HARD_CAP}")
    if spec.limit is not None and spec.limit < 0:
        raise ValueError(f"limit must be >= 0, got {spec.limit}")


def _underlying_setups(
    spec: EnumSpec,
) -> Iterator[tuple[EdgeTuple, list[tuple[Unit, ...]], list[list[Pair]]]]:
    """Per connected underlying graph of order ``spec.n`` that passes the
    spec's filters, in canonical order: its sorted edge pairs, ``choices``
    and :func:`_back_lists` of its pairs.

    ``choices[j]`` holds the gains the j-th edge takes: ``(1,)`` on a tree
    edge and ``UNITS`` on a non-tree edge, so ``itertools.product(*choices)``
    yields every gain assignment as a per-edge tuple, lexicographic over
    (1, i, -1, -i) on the non-tree edges.
    """
    n = spec.n
    for edges in connected_underlying(n):
        base = QuartGainGraph._from_normal(n, tuple([(u, v, UNIT_ONE) for u, v in edges]))
        if spec.has_cut_vertex and not cut_vertices(base):
            continue
        pendants = pendant_vertices(base)
        if spec.no_pendant and pendants:
            continue
        if spec.has_pendant and not pendants:
            continue
        _, parent = bfs_forest(base)
        tree = {(min(u, v), max(u, v)) for v, u in enumerate(parent) if u >= 0}
        choices = [(UNIT_ONE,) if pair in tree else UNITS for pair in edges]
        yield edges, choices, _back_lists(n, edges)


def enumerate_switching_classes(spec: EnumSpec) -> Iterator[QuartGainGraph]:
    """Stream one representative per label-preserving switching class.

    Deterministic: underlying graphs in canonical order, gain assignments
    in lexicographic order over (1, i, -1, -i).  Every emitted graph
    satisfies the spec's filters and no two are switching equivalent.
    With ``mixed_only``, the least switch of :func:`mixed_representative`
    is found and applied on the per-edge gain tuple, so each emitted class
    is built as a graph once, unchecked, from its sorted records.
    """
    _check_spec(spec)
    if spec.limit == 0:
        return
    n = spec.n
    emitted = 0
    for edges, choices, back in _underlying_setups(spec):
        us = [u for u, _ in edges]
        vs = [v for _, v in edges]
        for gains in itertools.product(*choices):
            if spec.mixed_only and UNIT_MINUS_ONE in gains:
                theta = _least_switch(n, back, gains)
                if theta is None:
                    continue
                gains = [(g - theta[u] + theta[v]) % 4 for u, v, g in zip(us, vs, gains)]
            yield QuartGainGraph._from_normal(n, tuple([*zip(us, vs, gains)]))
            emitted += 1
            if spec.limit is not None and emitted >= spec.limit:
                return


def count_switching_classes(spec: EnumSpec) -> int:
    """The number of classes :func:`enumerate_switching_classes` emits for
    ``spec``, found without building a graph.

    An underlying graph with m edges is connected, so it has k = m - n + 1
    non-tree edges and 4^k classes.  With ``mixed_only``, the 3^k gain
    assignments with no -1 are mixed as they stand, and each other one
    counts when :func:`_least_switch` finds a switch.  More than
    :data:`MAX_COUNT_SEARCHES` such assignments (4^k - 3^k per graph,
    until the 3^k alone reach ``limit``) raise ``ValueError`` before any search.
    Backs ``hermitia enumerate --count-only``; not exported from the package.
    """
    _check_spec(spec)
    limit = math.inf if spec.limit is None else spec.limit
    setups = [(len(edges) - spec.n + 1, choices, back) for edges, choices, back in _underlying_setups(spec)]
    if spec.mixed_only:
        searches = mixed = 0
        for k, _, _ in setups:
            mixed += 3**k
            if mixed >= limit:
                break
            searches += 4**k - 3**k
        if searches > MAX_COUNT_SEARCHES:
            raise ValueError(
                f"counting mixed classes needs {searches} switch searches,"
                f" above the bound of {MAX_COUNT_SEARCHES}"
            )
    total = 0
    for k, choices, back in setups:
        if total >= limit:
            break
        if not spec.mixed_only:
            total += 4**k
            continue
        total += 3**k
        for gains in itertools.product(*choices):
            if total >= limit:
                break
            if UNIT_MINUS_ONE in gains and _least_switch(spec.n, back, gains) is not None:
                total += 1
    return min(total, limit)


def classes_up_to(order: int, **filters) -> Iterator[QuartGainGraph]:
    """All classes of every order from 1 through ``order``."""
    for n in range(1, order + 1):
        yield from enumerate_switching_classes(EnumSpec(n=n, **filters))
