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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

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
    best: Optional[EdgeTuple] = None
    for arrangement in itertools.product(
        *(itertools.permutations(cls) for cls in classes)
    ):
        position: dict[int, int] = {}
        idx = 0
        for group in arrangement:
            for old in group:
                position[old] = idx
                idx += 1
        mapped = tuple(
            sorted(
                (min(position[u], position[v]), max(position[u], position[v]))
                for u, v in edges
            )
        )
        if best is None or mapped < best:
            best = mapped
    assert best is not None
    return best


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
    component leaves every gain unchanged.  A depth-first search assigns
    theta to vertices 1, 2, ... in turn, trying units in ``UNITS`` order,
    and checks each edge (u, v, g), u < v, once theta[v] is set: switching
    turns g into -1 for exactly one value, theta[v] = theta[u] - g + 2
    (mod 4).  A vertex with no value left sends the search back to the one
    before it.  The first complete switch found is the least one, the first
    that the 4^(n-1) product over ``UNITS`` would meet.

    Its exponential worst case is inherent unless P = NP: with every gain
    -1, a switch leaves no -1 gain exactly when theta_u != theta_v on every
    edge, a proper 4-colouring of the underlying graph, which is NP-complete
    to decide.  :data:`HARD_CAP` bounds it.
    """
    edges = graph.edges
    if all(g != UNIT_MINUS_ONE for _, _, g in edges):
        return graph
    n = graph.n
    back: list[list[tuple[int, Unit]]] = [[] for _ in range(n)]
    for u, v, g in edges:
        back[v].append((u, g))
    theta = [UNIT_ONE] * n
    # Bit k of untried[v] is set while unit k is still to be tried at v; the
    # codes are UNITS = (0, 1, 2, 3), so the lowest bit is the next in order.
    untried = [0b1111] * n
    v = 1
    while v < n:
        free = untried[v]
        for u, g in back[v]:
            free &= ~(1 << (theta[u] - g + UNIT_MINUS_ONE) % 4)
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
    return apply_switch(graph, theta)


def enumerate_switching_classes(spec: EnumSpec) -> Iterator[QuartGainGraph]:
    """Stream one representative per label-preserving switching class.

    Deterministic: underlying graphs in canonical order, gain assignments
    in lexicographic order over (1, i, -1, -i).  Every emitted graph
    satisfies the spec's filters and no two are switching equivalent.
    """
    if not 1 <= spec.n <= HARD_CAP:
        raise ValueError(f"order {spec.n} outside 1..{HARD_CAP}")
    if spec.limit is not None and spec.limit < 0:
        raise ValueError(f"limit must be >= 0, got {spec.limit}")
    if spec.limit == 0:
        return
    emitted = 0
    for edges in connected_underlying(spec.n):
        base = QuartGainGraph(spec.n, [(u, v, UNIT_ONE) for u, v in edges])
        if spec.has_cut_vertex and not cut_vertices(base):
            continue
        pendants = pendant_vertices(base)
        if spec.no_pendant and pendants:
            continue
        if spec.has_pendant and not pendants:
            continue
        _, parent = bfs_forest(base)
        tree = {(min(u, v), max(u, v)) for v, u in enumerate(parent) if u >= 0}
        non_tree = [pair for pair in edges if pair not in tree]
        # Edges keep their sorted order: the k-th non-tree edge reads
        # gains[k], and each tree edge the 1 appended after the last.
        slots = [(u, v, -1 if (u, v) in tree else non_tree.index((u, v))) for u, v in edges]
        for gains in itertools.product(UNITS, repeat=len(non_tree)):
            gains += (UNIT_ONE,)
            candidate = QuartGainGraph(spec.n, [(u, v, gains[i]) for u, v, i in slots])
            if spec.mixed_only:
                rep = mixed_representative(candidate)
                if rep is None:
                    continue
                candidate = rep
            yield candidate
            emitted += 1
            if spec.limit is not None and emitted >= spec.limit:
                return


def classes_up_to(order: int, **filters) -> Iterator[QuartGainGraph]:
    """All classes of every order from 1 through ``order``."""
    for n in range(1, order + 1):
        yield from enumerate_switching_classes(EnumSpec(n=n, **filters))
