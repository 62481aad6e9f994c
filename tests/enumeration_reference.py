"""Reference enumeration of switching classes, for tests only.

This is ``enumeration`` as it stood before the mixed switch moved onto the
gain list: ``_refine_colors``, ``canonical_form``, ``connected_underlying``
and ``enumerate_switching_classes`` verbatim, except that the least switch
of a mixed-only stream comes from the brute-force
``mixed_representative_bruteforce`` and the cache is this module's own.
Its ``connected_underlying`` extends each smaller graph by every nonempty
neighbour mask, with neither orbit pruning nor the least-degree deletion
rule, so it referees both.
Every candidate is built as a graph, and a mixed-only candidate is built a
second time by its switch.  The spanning tree comes from this module's own
breadth-first search over the edge pairs, so a fault in the package's BFS
shows here.  It imports public names only.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import lru_cache
from typing import Iterator, Optional

from hermitia import (
    UNIT_ONE,
    UNITS,
    EnumSpec,
    QuartGainGraph,
    cut_vertices,
    pendant_vertices,
)
from hermitia.enumeration import HARD_CAP

from mixed_reference import mixed_representative_bruteforce

Pair = tuple[int, int]
EdgeTuple = tuple[Pair, ...]


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


def bfs_tree(n: int, edges: EdgeTuple) -> set[Pair]:
    """Edge pairs of the breadth-first tree of a connected graph, rooted at
    0, each vertex taking its neighbours in increasing order."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    queue = deque([0])
    tree: set[Pair] = set()
    while queue:
        u = queue.popleft()
        for w in sorted(adj[u]):
            if w not in seen:
                seen.add(w)
                tree.add((min(u, w), max(u, w)))
                queue.append(w)
    return tree


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
        tree = bfs_tree(spec.n, edges)
        non_tree = [pair for pair in edges if pair not in tree]
        # Edges keep their sorted order: the k-th non-tree edge reads
        # gains[k], and each tree edge the 1 appended after the last.
        slots = [(u, v, -1 if (u, v) in tree else non_tree.index((u, v))) for u, v in edges]
        for gains in itertools.product(UNITS, repeat=len(non_tree)):
            gains += (UNIT_ONE,)
            candidate = QuartGainGraph(spec.n, [(u, v, gains[i]) for u, v, i in slots])
            if spec.mixed_only:
                rep = mixed_representative_bruteforce(candidate)
                if rep is None:
                    continue
                candidate = rep
            yield candidate
            emitted += 1
            if spec.limit is not None and emitted >= spec.limit:
                return
