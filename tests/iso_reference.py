"""Reference up-to-isomorphism switching search, without gain pruning, for tests only.

This is the search as it stood before it carried a partial switch through the
backtracking: it prunes on the underlying graph alone and asks
``switching_witness`` at every complete map.  It visits maps in the same order
as the package search, so the two must return equal witnesses; it is
factorially slow on dense graphs, so tests feed it orders of at most 7.
"""

from __future__ import annotations

from typing import Optional

from hermitia import (
    IsoWitness,
    QuartGainGraph,
    relabel,
    switching_witness,
    underlying,
)
from hermitia.switching_twins import MAX_ISO_ORDER


def switching_equivalent_up_to_iso_unpruned(g1: QuartGainGraph, g2: QuartGainGraph) -> Optional[IsoWitness]:
    """Search underlying-graph isomorphisms for a switching-equivalence witness.

    Backtracks over degree-compatible vertex maps with adjacency pruning and
    tests label-preserving equivalence at each complete map.  Exhaustive but
    intended for small orders; raises above :data:`MAX_ISO_ORDER` vertices.
    """
    if g1.n != g2.n:
        return None
    if g1.n > MAX_ISO_ORDER:
        raise ValueError(f"graphs too large for isomorphism search (n={g1.n})")
    if len(g1.edges) != len(g2.edges):
        return None
    u1, u2 = underlying(g1), underlying(g2)
    deg2 = {v: u2.degree(v) for v in range(u2.n)}
    if sorted(u1.degree(v) for v in range(u1.n)) != sorted(deg2.values()):
        return None

    # Map high-degree, already-anchored vertices first.
    order: list[int] = []
    remaining = set(range(u1.n))
    while remaining:
        anchored = [v for v in remaining if any(w in order for w in u1.neighbors(v))]
        pool = anchored if anchored else list(remaining)
        nxt = max(pool, key=lambda v: (u1.degree(v), -v))
        order.append(nxt)
        remaining.discard(nxt)

    mapping: dict[int, int] = {}
    used: set[int] = set()

    def feasible(v: int, target: int) -> bool:
        if deg2[target] != u1.degree(v):
            return False
        for w in u1.neighbors(v):
            if w in mapping and not u2.has_edge(target, mapping[w]):
                return False
        mapped_nbrs = sum(1 for w in u1.neighbors(v) if w in mapping)
        back_nbrs = sum(1 for t in u2.neighbors(target) if t in used)
        return mapped_nbrs == back_nbrs

    def extend(depth: int) -> Optional[IsoWitness]:
        if depth == len(order):
            perm = tuple(mapping[v] for v in range(u1.n))
            witness = switching_witness(relabel(g1, perm), g2)
            if witness is not None:
                theta, took_converse = witness
                return IsoWitness(perm, theta, took_converse)
            return None
        v = order[depth]
        for target in range(u2.n):
            if target in used or not feasible(v, target):
                continue
            mapping[v] = target
            used.add(target)
            found = extend(depth + 1)
            if found is not None:
                return found
            del mapping[v]
            used.discard(target)
        return None

    return extend(0)
