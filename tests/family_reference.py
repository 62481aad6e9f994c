"""Reference constructors for the named families, for tests only.

Each family is built from its definition one vertex pair at a time: for
every pair u < v of the order, a rule says whether the family joins u and
v and with which gain (u -> v).  The part of each vertex is recomputed
here from the part sizes, laid out in order, so no layout or edge loop is
shared with ``families``.  It imports public names only.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from hermitia import UNIT_I, UNIT_MINUS_I, UNIT_MINUS_ONE, UNIT_ONE, QuartGainGraph

Rule = Callable[[int, int], Optional[int]]


def _by_pairs(order: int, rule: Rule) -> QuartGainGraph:
    edges = []
    for u in range(order):
        for v in range(u + 1, order):
            gain = rule(u, v)
            if gain is not None:
                edges.append((u, v, gain))
    return QuartGainGraph(order, edges)


def _parts(sizes: Sequence[int]) -> list[int]:
    """The part of each vertex, parts laid out in order."""
    return [j for j, size in enumerate(sizes) for _ in range(size)]


def c3t(t1: int, t2: int, t3: int) -> QuartGainGraph:
    """Parts A, B, C; every A -> B, B -> C and C -> A edge an arc."""
    part = _parts((t1, t2, t3))

    def rule(u, v):
        s, t = part[u], part[v]
        if s == t:
            return None
        # u lies in the earlier part: the arc runs u -> v exactly when v's
        # part follows u's in the cycle A -> B -> C -> A.
        return UNIT_I if t == (s + 1) % 3 else UNIT_MINUS_I

    return _by_pairs(len(part), rule)


def multipartite(sizes: Sequence[int]) -> QuartGainGraph:
    part = _parts(sizes)
    return _by_pairs(len(part), lambda u, v: None if part[u] == part[v] else UNIT_ONE)


def star(order: int) -> QuartGainGraph:
    return _by_pairs(order, lambda u, v: UNIT_ONE if u == 0 else None)


def cycle(order: int, arcs: Sequence[int] = ()) -> QuartGainGraph:
    """Step j runs j -> j + 1 (mod order), an arc when j is in ``arcs``."""

    def rule(u, v):
        if v == u + 1:
            return UNIT_I if u in arcs else UNIT_ONE
        if (u, v) == (0, order - 1):  # the closing step, read from 0
            return UNIT_MINUS_I if v in arcs else UNIT_ONE
        return None

    return _by_pairs(order, rule)


def k_gain(q: Sequence[int], n: Sequence[int], a: int, b: int, c: int, d: int) -> QuartGainGraph:
    """Apex 0, then the q side, then the n side.  Distinct parts of one
    side are joined with gain 1, the apex to the whole q side with gain 1,
    and to n part j with the j-th of a gains i, b gains -i, c gains 1 and
    d gains -1; the two sides are not joined."""
    side = [None] + ["q"] * sum(q) + ["n"] * sum(n)
    part = [None] + _parts(q) + _parts(n)
    roles = [UNIT_I] * a + [UNIT_MINUS_I] * b + [UNIT_ONE] * c + [UNIT_MINUS_ONE] * d

    def rule(u, v):
        if u == 0:
            if side[v] == "q":
                return UNIT_ONE
            return roles[part[v]] if part[v] < len(roles) else None
        if side[u] == side[v] and part[u] != part[v]:
            return UNIT_ONE
        return None

    return _by_pairs(len(side), rule)


def k_plain(q: Sequence[int], n: Sequence[int], p: int) -> QuartGainGraph:
    """The apex joined with gain 1 to the first p parts of the n side."""
    return k_gain(q, n, 0, 0, p, 0)
