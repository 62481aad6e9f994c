"""Reference mixed-representative search, by brute force, for tests only.

This is ``enumeration.mixed_representative`` as it stood before the
depth-first search: it tries all 4^(n-1) switches in ``itertools.product``
order, so its answer is the switching by the lexicographically least valid
switch, which ``least_switch_bruteforce`` returns itself.  It is
exponential in n, so tests feed it orders of at most 7.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from hermitia import UNIT_MINUS_ONE, UNIT_ONE, UNITS, QuartGainGraph


def mixed_representative_bruteforce(graph: QuartGainGraph) -> Optional[QuartGainGraph]:
    """A switching of ``graph`` with no -1 gain, or None.

    Exhausts switch assignments with vertex 0 pinned to 1; sufficient
    because rescaling a whole component leaves every gain unchanged.
    Intended for connected graphs at enumeration scale.
    """
    edges = graph.edges
    if all(g != UNIT_MINUS_ONE for _, _, g in edges):
        return graph
    theta = least_switch_bruteforce(graph.n, edges)
    if theta is None:
        return None
    return QuartGainGraph(graph.n, [(u, v, (g - theta[u] + theta[v]) % 4) for u, v, g in edges])


def least_switch_bruteforce(n: int, edges: Sequence[tuple[int, int, int]]) -> Optional[tuple[int, ...]]:
    """The first switch theta on vertices 0..n-1, theta[0] = 1, in
    ``itertools.product`` order that leaves no (u, v, gain) record of
    ``edges`` with gain -1, or None."""
    for tail in itertools.product(UNITS, repeat=n - 1):
        theta = (UNIT_ONE,) + tail
        if all((g - theta[u] + theta[v]) % 4 != UNIT_MINUS_ONE for u, v, g in edges):
            return theta
    return None
