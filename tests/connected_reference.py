"""Reference connected-graph enumeration by brute force, for tests only.

It filters all labeled graphs on n vertices by a plain DFS connectivity
test and names each isomorphism class by its least sorted edge tuple over
all n! relabelings.  It shares no code with ``enumeration``, neither the
vertex-extension search of ``connected_underlying`` nor the colour-refined
``canonical_form``; tests feed it orders of at most 5.
"""

from __future__ import annotations

import itertools

EdgeTuple = tuple[tuple[int, int], ...]


def reference_form(n: int, edges: EdgeTuple) -> EdgeTuple:
    """Least sorted edge tuple over every relabeling of the n vertices."""
    return min(
        tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges))
        for perm in itertools.permutations(range(n))
    )


def _is_connected_edges(n: int, edges: EdgeTuple) -> bool:
    if n <= 1:
        return True
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def connected_underlying_bruteforce(n: int) -> set[EdgeTuple]:
    """Independent oracle: the reference forms of all connected labeled graphs."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    result: set[EdgeTuple] = set()
    for bits in range(1 << len(pairs)):
        edges = tuple(pairs[i] for i in range(len(pairs)) if bits >> i & 1)
        if _is_connected_edges(n, edges):
            result.add(reference_form(n, edges))
    return result
