"""Reference connected-graph enumeration by brute force, for tests only.

It filters all labeled graphs on n vertices by a plain DFS connectivity
test and deduplicates them with ``canonical_form``, so it shares no
generation code with the vertex-extension search in
``enumeration.connected_underlying``; tests feed it orders of at most 5.
"""

from __future__ import annotations

from hermitia.enumeration import EdgeTuple, canonical_form


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


def connected_underlying_bruteforce(n: int) -> tuple[EdgeTuple, ...]:
    """Independent oracle: filter all labeled graphs and deduplicate."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    result: set[EdgeTuple] = set()
    for bits in range(1 << len(pairs)):
        edges = tuple(pairs[i] for i in range(len(pairs)) if bits >> i & 1)
        if _is_connected_edges(n, edges):
            result.add(canonical_form(n, edges))
    return tuple(sorted(result))
