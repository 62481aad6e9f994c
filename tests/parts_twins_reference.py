"""Reference parts, twins and one-vertex extension check, for tests only.

These are ``complete_multipartite_parts`` (components of the complement,
then every pair checked), ``are_twins`` / ``twin_partition`` (a pairwise
scan against every earlier representative) and ``p1_characterize`` /
``lem311_check`` (switch f1 plain, then read v's gains per part) as they
stood before parts and twins were read as neighborhood classes.  Positivity
and the plain switch come from :func:`plain_switch_reference`, a depth-first
search of its own, not from the package's BFS-tree potentials.  They call
one another and the graph layer, never the package's own versions, so the
package must match them on every input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from hermitia import (
    UNIT_ONE,
    HypothesisViolation,
    QuartGainGraph,
    Unit,
    apply_switch,
    delete_vertex,
    induced_subgraph,
    inertia,
    is_connected,
    is_odd_triangle,
)
from hermitia.graph_core import VertexSet


def complete_multipartite_parts_reference(
    graph: QuartGainGraph, vertices: Optional[Sequence[int]] = None
) -> Optional[list[VertexSet]]:
    vs = sorted(set(range(graph.n) if vertices is None else vertices))
    if not vs:
        return None
    unassigned = set(vs)
    parts: list[VertexSet] = []
    while unassigned:
        start = min(unassigned)
        unassigned.discard(start)
        comp = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            nbrs = set(graph.neighbors(u))
            for w in list(unassigned):
                if w not in nbrs:
                    comp.add(w)
                    unassigned.discard(w)
                    frontier.append(w)
        parts.append(tuple(sorted(comp)))
    for part in parts:
        for i, u in enumerate(part):
            for w in part[i + 1 :]:
                if graph.has_edge(u, w):
                    return None
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            for u in parts[i]:
                for w in parts[j]:
                    if not graph.has_edge(u, w):
                        return None
    return sorted(parts, key=lambda p: p[0])


def are_twins_reference(graph: QuartGainGraph, u: int, w: int) -> Optional[Unit]:
    if u == w:
        raise ValueError("a vertex is not its own twin")
    if not (0 <= u < graph.n and 0 <= w < graph.n):
        raise ValueError("vertex id out of range")
    if graph.has_edge(u, w):
        return None
    nu = set(graph.neighbors(u)) - {w}
    nw = set(graph.neighbors(w)) - {u}
    if nu != nw:
        return None
    alpha: Optional[Unit] = None
    for x in nu:
        delta = (graph.gain(u, x) - graph.gain(w, x)) % 4
        if alpha is None:
            alpha = delta
        elif alpha != delta:
            return None
    return UNIT_ONE if alpha is None else alpha


@dataclass(frozen=True)
class TwinPartitionReference:
    classes: tuple[VertexSet, ...]
    representatives: tuple[int, ...]
    alphas: tuple[Unit, ...]


def twin_partition_reference(graph: QuartGainGraph) -> TwinPartitionReference:
    reps: list[int] = []
    member_lists: list[list[int]] = []
    alphas = [UNIT_ONE] * graph.n
    for v in range(graph.n):
        for i, rep in enumerate(reps):
            alpha = are_twins_reference(graph, v, rep)
            if alpha is not None:
                member_lists[i].append(v)
                alphas[v] = alpha
                break
        else:
            reps.append(v)
            member_lists.append([v])
    return TwinPartitionReference(
        classes=tuple(tuple(ms) for ms in member_lists),
        representatives=tuple(reps),
        alphas=tuple(alphas),
    )


def plain_switch_reference(graph: QuartGainGraph) -> Optional[tuple[Unit, ...]]:
    """A switch theta with every switched gain g - theta_u + theta_v equal to
    1 (code 0), or None when the graph is not positive.

    A depth-first search from each component's smallest vertex sets theta_w
    = theta_u - gain(u -> w) on first reaching w from u; then every edge is
    checked.
    """
    theta: list[Optional[Unit]] = [None] * graph.n
    for root in range(graph.n):
        if theta[root] is not None:
            continue
        theta[root] = UNIT_ONE
        stack = [root]
        while stack:
            u = stack.pop()
            for w in graph.neighbors(u):
                if theta[w] is None:
                    theta[w] = (theta[u] - graph.gain(u, w)) % 4
                    stack.append(w)
    for u in range(graph.n):
        for w in graph.neighbors(u):
            if (graph.gain(u, w) - theta[u] + theta[w]) % 4 != UNIT_ONE:
                return None
    return tuple(theta)


def p1_characterize_reference(graph: QuartGainGraph) -> Optional[str]:
    live = [v for v in range(graph.n) if graph.degree(v) > 0]
    if not live:
        return None
    core = induced_subgraph(graph, live)
    parts = complete_multipartite_parts_reference(core)
    if parts is None or len(parts) < 2:
        return None
    if plain_switch_reference(core) is not None:
        return "multipartite"
    reduced = induced_subgraph(core, twin_partition_reference(core).representatives)
    if len(parts) == 3 and is_odd_triangle(reduced):
        return "c3t"
    return None


def lem311_check_reference(f1: QuartGainGraph, f2: QuartGainGraph, v: int) -> bool:
    if not (0 <= v < f2.n):
        raise ValueError(f"vertex id {v} out of range")
    if delete_vertex(f2, v) != f1:
        raise HypothesisViolation("removing v from f2 does not give f1")
    if not is_connected(f1):
        raise HypothesisViolation("f1 must be connected")
    in1 = inertia(f1)
    in2 = inertia(f2)
    if in1.p != 1:
        raise HypothesisViolation(f"p(f1) = {in1.p}, need 1")
    if in2.rank != in1.rank + 1:
        raise HypothesisViolation(f"rk(f2) = {in2.rank}, need rk(f1) + 1 = {in1.rank + 1}")
    if in2.p != 2:
        raise HypothesisViolation(f"p(f2) = {in2.p}, need 2")

    if p1_characterize_reference(f1) != "multipartite":
        return False
    parts = complete_multipartite_parts_reference(f1)

    def to_f2(x: int) -> int:
        return x if x < v else x + 1

    for part in parts:
        hits = sum(1 for u in part if f2.has_edge(v, to_f2(u)))
        if hits not in (0, len(part)):
            return False

    # Switch f1 to all-1 gains, extend to f2 with v untouched, then the
    # apex gains must be constant per class.
    theta1 = plain_switch_reference(f1)
    theta2 = [0] * f2.n
    for x in range(f1.n):
        theta2[to_f2(x)] = theta1[x]
    switched = apply_switch(f2, tuple(theta2))
    for part in parts:
        gains = {
            switched.gain(v, to_f2(u))
            for u in part
            if switched.has_edge(v, to_f2(u))
        }
        if len(gains) > 1:
            return False
    return True
