"""Switching operations, canonical class forms, and the twin machinery.

Conjugating H(G) by a diagonal matrix of fourth roots of unity rewrites every
gain as conj(theta_u) * gain * theta_v without touching the spectrum.  Two
graphs are *switching equivalent* when one reaches the other by such a switch
plus, optionally, taking the converse (conjugating all gains).

The canonical form of a class fixes a BFS spanning tree per component and
switches all tree gains to 1; the remaining non-tree gains are exactly the
fundamental-cycle values of the class, which form a complete invariant.  That
makes label-preserving equivalence a pair of normal-form comparisons.

Twins are vertices with unit-proportional matrix rows, that is, with the
same neighbor set and the same gains up to one common unit.  Twin classes are
therefore neighborhood classes, read in one hashed pass over the vertices.
Collapsing each twin class to its smallest member produces the twin
reduction, which preserves the positive and negative inertia counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .graph_core import (
    GraphFormatError,
    QuartGainGraph,
    VertexSet,
    bfs_forest,
    gain_grids,
    gaussian_matmul,
    induced_subgraph,
    relabel,
    vertex_id,
)
from .numeric import (
    UNIT_I,
    UNIT_MINUS_I,
    UNIT_MINUS_ONE,
    UNIT_ONE,
    Unit,
    as_int,
    unit_conj,
)

# One unit per vertex, realizing a four-way switching.
SwitchAssignment = tuple[Unit, ...]

# Largest order switching_equivalent_up_to_iso searches; its backtracking
# over vertex maps grows factorially.
MAX_ISO_ORDER = 12


def apply_switch(graph: QuartGainGraph, theta: SwitchAssignment) -> QuartGainGraph:
    """Switch gains to conj(theta_u) * gain * theta_v; underlying unchanged.

    Only theta is checked (``as_int``, else :class:`GraphFormatError`): the
    records are ``graph``'s own, normal once every theta is an int."""
    if len(theta) != graph.n:
        raise ValueError("switch assignment length does not match vertex count")
    if any(type(t) is not int for t in theta):
        theta = [as_int(t, "switch value", GraphFormatError) for t in theta]
    return QuartGainGraph._from_normal(
        graph.n, tuple([(u, v, (g - theta[u] + theta[v]) % 4) for u, v, g in graph.edges])
    )


def converse(graph: QuartGainGraph) -> QuartGainGraph:
    """Reverse every arc: each gain is conjugated, H becomes its transpose."""
    return QuartGainGraph._from_normal(
        graph.n, tuple([(u, v, unit_conj(g)) for u, v, g in graph.edges])
    )


def _crossing_edges(graph: QuartGainGraph, cut: Iterable[int]):
    """The checked vertex set ``cut`` and its crossing edges (u, v, gain, u in the set)."""
    side = {vertex_id(graph, v) for v in cut}
    return side, [(u, v, g, u in side) for u, v, g in graph.edges if (u in side) != (v in side)]


def two_way_directed(graph: QuartGainGraph, cut: VertexSet) -> QuartGainGraph:
    """Reverse all edges of an edge cut consisting of arcs only."""
    side, crossing = _crossing_edges(graph, cut)
    for u, v, g, _ in crossing:
        if g not in (UNIT_I, UNIT_MINUS_I):
            raise ValueError(f"cut edge ({u}, {v}) is not directed")
    theta = tuple(UNIT_MINUS_ONE if v in side else UNIT_ONE for v in range(graph.n))
    return apply_switch(graph, theta)


def two_way_mixed(graph: QuartGainGraph, cut: VertexSet) -> QuartGainGraph:
    """Swap undirected and directed edges across a one-way edge cut.

    The cut may contain undirected edges and arcs pointing one way only;
    arcs become undirected and undirected edges become arcs in the opposite
    direction.  Realized as a switch by -i on one side of the cut.
    """
    side, crossing = _crossing_edges(graph, cut)
    inward = outward = False
    for u, v, g, u_in_side in crossing:
        if g == UNIT_MINUS_ONE:
            raise ValueError(f"cut edge ({u}, {v}) has gain -1")
        if g == UNIT_ONE:
            continue
        oriented = g if u_in_side else unit_conj(g)
        if oriented == UNIT_I:
            outward = True
        else:
            inward = True
    if inward and outward:
        raise ValueError("cut contains directed edges in both directions")
    # Switching by -i on a side undirects the arcs that point at it, so the
    # side is chosen by the arc direction.
    switched = tuple(
        UNIT_MINUS_I if (v in side) != outward else UNIT_ONE for v in range(graph.n)
    )
    return apply_switch(graph, switched)


# -- cycles ---------------------------------------------------------------------


def _cycle_steps(graph: QuartGainGraph, cycle: tuple[int, ...]) -> list[tuple[int, int, Unit]]:
    """The (u, v, gain of u -> v) steps of the traversal, closing edge last;
    raises ValueError unless ``cycle`` is a cycle of ``graph``."""
    cycle = [vertex_id(graph, v) for v in cycle]
    if len(cycle) < 3 or len(set(cycle)) != len(cycle):
        raise ValueError("not a cycle: need at least 3 distinct vertices")
    steps = []
    for u, v in zip(cycle, (*cycle[1:], cycle[0])):
        if not graph.has_edge(u, v):
            raise ValueError(f"not a cycle: missing edge ({u}, {v})")
        steps.append((u, v, graph.gain(u, v)))
    return steps


def cycle_value(graph: QuartGainGraph, cycle: tuple[int, ...]) -> Unit:
    """Product of gains along the traversal; conjugated by reversal."""
    return sum(g for _, _, g in _cycle_steps(graph, cycle)) % 4


def cycle_signature(graph: QuartGainGraph, cycle: tuple[int, ...]) -> int:
    """Forward arcs minus backward arcs along the traversal.

    Only defined when every cycle edge is mixed-representable (gain in
    {1, i, -i}); undirected edges contribute 0.
    """
    steps = _cycle_steps(graph, cycle)
    for u, v, g in steps:
        if g == UNIT_MINUS_ONE:
            raise ValueError(f"edge ({u}, {v}) has gain -1")
    return sum((g == UNIT_I) - (g == UNIT_MINUS_I) for _, _, g in steps)


# -- canonical forms --------------------------------------------------------------


class NormalForm(NamedTuple):
    graph: QuartGainGraph
    assignment: SwitchAssignment


def tree_normalize(graph: QuartGainGraph) -> NormalForm:
    """Canonical representative of the switching class of ``graph``.

    Per component, the tree of the canonical BFS spanning forest
    (:func:`graph_core.bfs_forest`: rooted at the smallest vertex id,
    neighbors visited in increasing order) is switched to all-1 gains.  The
    surviving non-tree gains are the fundamental-cycle values, so two graphs
    on the same labeled underlying graph are switching equivalent by a
    four-way switch exactly when their normal forms coincide.  Idempotent.
    """
    order, parent = bfs_forest(graph)
    theta = [UNIT_ONE] * graph.n
    for w in order:
        u = parent[w]
        if u >= 0:
            theta[w] = (theta[u] - graph.gain(u, w)) % 4
    assignment = tuple(theta)
    return NormalForm(apply_switch(graph, assignment), assignment)


def is_positive(graph: QuartGainGraph) -> bool:
    """True when every cycle has value 1, i.e. the class of the underlying graph."""
    normal = tree_normalize(graph).graph
    return all(g == UNIT_ONE for _, _, g in normal.edges)


def switching_equivalent(g1: QuartGainGraph, g2: QuartGainGraph) -> bool:
    """Label-preserving switching equivalence (switch plus optional converse)."""
    return switching_witness(g1, g2) is not None


def switching_witness(
    g1: QuartGainGraph, g2: QuartGainGraph
) -> Optional[tuple[SwitchAssignment, bool]]:
    """A (theta, took_converse) pair with maybe_converse(switch(g1)) == g2.

    Each graph is normalized once; equal normal forms already imply equal
    orders and edge pairs.  ``converse(g2)`` has the same BFS forest and
    negated gains, so its normal form is ``converse`` of g2's with the
    switch negated: theta = a1 - a2 directly, or a1 + a2 under the converse.
    Either way theta is 1 at each component's smallest vertex, and the
    direct hypothesis is tried first.
    """
    nf1 = tree_normalize(g1)
    nf2 = tree_normalize(g2)
    if nf1.graph == nf2.graph:
        return tuple((a - b) % 4 for a, b in zip(nf1.assignment, nf2.assignment)), False
    if nf1.graph == converse(nf2.graph):
        return tuple((a + b) % 4 for a, b in zip(nf1.assignment, nf2.assignment)), True
    return None


@dataclass(frozen=True)
class IsoWitness:
    """Certificate that relabeling g1 by ``perm``, switching by ``theta`` and
    (optionally) taking the converse yields g2 exactly."""

    perm: tuple[int, ...]
    theta: SwitchAssignment
    took_converse: bool


def _walk_values(graph: QuartGainGraph) -> list[tuple[int, ...]]:
    """Per vertex v, the closed-walk values (H^k)_vv for k = 2..n.

    Unchanged by switching and the converse, carried along by relabeling;
    (H^2)_vv is the degree of v, and the traces fix the spectrum.  Exact in
    int64 since |(H^k)_st| <= (n - 1)^(k - 1) < 2^40 for n <= MAX_ISO_ORDER.
    """
    import numpy as np

    re, im = (np.array(grid, dtype=np.int64) for grid in gain_grids(graph))
    power_re, power_im, diagonals = re, im, []
    for _ in range(graph.n - 1):
        power_re, power_im = gaussian_matmul(power_re, power_im, re, im)
        diagonals.append(power_re.diagonal().tolist())
    return list(zip(*diagonals)) or [()] * graph.n


def switching_equivalent_up_to_iso(g1: QuartGainGraph, g2: QuartGainGraph) -> Optional[IsoWitness]:
    """Search underlying-graph isomorphisms for a switching-equivalence witness.

    A witness maps each vertex to one with the same :func:`_walk_values`.
    So pairs whose sorted values differ are rejected at once, and the
    search tries no other target, which prunes no witness.  This decides in
    milliseconds symmetric pairs such as K_{a,a} against a copy with one
    edge negated, which the search alone takes factorial time on.

    Backtracks over vertex maps with adjacency pruning and carries a
    partial switch phi_h along for two hypotheses: h = 0 compares against
    g2, h = 1 against ``converse(g2)``.  Vertices are mapped so that each
    one after the first of its component has an earlier neighbor; the first
    mapped neighbor w of v fixes
    ``phi_h(v) = g2_h(m(w), m(v)) - g1(w, v) + phi_h(w)`` (mod 4), every
    other mapped neighbor must agree, and a component's first vertex gets
    phi_h = 0.  A hypothesis dies exactly when the mapped induced subgraphs
    are not switching equivalent under it, which no completion can repair,
    so a branch is cut once both have died.  Complete maps are confirmed by
    :func:`switching_witness`, and the first witness is the one the unpruned
    search would return.  Raises above :data:`MAX_ISO_ORDER` vertices.
    """
    if g1.n != g2.n:
        return None
    if g1.n > MAX_ISO_ORDER:
        raise ValueError(f"graphs too large for isomorphism search (n={g1.n})")
    c1, c2 = _walk_values(g1), _walk_values(g2)
    if sorted(c1) != sorted(c2):
        return None

    # Map high-degree, already-anchored vertices first.
    order: list[int] = []
    remaining = set(range(g1.n))
    while remaining:
        anchored = [v for v in remaining if any(w not in remaining for w in g1.neighbors(v))]
        pool = anchored if anchored else list(remaining)
        nxt = max(pool, key=lambda v: (g1.degree(v), -v))
        order.append(nxt)
        remaining.discard(nxt)

    mapping: dict[int, int] = {}
    used: set[int] = set()
    targets = (g2, converse(g2))
    phi = ([UNIT_ONE] * g1.n, [UNIT_ONE] * g1.n)

    def extend(depth: int, alive: list[bool]) -> Optional[IsoWitness]:
        if depth == len(order):
            perm = tuple(mapping[v] for v in range(g1.n))
            witness = switching_witness(relabel(g1, perm), g2)
            if witness is not None:
                theta, took_converse = witness
                return IsoWitness(perm, theta, took_converse)
            return None
        v = order[depth]
        back = [w for w in g1.neighbors(v) if w in mapping]
        for target in range(g2.n):
            if (
                target in used
                or c2[target] != c1[v]
                or len(back) != sum(1 for t in g2.neighbors(target) if t in used)
                or not all(g2.has_edge(target, mapping[w]) for w in back)
            ):
                continue
            still = []
            for h, g2h in enumerate(targets):
                # Each mapped neighbor w asks for one phi_h(v); all must agree.
                values = {(g2h.gain(mapping[w], target) - g1.gain(w, v) + phi[h][w]) % 4 for w in back}
                still.append(alive[h] and len(values) <= 1)
                phi[h][v] = min(values, default=UNIT_ONE)
            if not any(still):
                continue
            mapping[v] = target
            used.add(target)
            found = extend(depth + 1, still)
            if found is not None:
                return found
            del mapping[v]
            used.discard(target)
        return None

    return extend(0, [True, True])


# -- twins -------------------------------------------------------------------------


def _twin_key(graph: QuartGainGraph, v: int) -> tuple[frozenset[int], Unit]:
    """v's neighbors x, each packed with v's gain to it relative to the gain
    to the first neighbor as 4x + relative gain, and that first gain.

    Twins are exactly the vertices with equal keys (adjacent vertices never
    share a neighbor set), and alpha is the difference of first gains.  A
    frozenset rather than a tuple, so a pass over many vertices does not
    leave a tuple free list full of keys.
    """
    gains = graph.neighbor_gains(v)
    if not gains:
        return frozenset(), UNIT_ONE
    _, base = next(iter(gains))
    return frozenset(4 * x + (g - base) % 4 for x, g in gains), base


def are_twins(graph: QuartGainGraph, u: int, w: int) -> Optional[Unit]:
    """The unit alpha with row_u = alpha * row_w, or None.

    Twins are non-adjacent and see the same neighbor set; a nonzero common
    entry pins alpha uniquely.  Two isolated vertices are twins with
    alpha = 1.
    """
    if u == w:
        raise ValueError("a vertex is not its own twin")
    (key_u, base_u), (key_w, base_w) = _twin_key(graph, u), _twin_key(graph, w)
    return (base_u - base_w) % 4 if key_u == key_w else None


@dataclass(frozen=True)
class TwinPartition:
    """Twin classes with, per vertex, the unit relating it to its class
    representative (the smallest id in the class)."""

    classes: tuple[VertexSet, ...]
    representatives: tuple[int, ...]
    alphas: tuple[Unit, ...]


def twin_partition(graph: QuartGainGraph) -> TwinPartition:
    """Twin classes in one pass: vertices grouped by :func:`_twin_key`."""
    firsts: dict[frozenset[int], tuple[list[int], Unit]] = {}
    alphas = [UNIT_ONE] * graph.n
    for v in range(graph.n):
        key, base = _twin_key(graph, v)
        if key in firsts:
            members, rep_base = firsts[key]
            members.append(v)
            alphas[v] = (base - rep_base) % 4
        else:
            firsts[key] = ([v], base)
    return TwinPartition(
        classes=tuple(tuple(members) for members, _ in firsts.values()),
        representatives=tuple(members[0] for members, _ in firsts.values()),
        alphas=tuple(alphas),
    )


def twin_reduction(graph: QuartGainGraph) -> QuartGainGraph:
    """One vertex per twin class: the induced subgraph on class representatives,
    or ``graph`` itself when every class is a singleton."""
    representatives = twin_partition(graph).representatives
    if len(representatives) == graph.n:
        return graph
    return induced_subgraph(graph, representatives)


# -- triangles ----------------------------------------------------------------------


def _is_triangle(graph: QuartGainGraph) -> bool:
    return graph.n == 3 and len(graph.edges) == 3


def is_odd_triangle(graph: QuartGainGraph) -> bool:
    """A triangle whose cycle value is +-i (odd number of arcs)."""
    return _is_triangle(graph) and cycle_value(graph, (0, 1, 2)) in (UNIT_I, UNIT_MINUS_I)


def is_even_triangle(graph: QuartGainGraph) -> bool:
    """A triangle whose cycle value is +-1 (even number of arcs)."""
    return _is_triangle(graph) and cycle_value(graph, (0, 1, 2)) in (UNIT_ONE, UNIT_MINUS_ONE)
