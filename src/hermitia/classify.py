"""Closed-form predicates and structural classifiers for small positive inertia.

The predicates (:func:`cor39_condition`, :func:`lem38_condition`,
:func:`lem310_condition`) decide p = 2 for the apex families from their
integer parameters alone, evaluated in exact rational arithmetic so boundary
ties are decided correctly.  :func:`p1_characterize` recognizes the graphs
with exactly one positive eigenvalue, and :func:`thm11_classify` /
:func:`thm12_classify` implement the structural characterizations of p = 2
for connected graphs with a pendant vertex, respectively with a cut vertex
and no pendant vertex.

Complete multipartite parts are neighborhood classes: one pass groups the
vertices by neighbor set, and the graph is complete multipartite exactly
when each group sees everything outside itself.  Each vertex set is read
once: at a cut vertex v, each side's parts are split into those v meets
whole and those v misses.  That split gives the apex shape and case i, as
side + v is complete multipartite exactly when v misses at most one part
and meets none partly.  :func:`lem311_check` splits f1's parts the same way.

The cut-vertex classifier decomposes the underlying graph at a cut vertex
into an apex-family shape.  Once both sides of the apex are switched to
all-1 gains, the apex gain into each adjacent part (its role) is fixed up
to a common shift and the converse, and a family fits exactly when its own
apex gains are those roles.  So each case reads its role split off once.
The family graphs have gains constant on part pairs, so the witness is a
part-respecting relabeling and the switch that read the roles, shifted on
the n side onto the family's apex gains: no family instance is built, no
isomorphism search is needed, and each match comes with its witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .graph_core import (
    QuartGainGraph,
    VertexSet,
    components_avoiding,
    cut_vertices,
    delete_vertex,
    induced_subgraph,
    is_connected,
    pendant_vertices,
    vertex_id,
)
from .numeric import UNIT_I, UNIT_MINUS_I, UNIT_ONE, Unit, unit_token
from .spectra import inertia
from .switching_twins import (
    IsoWitness,
    SwitchAssignment,
    is_odd_triangle,
    is_positive,
    tree_normalize,
    twin_reduction,
)


class HypothesisViolation(ValueError):
    """A hypothesis-gated check was invoked outside its hypotheses."""


# -- parameter predicates -------------------------------------------------------


def cor39_condition(r: int, k: int, p: int) -> bool:
    """p = 2 test for the all-undirected apex family on (r, k, p)."""
    if r < 2 or k < 2 or not 1 <= p <= k:
        raise ValueError(f"need r >= 2, k >= 2, 1 <= p <= k; got {(r, k, p)}")
    if p == 1:
        return True
    if k - p <= 1:
        return True
    return Fraction(1, r) + Fraction(1, p) + Fraction(1, k - p - 1) >= 1


def lem38_condition(r: int, k: int, a: int, b: int) -> bool:
    """p = 2 test for the apex family with a gain-i parts and b gain--i parts."""
    if r < 2 or k < 2 or not (a >= b >= 0) or a < 1 or a + b > k:
        raise ValueError(f"need r >= 2, k >= 2, a >= b >= 0, a >= 1, a+b <= k; got {(r, k, a, b)}")
    # With b = 0 (c = 0 in lem310) every apex gain is i, and one switch of
    # the n side turns them into 1: the cor39 family on (r, k, a).
    if b == 0:
        return cor39_condition(r, k, a)
    return a == 1 and b == 1 and r == 2


def lem310_condition(r: int, k: int, a: int, c: int) -> bool:
    """p = 2 test for the apex family with a gain-i parts and c gain-1 parts."""
    if r < 2 or k < 2 or not (a >= c >= 0) or a < 1 or a + c > k:
        raise ValueError(f"need r >= 2, k >= 2, a >= c >= 0, a >= 1, a+c <= k; got {(r, k, a, c)}")
    if c == 0:
        return cor39_condition(r, k, a)
    s = k - a - c
    if a == 1 and c == 1:
        if s <= 1:
            return True
        if s == 2 and r in (3, 4):
            return True
        if s == 3 and r == 3:
            return True
        return r == 2
    if a == 2 and c == 2:
        if s == 0 and 2 <= r <= 4:
            return True
        if s == 1 and r == 2:
            return True
        return False
    if a == 3 and c == 2:
        return s == 0 and r == 2
    if a == 4 and c == 2:
        return s == 0 and r == 2
    if c == 1:
        return Fraction(a * s - 1, a + s) <= Fraction(1, r - 1)
    return False


@dataclass(frozen=True)
class FormulaReport:
    """Exact value of the single diagonal pivot that decides p = 2.

    After congruence reduction of the apex family, one diagonal entry of
    undetermined sign remains: ``pivot = coupling - r/(r-1) - a/(a-1)``,
    where ``coupling`` collects the blow-up contribution of the remaining
    parts.  The verdict is ``pivot <= 0``.
    """

    pivot: Fraction
    coupling: Fraction
    verdict: bool


def formula_report_38(r: int, k: int, a: int, b: int) -> FormulaReport:
    """Pivot reduction for the (a gain-i, b gain--i) family; needs a >= 2, k >= 3."""
    _check_reduction_regime(r, k, a, b)
    s = k - a - b
    coupling = Fraction(
        b * (2 * a - 1) ** 2 * (k - 1) + s * (a - b) ** 2 * (a - 1),
        (a - 1) * (a + b - 1) * (k - 1),
    )
    return _report(r, a, coupling)


def formula_report_310(r: int, k: int, a: int, c: int) -> FormulaReport:
    """Pivot reduction for the (a gain-i, c gain-1) family; needs a >= 2, k >= 3."""
    _check_reduction_regime(r, k, a, c)
    s = k - a - c
    coupling = Fraction(
        c * ((a - 1) ** 2 + a * a) * (k - 1) + s * (a - 1) * (a * a + c * c),
        (a - 1) * (a + c - 1) * (k - 1),
    )
    return _report(r, a, coupling)


def _check_reduction_regime(r: int, k: int, a: int, second: int) -> None:
    if a < 2 or k < 3 or r < 2 or second < 0 or a + second > k:
        raise ValueError(
            f"pivot reduction needs r >= 2, a >= 2, k >= 3, 0 <= second count, a+count <= k; got {(r, k, a, second)}"
        )


def _report(r: int, a: int, coupling: Fraction) -> FormulaReport:
    pivot = coupling - Fraction(r, r - 1) - Fraction(a, a - 1)
    return FormulaReport(pivot=pivot, coupling=coupling, verdict=pivot <= 0)


# -- structure recognition --------------------------------------------------------


def complete_multipartite_parts(
    graph: QuartGainGraph, vertices: Optional[Sequence[int]] = None
) -> Optional[list[VertexSet]]:
    """Partition classes if the underlying graph (restricted to ``vertices``)
    is complete multipartite, else None.  Parts are sorted by smallest member.

    The candidate parts are the vertices grouped by their neighborhood
    inside ``vertices``; the graph is complete multipartite exactly when
    each group's neighborhood is every vertex outside the group.  A group
    never meets its own neighborhood, since no vertex is its own neighbor,
    so comparing sizes suffices.
    """
    vs = range(graph.n) if vertices is None else sorted({vertex_id(graph, v) for v in vertices})
    if not vs:
        return None
    inside = set(vs)
    groups: dict[frozenset[int], list[int]] = {}
    for v in vs:
        groups.setdefault(frozenset(graph.neighbors(v)) & inside, []).append(v)
    if any(len(nbrs) + len(part) != len(vs) for nbrs, part in groups.items()):
        return None
    return [tuple(part) for part in groups.values()]


def _p1_tag(graph: QuartGainGraph, vertices: Sequence[int], n_parts: int) -> Optional[str]:
    """The p = 1 tag of ``graph[vertices]``, a complete multipartite graph
    with ``n_parts`` parts and no isolated vertex, or None."""
    core = induced_subgraph(graph, vertices)
    if is_positive(core):
        return "multipartite"
    if n_parts == 3 and is_odd_triangle(twin_reduction(core)):
        return "c3t"
    return None


def _p1_reading(graph: QuartGainGraph, vertices: Optional[Sequence[int]] = None):
    """The :func:`p1_characterize` tag of the non-isolated part of
    ``graph[vertices]`` with its parts in ``graph``'s labels, or None.
    Every live vertex has a live neighbor, so there are two parts or more."""
    vs = range(graph.n) if vertices is None else vertices
    inside = set(vs)
    live = [u for u in vs if not inside.isdisjoint(graph.neighbors(u))]
    parts = complete_multipartite_parts(graph, live)
    if parts is None:
        return None
    tag = _p1_tag(graph, live, len(parts))
    return None if tag is None else (tag, parts)


def p1_characterize(graph: QuartGainGraph) -> Optional[str]:
    """Tag for p = 1: 'multipartite' or 'c3t', judged on non-isolated vertices.

    'multipartite' means the live part is a positive complete multipartite
    gain graph (so switching-equivalent to its plain underlying graph);
    'c3t' means it is complete tripartite with an odd-triangle twin
    reduction, i.e. a blown-up odd triangle up to switching and converse.
    """
    reading = _p1_reading(graph)
    return None if reading is None else reading[0]


# -- classification results --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ClassificationResult:
    """Matched characterization cases with extracted parameters and witnesses."""

    cases: tuple[str, ...]
    params: dict
    witnesses: dict

    def to_json_dict(self) -> dict:
        witness = None
        for tag in self.cases:
            w = self.witnesses.get(tag)
            if isinstance(w, IsoWitness):
                witness = {
                    "perm": list(w.perm),
                    "theta": [unit_token(t) for t in w.theta],
                    "converse": w.took_converse,
                }
                break
        return {"cases": list(self.cases), "params": self.params, "witness": witness}


# -- pendant-vertex characterization -------------------------------------------------


def thm11_classify(graph: QuartGainGraph) -> Optional[ClassificationResult]:
    """Structural test for p = 2 on connected graphs with a pendant vertex.

    Looks for a pendant v1 with neighbor v2 such that after removing both,
    the non-isolated remainder has exactly one positive eigenvalue by
    :func:`p1_characterize`, and everything else hangs off v2 as a leaf.
    Every pendant of one v2 leaves the same non-isolated remainder, so each
    v2 is tried once, with its first pendant.
    """
    if not is_connected(graph) or graph.n < 2:
        raise ValueError("classification requires a connected graph on >= 2 vertices")
    pendants = pendant_vertices(graph)
    if not pendants:
        raise ValueError("graph has no pendant vertex")
    first: dict[int, int] = {}
    for v1 in pendants:
        first.setdefault(graph.neighbors(v1)[0], v1)
    for v2, v1 in first.items():
        # A vertex isolated in G - v1 - v2 can only neighbor v2: it is a leaf.
        reading = _p1_reading(graph, [u for u in range(graph.n) if u not in (v1, v2)])
        if reading is None:
            continue
        tag, parts = reading
        params = {
            "pendant": v1,
            "star_center": v2,
            "core_vertices": sorted(u for part in parts for u in part),
            "core_tag": tag,
        }
        return ClassificationResult(("thm11",), {"thm11": params}, {})
    return None


# -- cut-vertex characterization ------------------------------------------------------


@dataclass(frozen=True)
class _ApexShape:
    """Underlying decomposition of G at a cut vertex into an apex family."""

    apex: int
    q_parts: tuple[VertexSet, ...]
    adjacent_parts: tuple[VertexSet, ...]
    other_parts: tuple[VertexSet, ...]


def _split(graph: QuartGainGraph, v: int, parts: Sequence[VertexSet]):
    """The parts v meets whole and the parts v misses; None when v meets a
    part only partly."""
    hit, missed = [], []
    for part in parts:
        hits = sum(1 for u in part if graph.has_edge(v, u))
        if hits not in (0, len(part)):
            return None
        (hit if hits else missed).append(part)
    return tuple(hit), tuple(missed)


def _apex_roles(
    graph: QuartGainGraph, shape: _ApexShape
) -> Optional[tuple[list[Unit], SwitchAssignment]]:
    """The apex gain into each adjacent part once both sides are switched
    to all-1 gains, with the switch sigma that does it; None when a side is
    not positive or a part sees two gains.

    Without the apex edges into the n side, the graph has two components,
    the q side with the apex and the n side.  Switches that keep both all-1
    are constant on each component, so these gains are a switching
    invariant up to a common shift, and the converse negates them.
    """
    apex = shape.apex
    n_side = {u for part in shape.adjacent_parts + shape.other_parts for u in part}
    kept = [(u, v, g) for u, v, g in graph.edges if apex not in (u, v) or u + v - apex not in n_side]
    sides = QuartGainGraph._from_normal(graph.n, tuple(kept))  # a filter of normal records
    normal = tree_normalize(sides)
    if any(g != UNIT_ONE for _, _, g in normal.graph.edges):
        return None
    sigma = normal.assignment
    roles = []
    for part in shape.adjacent_parts:
        values = {(graph.gain(apex, u) - sigma[apex] + sigma[u]) % 4 for u in part}
        if len(values) != 1:
            return None
        roles.extend(values)
    return roles, sigma


def thm12_classify(graph: QuartGainGraph) -> ClassificationResult:
    """Match a connected, pendant-free graph with a cut vertex against the
    four p = 2 families; returns every case that matches.

    Case i is a coalescence of two non-star blocks that each have one
    positive eigenvalue.  Cases ii-iv are apex families: the underlying
    graph must decompose at some cut vertex into two complete multipartite
    blocks joined through the apex, and the family parameters must satisfy
    the stated inequalities.  A family fits exactly when its apex gains
    (1 for case ii; i and -i for case iii; i and 1 for case iv) equal the
    :func:`_apex_roles` of the graph up to a common shift and the converse,
    so each case reads its role split off those values, and the switch
    that read them gives the witness.
    """
    if not is_connected(graph):
        raise ValueError("classification requires a connected graph")
    if pendant_vertices(graph):
        raise ValueError("graph must have no pendant vertex")
    cuts = cut_vertices(graph)
    if not cuts:
        raise ValueError("graph has no cut vertex")
    params: dict = {}
    witnesses: dict = {}

    for v in cuts:
        comps = components_avoiding(graph, v)
        if len(comps) != 2:
            continue
        # Each side is read once.  A side that v meets only partly fits
        # neither case i nor an apex shape.
        sides = []
        for comp in comps:
            parts = complete_multipartite_parts(graph, comp)
            split = None if parts is None else _split(graph, v, parts)
            if split is None:
                break
            sides.append((comp, *split))
        if len(sides) != 2:
            continue
        if "thm12_i" not in params:
            _try_case_i(graph, v, sides, params)
        # v meets every component of G - v, so adj is never empty, and a
        # one-part side would be a pendant vertex, so r, k >= 2.
        for (_, q_parts, q_missed), (_, adj, other) in (sides, sides[::-1]):
            if q_missed:
                continue
            shape = _ApexShape(v, q_parts, adj, other)
            r, k = len(q_parts), len(adj) + len(other)
            reading = _apex_roles(graph, shape)
            if reading is None:
                continue
            roles = reading[0]
            values = set(roles)
            if "thm12_ii" not in params and len(values) == 1 and cor39_condition(r, k, len(adj)):
                gains = [UNIT_ONE] * len(adj)
                _match(graph, shape, reading, gains, "thm12_ii", {"p": len(adj)}, params, witnesses)
            # lem38 with a = b = 1 reduces to r = 2.  Gains i and -i differ
            # by 2, which is symmetric in the two parts, so the first role
            # order fits whenever either does.
            if "thm12_iii" not in params and r == 2 and len(adj) == 2 and (roles[0] - roles[1]) % 4 == 2:
                counts = {"a": 1, "b": 1, "s": k - 2}
                _match(graph, shape, reading, [UNIT_I, UNIT_MINUS_I], "thm12_iii", counts, params, witnesses)
            # Gains i and 1 differ by one, in either direction under the
            # converse: either value's parts may play i.  Of the two masks
            # over the adjacent parts, the smaller is tried first.
            if "thm12_iv" not in params and len(values) == 2 and sum(values) % 2:
                masks = sorted(
                    sum(1 << j for j, role in enumerate(roles) if role == value) for value in values
                )
                for mask in masks:
                    gains = [UNIT_I if mask >> j & 1 else UNIT_ONE for j in range(len(adj))]
                    a = gains.count(UNIT_I)
                    c = len(adj) - a
                    if a >= c and lem310_condition(r, k, a, c):
                        counts = {"a": a, "c": c, "s": k - a - c}
                        _match(graph, shape, reading, gains, "thm12_iv", counts, params, witnesses)
                        break

    order = ("thm12_i", "thm12_ii", "thm12_iii", "thm12_iv")
    cases = tuple(tag for tag in order if tag in params)
    return ClassificationResult(cases, params, witnesses)


def _try_case_i(graph, v, sides, params) -> None:
    found = []
    for comp, hit, missed in sides:
        # comp + v is complete multipartite exactly when v misses at most
        # one part of comp, which v then joins.  It is never a star: in a
        # star block every leaf other than v has degree 1 in the graph, and
        # thm12_classify rejects graphs with a pendant vertex.
        if len(missed) > 1:
            return
        sizes = sorted([len(p) for p in hit] + [1 + sum(map(len, missed))])
        tag = _p1_tag(graph, comp + (v,), len(sizes))
        if tag is None:
            return
        found.append({"tag": tag, "part_sizes": sizes})
    params["thm12_i"] = {"cut_vertex": v, "sides": found}


def _match(graph, shape, reading, gains, tag, counts, params, witnesses) -> None:
    """Record the family whose apex gain into adjacent part j is
    ``gains[j]``, with its witness.

    sigma, from :func:`_apex_roles`, switches both sides to all-1 gains, so
    a further shift s on the n side turns each apex gain into role + s.
    The witness is sigma - sigma(apex), plus s on the n side, where s takes
    every role to its family gain, or else every role to the negated gain
    under the converse.  The graph is connected, so no other switch onto
    the family is 1 at the apex.  The callers' role checks make s exist.
    """
    roles, sigma = reading
    shifts = {(gain - role) % 4 for gain, role in zip(gains, roles)}
    took_converse = len(shifts) > 1
    shift = (-gains[0] - roles[0]) % 4 if took_converse else shifts.pop()
    n_parts = [
        part
        for gain in (UNIT_I, UNIT_MINUS_I, UNIT_ONE)
        for part, part_gain in zip(shape.adjacent_parts, gains)
        if part_gain == gain
    ] + list(shape.other_parts)
    order = [shape.apex, *(u for part in shape.q_parts for u in part)]
    q_end = len(order)
    order += [u for part in n_parts for u in part]
    perm = [0] * graph.n
    for new, old in enumerate(order):
        perm[old] = new
    base = sigma[shape.apex]
    theta = tuple(
        (sigma[old] - base + (shift if new >= q_end else 0)) % 4 for new, old in enumerate(order)
    )
    params[tag] = {
        "cut_vertex": shape.apex,
        "r": len(shape.q_parts),
        "k": len(n_parts),
        **counts,
        "q_sizes": [len(x) for x in shape.q_parts],
        "n_sizes": [len(x) for x in n_parts],
    }
    witnesses[tag] = IsoWitness(tuple(perm), theta, took_converse)


# -- single-vertex extension law -------------------------------------------------------


def lem311_check(f1: QuartGainGraph, f2: QuartGainGraph, v: int) -> bool:
    """Verify the structure forced on a one-vertex extension of a p = 1 graph.

    Hypotheses (checked, raising :class:`HypothesisViolation`): removing
    ``v`` from ``f2`` gives exactly ``f1``; p(f1) = 1; rk(f2) = rk(f1) + 1;
    p(f2) = 2.  The conclusion verified: f1 is a positive complete
    multipartite graph, v's neighborhood is a union of whole partition
    classes, and after switching f1 plain, v's gains are constant on each
    class.
    """
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

    # f1 is connected, so its p = 1 parts cover all of it.  v must be an
    # apex over whole parts, with gains constant per part once f1 is
    # switched plain.
    reading = _p1_reading(f2, [u for u in range(f2.n) if u != v])
    if reading is None or reading[0] != "multipartite":
        return False
    split = _split(f2, v, reading[1])
    return split is not None and _apex_roles(f2, _ApexShape(v, (), *split)) is not None
