"""Reference thm12 classifier, by trial and error, for tests only.

This is ``classify.thm12_classify`` as it stood before the apex roles were
read off the graph: for every role assignment of the adjacent parts (every
mask over them in case iv) it builds the family instance, relabels the
graph onto it and asks :func:`switching_witness`.  Its first match per case
is the one the package must report, with the same params and witnesses.

Its shape and case-i readers are the package's as they stood before each
cut-vertex side was read once: the block's parts and the apex shape are
read separately, on the reference parts of ``parts_twins_reference``.  The
only private name it takes from the package is the ``_ApexShape`` record.
"""

from __future__ import annotations

from typing import Optional, Sequence

from hermitia import (
    ClassificationResult,
    IsoWitness,
    QuartGainGraph,
    components_avoiding,
    cor39_condition,
    cut_vertices,
    gen_K_gain,
    induced_subgraph,
    is_connected,
    is_odd_triangle,
    is_positive,
    lem310_condition,
    pendant_vertices,
    relabel,
    switching_witness,
    twin_reduction,
)
from hermitia.classify import _ApexShape
from hermitia.graph_core import VertexSet
from parts_twins_reference import complete_multipartite_parts_reference


def thm12_classify_reference(graph: QuartGainGraph) -> ClassificationResult:
    """Match a connected, pendant-free graph with a cut vertex against the
    four p = 2 families; returns every case that matches.

    Case i is a coalescence of two non-star blocks that each have one
    positive eigenvalue.  Cases ii-iv are apex families: the underlying
    graph must decompose at some cut vertex into two complete multipartite
    blocks joined through the apex, with the gains switching-equivalent to
    the family pattern and the family parameters satisfying the stated
    inequalities.
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
        if "thm12_i" not in params:
            _try_case_i(graph, v, comps, params)
        for shape in _apex_shapes(graph, v, comps):
            r = len(shape.q_parts)
            k = len(shape.adjacent_parts) + len(shape.other_parts)
            if r < 2 or k < 2:
                continue
            if "thm12_ii" not in params:
                _try_case_ii(graph, shape, r, k, params, witnesses)
            if "thm12_iii" not in params:
                _try_case_iii(graph, shape, r, k, params, witnesses)
            if "thm12_iv" not in params:
                _try_case_iv(graph, shape, r, k, params, witnesses)

    order = ("thm12_i", "thm12_ii", "thm12_iii", "thm12_iv")
    cases = tuple(tag for tag in order if tag in params)
    return ClassificationResult(cases, params, witnesses)


def _try_case_ii(graph, shape, r, k, params, witnesses) -> None:
    p = len(shape.adjacent_parts)
    if not cor39_condition(r, k, p):
        return
    if p == 1 and len(shape.adjacent_parts[0]) < 2 and k < 3:
        return
    if not is_positive(graph):
        return
    family, perm, relabeled = _family_candidate(
        graph, shape, (), (), shape.adjacent_parts
    )
    witness = switching_witness(relabeled, family)
    if witness is None:
        return
    theta, took_converse = witness
    params["thm12_ii"] = {
        "cut_vertex": shape.apex,
        "r": r,
        "k": k,
        "p": p,
        "q_sizes": [len(x) for x in shape.q_parts],
        "n_sizes": [len(x) for x in shape.adjacent_parts]
        + [len(x) for x in shape.other_parts],
    }
    witnesses["thm12_ii"] = IsoWitness(perm, theta, took_converse)


def _try_case_iii(graph, shape, r, k, params, witnesses) -> None:
    if r != 2 or len(shape.adjacent_parts) != 2:
        return
    # lem38 with a = b = 1 reduces to r = 2; both role orders are tried
    # because the two adjacent parts may differ in size.
    for first, second in (
        (shape.adjacent_parts[0], shape.adjacent_parts[1]),
        (shape.adjacent_parts[1], shape.adjacent_parts[0]),
    ):
        family, perm, relabeled = _family_candidate(graph, shape, (first,), (second,), ())
        witness = switching_witness(relabeled, family)
        if witness is None:
            continue
        theta, took_converse = witness
        params["thm12_iii"] = {
            "cut_vertex": shape.apex,
            "r": r,
            "k": k,
            "a": 1,
            "b": 1,
            "s": k - 2,
            "q_sizes": [len(x) for x in shape.q_parts],
            "n_sizes": [len(first), len(second)]
            + [len(x) for x in shape.other_parts],
        }
        witnesses["thm12_iii"] = IsoWitness(perm, theta, took_converse)
        return


def _try_case_iv(graph, shape, r, k, params, witnesses) -> None:
    adj = shape.adjacent_parts
    total = len(adj)
    if total < 2:
        return
    for mask in range(1, 1 << total):
        i_parts = [adj[j] for j in range(total) if mask >> j & 1]
        one_parts = [adj[j] for j in range(total) if not mask >> j & 1]
        a, c = len(i_parts), len(one_parts)
        if c < 1 or a < c:
            continue
        if not lem310_condition(r, k, a, c):
            continue
        family, perm, relabeled = _family_candidate(graph, shape, i_parts, (), one_parts)
        witness = switching_witness(relabeled, family)
        if witness is None:
            continue
        theta, took_converse = witness
        params["thm12_iv"] = {
            "cut_vertex": shape.apex,
            "r": r,
            "k": k,
            "a": a,
            "c": c,
            "s": k - a - c,
            "q_sizes": [len(x) for x in shape.q_parts],
            "n_sizes": [len(x) for x in i_parts]
            + [len(x) for x in one_parts]
            + [len(x) for x in shape.other_parts],
        }
        witnesses["thm12_iv"] = IsoWitness(perm, theta, took_converse)
        return


def _p1_reading(graph: QuartGainGraph) -> Optional[tuple[str, list[VertexSet]]]:
    live = [v for v in range(graph.n) if graph.degree(v) > 0]
    if not live:
        return None
    core = induced_subgraph(graph, live)
    parts = complete_multipartite_parts_reference(core)
    if parts is None or len(parts) < 2:
        return None
    if is_positive(core):
        return "multipartite", parts
    if len(parts) == 3 and is_odd_triangle(twin_reduction(core)):
        return "c3t", parts
    return None


def _try_case_i(graph, v, comps, params) -> None:
    sides = []
    for comp in comps:
        # Each side is connected, so its p = 1 parts cover all of it, and
        # it is a star exactly when it has two parts, one a single vertex.
        reading = _p1_reading(induced_subgraph(graph, sorted(comp + (v,))))
        if reading is None:
            return
        tag, parts = reading
        sizes = sorted(len(p) for p in parts)
        if len(sizes) == 2 and sizes[0] == 1:
            return
        sides.append({"tag": tag, "part_sizes": sizes})
    params["thm12_i"] = {"cut_vertex": v, "sides": sides}


def _apex_shapes(
    graph: QuartGainGraph, v: int, comps: Sequence[VertexSet]
) -> list[_ApexShape]:
    shapes = []
    part_cache = {
        comp: complete_multipartite_parts_reference(graph, comp) for comp in comps
    }
    for q_comp, n_comp in ((comps[0], comps[1]), (comps[1], comps[0])):
        q_parts = part_cache[q_comp]
        n_parts = part_cache[n_comp]
        if q_parts is None or n_parts is None:
            continue
        if not all(graph.has_edge(v, u) for u in q_comp):
            continue
        adjacent = []
        other = []
        whole = True
        for part in n_parts:
            hits = sum(1 for u in part if graph.has_edge(v, u))
            if hits == len(part):
                adjacent.append(part)
            elif hits == 0:
                other.append(part)
            else:
                whole = False
                break
        if not whole or not adjacent:
            continue
        shapes.append(_ApexShape(v, tuple(q_parts), tuple(adjacent), tuple(other)))
    return shapes


def _family_candidate(
    graph: QuartGainGraph,
    shape: _ApexShape,
    i_parts: Sequence[VertexSet],
    minus_i_parts: Sequence[VertexSet],
    one_parts: Sequence[VertexSet],
) -> tuple[QuartGainGraph, tuple[int, ...], QuartGainGraph]:
    """The family instance matching the shape with the given gain roles,
    together with the relabeling of ``graph`` onto the family layout."""
    order = [shape.apex]
    for group in (shape.q_parts, i_parts, minus_i_parts, one_parts, shape.other_parts):
        for part in group:
            order.extend(part)
    perm = [0] * graph.n
    for new, old in enumerate(order):
        perm[old] = new
    q_sizes = [len(p) for p in shape.q_parts]
    n_sizes = (
        [len(p) for p in i_parts]
        + [len(p) for p in minus_i_parts]
        + [len(p) for p in one_parts]
        + [len(p) for p in shape.other_parts]
    )
    family = gen_K_gain(
        q_sizes, n_sizes, len(i_parts), len(minus_i_parts), len(one_parts), 0
    )
    return family, tuple(perm), relabel(graph, perm)
