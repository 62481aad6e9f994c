"""Reference thm12 classifier, by trial and error, for tests only.

This is ``classify.thm12_classify`` as it stood before the apex roles were
read off the graph: for every role assignment of the adjacent parts (every
mask over them in case iv) it builds the family instance, relabels the
graph onto it and asks :func:`switching_witness`.  Its first match per case
is the one the package must report, with the same params and witnesses.
"""

from __future__ import annotations

from hermitia import (
    ClassificationResult,
    IsoWitness,
    QuartGainGraph,
    components_avoiding,
    cor39_condition,
    cut_vertices,
    is_connected,
    is_positive,
    lem310_condition,
    pendant_vertices,
    switching_witness,
)
from hermitia.classify import _apex_shapes, _family_candidate, _try_case_i


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
