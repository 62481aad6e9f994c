"""Answer checks that share no code with the package under test.

Graphs are handled here as ``(n, {(u, v): gain})`` with ``u < v`` and the
gain an exponent of i for the orientation u -> v, read and written in the
``.qgg`` text format by this module's own parser and writer.  Inertia is
checked against ``numpy.linalg.eigvalsh``; structural predicates, switching
replays and the recorded counts below are written out independently.
"""

from __future__ import annotations

import random

import numpy as np

_TOKENS = ("1", "i", "-1", "-i")
_UNIT = np.array([1, 1j, -1, -1j])

# Relative threshold below which an eigenvalue counts as zero.  Every matrix
# here has entries in {0, +-1, +-i} and order <= 40, so nonzero eigenvalues
# sit far above it and LAPACK's rounding far below.
ZERO_TOL = 1e-7

# Instances checked per suite at the seed commit, for the seed-independent
# suites, keyed by (suite, order); ``None`` is the suite's default order.
EXPECTED_CHECKED = {
    ("pendant", None): 142,
    ("cutvertex", None): 175,
    ("twin_rank3", None): 6087,
    ("thm11", None): 123,
    ("thm12", None): 432,
    ("twins", 4): 384,
    ("interlacing", 4): 377,
    ("cor39", None): 133,
    ("oracle_agreement", 5): 10000,
    ("pendant", 3): 4,
    ("cutvertex", 4): 12,
    ("twin_rank3", 3): 7,
    ("thm11", 4): 8,
    ("thm12", 5): 16,
    ("twins", 3): 24,
    ("interlacing", 3): 17,
}

# The p1 suite's corpus size depends on its seed.  It is the connected mixed
# classes of orders 1..top (count C, of which S have order <= max(2, top - 2)),
# 300 random unions, and one padded copy per class drawn with probability 0.1.
P1_CLASS_COUNTS = {5: (6087, 7), 3: (7, 2)}

# Classes emitted by complete streams, keyed by
# (n, has_cut_vertex, no_pendant, has_pendant, mixed_only).
EXPECTED_CLASSES = {
    (7, True, True, False, True): 39932,
    (6, False, False, True, True): 8405,
    (5, True, True, False, True): 16,
    (5, False, False, True, True): 115,
}


def expected_checked(suite: str, order, seed: int) -> int:
    if suite == "p1":
        return _p1_corpus_size(5 if order is None else order, seed)
    return EXPECTED_CHECKED[(suite, order)]


def _p1_corpus_size(top: int, seed: int) -> int:
    classes, small = P1_CLASS_COUNTS[top]
    rng = random.Random(seed)
    for _ in range(300):
        rng.choice(range(small))
        rng.choice(range(small))
        rng.random()
    padded = 0
    for _ in range(classes):
        if rng.random() < 0.1:
            rng.randint(1, 2)
            padded += 1
    return classes + 300 + padded


# -- .qgg text ---------------------------------------------------------------


def write_qgg(n: int, edges: dict) -> str:
    lines = [f"n {n}"]
    lines += [f"G {u} {v} {_TOKENS[g]}" for (u, v), g in sorted(edges.items())]
    return "\n".join(lines) + "\n"


def read_qgg(text: str) -> tuple[int, dict]:
    n = None
    edges: dict = {}
    for raw in text.splitlines():
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if n is None:
            if tokens[0] != "n" or len(tokens) != 2:
                raise ValueError(f"bad header {raw!r}")
            n = int(tokens[1])
            continue
        a, b = int(tokens[1]), int(tokens[2])
        gain = {"U": 0, "A": 1}.get(tokens[0])
        if gain is None:
            gain = _TOKENS.index(tokens[3])
        if a > b:
            a, b, gain = b, a, (-gain) % 4
        if (a, b) in edges or a == b or b >= n:
            raise ValueError(f"bad edge line {raw!r}")
        edges[(a, b)] = gain
    if n is None:
        raise ValueError("missing header")
    return n, edges


# -- spectra -------------------------------------------------------------------


def numpy_inertia(n: int, edges: dict) -> tuple[int, int, int]:
    eigs = np.linalg.eigvalsh(_matrix(n, edges)) if n else np.zeros(0)
    cut = ZERO_TOL * max(1.0, float(np.abs(eigs).max(initial=0.0)))
    p = int((eigs > cut).sum())
    neg = int((eigs < -cut).sum())
    return p, neg, n - p - neg


def parse_inertia_line(text: str) -> tuple[int, int, int]:
    fields = dict(item.split("=") for item in text.split())
    return int(fields["p"]), int(fields["n"]), int(fields["eta"])


# -- structure -----------------------------------------------------------------


def _adjacency(n: int, edges: dict, skip: int = -1) -> list[set]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if skip not in (u, v):
            adj[u].add(v)
            adj[v].add(u)
    return adj


def component_count(n: int, edges: dict, skip: int = -1) -> int:
    adj = _adjacency(n, edges, skip)
    seen = {skip}
    count = 0
    for start in range(n):
        if start in seen:
            continue
        count += 1
        seen.add(start)
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def shape(n: int, edges: dict) -> dict:
    """Connectivity, pendant and cut-vertex facts, and whether no gain is -1."""
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    base = component_count(n, edges)
    return {
        "connected": base <= 1,
        "pendant": 1 in degree,
        "cut_vertex": any(component_count(n, edges, v) > base for v in range(n)),
        "mixed": 2 not in edges.values(),
    }


# -- switching -----------------------------------------------------------------


def switch(edges: dict, theta) -> dict:
    return {(u, v): (g - theta[u] + theta[v]) % 4 for (u, v), g in edges.items()}


def converse(edges: dict) -> dict:
    return {key: (-g) % 4 for key, g in edges.items()}


def relabel(edges: dict, perm) -> dict:
    out = {}
    for (u, v), g in edges.items():
        a, b = perm[u], perm[v]
        out[(a, b) if a < b else (b, a)] = g if a < b else (-g) % 4
    return out


def replays(g1: dict, g2: dict, witness: dict) -> bool:
    """Relabel, then switch, then optionally take the converse, gives g2."""
    if sorted(witness["perm"]) != list(range(len(witness["perm"]))):
        return False
    out = switch(relabel(g1, witness["perm"]), witness["theta"])
    if witness["converse"]:
        out = converse(out)
    return out == g2


def switching_to(n: int, source: dict, target: dict) -> bool:
    """Whether some vertex switch of ``source`` equals ``target``, both on
    the same labeled underlying graph, found by propagating along a spanning
    forest and then checked on every edge."""
    if source.keys() != target.keys():
        return False
    adj = _adjacency(n, source)
    theta = [None] * n
    for root in range(n):
        if theta[root] is not None:
            continue
        theta[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if theta[w] is None:
                    key = (u, w) if u < w else (w, u)
                    # target = source - theta[a] + theta[b] on key (a, b).
                    if u < w:
                        theta[w] = (target[key] - source[key] + theta[u]) % 4
                    else:
                        theta[w] = (theta[u] - target[key] + source[key]) % 4
                    stack.append(w)
    return switch(source, theta) == target


def spectra_differ(n: int, a: dict, b: dict) -> bool:
    """True when H(a) and H(b) have different spectra, which rules out any
    relabeling, switching or converse taking one to the other."""
    ea = np.linalg.eigvalsh(_matrix(n, a))
    eb = np.linalg.eigvalsh(_matrix(n, b))
    return bool(np.abs(ea - eb).max(initial=0.0) > 1e-6)


def _matrix(n: int, edges: dict) -> np.ndarray:
    h = np.zeros((n, n), dtype=complex)
    for (u, v), g in edges.items():
        h[u, v] = _UNIT[g]
        h[v, u] = np.conj(_UNIT[g])
    return h
