"""Labeled gain graphs over the fourth roots of unity, with file I/O.

A :class:`QuartGainGraph` carries one gain in {1, i, -1, -i} per edge.  The
gain is stored once, for the orientation u -> v with u < v; reading the
opposite orientation conjugates it.  Mixed graphs are exactly the members
with no -1 gain: gain 1 is an undirected edge, gain i an arc u -> v, gain -i
an arc v -> u.

A graph's value is its order and its sorted edge tuple, fixed at
construction.  The neighbour index that structural queries read sits in a
slot that holds ``None`` until the one accessor ``_index`` fills it, on the
first query; two threads that race there build equal indexes and store one
of them, so any number of concurrent readers is safe.  All structural
queries (components, cut vertices, pendant vertices) are judged on the
underlying simple graph.  Components are read off one canonical BFS
spanning forest, :func:`bfs_forest` (each component rooted at its smallest
vertex, neighbors in increasing order), which also fixes the spanning tree
behind the switching canonical form and the enumeration of switching
classes.  Cut vertices come from one lowpoint depth-first search.

The on-disk format is ``.qgg``: line-oriented ASCII, '#" comments, a header
line ``n <count>`` with count at most :data:`MAX_ORDER`, followed by edge
lines ``U a b`` (gain 1), ``A a b`` (arc a -> b) or ``G a b <gain>``.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, ItemsView, Iterable, Sequence

from .numeric import (
    UNIT_I,
    UNIT_MINUS_I,
    UNIT_MINUS_ONE,
    UNIT_ONE,
    Unit,
    as_int,
    unit_conj,
    unit_from_token,
    unit_token,
)

if TYPE_CHECKING:
    import numpy as np

# A vertex set is a strictly increasing tuple of vertex ids.
VertexSet = tuple[int, ...]

Edge = tuple[int, int, Unit]


class GraphFormatError(ValueError):
    """Raised for malformed .qgg text or invalid edge data."""


def vertex_id(graph: QuartGainGraph, v: object) -> int:
    """``v`` as a vertex id of ``graph``, the rule for every id a caller passes:
    an integer by :func:`as_int` (numpy integers pass; bools, floats and
    strings raise) with 0 <= v < n, else ValueError."""
    if type(v) is not int:
        v = as_int(v, "vertex id")
    if not 0 <= v < graph.n:
        raise ValueError(f"vertex id {v} out of range")
    return v


class QuartGainGraph:
    """Immutable gain graph on vertices 0..n-1.

    ``edges`` is a sorted tuple of (u, v, gain) records with u < v and the
    gain given for the orientation u -> v; with ``n`` it is the graph's
    whole value.  Construction checks each record once, orients it as
    u < v, sorts the records and rejects self-loops, duplicate pairs and
    ids or gains that are not integers (a bool is not one; numpy integers
    are stored as int).  The neighbour index behind :meth:`has_edge`,
    :meth:`gain`, :meth:`neighbors`, :meth:`neighbor_gains` and
    :meth:`degree` starts as ``None`` and is built from ``edges`` by
    ``_index`` on the first such query, so a graph that is only serialized,
    hashed, compared or turned into a matrix never builds it.  These queries
    apply the :func:`vertex_id` rule to every id they are given.

    Builders whose records are normal by construction, taken from
    ``connected_underlying``, from an existing graph's own records, from
    :func:`parse_graph`'s line checks or drawn pair by pair with u < v,
    skip the checks through the private ``_from_normal``: the enumeration
    stream, :func:`parse_graph`, :func:`induced_subgraph` (so
    :func:`delete_vertex` and the component cut in ``inertia``),
    ``converse``, ``apply_switch`` (which checks only its switch values),
    :func:`underlying`, :func:`disjoint_union`, the side graph of the apex
    classifier and the suites' seeded ``_random_graph``.  Every other
    builder (:func:`relabel`, :func:`coalesce`, the family constructors) and
    all user code go through the checking constructor.
    """

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, Unit]] = ()):
        if type(n) is not int:
            n = as_int(n, "vertex count", GraphFormatError)
        if n < 0:
            raise GraphFormatError(f"vertex count must be nonnegative, got {n}")
        records: list[Edge] = []
        seen: set[int] = set()
        for u, v, gain in edges:
            if not type(u) is type(v) is type(gain) is int:
                u, v, gain = (
                    as_int(u, "vertex id", GraphFormatError),
                    as_int(v, "vertex id", GraphFormatError),
                    as_int(gain, "gain code", GraphFormatError),
                )
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"vertex id out of range in edge ({u}, {v})")
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            if gain not in (0, 1, 2, 3):
                raise GraphFormatError(f"invalid gain code {gain!r}")
            if u > v:
                u, v, gain = v, u, unit_conj(gain)
            key = u * n + v
            if key in seen:
                raise GraphFormatError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            records.append((u, v, gain))
        records.sort()
        self.n = n
        self.edges = tuple(records)
        self._adj = None

    @classmethod
    def _from_normal(cls, n: int, edges: tuple[Edge, ...]) -> QuartGainGraph:
        """The graph on ``edges``, stored unchecked.

        ``edges`` must already be normal: a tuple of int triples (u, v,
        gain) with 0 <= u < v < n, strictly increasing in (u, v), and gain
        in 0..3.  Build it at its final size (``tuple([...])``): a tuple
        grown from an iterator with no length hint is resized, and the
        resized tuples fill CPython's tuple free lists.
        """
        graph = object.__new__(cls)
        graph.n = n
        graph.edges = edges
        graph._adj = None
        return graph

    # -- basic queries ------------------------------------------------------

    def _index(self) -> tuple[dict[int, Unit], ...]:
        """The neighbour index, per vertex u a dict neighbour x -> gain of
        u -> x with x increasing, filled from ``edges`` on the first call.
        Two threads racing here build equal indexes and one of them is kept."""
        adj = self._adj
        if adj is None:
            rows: list[dict[int, Unit]] = [{} for _ in range(self.n)]
            for u, v, gain in self.edges:
                rows[u][v] = gain
                rows[v][u] = -gain % 4  # unit_conj, inlined on this hot path
            adj = self._adj = tuple(rows)
        return adj

    def _row(self, u: int) -> dict[int, Unit]:
        """Row u of the neighbour index: a plain int u >= 0 indexes it, whose
        bound stops u >= n, and any other u goes through :func:`vertex_id`."""
        adj = self._adj or self._index()
        if type(u) is int and u >= 0:
            try:
                return adj[u]
            except IndexError:
                pass
        return adj[vertex_id(self, u)]

    def has_edge(self, u: int, v: int) -> bool:
        # Row u is read once; v goes through vertex_id only when it is not a
        # plain int key of the row (True == 1 would match a key of 1).
        row = self._row(u)
        return type(v) is int and v in row or vertex_id(self, v) in row

    def gain(self, u: int, v: int) -> Unit:
        """Gain of the edge oriented u -> v; raises if not adjacent."""
        row = self._row(u)
        if type(v) is not int or v not in row:
            v = vertex_id(self, v)
            if v not in row:
                raise ValueError(f"no edge between {u} and {v}")
        return row[v]

    def neighbors(self, u: int) -> tuple[int, ...]:
        # Already increasing: each row is filled from the sorted edges, every (w, u) before (u, x).
        return tuple(self._row(u))

    def neighbor_gains(self, u: int) -> ItemsView[int, Unit]:
        """Read-only (neighbor x, gain of u -> x) pairs, x increasing as in
        :meth:`neighbors`."""
        return self._row(u).items()

    def degree(self, u: int) -> int:
        return len(self._row(u))

    @property
    def is_mixed(self) -> bool:
        """True when no edge carries gain -1."""
        return all(g != UNIT_MINUS_ONE for _, _, g in self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuartGainGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"QuartGainGraph(n={self.n}, edges={self.edges!r})"


# -- .qgg parsing and serialization ------------------------------------------

# Largest vertex count a .qgg header may declare.  The first structural query
# fills one neighbour dict per vertex, so without a bound a ten-byte file such
# as "n 1000000000" would ask for tens of gigabytes before any answer.
MAX_ORDER = 1024


# Per record type: its usage line, its token count and its gain (None: read
# from the line).  An arc a -> b has gain i for the stored a < b orientation.
_RECORDS = {
    "U": ("U a b", 3, UNIT_ONE),
    "A": ("A a b", 3, UNIT_I),
    "G": ("G a b <gain>", 4, None),
}


def parse_graph(text: str) -> QuartGainGraph:
    """Parse .qgg text into a graph.

    Reports the offending line number for syntax errors, duplicate edges,
    self-loops, out-of-range vertex ids and unknown gain tokens.
    """
    n: int | None = None
    edges: list[Edge] = []
    seen: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # split() drops the same whitespace strip() would, so the first
        # token starts the stripped line.
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n" or not _is_ascii_digits(tokens[1]):
                raise GraphFormatError(f"line {lineno}: expected header 'n <count>'")
            n = int(tokens[1])
            if n > MAX_ORDER:
                raise GraphFormatError(
                    f"line {lineno}: vertex count {n} exceeds the maximum order {MAX_ORDER}"
                )
            continue
        kind = tokens[0]
        record = _RECORDS.get(kind)
        if record is None:
            raise GraphFormatError(f"line {lineno}: unknown record type {kind!r}")
        usage, arity, gain = record
        if len(tokens) != arity:
            raise GraphFormatError(f"line {lineno}: expected '{usage}'")
        ta, tb = tokens[1], tokens[2]
        if not (ta.isdigit() and tb.isdigit() and ta.isascii() and tb.isascii()):
            bad = ta if not _is_ascii_digits(ta) else tb
            raise GraphFormatError(f"line {lineno}: bad vertex id {bad!r}")
        a, b = int(ta), int(tb)
        if gain is None:
            try:
                gain = unit_from_token(tokens[3])
            except ValueError:
                raise GraphFormatError(
                    f"line {lineno}: unknown gain token {tokens[3]!r}"
                ) from None
        if a == b:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {a}")
        if not (a < n and b < n):
            raise GraphFormatError(f"line {lineno}: vertex id >= n")
        # Oriented a < b; with the checks above every record is normal.
        if a > b:
            a, b, gain = b, a, unit_conj(gain)
        key = a * n + b
        if key in seen:
            raise GraphFormatError(f"line {lineno}: duplicate edge {(a, b)}")
        seen.add(key)
        edges.append((a, b, gain))
    if n is None:
        raise GraphFormatError("missing 'n <count>' header line")
    return QuartGainGraph._from_normal(n, tuple(sorted(edges)))


def _is_ascii_digits(token: str) -> bool:
    # str.isdigit also accepts digits such as '²' that int() rejects.
    return token.isascii() and token.isdigit()


def serialize_graph(graph: QuartGainGraph) -> str:
    """Canonical .qgg text; ``parse_graph`` of the result round-trips."""
    lines = [f"n {graph.n}"]
    for u, v, g in graph.edges:
        if g == UNIT_ONE:
            lines.append(f"U {u} {v}")
        elif g == UNIT_I:
            lines.append(f"A {u} {v}")
        elif g == UNIT_MINUS_I:
            lines.append(f"A {v} {u}")
        else:
            lines.append(f"G {u} {v} {unit_token(g)}")
    return "\n".join(lines) + "\n"


def compact_str(graph: QuartGainGraph) -> str:
    """One-line rendering of the canonical .qgg form, for reports."""
    return serialize_graph(graph).strip().replace("\n", "; ")


# -- derived graphs -----------------------------------------------------------


def underlying(graph: QuartGainGraph) -> QuartGainGraph:
    """The same edge set with every gain replaced by 1."""
    return QuartGainGraph._from_normal(
        graph.n, tuple([(u, v, UNIT_ONE) for u, v, _ in graph.edges])
    )


def induced_subgraph(graph: QuartGainGraph, vertices: Sequence[int]) -> QuartGainGraph:
    """Induced subgraph relabeled 0..|S|-1 in order; gains preserved."""
    vs = sorted({vertex_id(graph, v) for v in vertices})
    index = {v: i for i, v in enumerate(vs)}
    # The relabeling is increasing, so the records stay sorted.
    edges = [
        (index[u], index[v], g)
        for u, v, g in graph.edges
        if u in index and v in index
    ]
    return QuartGainGraph._from_normal(len(vs), tuple(edges))


# The unit i**k as (re, im).
_UNIT_PARTS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def gain_grids(graph: QuartGainGraph) -> tuple[list[list[int]], list[list[int]]]:
    """The (re, im) int grids of H(G): entry (s, t) is the gain of the edge
    oriented s -> t, else 0."""
    n = graph.n
    re = [[0] * n for _ in range(n)]
    im = [[0] * n for _ in range(n)]
    for s, t, g in graph.edges:
        a, b = _UNIT_PARTS[g]
        re[s][t] = re[t][s] = a
        im[s][t], im[t][s] = b, -b
    return re, im


def gain_arrays(graph: QuartGainGraph) -> tuple[np.ndarray, np.ndarray]:
    """The (re, im) float64 arrays of H(G).

    The entries of :func:`gain_grids`, set by numpy indexing from
    ``graph.edges`` in one pass, with no Python-int grid.
    """
    import numpy as np

    n = graph.n
    records = np.fromiter(
        itertools.chain.from_iterable(graph.edges), dtype=np.intp, count=3 * len(graph.edges)
    ).reshape(-1, 3)
    s, t = records[:, 0], records[:, 1]
    a, b = np.array(_UNIT_PARTS, dtype=float)[records[:, 2]].T
    re, im = np.zeros((n, n)), np.zeros((n, n))
    re[s, t] = re[t, s] = a
    im[s, t], im[t, s] = b, -b
    return re, im


def gaussian_matmul(a_re, a_im, b_re, b_im):
    """(a_re + i*a_im)(b_re + i*b_im) over Z[i], parts as 2-D numpy arrays of one
    dtype: exact at any size for object arrays of Python ints, and for int64
    or float64 only while the caller bounds every partial sum."""
    return a_re @ b_re - a_im @ b_im, a_re @ b_im + a_im @ b_re


def delete_vertex(graph: QuartGainGraph, v: int) -> QuartGainGraph:
    v = vertex_id(graph, v)
    return induced_subgraph(graph, [u for u in range(graph.n) if u != v])


def relabel(graph: QuartGainGraph, perm: Sequence[int]) -> QuartGainGraph:
    """Relabel vertices; ``perm[old]`` is the new id of ``old``.  Each entry
    must pass :func:`vertex_id`, and the entries must be n distinct ids."""
    perm = [vertex_id(graph, new) for new in perm]
    if len(perm) != graph.n or len(set(perm)) != graph.n:
        raise ValueError("perm is not a permutation of the vertex ids")
    return QuartGainGraph(graph.n, [(perm[u], perm[v], g) for u, v, g in graph.edges])


def disjoint_union(a: QuartGainGraph, b: QuartGainGraph) -> QuartGainGraph:
    # b's records, shifted past every vertex of a, sort after all of a's.
    shift = a.n
    return QuartGainGraph._from_normal(
        a.n + b.n, a.edges + tuple([(u + shift, v + shift, g) for u, v, g in b.edges])
    )


def coalesce(g1: QuartGainGraph, v1: int, g2: QuartGainGraph, v2: int) -> QuartGainGraph:
    """Identify vertex v1 of g1 with vertex v2 of g2.

    The result keeps g1's labels; g2's remaining vertices are appended in
    increasing order starting at g1.n.  The merged vertex carries the union
    of both incidence lists and there are no other edges between the sides.
    """
    v1, v2 = vertex_id(g1, v1), vertex_id(g2, v2)
    mapping = [v1 if u == v2 else g1.n + u - (u > v2) for u in range(g2.n)]
    edges = list(g1.edges) + [(mapping[u], mapping[v], g) for u, v, g in g2.edges]
    return QuartGainGraph(g1.n + g2.n - 1, edges)


# -- structural queries --------------------------------------------------------


def bfs_forest(
    graph: QuartGainGraph, removed: Iterable[int] = ()
) -> tuple[list[int], list[int]]:
    """The canonical BFS spanning forest of the underlying graph.

    Each component of the graph minus ``removed`` is rooted at its smallest
    vertex and searched breadth-first with neighbors taken in increasing
    order.  Returns ``(order, parent)``: ``order`` lists the visited vertices
    with each component contiguous and starting at its root, and
    ``parent[v]`` is v's parent in its tree, -1 for a root or a removed
    vertex.  Parents precede their children in ``order``.
    """
    seen = [False] * graph.n
    for v in removed:
        seen[vertex_id(graph, v)] = True
    parent = [-1] * graph.n
    adj = graph._index()
    order: list[int] = []
    head = 0
    for root in range(graph.n):
        if seen[root]:
            continue
        seen[root] = True
        order.append(root)
        while head < len(order):
            u = order[head]
            head += 1
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = u
                    order.append(w)
    return order, parent


def _forest_components(order: list[int], parent: list[int]) -> list[VertexSet]:
    trees: list[list[int]] = []
    for v in order:
        if parent[v] < 0:
            trees.append([])
        trees[-1].append(v)
    return [tuple(sorted(tree)) for tree in trees]


def components(graph: QuartGainGraph) -> list[VertexSet]:
    """Connected components of the underlying graph, sorted by smallest member."""
    return _forest_components(*bfs_forest(graph))


def components_avoiding(graph: QuartGainGraph, v: int) -> list[VertexSet]:
    """Components of the graph minus vertex v, kept in original labels."""
    return _forest_components(*bfs_forest(graph, (v,)))


def is_connected(graph: QuartGainGraph) -> bool:
    return len(components(graph)) <= 1


def neighbor_masks(graph: QuartGainGraph) -> list[int]:
    """Per vertex u, the bit mask of its neighbours (bit x set when u ~ x),
    read in one pass over ``edges`` with no neighbour index."""
    nbr = [0] * graph.n
    for u, v, _ in graph.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return nbr


def pendant_vertices(graph: QuartGainGraph) -> VertexSet:
    # Degrees are counted off the edge tuple, so a graph that is only tested
    # for pendants (most enumerated classes in the law suites) builds no
    # neighbour index.
    degree = [0] * graph.n
    for u, v, _ in graph.edges:
        degree[u] += 1
        degree[v] += 1
    return tuple(v for v in range(graph.n) if degree[v] == 1)


def cut_vertices(graph: QuartGainGraph) -> VertexSet:
    """Vertices whose removal increases the number of components.

    One iterative depth-first search with lowpoints (Hopcroft-Tarjan):
    ``low[u]`` is the smallest depth reachable from u's subtree by one
    non-tree edge.  A child c separates its parent p from the rest when
    ``low[c] >= depth[p]``; a root is a cut vertex with two such children,
    any other vertex with one.
    """
    depth = [-1] * graph.n
    low = [0] * graph.n
    separated = [0] * graph.n
    adj = graph._index()
    for root in range(graph.n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        stack = [(root, iter(adj[root]))]
        while stack:
            u, pending = stack[-1]
            for w in pending:
                if depth[w] < 0:
                    depth[w] = low[w] = depth[u] + 1
                    stack.append((w, iter(adj[w])))
                    break
                low[u] = min(low[u], depth[w])
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[u])
                    if low[u] >= depth[p]:
                        separated[p] += 1
    return tuple(v for v in range(graph.n) if separated[v] > (depth[v] == 0))
