"""Exhaustive enumeration of switching classes at desk scale.

Connected underlying graphs are generated up to isomorphism by extending
each smaller graph by one neighbour mask per orbit of the automorphisms
the bit-mask search of :func:`canonical_form` finds, deduplicated by it.
Only an extension whose new vertex has the least degree among its non-cut
vertices is given a form, a cheap first step of canonical deletion.

For each underlying graph, the tree of the canonical BFS spanning forest
(:func:`graph_core.bfs_forest`, the tree that
:func:`switching_twins.tree_normalize` also switches to all-1 gains) is
fixed and every assignment of gains to the non-tree edges is emitted: the
non-tree gains are the fundamental-cycle values, a complete invariant of
four-way switching, so distinct assignments are pairwise inequivalent and
together exhaust the label-preserving four-way-switching classes (pairs
related only by the converse are kept distinct; there are 4^(m-n+1) classes
per connected underlying graph).  Without ``mixed_only``, every emitted
class is therefore its own ``tree_normalize`` form.

With ``mixed_only`` set, a class is emitted only if some four-way switching
of it has no -1 gain, and :func:`mixed_representative` emits the switching
by the lexicographically least such switch, pinned to 1 on vertex 0 (a
global phase acts trivially on gains).  It finds that switch by a
depth-first search over the vertices in order, where each edge rules out
one value at its larger end, instead of trying all 4^(n-1) switches.

A gain assignment is the tuple of its sorted (u, v, gain) records, one
pick per edge from the single record with gain 1 on a tree edge and from
the four records over ``UNITS`` otherwise, so the product of those picks
yields the records an emitted class is built from.  A tuple with no -1
gain is emitted as it stands.  Until the search first reaches a vertex L,
it reads only edges (u, v) with v < L, so each underlying graph's edges
are split into a head and a tail whose edges all have v >= L: the search
runs once per head tuple up to L and resumes from a copy of that state on
each tail tuple, and a head whose search fails there has no mixed tail.
One stream of records, :func:`_class_tuples`, backs both
:func:`enumerate_switching_classes`, which builds each class as a graph
exactly once, and the mixed :func:`count_switching_classes`, which builds
none.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .graph_core import (
    Edge,
    QuartGainGraph,
    bfs_forest,
    cut_vertices,
    pendant_vertices,
)
from .numeric import UNIT_MINUS_ONE, UNIT_ONE, UNITS, Unit, as_int
from .switching_twins import apply_switch

Pair = tuple[int, int]
EdgeTuple = tuple[Pair, ...]

# Largest order enumerate_switching_classes accepts.
HARD_CAP = 7

# Most gain assignments a mixed count_switching_classes may search, under a minute
# at the order-6 rate; order 7 unfiltered would need 1,611,636,134.
MAX_COUNT_SEARCHES = 10**7


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate: connected graphs of exact order ``n``, plus
    population filters.

    ``limit`` stops the stream after that many classes; 0 emits none and a
    negative limit is a ``ValueError``.  ``n`` and ``limit`` follow the
    integer rule of :func:`as_int`: a bool or a float is a ``ValueError``.
    """

    n: int
    has_cut_vertex: bool = False
    no_pendant: bool = False
    has_pendant: bool = False
    mixed_only: bool = False
    limit: Optional[int] = None


# -- canonical labeling ----------------------------------------------------------


def _equitable_cells(nbr: list[int]) -> list[int]:
    """The ordered cells, as vertex bit masks, that :func:`_least_orders`
    starts from: the degree classes, lowest first, refined in rounds that
    split each cell in place by its vertices' negated neighbour counts in
    the round-start cells, in increasing order, until none splits.  These
    are colour refinement's cells in the order of its (colour, sorted
    neighbour colours) ranks: cells only split, so a cell's vertices share
    a degree, and for equal-length sorted tuples of neighbour colours
    lexicographic order is the order of the negated count vectors."""
    degree = [mask.bit_count() for mask in nbr]
    refined = [sum(1 << v for v, d in enumerate(degree) if d == k) for k in sorted(set(degree))]
    cells: list[int] = []
    while len(refined) != len(cells):
        cells, refined = refined, []
        for cell in cells:
            if not cell & (cell - 1):
                refined.append(cell)
                continue
            parts: dict[tuple[int, ...], int] = {}
            todo = cell
            while todo:
                low = todo & -todo
                todo ^= low
                mine = nbr[low.bit_length() - 1]
                key = tuple([-(mine & other).bit_count() for other in cells])
                parts[key] = parts.get(key, 0) | low
            refined += [parts[key] for key in sorted(parts)]
    return cells


def _neighbour_masks(n: int, edges: EdgeTuple) -> list[int]:
    """Per vertex, the bit mask of its neighbours."""
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return nbr


def _least_orders(n: int, edges: EdgeTuple) -> tuple[list[tuple[int, ...]], set[Pair]]:
    """The orders kept by :func:`canonical_form`'s search, each listing the
    vertices by their new labels, and the twin pairs whose swap it skipped.
    Every kept order relabels ``edges`` to the same least tuple, so any two
    of them differ by an automorphism; so does each skipped swap."""
    nbr = _neighbour_masks(n, edges)
    states: list[tuple[tuple[int, ...], list[int]]] = [((), _equitable_cells(nbr))]
    twins: set[Pair] = set()
    for _ in range(n):
        best = -1
        kept: list[tuple[tuple[int, ...], list[int]]] = []
        for order, (first, *rest) in states:
            placed: list[int] = []
            todo = first
            while todo:
                low = todo & -todo
                todo ^= low
                v = low.bit_length() - 1
                mine = nbr[v]
                twin = next((u for u in placed if nbr[u] & ~low == mine & ~(1 << u)), None)
                if twin is not None:
                    twins.add((twin, v))
                    continue
                placed.append(v)
                # Each cell splits into v's neighbours, then the rest; the
                # row of v's bits to the later positions then reads 1s first
                # in each cell.
                row = 0
                cells = []
                for cell in (first ^ low, *rest):
                    if not cell:
                        continue
                    hit = cell & mine
                    size = cell.bit_count()
                    k = hit.bit_count()
                    row = row << size | ((1 << k) - 1) << (size - k)
                    if hit:
                        cells.append(hit)
                    if hit != cell:
                        cells.append(cell ^ hit)
                if row > best:
                    best = row
                    kept = []
                if row == best:
                    kept.append((order + (v,), cells))
        states = kept
    return [order for order, _ in states], twins


def canonical_form(n: int, edges: EdgeTuple) -> EdgeTuple:
    """Lexicographically least relabeling of the edge set among the vertex
    orderings that respect the cells of :func:`_equitable_cells`, taken in
    order; the cells are isomorphism-invariant, so isomorphic graphs get
    identical forms.

    For a fixed edge count, the least sorted edge tuple is the greatest
    upper-triangle adjacency bit string read row by row, so the search
    fixes one row at a time.  A state is an order of the first t vertices
    and ordered cells, as vertex bit masks, holding the rest.  Position t
    takes a vertex v of the first cell, and every cell splits into v's
    neighbours, then the others: that fixes row t, and rows 0..t-1 are the
    same for every arrangement within the cells.  Only the states with the
    greatest row t are kept, ties included, so the least relabeling
    survives to the last position, which every kept order reaches with the
    same rows.  Two twins in the first cell (N(u) - w = N(w) - u) lead to
    states that their swap, an automorphism, maps onto each other, so only
    the first is expanded.
    """
    orders, _ = _least_orders(n, edges)
    position = [0] * n
    for new, old in enumerate(orders[0]):
        position[old] = new
    return tuple(sorted([(min(position[u], position[v]), max(position[u], position[v])) for u, v in edges]))


def _automorphisms(n: int, edges: EdgeTuple) -> list[list[int]]:
    """Automorphisms of the graph as image lists: one carrying the first
    order :func:`_least_orders` keeps to each other one, and each skipped
    twin swap."""
    orders, twins = _least_orders(n, edges)
    found = []
    for order in orders[1:]:
        image = [0] * n
        for u, v in zip(orders[0], order):
            image[u] = v
        found.append(image)
    for u, w in twins:
        image = list(range(n))
        image[u], image[w] = w, u
        found.append(image)
    return found


def _orbit_leaders(m: int, automorphisms: list[list[int]]) -> Iterator[int]:
    """Each nonzero m-bit vertex mask that is the least in its orbit under
    the group the given automorphisms generate, in increasing order."""
    tables = []
    for image in automorphisms:
        table = [0] * (1 << m)
        for mask in range(1, 1 << m):
            low = mask & -mask
            table[mask] = table[mask ^ low] | 1 << image[low.bit_length() - 1]
        tables.append(table)
    seen = bytearray(1 << m)
    for leader in range(1, 1 << m):
        if seen[leader]:
            continue
        seen[leader] = 1
        orbit = [leader]
        for mask in orbit:
            for table in tables:
                if not seen[table[mask]]:
                    seen[table[mask]] = 1
                    orbit.append(table[mask])
        yield leader


def _least_degree_non_cut_last(nbr: list[int]) -> bool:
    """Whether no vertex of the connected graph with neighbour masks ``nbr``
    has a smaller degree than the last vertex and is not a cut vertex.

    A vertex of degree 1 is never a cut vertex; any other vertex of smaller
    degree is one exactly when the breadth-first search of the rest from
    its least vertex misses some vertex."""
    degree = nbr[-1].bit_count()
    everyone = (1 << len(nbr)) - 1
    for w, mine in enumerate(nbr[:-1]):
        k = mine.bit_count()
        if k >= degree:
            continue
        if k == 1:
            return False
        rest = everyone ^ 1 << w
        seen = frontier = rest & -rest
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = nbr[low.bit_length() - 1] & rest & ~seen
            seen |= new
            frontier |= new
        if seen == rest:
            return False
    return True


# Typed, so that 2.0 or True misses the entry of 2 or 1 and is rejected.
@lru_cache(maxsize=None, typed=True)
def connected_underlying(n: int) -> tuple[EdgeTuple, ...]:
    """All connected graphs of order n up to isomorphism, as canonical
    sorted edge tuples, generated by single-vertex extension.

    An automorphism of the smaller graph maps the new vertex's neighbour
    mask to one whose extension is isomorphic, so only the least mask of
    each orbit under the automorphisms :func:`_automorphisms` finds is
    extended.  Of those, only an extension whose new vertex has the least
    degree among its non-cut vertices (:func:`_least_degree_non_cut_last`)
    gets a :func:`canonical_form`.  That loses no graph: a connected graph
    H of order n >= 2 has a non-cut vertex w of least degree among its
    non-cut vertices, H - w is connected, and the extension of the form of
    H - w by the least mask of the orbit of w's image is isomorphic to H
    with its new vertex the image of w, so it passes.  The order must pass
    :func:`as_int`."""
    n = as_int(n, "order")
    if n < 1:
        raise ValueError("order must be >= 1")
    if n == 1:
        return ((),)
    m = n - 1
    result: set[EdgeTuple] = set()
    for smaller in connected_underlying(m):
        nbr = _neighbour_masks(m, smaller)
        for bits in _orbit_leaders(m, _automorphisms(m, smaller)):
            extended = [mine | (bits >> u & 1) << m for u, mine in enumerate(nbr)] + [bits]
            if _least_degree_non_cut_last(extended):
                extra = tuple((u, m) for u in range(m) if bits >> u & 1)
                result.add(canonical_form(n, smaller + extra))
    return tuple(sorted(result))


# -- class emission -----------------------------------------------------------------


def mixed_representative(graph: QuartGainGraph) -> Optional[QuartGainGraph]:
    """The switching of ``graph`` by its lexicographically least switch
    that leaves no -1 gain, or None when no switch does.

    Vertex 0 is pinned to 1; that suffices because rescaling a whole
    component leaves every gain unchanged.  :func:`_search`, run from
    vertex 1 to vertex n, finds the switch by a depth-first search whose
    first complete switch is the one that the 4^(n-1) product over
    ``UNITS`` would meet first.

    Its exponential worst case is inherent unless P = NP: with every gain
    -1, a switch leaves no -1 gain exactly when theta_u != theta_v on every
    edge, a proper 4-colouring of the underlying graph, which is NP-complete
    to decide.  :data:`HARD_CAP` bounds it.
    """
    if graph.is_mixed:
        return graph
    edges = graph.edges
    n = graph.n
    theta = [UNIT_ONE] * n
    back = _back_lists(n, [(u, v) for u, v, _ in edges])
    return apply_switch(graph, theta) if _search(back, edges, theta, [0b1111] * n, 1, n) else None


def _back_lists(n: int, pairs: Sequence[Pair]) -> list[list[Pair]]:
    """Per vertex v, (u, k) for each k-th pair (u, v), u < v."""
    back: list[list[Pair]] = [[] for _ in range(n)]
    for k, (u, v) in enumerate(pairs):
        back[v].append((u, k))
    return back


def _search(
    back: list[list[Pair]], records: Sequence[Edge], theta: list[Unit], untried: list[int], v: int, stop: int
) -> bool:
    """Run the least-switch search from vertex ``v`` until it first reaches
    vertex ``stop``: True when it does, False when it backtracks past
    vertex 1, so that no switch with theta[0] = 1 leaves no -1 gain.

    ``records[k]`` is the k-th (u, v, gain) record, and ``back`` is
    :func:`_back_lists` of the records' (u, v) pairs.  The search assigns
    theta to vertices v, v + 1, ... in turn, trying units in ``UNITS``
    order, and checks each edge once theta of its larger end is set:
    switching turns g into -1 for exactly one value, theta[v] = theta[u] -
    g + 2 (mod 4).  A vertex with no value left sends the search back to
    the one before it.  ``theta`` and ``untried`` hold the search's state
    and are updated in place, so a search stopped at ``stop`` resumes from
    copies of them.  Until it first reaches ``stop`` the search reads only
    records (u, w) with w < ``stop``.
    """
    while v < stop:
        free = untried[v]
        for u, k in back[v]:
            free &= ~(1 << (theta[u] - records[k][2] + UNIT_MINUS_ONE) % 4)
        if free:
            # Bit k of untried[v] is set while unit k is still to be tried at
            # v; the codes are UNITS = (0, 1, 2, 3), so the lowest bit is next.
            lowest = free & -free
            theta[v] = lowest.bit_length() - 1
            untried[v] = free ^ lowest
            v += 1
        else:
            untried[v] = 0b1111
            v -= 1
            if v == 0:
                return False
    return True


def _check_spec(spec: EnumSpec) -> EnumSpec:
    """``spec`` with its order and limit as plain ints, or ValueError: each
    must pass :func:`as_int`, the order must lie in 1..:data:`HARD_CAP` and
    the limit must not be negative."""
    n = as_int(spec.n, "order")
    if not 1 <= n <= HARD_CAP:
        raise ValueError(f"order {n} outside 1..{HARD_CAP}")
    limit = spec.limit
    if limit is not None:
        limit = as_int(limit, "limit")
        if limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
    return replace(spec, n=n, limit=limit)


Setup = tuple[list[tuple[Edge, ...]], list[list[Pair]], int, int]


def _underlying_setups(spec: EnumSpec) -> Iterator[Setup]:
    """:func:`_setup` of each connected underlying graph of order
    ``spec.n`` that passes the spec's filters, in canonical order."""
    n = spec.n
    for edges in connected_underlying(n):
        base = QuartGainGraph._from_normal(n, tuple([(u, v, UNIT_ONE) for u, v in edges]))
        if spec.has_cut_vertex and not cut_vertices(base):
            continue
        pendants = pendant_vertices(base)
        if spec.no_pendant and pendants:
            continue
        if spec.has_pendant and not pendants:
            continue
        yield _setup(base)


def _setup(base: QuartGainGraph) -> Setup:
    """For a connected graph ``base`` with every gain 1: ``choices``,
    :func:`_back_lists` of its sorted edge pairs, and the split ``(j, stop)``
    of its edges into a head ``choices[:j]`` and a tail ``choices[j:]``.

    ``choices[j]`` holds the records the j-th edge takes: ``((u, v, 1),)``
    on an edge of the canonical BFS tree and ``(u, v, g)`` for each g in
    ``UNITS`` on a non-tree edge, so ``itertools.product(*choices)`` yields
    every gain assignment as its sorted record tuple, lexicographic over
    (1, i, -1, -i) on the non-tree edges.

    ``stop`` is the least larger end (the v of (u, v)) of a tail edge, as
    large as a tail holding a non-tree edge allows (n on a tree, whose tail
    is empty), and the tail is the longest with that least larger end.
    Every edge (u, v) with v < ``stop`` then lies in the head.
    """
    n = base.n
    edges = [(u, v) for u, v, _ in base.edges]
    _, parent = bfs_forest(base)
    tree = {(min(u, v), max(u, v)) for v, u in enumerate(parent) if u >= 0}
    choices = [((u, v, UNIT_ONE),) if (u, v) in tree else tuple([(u, v, g) for g in UNITS]) for u, v in edges]
    split = max((j for j, pair in enumerate(edges) if pair not in tree), default=len(edges))
    stop = min((v for _, v in edges[split:]), default=n)
    while split and edges[split - 1][1] >= stop:
        split -= 1
    return choices, _back_lists(n, edges), split, stop


def _mixed_tuples(
    n: int, choices: list[tuple[Edge, ...]], back: list[list[Pair]], split: int, stop: int
) -> Iterator[tuple[tuple[Edge, ...], Optional[list[Unit]]]]:
    """Each gain assignment of one underlying graph, in product order, that
    some switch leaves with no -1 gain: its records and the least such
    switch, or None for records with no -1 gain.

    The assignments are ``product(head) x product(tail)`` for the split of
    :func:`_setup`.  The search runs once per head tuple, up to
    ``stop``, since until then it reads head records only, and resumes from
    a copy of that state on each tail tuple.  A head whose search fails
    there has no mixed assignment at all.
    """
    minus = {record for options in choices for record in options if record[2] == UNIT_MINUS_ONE}
    tails = [(tail, minus.isdisjoint(tail)) for tail in itertools.product(*choices[split:])]
    for head in itertools.product(*choices[:split]):
        theta = [UNIT_ONE] * n
        untried = [0b1111] * n
        if not _search(back, head, theta, untried, 1, stop):
            continue
        head_clean = minus.isdisjoint(head)
        for tail, tail_clean in tails:
            records = head + tail
            if head_clean and tail_clean:
                yield records, None
                continue
            switch = theta[:]
            if _search(back, records, switch, untried[:], stop, n):
                yield records, switch


def _class_tuples(spec: EnumSpec) -> Iterator[tuple[tuple[Edge, ...], Optional[list[Unit]]]]:
    """The records of each class ``spec`` streams, in order, with the switch
    that leaves them no -1 gain, or None: ``itertools.product(*choices)``
    per underlying graph, or :func:`_mixed_tuples` with ``mixed_only``."""
    setups = _underlying_setups(spec)
    if spec.mixed_only:
        streams = (_mixed_tuples(spec.n, *setup) for setup in setups)
    else:
        streams = (zip(itertools.product(*setup[0]), itertools.repeat(None)) for setup in setups)
    return itertools.chain.from_iterable(streams)


def enumerate_switching_classes(spec: EnumSpec) -> Iterator[QuartGainGraph]:
    """Stream one representative per label-preserving switching class.

    Deterministic: underlying graphs in canonical order, gain assignments
    in lexicographic order over (1, i, -1, -i).  Every emitted graph
    satisfies the spec's filters and no two are switching equivalent.
    Each emitted class is built as a graph once, unchecked, from the
    records of :func:`_class_tuples`, switched by the least switch of
    :func:`mixed_representative` where one comes with them; ``limit``
    cuts that stream by :func:`itertools.islice`.
    """
    spec = _check_spec(spec)
    n = spec.n
    for records, theta in itertools.islice(_class_tuples(spec), spec.limit):
        if theta is not None:
            records = tuple([(u, v, (g - theta[u] + theta[v]) % 4) for u, v, g in records])
        yield QuartGainGraph._from_normal(n, records)


def count_switching_classes(spec: EnumSpec) -> int:
    """The number of classes :func:`enumerate_switching_classes` emits for
    ``spec``, found without building a graph.

    An underlying graph with m edges is connected, so it has k = m - n + 1
    non-tree edges and 4^k classes.  With ``mixed_only``, the count walks
    the stream's own :func:`_class_tuples` up to ``limit``: the 3^k gain
    assignments with no -1 are mixed as they stand, and each other one
    counts when the search finds a switch.  More than
    :data:`MAX_COUNT_SEARCHES` such assignments (4^k - 3^k per graph,
    until the 3^k alone reach ``limit``) raise ``ValueError`` before any search.
    Backs ``hermitia enumerate --count-only``; not exported from the package.
    """
    spec = _check_spec(spec)
    limit = math.inf if spec.limit is None else spec.limit
    ks = [len(choices) - spec.n + 1 for choices, *_ in _underlying_setups(spec)]
    if not spec.mixed_only:
        return min(sum(4**k for k in ks), limit)
    searches = mixed = 0
    for k in ks:
        mixed += 3**k
        if mixed >= limit:
            break
        searches += 4**k - 3**k
    if searches > MAX_COUNT_SEARCHES:
        raise ValueError(
            f"counting mixed classes needs {searches} switch searches,"
            f" above the bound of {MAX_COUNT_SEARCHES}"
        )
    return sum(1 for _ in itertools.islice(_class_tuples(spec), spec.limit))


def classes_up_to(order: int, **filters) -> Iterator[QuartGainGraph]:
    """All classes of every order from 1 through ``order``, which must pass
    :func:`as_int`."""
    for n in range(1, as_int(order, "order") + 1):
        yield from enumerate_switching_classes(EnumSpec(n=n, **filters))
