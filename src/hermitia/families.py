"""Constructors for the named graph families and their textual specs.

Every family but the cycle is a blow-up of a small gain graph on its parts
(:func:`_blow_up`): part j is a run of consecutive vertices, the parts laid
out in order by :func:`part_ranges`, and two parts are joined completely or
not at all, with one gain.  The classifiers and golden tests rely on the
layouts:

* complete multipartite graphs and stars: gain 1 between every two parts;
  a star of order n has parts of sizes 1 and n - 1, so its center is 0;
* blown-up triangles (:func:`gen_c3t`): parts A, B, C; every cross edge is
  an arc following the cyclic pattern A -> B -> C -> A, so each cross
  triangle carries an odd number of arcs;
* apex families (:func:`gen_K_plain`, :func:`gen_K_gain`): the apex vertex v
  is part 0, followed by the q-side parts and then the n-side parts in
  declared order.

``FamilySpec`` is the uniform description consumed by the CLI; its textual
grammar is documented on :func:`parse_family_spec`.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, combinations, repeat
from typing import Mapping, Sequence

from .graph_core import MAX_ORDER, QuartGainGraph, coalesce
from .numeric import UNIT_I, UNIT_MINUS_I, UNIT_MINUS_ONE, UNIT_ONE, Unit


class FamilySpecError(ValueError):
    """Raised for invalid family parameters or malformed spec text."""


# Deepest ``coalesce:`` nesting parse_family_spec accepts.  The parser,
# realize and format_family_spec recurse once per level, so a much deeper
# spec would end in RecursionError instead of a FamilySpecError.
MAX_COALESCE_DEPTH = 200

# Change of parenthesis depth per character, every other one 0; _Scan reads
# it through dict.get, which keeps its scan out of Python bytecode.
_DEPTH_STEP = {"(": 1, ")": -1}


def part_ranges(sizes: Sequence[int]) -> list[range]:
    """The vertices of each part: part j is the next ``sizes[j]`` consecutive
    vertices, the parts laid out in order from vertex 0."""
    starts = [0, *accumulate(sizes)]
    return [range(a, b) for a, b in zip(starts, starts[1:])]


def _blow_up(sizes: Sequence[int], pattern: Mapping[tuple[int, int], Unit]) -> QuartGainGraph:
    """Blow-up of the gain graph ``pattern`` on parts 0..len(sizes)-1.

    Parts are laid out by :func:`part_ranges`.  Each pair (s, t), s < t,
    of ``pattern`` joins all of part s to all of part t with gain
    ``pattern[s, t]`` (s -> t).  Records come out in increasing (u, v)
    order, so the constructor's sort leaves them in place.
    """
    parts = part_ranges(sizes)
    rows: list[list[tuple[range, Unit]]] = [[] for _ in parts]
    for (s, t), gain in sorted(pattern.items()):
        rows[s].append((parts[t], gain))
    edges = [
        (u, v, gain)
        for part, row in zip(parts, rows)
        for u in part
        for other, gain in row
        for v in other
    ]
    return QuartGainGraph(sum(sizes), edges)


def gen_c3t(t1: int, t2: int, t3: int) -> QuartGainGraph:
    """Complete tripartite blow-up of an odd triangle, rank 2.

    Gains are constant on each part pair; all A -> B, B -> C and C -> A
    edges are arcs, so every cross triangle is odd and the twin reduction is
    the one-vertex-per-part odd triangle.
    """
    if min(t1, t2, t3) < 1:
        raise FamilySpecError("part sizes must be >= 1")
    return _blow_up((t1, t2, t3), {(0, 1): UNIT_I, (1, 2): UNIT_I, (0, 2): UNIT_MINUS_I})


def gen_complete_multipartite(sizes: Sequence[int]) -> QuartGainGraph:
    if not sizes or min(sizes) < 1:
        raise FamilySpecError("need a nonempty list of positive part sizes")
    return _blow_up(sizes, {pair: UNIT_ONE for pair in combinations(range(len(sizes)), 2)})


def gen_star(n: int) -> QuartGainGraph:
    """Undirected star of order n, center at vertex 0."""
    if n < 2:
        raise FamilySpecError("a star needs at least 2 vertices")
    return gen_complete_multipartite((1, n - 1))


def gen_cycle(n: int, arcs: Sequence[int] = ()) -> QuartGainGraph:
    """Cycle 0-1-...-(n-1)-0; positions in ``arcs`` become forward arcs."""
    if n < 3:
        raise FamilySpecError("a cycle needs at least 3 vertices")
    arc_set = set(arcs)
    if not arc_set <= set(range(n)):
        raise FamilySpecError("arc positions must lie in 0..n-1")
    # The constructor conjugates the closing edge's gain into u < v form.
    edges = [
        (j, (j + 1) % n, UNIT_I if j in arc_set else UNIT_ONE)
        for j in range(n)
    ]
    return QuartGainGraph(n, edges)


def gen_K_plain(q: Sequence[int], n: Sequence[int], p: int) -> QuartGainGraph:
    """Apex family with all gains 1.

    An apex vertex v (index 0) joined to all of one complete multipartite
    block (part sizes ``q``, possibly empty) and to the first ``p`` parts of
    a second block (part sizes ``n``).
    """
    return gen_K_gain(q, n, 0, 0, p, 0)


def gen_K_gain(
    q: Sequence[int], n: Sequence[int], a: int, b: int, c: int, d: int
) -> QuartGainGraph:
    """Apex family with gains on the apex edges into the n-side.

    Edges from v into the first ``a`` parts carry gain i (v -> u), the next
    ``b`` parts gain -i, the next ``c`` parts gain 1 and the next ``d``
    parts gain -1; every other edge has gain 1.  ``d > 0`` leaves the
    mixed sub-family.
    """
    k = len(n)
    if q and min(q) < 1:
        raise FamilySpecError("q part sizes must be >= 1")
    if not n or min(n) < 1:
        raise FamilySpecError("n part sizes must be >= 1")
    if min(a, b, c, d) < 0 or a + b + c + d < 1 or a + b + c + d > k:
        raise FamilySpecError(
            f"need 1 <= a+b+c+d <= k, got a={a} b={b} c={c} d={d} k={k}"
        )
    # Part 0 is the apex, then the q parts, then the n parts.  The apex and
    # the q parts form one complete multipartite block.
    r = len(q)
    sides = (range(1 + r), range(1 + r, 1 + r + k))
    pattern = {pair: UNIT_ONE for side in sides for pair in combinations(side, 2)}
    apex_gains = [UNIT_I] * a + [UNIT_MINUS_I] * b + [UNIT_ONE] * c + [UNIT_MINUS_ONE] * d
    for j, gain in enumerate(apex_gains):
        pattern[0, 1 + r + j] = gain
    return _blow_up((1, *q, *n), pattern)


# -- uniform spec --------------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    """Tagged description of a family instance.

    kind is one of c3t, multipartite, star, cycle, k_plain, k_gain,
    coalescence.  Unused fields stay at their defaults.
    """

    kind: str
    sizes: tuple[int, ...] = ()
    arcs: tuple[int, ...] = ()
    q: tuple[int, ...] = ()
    parts: tuple[int, ...] = ()
    p: int = 0
    gain_counts: tuple[int, int, int, int] = (0, 0, 0, 0)
    sub: tuple = field(default=())  # (spec1, v1, spec2, v2) for coalescence


def _order(spec: FamilySpec) -> int:
    """Vertex count of a spec whose sizes are all positive."""
    if spec.kind in ("k_plain", "k_gain"):
        return 1 + sum(spec.q) + sum(spec.parts)
    if spec.kind == "coalescence":
        s1, _, s2, _ = spec.sub
        return _order(s1) + _order(s2) - 1
    return sum(spec.sizes)


def realize(spec: FamilySpec) -> QuartGainGraph:
    """Build the graph a FamilySpec describes.

    The order is checked before any edge is built: a spec of more than
    ``graph_core.MAX_ORDER`` vertices raises :class:`FamilySpecError`, so a
    short spec such as ``multipartite:N,N`` cannot ask for N^2 edges.  A
    non-positive size is rejected by the constructor, also before any edge.
    """
    order = _order(spec)
    if order > MAX_ORDER:
        raise FamilySpecError(
            f"family order {order} exceeds the maximum order {MAX_ORDER}"
        )
    if spec.kind == "c3t":
        if len(spec.sizes) != 3:
            raise FamilySpecError("c3t takes exactly three part sizes")
        return gen_c3t(*spec.sizes)
    if spec.kind == "multipartite":
        return gen_complete_multipartite(spec.sizes)
    if spec.kind == "star":
        if len(spec.sizes) != 1:
            raise FamilySpecError("star takes exactly one order")
        return gen_star(spec.sizes[0])
    if spec.kind == "cycle":
        if len(spec.sizes) != 1:
            raise FamilySpecError("cycle takes exactly one order")
        return gen_cycle(spec.sizes[0], spec.arcs)
    if spec.kind == "k_plain":
        return gen_K_plain(spec.q, spec.parts, spec.p)
    if spec.kind == "k_gain":
        return gen_K_gain(spec.q, spec.parts, *spec.gain_counts)
    if spec.kind == "coalescence":
        s1, v1, s2, v2 = spec.sub
        return coalesce(realize(s1), v1, realize(s2), v2)
    raise FamilySpecError(f"unknown family kind {spec.kind!r}")


def parse_family_spec(text: str) -> FamilySpec:
    """Parse the textual family grammar.

    Forms::

        c3t:T1,T2,T3
        multipartite:N1,N2,...
        star:N
        cycle:N            or  cycle:N;arcs=P1,P2,...
        K:q=Q1,..;n=N1,..;p=P          (q may be empty: "q=")
        K:q=..;n=..;a=A,b=B,c=C,d=D
        coalesce:(SPEC)@V1+(SPEC)@V2

    ``coalesce:`` specs nest at most :data:`MAX_COALESCE_DEPTH` deep.
    Round-trips with :func:`format_family_spec`.
    """
    scan = _Scan(text)
    if max(scan.depths, default=0) > MAX_COALESCE_DEPTH:
        raise FamilySpecError(f"coalesce specs nest at most {MAX_COALESCE_DEPTH} deep")
    return _parse_spec(scan, 0, len(text))


class _Scan:
    """A spec text with the parenthesis depth after each character, and the
    offsets of each "+" and ")" filed by that depth, computed once.

    The parser passes (start, end) offsets into the one text, so finding a
    nesting level's "+" or closing ")" is a bisection instead of a rescan of
    the rest of the spec, and parsing is linear in its length.
    """

    __slots__ = ("text", "depths", "pluses", "closes")

    def __init__(self, text: str):
        self.text = text
        self.depths = list(accumulate(map(_DEPTH_STEP.get, text, repeat(0))))
        self.pluses = self._by_depth("+")
        self.closes = self._by_depth(")")

    def _by_depth(self, ch: str) -> dict[int, list[int]]:
        found: dict[int, list[int]] = {}
        i = self.text.find(ch)
        while i >= 0:
            found.setdefault(self.depths[i], []).append(i)
            i = self.text.find(ch, i + 1)
        return found

    def first(self, found: dict[int, list[int]], start: int, end: int) -> int:
        """First offset in [start, end) of ``found`` at the depth before
        ``start``, or -1."""
        offsets = found.get(self.depths[start - 1] if start else 0, [])
        k = bisect_left(offsets, start)
        return offsets[k] if k < len(offsets) and offsets[k] < end else -1

    def strip(self, start: int, end: int) -> tuple[int, int]:
        """Offsets of ``text[start:end].strip()``."""
        while start < end and self.text[start].isspace():
            start += 1
        while end > start and self.text[end - 1].isspace():
            end -= 1
        return start, end


def _parse_spec(scan: _Scan, start: int, end: int) -> FamilySpec:
    start, end = scan.strip(start, end)
    colon = scan.text.find(":", start, end)
    if colon < 0:
        raise FamilySpecError(f"missing ':' in family spec {scan.text[start:end]!r}")
    head = scan.text[start:colon]
    if head == "coalesce":
        return _parse_coalesce(scan, colon + 1, end)
    return _parse_kind(head, scan.text[colon + 1 : end])


def _parse_kind(head: str, rest: str) -> FamilySpec:
    if head == "c3t":
        sizes = _int_list(rest)
        if len(sizes) != 3:
            raise FamilySpecError("c3t takes exactly three part sizes")
        return FamilySpec("c3t", sizes=sizes)
    if head == "multipartite":
        return FamilySpec("multipartite", sizes=_int_list(rest))
    if head == "star":
        return FamilySpec("star", sizes=(_int(rest),))
    if head == "cycle":
        order, _, tail = rest.partition(";")
        arcs: tuple[int, ...] = ()
        if tail:
            key, _, val = tail.partition("=")
            if key != "arcs":
                raise FamilySpecError(f"unknown cycle option {key!r}")
            arcs = _int_list(val) if val else ()
        return FamilySpec("cycle", sizes=(_int(order),), arcs=arcs)
    if head == "K":
        q_text = n_text = p_text = gains_text = None
        for piece in rest.split(";"):
            piece = piece.strip()
            if piece.startswith("q="):
                q_text = piece[2:]
            elif piece.startswith("n="):
                n_text = piece[2:]
            elif piece.startswith("p="):
                p_text = piece[2:]
            elif piece.startswith("a="):
                gains_text = piece
            else:
                raise FamilySpecError(f"bad K spec component {piece!r}")
        if q_text is None or n_text is None:
            raise FamilySpecError("K spec needs q= and n= components")
        q = _int_list(q_text) if q_text else ()
        parts = _int_list(n_text)
        if p_text is not None:
            return FamilySpec("k_plain", q=q, parts=parts, p=_int(p_text))
        if gains_text is None:
            raise FamilySpecError("K spec needs either p=P or a=A,b=B,c=C,d=D")
        counts: dict[str, int] = {}
        for item in gains_text.split(","):
            key, sep2, val = item.partition("=")
            if not sep2:
                raise FamilySpecError(f"bad gain count {item!r}")
            counts[key.strip()] = _int(val)
        if sorted(counts) != ["a", "b", "c", "d"]:
            raise FamilySpecError("K gain spec needs exactly a=, b=, c=, d=")
        abcd = (counts["a"], counts["b"], counts["c"], counts["d"])
        return FamilySpec("k_gain", q=q, parts=parts, gain_counts=abcd)
    raise FamilySpecError(f"unknown family kind {head!r}")


def _parse_coalesce(scan: _Scan, start: int, end: int) -> FamilySpec:
    # A "+" leaves the depth as it was, so the first one at the depth before start is the top-level one.
    plus = scan.first(scan.pluses, start, end)
    if plus < 0:
        raise FamilySpecError("coalesce spec needs '(A)@i+(B)@j'")
    spec1, v1 = _parse_anchored(scan, start, plus)
    spec2, v2 = _parse_anchored(scan, plus + 1, end)
    return FamilySpec("coalescence", sub=(spec1, v1, spec2, v2))


def _parse_anchored(scan: _Scan, start: int, end: int) -> tuple[FamilySpec, int]:
    start, end = scan.strip(start, end)
    text = scan.text
    if not text.startswith("(", start, end):
        raise FamilySpecError(f"expected parenthesized sub-spec in {text[start:end]!r}")
    # The leading "(" opens one level deeper, so the depth before it first comes back at its ")".
    close = scan.first(scan.closes, start, end)
    if close < 0:
        raise FamilySpecError(f"unbalanced parentheses in {text[start:end]!r}")
    if not text.startswith("@", close + 1, end):
        raise FamilySpecError(f"missing '@vertex' in {text[start:end]!r}")
    return _parse_spec(scan, start + 1, close), _int(text[close + 2 : end])


def format_family_spec(spec: FamilySpec) -> str:
    if spec.kind in ("c3t", "multipartite"):
        return f"{spec.kind}:" + ",".join(map(str, spec.sizes))
    if spec.kind == "star":
        return f"star:{spec.sizes[0]}"
    if spec.kind == "cycle":
        base = f"cycle:{spec.sizes[0]}"
        if spec.arcs:
            base += ";arcs=" + ",".join(map(str, spec.arcs))
        return base
    if spec.kind in ("k_plain", "k_gain"):
        base = "K:q=" + ",".join(map(str, spec.q)) + ";n=" + ",".join(map(str, spec.parts))
        if spec.kind == "k_plain":
            return base + f";p={spec.p}"
        a, b, c, d = spec.gain_counts
        return base + f";a={a},b={b},c={c},d={d}"
    if spec.kind == "coalescence":
        s1, v1, s2, v2 = spec.sub
        return f"coalesce:({format_family_spec(s1)})@{v1}+({format_family_spec(s2)})@{v2}"
    raise FamilySpecError(f"unknown family kind {spec.kind!r}")


def _int(token: str) -> int:
    token = token.strip()
    if not re.fullmatch(r"-?[0-9]+", token):
        raise FamilySpecError(f"expected an integer, got {token!r}")
    return int(token)


def _int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        raise FamilySpecError("expected a comma-separated integer list")
    return tuple(_int(tok) for tok in text.split(","))
