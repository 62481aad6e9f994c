"""Exact-division referee for the inertia kernel, for tests only.

It runs its own eager, smallest-index form of Bareiss's recurrence, not a
replay of ``spectra._signature``, over a full matrix of (re, im) pairs and a
list of active indices: the pivot is always the first nonzero diagonal
entry; when the whole diagonal is zero, a congruence (a real row addition
followed by a real column addition) on the first nonzero entry in row-major
order makes one entry nonzero, where the kernel takes a 2x2 pivot instead;
and after each pivot d every remaining entry becomes
(|d|*M - sign(d)*c c*) / q with q the previous |d|, with no row left to be
rescaled later.  Every division goes through ``divmod`` and asserts that the
remainder is 0, so a run checks that Bareiss's division is exact on that
matrix.  It imports nothing from ``hermitia.spectra``.
"""

from __future__ import annotations

_UNIT_PARTS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def graph_grids(graph) -> tuple[list[list[int]], list[list[int]]]:
    """The (re, im) int grids of H(G), built from ``graph.edges``."""
    n = graph.n
    re = [[0] * n for _ in range(n)]
    im = [[0] * n for _ in range(n)]
    for u, v, g in graph.edges:
        a, b = _UNIT_PARTS[g]
        re[u][v] = re[v][u] = a
        im[u][v], im[v][u] = b, -b
    return re, im


def _mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _exact_div(x: int, q: int) -> int:
    quotient, remainder = divmod(x, q)
    assert remainder == 0, f"{x} is not a multiple of {q}"
    return quotient


def bareiss_inertia(re, im) -> tuple[tuple[int, int, int], int]:
    """(p, n, eta) of re + i*im, and how many zero-diagonal steps came after a pivot."""
    m = [[(a, b) for a, b in zip(row_re, row_im)] for row_re, row_im in zip(re, im)]
    active = list(range(len(m)))
    pos = neg = late_zero_steps = 0
    q = 1
    while active:
        pivot = next((j for j in active if m[j][j][0] != 0), None)
        if pivot is None:
            pair = next(
                (
                    (s, t)
                    for i, s in enumerate(active)
                    for t in active[i + 1 :]
                    if m[s][t] != (0, 0)
                ),
                None,
            )
            if pair is None:
                break
            s, t = pair
            h = m[s][t]
            h_bar = (h[0], -h[1])
            for x in active:  # row s += h * row t
                add = _mul(h, m[t][x])
                m[s][x] = (m[s][x][0] + add[0], m[s][x][1] + add[1])
            for x in active:  # column s += column t * conj(h)
                add = _mul(m[x][t], h_bar)
                m[x][s] = (m[x][s][0] + add[0], m[x][s][1] + add[1])
            assert m[s][s] == (2 * (h[0] ** 2 + h[1] ** 2), 0)
            late_zero_steps += pos + neg > 0
            pivot = s
        d = m[pivot][pivot][0]
        sign = 1 if d > 0 else -1
        if sign > 0:
            pos += 1
        else:
            neg += 1
        active.remove(pivot)
        for i in active:
            c_i = m[i][pivot]
            for j in active:
                cc = _mul(c_i, m[pivot][j])
                a, b = m[i][j]
                m[i][j] = (
                    _exact_div(abs(d) * a - sign * cc[0], q),
                    _exact_div(abs(d) * b - sign * cc[1], q),
                )
        q = abs(d)
    return (pos, neg, len(active)), late_zero_steps
