"""Reference exact inertia by rational congruence over Q(i), for tests only.

This is an independent second exact kernel: it eliminates with pairs of
``Fraction`` values, divides by each pivot, and handles a zero diagonal with
a 2x2 hyperbolic block that contributes one positive and one negative
eigenvalue.  The package kernel is fraction-free over Z[i] and clears a zero
diagonal by a row/column addition instead, so agreement between the two is a
real cross-check.
"""

from __future__ import annotations

from fractions import Fraction

from hermitia import HermitianMatrix, InertiaTriple

_Pair = tuple[Fraction, Fraction]


def _pmul(a: _Pair, b: _Pair) -> _Pair:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _pdiv(a: _Pair, b: _Pair) -> _Pair:
    d = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def inertia_fraction(matrix: HermitianMatrix) -> InertiaTriple:
    """Exact inertia by Hermitian congruence diagonalization over Q(i).

    Repeatedly (a) pivots on the smallest-index nonzero diagonal entry,
    eliminating its row and column and recording the pivot sign; (b) when
    the whole remaining diagonal is zero, takes the lexicographically
    smallest nonzero off-diagonal pair, which contributes one positive and
    one negative eigenvalue, and eliminates both of its indices at once.
    The dimension left when nothing remains nonzero is the nullity.
    """
    n = matrix.n
    m: list[list[_Pair]] = [
        [(Fraction(a), Fraction(b)) for a, b in zip(row_re, row_im)]
        for row_re, row_im in zip(matrix.re, matrix.im)
    ]
    active = list(range(n))
    pos = neg = 0
    while active:
        pivot = None
        for j in active:
            if m[j][j][0] != 0:
                pivot = j
                break
        if pivot is not None:
            d = m[pivot][pivot][0]
            if d > 0:
                pos += 1
            else:
                neg += 1
            rest = [t for t in active if t != pivot]
            row_p = m[pivot]
            for t in rest:
                ct = m[t][pivot]
                if ct[0] == 0 and ct[1] == 0:
                    continue
                f = (ct[0] / d, ct[1] / d)
                row_t = m[t]
                for x in rest:
                    px = row_p[x]
                    if px[0] != 0 or px[1] != 0:
                        fp = _pmul(f, px)
                        tx = row_t[x]
                        row_t[x] = (tx[0] - fp[0], tx[1] - fp[1])
            active = rest
            continue
        pair = None
        for i, s in enumerate(active):
            row_s = m[s]
            for t in active[i + 1 :]:
                e = row_s[t]
                if e[0] != 0 or e[1] != 0:
                    pair = (s, t)
                    break
            if pair is not None:
                break
        if pair is None:
            break
        s, t = pair
        h = m[s][t]
        hbar = (h[0], -h[1])
        pos += 1
        neg += 1
        rest = [x for x in active if x != s and x != t]
        # Block elimination against the invertible 2x2 [[0, h], [hbar, 0]].
        for x in rest:
            xs = m[x][s]
            xt = m[x][t]
            if xs == (0, 0) and xt == (0, 0):
                continue
            row_x = m[x]
            for y in rest:
                sy = m[s][y]
                ty = m[t][y]
                u1 = _pdiv(_pmul(xt, sy), h)
                u2 = _pdiv(_pmul(xs, ty), hbar)
                xy = row_x[y]
                row_x[y] = (xy[0] - u1[0] - u2[0], xy[1] - u1[1] - u2[1])
        active = rest
    return InertiaTriple(pos, neg, len(active))
