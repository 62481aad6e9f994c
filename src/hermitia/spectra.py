"""Exact inertia of Hermitian gain-graph matrices, plus a float cross-check.

A :class:`HermitianMatrix` is a matrix over the Gaussian integers Z[i], held
as two grids of Python ints; :func:`congruence` by a Z[i] matrix stays there.

Two fully independent routes compute the signature of H(G):

* :func:`inertia_exact` and :func:`inertia` diagonalize by fraction-free
  congruence over the Gaussian integers Z[i] and count pivot signs.  A
  pivot d scales the rest by |d| > 0 instead of dividing by d, then divides
  it by the previous |d|, a division that Sylvester's identity makes exact
  (Bareiss); a zero diagonal is cleared by adding one row/column to
  another.  Congruent Hermitian matrices share their inertia, so the count
  is exact.
* :func:`eig_float` runs LAPACK ``eigvalsh`` on a complex floating copy;
  :func:`inertia_float` thresholds its eigenvalues.  This path shares no
  code with the exact one and exists purely as an oracle.

Spectral quantities are additive over connected components; :func:`inertia`
exploits that to keep matrices small.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graph_core import QuartGainGraph, components


@dataclass(frozen=True, slots=True)
class InertiaTriple:
    """Counts of positive, negative and zero eigenvalues."""

    p: int
    n_neg: int
    eta: int

    @property
    def rank(self) -> int:
        return self.p + self.n_neg

    def __add__(self, other: "InertiaTriple") -> "InertiaTriple":
        return InertiaTriple(self.p + other.p, self.n_neg + other.n_neg, self.eta + other.eta)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.p, self.n_neg, self.eta)

    def __str__(self) -> str:
        return f"(p={self.p}, n={self.n_neg}, eta={self.eta})"


class HermitianMatrix:
    """A square matrix re + i*im over Z[i], tuples of int rows, with H* = H checked."""

    __slots__ = ("n", "re", "im")

    def __init__(self, re: Sequence[Sequence[int]], im: Sequence[Sequence[int]]):
        re = tuple(tuple(row) for row in re)
        im = tuple(tuple(row) for row in im)
        n = len(re)
        if len(im) != n or any(len(row) != n for row in re + im):
            raise ValueError("matrix is not square")
        for s in range(n):
            for t in range(s, n):
                if re[s][t] != re[t][s] or im[s][t] != -im[t][s]:
                    raise ValueError(f"matrix is not Hermitian at ({s}, {t})")
        self.n = n
        self.re = re
        self.im = im

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HermitianMatrix):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def to_complex_array(self) -> np.ndarray:
        array = np.array(self.re, dtype=float) + 1j * np.array(self.im, dtype=float)
        return array.reshape(self.n, self.n)


# The unit i**k as (re, im).
_UNIT_PARTS = ((1, 0), (0, 1), (-1, 0), (0, -1))


Grid = list[list[int]]


def _grids(index: Mapping[int, int] | range, graph: QuartGainGraph) -> tuple[Grid, Grid]:
    """The (re, im) grids of H on ``index``, a map from vertex to row that
    holds both ends of every edge it meets (a union of components)."""
    size = len(index)
    re = [[0] * size for _ in range(size)]
    im = [[0] * size for _ in range(size)]
    for u, v, g in graph.edges:
        if u in index:
            s, t = index[u], index[v]
            a, b = _UNIT_PARTS[g]
            re[s][t] = re[t][s] = a
            im[s][t], im[t][s] = b, -b
    return re, im


def hermitian_matrix(graph: QuartGainGraph) -> HermitianMatrix:
    """H(G): entry (s, t) is the gain of the edge oriented s -> t, else 0."""
    return HermitianMatrix(*_grids(range(graph.n), graph))


# -- exact route ---------------------------------------------------------------

# The kernel works on two parallel lists of Python int rows, the real and the
# imaginary parts of a Hermitian matrix over the Gaussian integers Z[i].  Its
# only division is Bareiss's, which is exact, so no fractions appear.


def _signature(re: list[list[int]], im: list[list[int]]) -> InertiaTriple:
    """Inertia of the Hermitian matrix re + i*im over Z[i]; consumes both lists.

    Pivot step: for the smallest-index nonzero diagonal entry d with column
    c, the rest M becomes (|d|*M - sign(d)*c c*) // q, with q the previous
    pivot's |d| (1 at first): |d|/q times the Schur complement, same inertia.

    Zero-diagonal step: when the whole remaining diagonal is zero, take the
    first nonzero off-diagonal entry h = m[s][t] in row-major order and add h
    times row/column t to row/column s.  That congruence makes the diagonal
    entry at s equal to 2|h|^2 > 0, and the pivot step runs on s.

    The division is exact (Bareiss 1968).  With A the input after the
    zero-diagonal steps so far, the rest holds one sign times the minors of A
    on the pivots taken plus one more row and column; q is the leading minor
    up to sign, and Sylvester's identity makes it divide the next ones.
    Folding sign(d) into c only flips that sign.  A zero-diagonal step is a
    unimodular congruence on unpivoted indices: each minor bordered by s gains
    h (or conj h) times the one bordered by t, so the invariant holds.

    The dimension left when nothing nonzero remains is the nullity.
    """
    pos = neg = 0
    q = 1
    while re:
        k = len(re)
        p = next((j for j in range(k) if re[j][j]), None)
        if p is None:
            st = next(
                ((s, t) for s in range(k) for t in range(s + 1, k) if re[s][t] or im[s][t]),
                None,
            )
            if st is None:
                break
            s, t = st
            hr, hi = re[s][t], im[s][t]
            rs, js, rt, jt = re[s], im[s], re[t], im[t]
            for x in range(k):
                a, b = rt[x], jt[x]
                if a or b:
                    rs[x] += hr * a - hi * b
                    js[x] += hr * b + hi * a
                    re[x][s] = rs[x]
                    im[x][s] = -js[x]
            rs[s] = 2 * (hr * hr + hi * hi)
            js[s] = 0
            p = s
        # Pivot row p without its diagonal entry is c*; fold sign(d) into it.
        pr = re.pop(p)
        pi = im.pop(p)
        d = pr.pop(p)
        del pi[p]
        if d > 0:
            pos += 1
        else:
            neg += 1
            d = -d
            pr = [-v for v in pr]
            pi = [-v for v in pi]
        for rt, jt in zip(re, im):
            cr = rt.pop(p)
            ci = jt.pop(p)
            if cr or ci:
                rt[:] = [(d * a - (cr * b - ci * c)) // q for a, b, c in zip(rt, pr, pi)]
                jt[:] = [(d * a - (cr * c + ci * b)) // q for a, b, c in zip(jt, pr, pi)]
            elif d != q:
                rt[:] = [d * a // q for a in rt]
                jt[:] = [d * a // q for a in jt]
        q = d
    return InertiaTriple(pos, neg, len(re))


def inertia_exact(matrix: HermitianMatrix) -> InertiaTriple:
    """Exact inertia by fraction-free Hermitian congruence over Z[i].

    The Gaussian-integer kernel described in :func:`_signature` counts the
    pivot signs on a copy of the matrix.  Integer arithmetic only, so no
    square roots or rounding ever appear.
    """
    return _signature([list(row) for row in matrix.re], [list(row) for row in matrix.im])


def inertia(graph: QuartGainGraph) -> InertiaTriple:
    """Inertia of H(G), computed per connected component and summed.

    Each component's int grids are built straight from ``graph.edges``;
    a one-vertex component contributes (0, 0, 1).
    """
    total = InertiaTriple(0, 0, 0)
    for comp in components(graph):
        if len(comp) == 1:
            total = total + InertiaTriple(0, 0, 1)
            continue
        total = total + _signature(*_grids({v: i for i, v in enumerate(comp)}, graph))
    return total


def _dot(xs: Iterable[int], ys: Iterable[int]) -> int:
    return sum(map(operator.mul, xs, ys))


def _matmul(ar, ai, br, bi) -> tuple[Grid, Grid]:
    """The product (ar + i*ai)(br + i*bi) of two matrices over Z[i]."""
    cols = list(zip(zip(*br), zip(*bi)))
    rows = list(zip(ar, ai))
    re = [[_dot(xr, yr) - _dot(xi, yi) for yr, yi in cols] for xr, xi in rows]
    im = [[_dot(xr, yi) + _dot(xi, yr) for yr, yi in cols] for xr, xi in rows]
    return re, im


def congruence(
    matrix: HermitianMatrix, s_re: Sequence[Sequence[int]], s_im: Sequence[Sequence[int]]
) -> HermitianMatrix:
    """S* H S over Z[i] with S = s_re + i*s_im, for congruence-invariance checks."""
    n = matrix.n
    if len(s_re) != n or len(s_im) != n or any(len(row) != n for row in (*s_re, *s_im)):
        raise ValueError("congruence matrix has wrong shape")
    hs = _matmul(matrix.re, matrix.im, s_re, s_im)
    # S* is transpose(s_re) - i*transpose(s_im).
    star_re = list(zip(*s_re))
    star_im = [[-x for x in col] for col in zip(*s_im)]
    return HermitianMatrix(*_matmul(star_re, star_im, *hs))


# -- float oracle --------------------------------------------------------------


def eig_float(matrix: HermitianMatrix) -> list[float]:
    """Eigenvalues by LAPACK ``eigvalsh`` on a complex copy, ascending."""
    if matrix.n == 0:
        return []
    return np.linalg.eigvalsh(matrix.to_complex_array()).tolist()


def inertia_float(matrix: HermitianMatrix, tol: float = 1e-9) -> InertiaTriple:
    """Inertia from float eigenvalues, classified at tol * max(1, spectral radius)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    eigs = eig_float(matrix)
    scale = max(1.0, max((abs(e) for e in eigs), default=0.0))
    cut = tol * scale
    p = sum(1 for e in eigs if e > cut)
    n_neg = sum(1 for e in eigs if e < -cut)
    return InertiaTriple(p, n_neg, matrix.n - p - n_neg)
