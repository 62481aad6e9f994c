"""Exact inertia of Hermitian gain-graph matrices, plus a float cross-check.

A :class:`HermitianMatrix` is a matrix over the Gaussian integers Z[i], held
as two grids of Python ints; :func:`congruence` by a Z[i] matrix stays there.

Two fully independent routes compute the signature of H(G):

* :func:`inertia_exact` diagonalizes by fraction-free congruence over the
  Gaussian integers Z[i] and counts pivot signs.  A pivot d scales the rest
  by |d| > 0 instead of dividing by d, then divides it by the previous |d|,
  a division that Sylvester's identity makes exact (Bareiss); a zero
  diagonal takes a 2x2 pivot [[0, h], [conj h, 0]], one positive and one
  negative sign.  Congruent Hermitian matrices share their inertia, so the
  count is exact.
* :func:`eig_float` runs LAPACK ``eigvalsh`` on a complex floating copy;
  :func:`inertia_float` thresholds its eigenvalues.  This path shares no
  code with the exact one and exists purely as an oracle.

Below :data:`CERT_ORDER` (16) vertices, :func:`inertia` hands the whole
graph to the exact kernel.  From that order up, it twin-reduces the whole
graph once and, spectral quantities being additive over connected
components, sums over the components of the reduced graph: the
certificate on each of order at least :data:`CERT_ORDER` with more edges
than vertices, the exact kernel on the others and wherever the
certificate declines.  The certificate is a congruence S guessed from a
float eigenbasis and checked in exact integers
(:func:`_certified_signature`).  Every answer stays exact.  numpy is
imported only inside the float functions (the certificate, the oracle,
:func:`congruence` and :meth:`HermitianMatrix.to_complex_array`), so a
call that stays on the kernel never loads it.

The kernel pays for the rows each step hits, not for all of them: a row
the pivot columns miss is rescaled only when it is next read, and the
pivot is the sparsest row, which keeps the fill of sparse input low.  The
singular order-1024 cycle, 32 x 32 grid, random tree and random graph with
1,536 edges each take 0.4-0.9 s of CPU in the kernel (2-core VM).  The
cycle and the tree, with no more edges than vertices, go to the kernel
directly: ``eigh`` alone takes about 1.3 s at that order, so through
:func:`inertia` the cycle takes 0.5 s where trying the certificate first
would take 1.8 s, and the cycle with one arc, which the certificate
proves, 0.5 s against 1.5 s.  The certificate declines the grid and the
random graph from the eigenvalues of ``eigh``, after about 1.4 s.  On
dense input the cost grows faster than n^3: at edge probability 0.9 the
kernel takes about 10 s at order 256 and minutes at order 512, where
``hermitia inertia`` with the certificate takes 0.4 s, 1.0 s, and 4 s at
order 1024, start-up included.  Dense singular residues, and inputs whose
smallest eigenvalues are too close to 0 for the certificate, still fall
back to the kernel, so dense order 512 and up can still take minutes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import or_
from typing import TYPE_CHECKING, Optional, Sequence

from .graph_core import (
    QuartGainGraph,
    components,
    gain_arrays,
    gain_grids,
    gaussian_matmul,
    induced_subgraph,
)
from .numeric import as_int
from .switching_twins import twin_reduction

if TYPE_CHECKING:
    import numpy as np


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
    """A square matrix re + i*im over Z[i], tuples of int rows, with H* = H checked.

    Every entry must be an integer, as for :class:`QuartGainGraph` records: a
    bool or a float raises ValueError, and numpy integers are stored as int.
    """

    __slots__ = ("n", "re", "im")

    def __init__(self, re: Sequence[Sequence[int]], im: Sequence[Sequence[int]]):
        re = tuple(tuple(row) for row in re)
        im = tuple(tuple(row) for row in im)
        n = len(re)
        if len(im) != n or any(len(row) != n for row in re + im):
            raise ValueError("matrix is not square")
        if not set(map(type, itertools.chain.from_iterable(re + im))) <= {int}:
            re, im = (
                tuple(tuple(as_int(x, "matrix entry") for x in row) for row in grid) for grid in (re, im)
            )
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
        import numpy as np

        array = np.array(self.re, dtype=float) + 1j * np.array(self.im, dtype=float)
        return array.reshape(self.n, self.n)


def hermitian_matrix(graph: QuartGainGraph) -> HermitianMatrix:
    """H(G): entry (s, t) is the gain of the edge oriented s -> t, else 0."""
    return HermitianMatrix(*gain_grids(graph))


# -- exact route ---------------------------------------------------------------

# The kernel works on two parallel lists of Python int rows, the real and the
# imaginary parts of a Hermitian matrix over the Gaussian integers Z[i].  Its
# only divisions are Bareiss's, which are exact, so no fractions appear.

# A graph below this order goes to the kernel whole.  A larger one is
# twin-reduced, and the components of the reduced graph of at least this order
# first try _certified_signature.  Every enumerated law suite runs below it, so
# they exercise only the exact kernel and never the twin law.
CERT_ORDER = 16


def _nonzeros(rt: list[int], jt: list[int]) -> int:
    return len(rt) - list(map(or_, rt, jt)).count(0)


def _signature(re: list[list[int]], im: list[list[int]]) -> InertiaTriple:
    """Inertia of the Hermitian matrix re + i*im over Z[i]; consumes both lists.

    Pivot step: for a nonzero diagonal entry d with column c, the rest M
    becomes (|d|*M - sign(d)*c c*) // q, with q the previous pivot's |d| (1
    at first): |d|/q times the Schur complement, same inertia.

    2x2 step: when the whole remaining diagonal is zero, take a nonzero
    entry h = M[s][t].  The principal block B = [[0, h], [conj h, 0]] has
    det B = -|h|^2 < 0, so one positive and one negative eigenvalue (Bunch
    and Parlett 1971).  With g = |h|^2 and S, T rows s and t, every other
    row x becomes (g*x - u*T - w*S) // q^2 with u = h*x_s, w = conj(h)*x_t:
    g/q^2 times its row of the Schur complement of B, so the step counts
    (1, 1, 0).  Then q becomes g // q.

    The division is exact (Bareiss 1968).  With A the input, the rest holds
    one sign times the minors of A on the pivots taken plus one more row
    and column; q is the leading minor up to sign, and Sylvester's identity
    makes it divide the next ones.  Folding sign(d) into c only flips that
    sign.  In a 2x2 step, det B = -g is q times the next leading minor, and
    the 3x3 minors of M on s, t and one more row and column, which are
    -(g*x - u*T - w*S), are q^2 times the next rest's entries.

    Lazy rescale: a row the pivot column misses is only multiplied by |d|/q
    (g/q^2 in a 2x2 step), and over several steps these factors telescope.
    So row j stays as it was last written, and at[j] keeps the q of that
    time: its true value is stored * q // at[j], exact because the true
    entries are minors.  A row is brought up to date only where it is read
    whole: as the pivot row (with sign(d) folded into it), and as row s or
    t of a 2x2 step.  A row the pivot column hits, with x its stored entries
    and c its stored column entry, becomes (|d|*x - c*p) // at[j] for the
    pivot row p.  That is (|d|*x*q/at[j] - c*q/at[j]*p) / q, the update of
    the true row, so this division is exact as well.  In the same way a row
    that column s or t hits becomes (g*x - u*T - w*S) // (at[j]*q), from its
    stored entries.  A missed row only loses the pivot columns, so a step
    costs the rows it hits, not all of them.  Only these updates and
    rescales write to the rows.

    Pivot order, at every size: the pivot is the row with the fewest
    nonzeros among those with a nonzero diagonal, and a 2x2 step takes the
    sparsest nonzero row and its sparsest neighbour (minimum degree, George
    and Liu 1989), which keeps the fill of sparse input low.  Any order
    gives the same inertia.

    The dimension left when nothing nonzero remains is the nullity.
    """
    pos = neg = 0
    q = 1
    at = [1] * len(re)
    nz = [_nonzeros(rt, jt) for rt, jt in zip(re, im)]
    while re:
        k = len(re)
        p = None
        for j in range(k):
            if re[j][j] and (p is None or nz[j] < nz[p]):
                p = j
        if p is None:
            s = None
            for j in range(k):
                if nz[j] and (s is None or nz[j] < nz[s]):
                    s = j
            if s is None:
                break
            rs, js = re[s], im[s]
            t = None
            for j in range(k):
                if (rs[j] or js[j]) and (t is None or nz[j] < nz[t]):
                    t = j
            s, t = min(s, t), max(s, t)
            # Rows t and s brought up to date, without columns s and t.
            pair = []
            for j in (t, s):
                rj, jj, a = re.pop(j), im.pop(j), at.pop(j)
                del nz[j]
                if a != q:
                    rj = [v * q // a for v in rj]
                    jj = [v * q // a for v in jj]
                pair += [rj, jj]
            tr, ti, sr, si = pair
            hr, hi = sr[t], si[t]
            for row in pair:
                del row[t], row[s]
            g = hr * hr + hi * hi
            pos += 1
            neg += 1
            for j in range(len(re)):
                rx, jx = re[j], im[j]
                ctr, cti = rx.pop(t), jx.pop(t)
                csr, csi = rx.pop(s), jx.pop(s)
                if ctr or cti or csr or csi:
                    # u = h * x_s and w = conj(h) * x_t.
                    ur, ui = hr * csr - hi * csi, hr * csi + hi * csr
                    wr, wi = hr * ctr + hi * cti, hr * cti - hi * ctr
                    a = at[j] * q
                    rx[:] = [
                        (g * x - (ur * t_re - ui * t_im) - (wr * s_re - wi * s_im)) // a
                        for x, t_re, t_im, s_re, s_im in zip(rx, tr, ti, sr, si)
                    ]
                    jx[:] = [
                        (g * x - (ur * t_im + ui * t_re) - (wr * s_im + wi * s_re)) // a
                        for x, t_re, t_im, s_re, s_im in zip(jx, tr, ti, sr, si)
                    ]
                    at[j] = g // q
                    nz[j] = _nonzeros(rx, jx)
            q = g // q
            continue
        # Pivot row p without its diagonal entry is c*, brought up to date
        # with sign(d) folded into it.
        pr, pi, a = re.pop(p), im.pop(p), at.pop(p)
        del nz[p]
        d = pr.pop(p)
        del pi[p]
        if d > 0:
            pos += 1
            f = q
        else:
            neg += 1
            f = -q
        if f != a:
            pr = [v * f // a for v in pr]
            pi = [v * f // a for v in pi]
            d = d * f // a
        for j in range(len(re)):
            rt, jt = re[j], im[j]
            cr, ci = rt.pop(p), jt.pop(p)
            if cr or ci:
                a = at[j]
                rt[:] = [(d * x - (cr * b - ci * c)) // a for x, b, c in zip(rt, pr, pi)]
                jt[:] = [(d * x - (cr * c + ci * b)) // a for x, b, c in zip(jt, pr, pi)]
                at[j] = d
                nz[j] = _nonzeros(rt, jt)
        q = d
    return InertiaTriple(pos, neg, len(re))


def inertia_exact(matrix: HermitianMatrix) -> InertiaTriple:
    """Exact inertia by fraction-free Hermitian congruence over Z[i].

    The Gaussian-integer kernel described in :func:`_signature` counts the
    pivot signs on a copy of the matrix.  Integer arithmetic only, so no
    square roots or rounding ever appear.
    """
    return _signature([list(row) for row in matrix.re], [list(row) for row in matrix.im])


def _certified_signature(h_re: np.ndarray, h_im: np.ndarray) -> Optional[InertiaTriple]:
    """Inertia of H = h_re + i*h_im (float64 arrays, zero diagonal, other
    entries 0 or a unit) proved by one congruence guessed in floating point,
    or None.

    V from LAPACK ``eigh`` is nearly unitary with V* H V nearly diagonal, so
    S = round(2^k V) is a Gaussian-integer matrix and D = S* H S is computed
    exactly (below).  If every row has |D_ii| > sum over j != i of
    |Re D_ij| + |Im D_ij|, D is nonsingular (Levy-Desplanques), hence so
    are S and H, and by Sylvester's law of inertia H has the signs of D's
    diagonal, with eta = 0.  A singular H is therefore always declined, and
    one with an eigenvalue within 1e-9 * max(1, spectral radius) of 0 (the
    cut of :func:`inertia_float`) is declined before S is rounded: it is
    singular or nearly so, and the kernel answers it exactly.

    Exactness: let N be the largest column sum of |Re S| + |Im S|.  Each
    entry of H is 0 or a unit, so every partial sum in H S is at most N in
    absolute value and every partial sum in S* (H S) at most N^2.  With
    N^2 < 2^53 every float64 BLAS product is an exact integer in any
    summation order; each row of |Re D| + |Im D| then sums to at most
    m N^2 < 2^63, exact in int64.
    """
    import numpy as np

    m = len(h_re)
    try:
        w, v = np.linalg.eigh(h_re + 1j * h_im)
    except np.linalg.LinAlgError:
        return None
    w = np.abs(w)
    if w.min() <= 1e-9 * max(1.0, w.max()):
        return None
    # A unit column of V has |Re| + |Im| summing to at most sqrt(2m), and
    # rounding adds at most m, so this k keeps N below 2^26.
    k = int(math.log2((2**26 - m) / math.sqrt(2 * m)))
    s_re, s_im = np.rint(np.ldexp(v.real, k)), np.rint(np.ldexp(v.imag, k))
    bound = int((np.abs(s_re) + np.abs(s_im)).sum(axis=0).max())
    if bound * bound >= 2**53 or m * bound * bound >= 2**63:
        return None
    hs = gaussian_matmul(h_re, h_im, s_re, s_im)
    d_re, d_im = (part.astype(np.int64) for part in gaussian_matmul(s_re.T, -s_im.T, *hs))
    diagonal = d_re.diagonal()
    off = (np.abs(d_re) + np.abs(d_im)).sum(axis=1) - np.abs(diagonal)
    if not (np.abs(diagonal) > off).all():
        return None
    p = int((diagonal > 0).sum())
    return InertiaTriple(p, m - p, 0)


def inertia(graph: QuartGainGraph) -> InertiaTriple:
    """Inertia of H(G): below :data:`CERT_ORDER` vertices by the exact kernel
    on the whole graph, else per connected component of its twin reduction
    and summed.

    A graph of order below :data:`CERT_ORDER` goes to :func:`_signature`
    whole, on the int grids of :func:`gain_grids`: the kernel handles a
    block-diagonal matrix and zero rows itself.  A larger graph is replaced
    by its :func:`twin_reduction`, once: H is congruent to the reduced
    matrix plus a zero block, so (p, n) are unchanged and eta gains the
    removed vertices.  A twin class never spans two components (nonempty
    neighbour sets in different components are disjoint), so this reduces
    each component on its own, except that all isolated vertices merge into
    one.  Each component of the reduced graph then becomes a graph of its
    own: the reduced graph itself when it is connected, else its
    :func:`induced_subgraph`.  If its order is at least :data:`CERT_ORDER`
    and it has more edges than vertices, :func:`_certified_signature` tries
    to prove its inertia from the float arrays of :func:`gain_arrays`.
    Otherwise, or when it declines, the exact kernel runs on the int grids.
    A tree or a single cycle, with at most n edges, thus never reaches
    ``eigh``: the kernel answers one of order 1024 in about a third of the
    time ``eigh`` alone takes.
    """
    if graph.n < CERT_ORDER:
        return _signature(*gain_grids(graph))
    reduced = twin_reduction(graph)
    total = InertiaTriple(0, 0, graph.n - reduced.n)
    for comp in components(reduced):
        sub = reduced if len(comp) == reduced.n else induced_subgraph(reduced, comp)
        part = None
        if sub.n >= CERT_ORDER and len(sub.edges) > sub.n:
            part = _certified_signature(*gain_arrays(sub))
        if part is None:
            part = _signature(*gain_grids(sub))
        total = total + part
    return total


def congruence(
    matrix: HermitianMatrix, s_re: Sequence[Sequence[int]], s_im: Sequence[Sequence[int]]
) -> HermitianMatrix:
    """S* H S over Z[i] with S = s_re + i*s_im, for congruence-invariance checks."""
    n = matrix.n
    if len(s_re) != n or len(s_im) != n or any(len(row) != n for row in (*s_re, *s_im)):
        raise ValueError("congruence matrix has wrong shape")
    import numpy as np

    h_re, h_im, s_re, s_im = (
        np.array(grid, dtype=object).reshape(n, n) for grid in (matrix.re, matrix.im, s_re, s_im)
    )
    # S* is transpose(s_re) - i*transpose(s_im).
    star_hs = gaussian_matmul(s_re.T, -s_im.T, *gaussian_matmul(h_re, h_im, s_re, s_im))
    return HermitianMatrix(*(part.tolist() for part in star_hs))


# -- float oracle --------------------------------------------------------------


def eig_float(matrix: HermitianMatrix) -> list[float]:
    """Eigenvalues by LAPACK ``eigvalsh`` on a complex copy, ascending."""
    if matrix.n == 0:
        return []
    import numpy as np

    return np.linalg.eigvalsh(matrix.to_complex_array()).tolist()


def inertia_float(matrix: HermitianMatrix, tol: float = 1e-9) -> InertiaTriple:
    """Inertia from float eigenvalues, classified at tol * max(1, spectral radius)."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    eigs = eig_float(matrix)
    scale = max(1.0, max((abs(e) for e in eigs), default=0.0))
    cut = tol * scale
    p = sum(1 for e in eigs if e > cut)
    n_neg = sum(1 for e in eigs if e < -cut)
    return InertiaTriple(p, n_neg, matrix.n - p - n_neg)
