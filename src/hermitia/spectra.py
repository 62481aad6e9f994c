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
  :func:`inertia_float_many` runs it once per order on stacked copies and
  thresholds the eigenvalues, and :func:`inertia_float` is a batch of one.
  This path shares no code with the exact one and exists purely as an
  oracle.

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

The kernel holds each Gaussian integer a + b*i as the one Python int
a + b * 2^K, so a row is one list of ints and a step one pass over it.  K
comes from Hadamard's bound on the input's rows, so both parts of every
minor of the input lie below 2^(K-1); every entry the kernel stores is
such a minor, so it decodes exactly, and the packing is Z-linear, so the
Bareiss updates and divisions act on packed values directly
(:func:`_signature`).

The kernel pays for the rows each step hits, not for all of them: a row
the pivot columns miss is rescaled only when it is next read, and the
pivot is the sparsest row, which keeps the fill of sparse input low.  The
singular order-1024 cycle, 32 x 32 grid, random tree and random graph with
1,536 edges each take 0.3-0.4 s of CPU in :func:`inertia_exact`, packing
included (2-core VM; 0.4-0.55 s with a real and an imaginary grid).  The
cycle and the tree, with no more edges than vertices, go to the kernel
directly: ``eigh`` alone takes about 1.3 s at that order, so through
:func:`inertia` the cycle takes 0.23 s where trying the certificate first
would take 1.5 s, and the cycle with one arc, which the certificate
proves, 0.23 s against 1.5 s.  The certificate declines the grid and the
random graph from the eigenvalues of ``eigh``, after about 1.4 s.  On
dense input the cost grows faster than n^3: at edge probability 0.9 the
kernel takes about 0.5 s at order 128, 12 s at order 256 and minutes at
order 512, where ``hermitia inertia`` with the certificate takes 0.4 s,
1.0 s, and 4 s at order 1024, start-up included.  At order 256 the packing
costs about a third more than two grids, 12 s against 9 s: K is fixed by
the final minors, so the early, small entries carry it too.  Dense
singular residues, and inputs whose smallest eigenvalues are too close to
0 for the certificate, still fall back to the kernel, so dense order 512
and up can still take minutes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import add, mul
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

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

    @classmethod
    def _from_grids(cls, re: list[list[int]], im: list[list[int]]) -> HermitianMatrix:
        """The matrix re + i*im, stored unchecked: the grids must be square,
        of plain ints, and Hermitian, as :func:`gain_grids` builds them."""
        matrix = object.__new__(cls)
        matrix.n = len(re)
        matrix.re = tuple(map(tuple, re))
        matrix.im = tuple(map(tuple, im))
        return matrix

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
    """H(G): entry (s, t) is the gain of the edge oriented s -> t, else 0.

    The grids of a valid graph are Hermitian int grids by construction, so
    they skip the checks of the :class:`HermitianMatrix` constructor.
    """
    return HermitianMatrix._from_grids(*gain_grids(graph))


# -- exact route ---------------------------------------------------------------

# The kernel packs each Gaussian integer a + b*i into the one Python int
# a + b * 2^K, so a matrix is a single list of int rows.  Its only divisions
# are Bareiss's, which are exact, so no fractions appear.

# A graph below this order goes to the kernel whole.  A larger one is
# twin-reduced, and the components of the reduced graph of at least this order
# first try _certified_signature.  Every enumerated law suite runs below it, so
# they exercise only the exact kernel and never the twin law.
CERT_ORDER = 16


def _packing_width(square_norms: Iterable[int]) -> int:
    """The K of the packing for a matrix whose rows have these squared norms.

    By Hadamard's bound every minor of the matrix is at most the square root
    of P = prod max(1, |row|^2) in absolute value.  P < 2^L with L its bit
    length, so every minor, and both its parts, lie strictly below
    2^(L/2) < 2^(K-1) with K = floor(L/2) + 2.
    """
    return math.prod(filter(None, square_norms)).bit_length() // 2 + 2  # a zero norm counts as 1


def _times_i(row: list[int], k: int) -> list[int]:
    """i times each packed entry of ``row``: a + b*2^K becomes -b + a*2^K."""
    half = 1 << (k - 1)
    return [((v - ((b := (v + half) >> k) << k)) << k) - b if v else 0 for v in row]


def _signature(rows: list[list[int]], k: int) -> InertiaTriple:
    """Inertia of the Hermitian matrix over Z[i] whose entries a + b*i are
    packed as a + b*2^K in ``rows``; consumes the list.

    Packing: the map a + b*i -> a + b*2^K is Z-linear, so sums, products
    by an integer and exact divisions by an integer act on packed values
    directly, whatever the size of their parts on the way.  A Gaussian
    product c*x for a decoded c = cr + ci*i is cr*x + ci*(i*x), and i*x
    needs x decoded: b = (v + 2^(K-1)) >> K, then a = v - (b << K).  That
    is exact when |a| < 2^(K-1), which holds for every stored entry: each
    is a minor of the input (below), so K from :func:`_packing_width`
    bounds it.  Only pivot-column entries are decoded (with h, x_s and x_t
    of a 2x2 step), and the pivot row and rows s and t, once per step, to
    multiply them by i.  A packed entry is 0 exactly when both parts are,
    and a diagonal entry is real, so its packed value is its value.

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
    -(g*x - u*T - w*S), are q^2 times the next rest's entries.  Both parts
    of a packed numerator are multiples of the real divisor, so its packed
    quotient is exact too.

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

    One list per row means one pass, one pop and one nonzero count per row
    and step.  On a 2-core VM that makes the kernel about 1.5x as fast as
    on a real and an imaginary grid over the order <= 6 law corpus,
    1.2-1.45x on the order-1024 guards and 1.15x on dense order 128, but
    0.75x on dense order 256: K is fixed by the largest minors, so the
    early, small entries are as wide as the last ones.
    """
    pos = neg = 0
    q = 1
    half = 1 << (k - 1)
    at = [1] * len(rows)
    nz = [len(row) - row.count(0) for row in rows]
    while rows:
        m = len(rows)
        p = None
        for j in range(m):
            if rows[j][j] and (p is None or nz[j] < nz[p]):
                p = j
        if p is None:
            s = None
            for j in range(m):
                if nz[j] and (s is None or nz[j] < nz[s]):
                    s = j
            if s is None:
                break
            rs = rows[s]
            t = None
            for j in range(m):
                if rs[j] and (t is None or nz[j] < nz[t]):
                    t = j
            s, t = min(s, t), max(s, t)
            # Rows t and s brought up to date, without columns s and t.
            pair = []
            for j in (t, s):
                row, a = rows.pop(j), at.pop(j)
                del nz[j]
                if a != q:
                    row = [v * q // a for v in row]
                pair.append(row)
            tr, sr = pair
            h = sr[t]
            hi = (h + half) >> k
            hr = h - (hi << k)
            for row in pair:
                del row[t], row[s]
            ti, si = _times_i(tr, k), _times_i(sr, k)
            g = hr * hr + hi * hi
            pos += 1
            neg += 1
            for j in range(len(rows)):
                row = rows[j]
                xt = row.pop(t)
                xs = row.pop(s)
                if xt or xs:
                    xti = (xt + half) >> k
                    xtr = xt - (xti << k)
                    xsi = (xs + half) >> k
                    xsr = xs - (xsi << k)
                    # u = h * x_s and w = conj(h) * x_t.
                    ur, ui = hr * xsr - hi * xsi, hr * xsi + hi * xsr
                    wr, wi = hr * xtr + hi * xti, hr * xti - hi * xtr
                    a = at[j] * q
                    row[:] = [
                        (g * x - ur * t_r - ui * t_i - wr * s_r - wi * s_i) // a
                        for x, t_r, t_i, s_r, s_i in zip(row, tr, ti, sr, si)
                    ]
                    at[j] = g // q
                    nz[j] = len(row) - row.count(0)
            q = g // q
            continue
        # Pivot row p without its diagonal entry is c*, brought up to date
        # with sign(d) folded into it.
        pr, a = rows.pop(p), at.pop(p)
        del nz[p]
        d = pr.pop(p)
        if d > 0:
            pos += 1
            f = q
        else:
            neg += 1
            f = -q
        if f != a:
            pr = [v * f // a for v in pr]
            d = d * f // a
        pi = _times_i(pr, k)
        for j in range(len(rows)):
            row = rows[j]
            c = row.pop(p)
            if c:
                ci = (c + half) >> k
                cr = c - (ci << k)
                a = at[j]
                row[:] = [(d * x - cr * u - ci * w) // a for x, u, w in zip(row, pr, pi)]
                at[j] = d
                nz[j] = len(row) - row.count(0)
        q = d
    return InertiaTriple(pos, neg, len(rows))


def _graph_rows(graph: QuartGainGraph) -> tuple[list[list[int]], int]:
    """The packed rows of H(G) and their K, straight from ``graph.edges``:
    a unit row has |row|^2 equal to the degree."""
    n = graph.n
    degree = [0] * n
    for s, t, _ in graph.edges:
        degree[s] += 1
        degree[t] += 1
    k = _packing_width(degree)
    i = 1 << k
    units = (1, i, -1, -i)
    rows = [[0] * n for _ in range(n)]
    for s, t, g in graph.edges:
        rows[s][t] = units[g]
        rows[t][s] = units[-g]  # the conjugate unit
    return rows, k


def inertia_exact(matrix: HermitianMatrix) -> InertiaTriple:
    """Exact inertia by fraction-free Hermitian congruence over Z[i].

    The Gaussian-integer kernel described in :func:`_signature` counts the
    pivot signs on a packed copy of the matrix.  Integer arithmetic only, so
    no square roots or rounding ever appear.
    """
    grids = tuple(zip(matrix.re, matrix.im))
    k = _packing_width(sum(map(mul, re, re)) + sum(map(mul, im, im)) for re, im in grids)
    packed_i = itertools.repeat(1 << k)
    return _signature([list(map(add, re, map(mul, im, packed_i))) for re, im in grids], k)


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
    whole, on rows packed straight from ``graph.edges``: the kernel handles
    a block-diagonal matrix and zero rows itself.  A larger graph is replaced
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
    Otherwise, or when it declines, the exact kernel runs on its packed
    rows.  A tree or a single cycle, with at most n edges, thus never
    reaches ``eigh``: the kernel answers one of order 1024 in about a fifth
    of the time ``eigh`` alone takes.
    """
    if graph.n < CERT_ORDER:
        return _signature(*_graph_rows(graph))
    reduced = twin_reduction(graph)
    total = InertiaTriple(0, 0, graph.n - reduced.n)
    for comp in components(reduced):
        sub = reduced if len(comp) == reduced.n else induced_subgraph(reduced, comp)
        part = None
        if sub.n >= CERT_ORDER and len(sub.edges) > sub.n:
            part = _certified_signature(*gain_arrays(sub))
        if part is None:
            part = _signature(*_graph_rows(sub))
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
    return inertia_float_many([matrix], tol)[0]


def inertia_float_many(matrices: Sequence[HermitianMatrix], tol: float = 1e-9) -> list[InertiaTriple]:
    """:func:`inertia_float` of each matrix, in order, from one ``eigvalsh``
    per order on the stacked complex copies of the matrices of that order."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    import numpy as np

    by_order: dict[int, list[int]] = {}
    for index, matrix in enumerate(matrices):
        by_order.setdefault(matrix.n, []).append(index)
    triples: dict[int, InertiaTriple] = {}
    for n, indices in by_order.items():
        shape = (len(indices), n, n)
        stack = np.array([matrices[j].re for j in indices], dtype=float).reshape(shape)
        stack = stack + 1j * np.array([matrices[j].im for j in indices], dtype=float).reshape(shape)
        eigs = np.linalg.eigvalsh(stack)
        cut = tol * np.maximum(1.0, np.abs(eigs).max(axis=1, initial=0.0))
        positive = (eigs > cut[:, None]).sum(axis=1).tolist()
        negative = (eigs < -cut[:, None]).sum(axis=1).tolist()
        for j, p, n_neg in zip(indices, positive, negative):
            triples[j] = InertiaTriple(p, n_neg, n - p - n_neg)
    return [triples[j] for j in range(len(matrices))]
