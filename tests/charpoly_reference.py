"""Characteristic-polynomial referee for ``inertia``, for tests only.

It computes chi(x) = det(xI - H(G)) by the Faddeev-LeVerrier recurrence over
Z[i], with no elimination and no pivoting: M_1 = I, and for k = 1..n
c_{n-k} = -tr(H M_k) / k, M_{k+1} = H M_k + c_{n-k} I.  Entries are Python
ints in numpy object arrays, a Gaussian integer as its (re, im) parts, and
each division by k goes through ``divmod`` and asserts that it is exact.
H(G) is Hermitian, so chi has real roots only and Descartes' rule of signs
is exact: p is the number of sign changes of chi(x), n that of chi(-x),
and eta the index of the lowest nonzero coefficient.  It reads only
``graph.n`` and ``graph.edges``.
"""

from __future__ import annotations

import numpy as np

_UNIT_PARTS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _hermitian_parts(graph) -> tuple[np.ndarray, np.ndarray]:
    n = graph.n
    re = np.zeros((n, n), dtype=object)
    im = np.zeros((n, n), dtype=object)
    for u, v, g in graph.edges:
        a, b = _UNIT_PARTS[g]
        re[u, v] = re[v, u] = a
        im[u, v], im[v, u] = b, -b
    return re, im


def _exact_div(x: int, k: int) -> int:
    quotient, remainder = divmod(x, k)
    assert remainder == 0, f"{x} is not a multiple of {k}"
    return quotient


def charpoly(graph) -> list[int]:
    """Coefficients c_0..c_n of chi(x) = sum c_j x^j, with c_n = 1."""
    n = graph.n
    h_re, h_im = _hermitian_parts(graph)
    coeffs = [0] * n + [1]
    m_re = np.identity(n, dtype=object)
    m_im = np.zeros((n, n), dtype=object)
    for k in range(1, n + 1):
        a_re = h_re @ m_re - h_im @ m_im
        a_im = h_re @ m_im + h_im @ m_re
        assert sum(np.diagonal(a_im)) == 0, "tr(H M) of a Hermitian H is real"
        c = -_exact_div(int(sum(np.diagonal(a_re))), k)
        coeffs[n - k] = c
        m_re = a_re + c * np.identity(n, dtype=object)
        m_im = a_im
    return coeffs


def _sign_changes(coeffs: list[int]) -> int:
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def charpoly_inertia(graph) -> tuple[int, int, int]:
    """(p, n, eta) of H(G), read off its characteristic polynomial."""
    coeffs = charpoly(graph)
    eta = next(j for j, c in enumerate(coeffs) if c != 0)
    mirrored = [c if j % 2 == 0 else -c for j, c in enumerate(coeffs)]
    return _sign_changes(coeffs), _sign_changes(mirrored), eta
