"""The fourth roots of unity, the edge-gain alphabet of the graph layer.

A unit is encoded compactly as its exponent of i (an int in 0..3), with tiny
helper functions for multiplication, conjugation and text tokens.  Its value
as a Gaussian integer, needed only to build H(G), lives in ``graph_core``
(:func:`graph_core.gain_grids`, :func:`graph_core.gain_arrays`) and, packed
into one int for the exact kernel, in ``spectra``.

:func:`as_int` is the one rule for integer input, shared by graph records,
vertex ids, matrix entries, enumeration orders and limits, and suite
orders.
"""

from __future__ import annotations

import operator

# A unit is i**k, stored as the exponent k in 0..3.
Unit = int

UNIT_ONE: Unit = 0
UNIT_I: Unit = 1
UNIT_MINUS_ONE: Unit = 2
UNIT_MINUS_I: Unit = 3
UNITS: tuple[Unit, ...] = (UNIT_ONE, UNIT_I, UNIT_MINUS_ONE, UNIT_MINUS_I)

_UNIT_TOKENS = ("1", "i", "-1", "-i")
_TOKEN_TO_UNIT = {tok: k for k, tok in enumerate(_UNIT_TOKENS)}


def unit_mul(a: Unit, b: Unit) -> Unit:
    return (a + b) % 4


def unit_conj(a: Unit) -> Unit:
    return (-a) % 4


def unit_token(a: Unit) -> str:
    return _UNIT_TOKENS[a % 4]


def unit_from_token(token: str) -> Unit:
    """Parse one of the four gain tokens ``1, i, -1, -i``."""
    try:
        return _TOKEN_TO_UNIT[token]
    except KeyError:
        raise ValueError(f"unknown unit token {token!r}") from None


def as_int(value: object, what: str, error: type[ValueError] = ValueError) -> int:
    """``value`` as a plain int, else ``error``: a bool is not an integer, and a
    numpy integer becomes an int."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{what} must be an integer, got {value!r}")
