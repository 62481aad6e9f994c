import pytest

from hermitia import (
    UNIT_I,
    UNIT_MINUS_I,
    UNIT_MINUS_ONE,
    UNITS,
    unit_conj,
    unit_from_token,
    unit_mul,
    unit_token,
)


def test_unit_arithmetic():
    assert unit_mul(UNIT_I, UNIT_I) == UNIT_MINUS_ONE
    assert unit_conj(UNIT_I) == UNIT_MINUS_I
    assert unit_conj(UNIT_MINUS_ONE) == UNIT_MINUS_ONE
    for u in UNITS:
        assert unit_from_token(unit_token(u)) == u
    with pytest.raises(ValueError):
        unit_from_token("2i")
