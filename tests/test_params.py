"""Parameter validation."""

from fractions import Fraction

import pytest

from tubeke import TubeParams


def test_ricci_normalization_constant_is_exact():
    assert TubeParams(p=1).K == Fraction(1)
    assert TubeParams(p=2).K == Fraction(5, 3)
    assert TubeParams(p=3).K == Fraction(7, 3)
    assert TubeParams(p=7).K == Fraction(15, 3)


def test_K_float_matches_fraction():
    for p in (1, 2, 3, 10):
        params = TubeParams(p=p)
        assert params.K_float == float(params.K) == (2 * p + 1) / 3


@pytest.mark.parametrize("bad", [0, -1, -100])
def test_p_must_be_positive(bad):
    with pytest.raises(ValueError):
        TubeParams(p=bad)


@pytest.mark.parametrize("bad", [1.5, "2", None, True])
def test_p_must_be_a_plain_integer(bad):
    with pytest.raises((TypeError, ValueError)):
        TubeParams(p=bad)

