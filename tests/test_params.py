"""Parameter and configuration validation."""

from fractions import Fraction

import pytest

from tubeke import ShootingConfig, TubeParams


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


def test_shooting_config_defaults():
    config = ShootingConfig()
    assert config.f_blowup_threshold == 1e8
    assert config.step_tolerance == 1e-12
    assert config.max_steps == 500_000


@pytest.mark.parametrize("kwargs", [
    dict(f_blowup_threshold=0.0),
    dict(f_blowup_threshold=-1.0),
    dict(step_tolerance=-1e-9),
    dict(step_tolerance=1e-5),
    dict(step_tolerance=0.0),
    dict(max_steps=0),
    # the smallest value measured to fail the identity gate for nearly every p
    dict(step_tolerance=1.5e-7),
])
def test_shooting_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ShootingConfig(**kwargs)
