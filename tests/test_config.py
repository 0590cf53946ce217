import dataclasses
import math
from fractions import Fraction

import pytest

from dyncolor.config import Config, auto_zeta, ceil_log2


def test_defaults_are_exact_fractions():
    cfg = Config()
    assert cfg.epsilon == Fraction(1, 110)
    assert cfg.gamma == Fraction(1, 16)
    # callers set three parameters; the calibrated constants live in
    # config.py, and the metrics header still records all seven values
    assert [f.name for f in dataclasses.fields(Config)] == ["epsilon", "zeta", "gamma"]
    assert cfg.to_dict() == {
        "epsilon": "1/110",
        "zeta": 1,
        "gamma": "1/16",
        "delta_const": "1",
        "slack_coeff": "3",
        "c_bal": "8",
        "retry_scale": 8,
    }


def test_string_and_float_coercion():
    cfg = Config(epsilon="1/8", gamma=0.25)
    assert cfg.epsilon == Fraction(1, 8)
    assert cfg.gamma == Fraction(1, 4)


def test_epsilon_bounds():
    with pytest.raises(ValueError):
        Config(epsilon=Fraction(1, 6))
    with pytest.raises(ValueError):
        Config(epsilon=0)


def test_zeta_positive():
    with pytest.raises(ValueError):
        Config(zeta=0)


def test_phase_length():
    assert Config(zeta=1).phase_length == 1  # floor(1/16) clamped up
    assert Config(zeta=64).phase_length == 4
    assert Config(zeta=64, gamma=1).phase_length == 64


def test_dispatch_threshold():
    cfg = Config(epsilon=Fraction(1, 8), zeta=1)
    # active iff delta * eps^2 * DELTA_CONST >= zeta
    assert cfg.dense_path_active(64)
    assert not cfg.dense_path_active(63)
    cfg2 = Config(epsilon=Fraction(1, 8), zeta=4)
    assert not cfg2.dense_path_active(255)
    assert cfg2.dense_path_active(256)


def test_dissolve_threshold_scales():
    cfg = Config(epsilon=Fraction(1, 8), zeta=2)
    assert cfg.dissolve_threshold() == Fraction(50 * 2 * 64)


def test_auto_zeta():
    assert auto_zeta(1) == 1
    assert auto_zeta(1000) == 100
    assert auto_zeta(n := 512) == math.ceil(n ** (2 / 3))


def test_ceil_log2():
    # the log n of the retry caps and the balance bound; n = 1 counts as 2
    assert [ceil_log2(n) for n in (1, 2, 3, 4, 5, 1024, 1025, 2048)] == [1, 1, 2, 2, 3, 10, 11, 11]
    assert all(ceil_log2(n) == (n - 1).bit_length() for n in range(2, 5000))


def test_to_dict_roundtrips_strings():
    d = Config(epsilon="1/9", zeta=7).to_dict()
    assert d["epsilon"] == "1/9"
    assert d["zeta"] == 7
