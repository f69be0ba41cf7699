"""Exactness of integer-exponent size arithmetic."""
from __future__ import annotations

import math

import pytest

from pesin_coder.lattice import EpsilonConfig, LatticeSize

EPS = 0.01
CFG = EpsilonConfig(EPS)


def test_floor_at_one():
    assert CFG.floor_log(math.log(1.0)).expo == 0
    assert CFG.floor_log(math.log(5.0)).expo == 0


def test_floor_just_below_first_step():
    # a value a hair above e^(-eps/3) floors to exponent 1
    v = math.exp(-EPS / 3.0) * 1.0000001
    assert CFG.floor_log(math.log(v)).expo == 1
    # a hair below e^(-eps/3) floors to exponent 2
    w = math.exp(-EPS / 3.0) * 0.9999999
    assert CFG.floor_log(math.log(w)).expo == 2


def test_floor_exact_lattice_points():
    # floor is idempotent on lattice values: e^(-eps*n/3) -> exponent n
    for n in (0, 1, 2, 3, 17, 300, 9999):
        size = CFG.size(n)
        assert CFG.floor_log(size.log_value).expo == n


def test_floor_log_handles_underflow():
    # value e^-5000 underflows float64 but the log-space floor is exact
    got = CFG.floor_log(-5000.0)
    assert got.expo == math.ceil(3 * 5000.0 / EPS)
    assert got.value == 0.0  # underflow is fine; log_value carries the size
    assert got.log_value == -EPS * got.expo / 3.0


def test_delta_is_largest_power_below_eps():
    d = CFG.delta
    n = CFG.delta_double_exponent
    assert d < EPS <= math.exp(-EPS * (n - 1))
    assert CFG.delta_exponent == 3 * n


def test_min_max_and_ordering():
    small, big = CFG.size(50), CFG.size(3)
    assert small < big and big > small
    assert small.min_with(big).expo == 50
    assert small <= CFG.size(50) and small >= CFG.size(50)


def test_e_eps_steps_are_exact():
    s = CFG.size(30)
    assert s.times_e_eps().expo == 27
    # clamped at 1 (exponent 0)
    assert CFG.size(2).times_e_eps().expo == 0
    assert s.step(5).expo == 35


def test_ratio_predicates():
    s = CFG.size(30)
    assert s.ratio_within_e_eps(CFG.size(33))
    assert s.ratio_within_e_eps(CFG.size(27))
    assert not s.ratio_within_e_eps(CFG.size(34))
    assert s.ratio_within_e_eps_third(CFG.size(31))
    assert not s.ratio_within_e_eps_third(CFG.size(32))


def test_mixed_eps_rejected():
    with pytest.raises(ValueError):
        CFG.size(1).min_with(LatticeSize(1, 0.02))
    with pytest.raises(ValueError):
        CFG.size(1) <= LatticeSize(1, 0.02)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        LatticeSize(-1, EPS)


def test_floor_monotone_near_boundaries():
    # monotonicity: floor exponent is nonincreasing in value, across many
    # lattice boundaries with deliberately perturbed inputs
    prev_expo = None
    for n in range(200, 0, -1):
        for bump in (-1e-12, 0.0, 1e-12):
            v = -EPS * n / 3.0 + bump
            e = CFG.floor_log(v).expo
            assert math.exp(-EPS * e / 3.0) <= math.exp(v) * (1 + 1e-15)
            if prev_expo is not None:
                assert e <= prev_expo
            prev_expo = e
