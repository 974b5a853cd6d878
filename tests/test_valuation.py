import numpy as np
import pytest
from oracles import brute_force_best_execution

from bestexec import (MarketParams, cost_sensitivity, informed_expected_cost,
                      naive_expected_cost, solve_coefficients)

BASELINE = MarketParams(5e-5, 5.0, 0.5, 0.125 ** 2, 0.001)


def test_naive_expected_cost_anchors():
    assert naive_expected_cost(100000, 50.0, 1, 20, 5e-5) == pytest.approx(5262500.0, abs=1e-6)
    assert naive_expected_cost(100000, 50.0, 20, 20, 5e-5) == pytest.approx(5500000.0, abs=1e-6)
    assert naive_expected_cost(12345.0, 42.0, 3, 9, 0.0) == 12345.0 * 42.0


def test_naive_expected_cost_rejects_bad_period():
    with pytest.raises(ValueError):
        naive_expected_cost(1e5, 50.0, 21, 20, 5e-5)


def test_informed_equals_naive_without_information_channel():
    sch = solve_coefficients(MarketParams(5e-5, 0.0, 0.5, 0.01, 0.001), 20)
    rng = np.random.default_rng(7)
    for _ in range(20):
        s, p = rng.uniform(1e3, 1e5), rng.uniform(10, 100)
        x = rng.uniform(-1, 1)
        t = int(rng.integers(1, 21))
        assert informed_expected_cost(s, p, x, t, sch) == pytest.approx(
            naive_expected_cost(s, p, t, 20, 5e-5), rel=1e-12)


def test_informed_value_matches_two_period_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(5):
        params = MarketParams(10 ** rng.uniform(-5, -3), rng.uniform(0, 10),
                              rng.uniform(-0.9, 0.9), 0.01, rng.uniform(0, 0.01))
        p0, x0, s0 = rng.uniform(10, 100), rng.uniform(-0.5, 0.5), rng.uniform(1e4, 2e5)
        _, _, _, v_star = brute_force_best_execution(
            params.theta, params.gamma, params.rho, params.sigma_eta_sq,
            p0, x0, s0, 2)
        sch = solve_coefficients(params, 2)
        assert informed_expected_cost(s0, p0, x0, 1, sch) == pytest.approx(v_star, rel=1e-8)


def test_dominance_at_zero_information():
    rng = np.random.default_rng(9)
    for _ in range(30):
        params = MarketParams(10 ** rng.uniform(-5, -3), rng.uniform(0.1, 10),
                              rng.uniform(-0.9, 0.9), 0.01, rng.uniform(1e-5, 0.01))
        T = int(rng.integers(1, 30))
        sch = solve_coefficients(params, T)
        v_inf = informed_expected_cost(1e5, 50.0, 0.0, 1, sch)
        v_nai = naive_expected_cost(1e5, 50.0, 1, T, params.theta)
        assert v_inf <= v_nai + 1e-9
        if T >= 2 and params.rho != 0.0:
            assert v_inf < v_nai  # strict when the information channel is live


def test_dominance_equality_when_channel_is_off():
    for params in (MarketParams(5e-5, 0.0, 0.5, 0.01, 0.001),
                   MarketParams(5e-5, 5.0, 0.0, 0.01, 0.001)):
        sch = solve_coefficients(params, 20)
        assert informed_expected_cost(1e5, 50.0, 0.0, 1, sch) == pytest.approx(
            naive_expected_cost(1e5, 50.0, 1, 20, params.theta), rel=1e-14)


def test_informed_baseline_value_below_naive():
    sch = solve_coefficients(BASELINE, 20)
    v = informed_expected_cost(100000, 50.0, 0.0, 1, sch)
    assert v < 5262500.0
    # derived optimum for the trade-then-observe information flow
    assert v == pytest.approx(5261556.7263, abs=0.01)


def test_cost_sensitivity_direct_values():
    assert cost_sensitivity(2.0, 3.0, 10.0, 1.0) == 26.0
    assert cost_sensitivity(5.0, -7.0, 0.0, 0.0) == 0.0


def test_cost_sensitivity_matches_finite_differences():
    rng = np.random.default_rng(10)
    sch = solve_coefficients(BASELINE, 20)
    for _ in range(20):
        s = rng.uniform(1e3, 1e5)
        p = rng.uniform(10, 100)
        x = rng.uniform(-0.5, 0.5)
        t = int(rng.integers(1, 21))
        b_t, c_t = sch.at(t)[1], sch.at(t)[2]
        h = 1e-3
        fd = (informed_expected_cost(s, p, x + h, t, sch)
              - informed_expected_cost(s, p, x - h, t, sch)) / (2 * h)
        assert cost_sensitivity(b_t, c_t, s, x) == pytest.approx(fd, rel=1e-6)


def test_terminal_value_is_forced_block_cost():
    # with one period left the whole remainder trades at once; conditional on
    # the last observed information x the expected price moves by
    # theta*s + gamma*rho*x
    sch = solve_coefficients(BASELINE, 20)
    s, p, x = 3726.61, 55.0, 0.4
    expected = s * p + BASELINE.theta * s * s + BASELINE.gamma * BASELINE.rho * x * s
    assert informed_expected_cost(s, p, x, 20, sch) == pytest.approx(expected, rel=1e-12)
