import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import BASELINE

from bestexec import (MarketParams, cost_sensitivity, informed_expected_cost,
                      naive_expected_cost, solve_coefficients)


def test_naive_expected_cost_anchors():
    assert naive_expected_cost(12345.0, 42.0, 3, 9, 0.0) == 12345.0 * 42.0


def test_informed_equals_naive_without_information_channel():
    # gamma = 0 or rho = 0 shuts the information channel: the informed value
    # is the uniform split's at any information
    rng = np.random.default_rng(7)
    for params in (MarketParams(5e-5, 0.0, 0.5, 0.01, 0.001),
                   MarketParams(5e-5, 5.0, 0.0, 0.01, 0.001)):
        sch = solve_coefficients(params, 20)
        for s, p, x, t in [(1e5, 50.0, 0.0, 1)] + [
                (rng.uniform(1e3, 1e5), rng.uniform(10, 100), rng.uniform(-1, 1),
                 int(rng.integers(1, 21))) for _ in range(20)]:
            assert informed_expected_cost(s, p, x, t, sch) == pytest.approx(
                naive_expected_cost(s, p, t, 20, params.theta), rel=1e-14)


@settings(max_examples=200, deadline=None)
@given(theta=st.floats(1e-7, 1e-3), gamma=st.floats(-50.0, 50.0), rho=st.floats(-0.99, 0.99),
       sigma_eta_sq=st.just(0.0) | st.floats(1e-5, 0.1), s0=st.floats(1.0, 1e7),
       p0=st.floats(1.0, 1e3), T=st.integers(1, 30))
def test_informed_value_at_zero_information_is_at_most_uniform_split_property(
        theta, gamma, rho, sigma_eta_sq, s0, p0, T):
    # at X = 0 the informed value is the uniform split's plus d_1, which is
    # sigma_eta_sq times the sum of c over 2..T-1 periods left. Every c is
    # <= 0, and c at two periods left is -rho^4 gamma^2 / (4 theta), so from
    # T = 3 on the informed value is lower by at least gap: strictly lower
    # wherever gap exceeds the rounding allowance. The two closed forms round
    # differently: allow 1e-12 of the larger magnitude
    informed = informed_expected_cost(s0, p0, 0.0, 1, solve_coefficients(
        MarketParams(theta, gamma, rho, 0.01, sigma_eta_sq), T))
    uniform = naive_expected_cost(s0, p0, 1, T, theta)
    gap = rho ** 4 * gamma ** 2 / (4.0 * theta) * sigma_eta_sq if T >= 3 else 0.0
    assert uniform - informed >= gap - 1e-12 * max(uniform, abs(informed))


def test_informed_baseline_value_below_naive():
    sch = solve_coefficients(BASELINE, 20)
    v = informed_expected_cost(100000, 50.0, 0.0, 1, sch)
    assert v < 5262500.0
    # derived optimum for the trade-then-observe information flow
    assert v == pytest.approx(5261556.7263, abs=0.01)


def test_cost_sensitivity_direct_values():
    assert cost_sensitivity(2.0, 3.0, 10.0, 1.0) == 26.0
    assert cost_sensitivity(5.0, -7.0, 0.0, 0.0) == 0.0


def test_terminal_value_is_forced_block_cost():
    # with one period left the whole remainder trades at once; conditional on
    # the last observed information x the expected price moves by
    # theta*s + gamma*rho*x
    sch = solve_coefficients(BASELINE, 20)
    s, p, x = 3726.61, 55.0, 0.4
    expected = s * p + BASELINE.theta * s * s + BASELINE.gamma * BASELINE.rho * x * s
    assert informed_expected_cost(s, p, x, 20, sch) == pytest.approx(expected, rel=1e-12)
