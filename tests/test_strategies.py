from types import SimpleNamespace

import numpy as np
import pytest
from oracles import brute_force_best_execution

from bestexec import (MarketParams, MarketState, ParameterEstimates,
                      ar_adjustment_factor, decide_order, informed_order,
                      naive_order, solve_coefficients)

BASELINE = MarketParams(5e-5, 5.0, 0.5, 0.125 ** 2, 0.001)


def test_naive_order_values():
    assert naive_order(100000, 1, 20) == 5000
    assert naive_order(95000, 2, 20) == 5000
    assert naive_order(12345.0, 20, 20) == 12345.0


def test_naive_order_rejects_period_beyond_horizon():
    with pytest.raises(ValueError):
        naive_order(1000, 21, 20)


def test_schedule_invariants_baseline():
    sch = solve_coefficients(BASELINE, 20)
    assert np.all(sch.a > 0)
    expected_e = np.array([1.0 / (20 - t + 1) for t in range(1, 21)])
    assert np.array_equal(sch.e, expected_e)
    assert sch.e[-1] == 1.0
    assert sch.f[-1] == 0.0
    # information can only lower the optimal expected cost
    assert np.all(sch.c <= 0)
    assert np.all(sch.d <= 0)


def test_schedule_single_period_base_case():
    sch = solve_coefficients(BASELINE, 1)
    a, b, c, d, e, f = sch.at(1)
    assert a == BASELINE.theta
    assert e == 1.0
    assert f == 0.0
    assert c == 0.0 and d == 0.0


def test_schedule_reduces_to_naive_without_information_channel():
    for params in (MarketParams(5e-5, 0.0, 0.5, 0.01, 0.001),
                   MarketParams(5e-5, 5.0, 0.0, 0.01, 0.001)):
        sch = solve_coefficients(params, 12)
        assert np.all(sch.f == 0.0)
        assert np.all(sch.c == 0.0)
        assert np.all(sch.d == 0.0)
        rng = np.random.default_rng(2)
        for _ in range(20):
            s, x = rng.uniform(1e3, 1e5), rng.uniform(-1, 1)
            t = int(rng.integers(1, 13))
            assert informed_order(s, x, t, sch).order == pytest.approx(
                naive_order(s, t, 12), rel=1e-12)


def test_solve_coefficients_requires_positive_theta():
    with pytest.raises(ValueError, match="theta"):
        solve_coefficients(MarketParams(0.0, 5.0, 0.5, 0.01, 0.001), 5)


def test_informed_order_zero_information_is_naive():
    sch = solve_coefficients(BASELINE, 20)
    dec = informed_order(90000.0, 0.0, 3, sch)
    assert dec.order == pytest.approx(naive_order(90000.0, 3, 20), rel=1e-12)
    assert dec.rationale_tag == "informed"


def test_informed_order_terminal_ignores_information():
    sch = solve_coefficients(BASELINE, 20)
    dec = informed_order(3726.61, 5.0, 20, sch)
    assert dec.order == 3726.61
    assert dec.rationale_tag == "final_period"


def test_informed_order_is_affine_in_information_with_slope_f():
    sch = solve_coefficients(BASELINE, 20)
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = int(rng.integers(1, 20))
        s = rng.uniform(1e3, 1e5)
        x1, x2 = rng.uniform(-1, 1, 2)
        f_t = sch.at(t)[5]
        d1 = informed_order(s, x1, t, sch).order
        d2 = informed_order(s, x2, t, sch).order
        assert d2 - d1 == pytest.approx(f_t * (x2 - x1), rel=1e-9, abs=1e-9)


def test_positive_information_tilts_order_above_naive():
    sch = solve_coefficients(BASELINE, 20)
    for t in range(1, 20):
        assert sch.at(t)[5] > 0  # f_t > 0 at the baseline calibration
        assert informed_order(95000.0, 0.1, t, sch).order > naive_order(95000.0, t, 20)


def test_ar_adjustment_factor_edge_cases():
    assert ar_adjustment_factor(5e-5, 5.0, 0.5, 20, 20) == 0.0
    assert ar_adjustment_factor(5e-5, 5.0, 0.0, 1, 20) == 0.0
    # one period before the end the printed weights are all zero as well
    assert ar_adjustment_factor(5e-5, 5.0, 0.5, 19, 20) == 0.0
    with pytest.raises(ValueError, match="theta_hat"):
        ar_adjustment_factor(0.0, 5.0, 0.5, 1, 20)
    with pytest.raises(ValueError, match="rho_hat"):
        ar_adjustment_factor(5e-5, 5.0, 1.0, 1, 20)


def test_ar_adjustment_factor_matches_term_by_term_sum():
    rng = np.random.default_rng(4)
    for _ in range(50):
        theta = 10 ** rng.uniform(-6, -3)
        gamma = rng.uniform(-10, 10)
        rho = rng.uniform(-0.99, 0.99)
        horizon = int(rng.integers(2, 40))
        t = int(rng.integers(1, horizon + 1))
        m = horizon - t
        expected = gamma / (theta * (horizon - t + 1)) * sum(
            (m - k) * rho ** k for k in range(1, m + 1))
        got = ar_adjustment_factor(theta, gamma, rho, t, horizon)
        # cancellation in the closed form is amplified by the gamma/theta scale
        tol = 1e-12 * (abs(gamma) / theta + 1.0)
        assert got == pytest.approx(expected, rel=1e-10, abs=tol)


def _estimates(theta=5e-5, gamma=5.0, rho=0.5, impact_valid=True, rho_valid=True):
    return ParameterEstimates(theta, gamma, rho, 0.01, 0.001,
                              impact_valid, rho_valid, 10)


def test_decide_order_naive_and_fallback_tags():
    state = MarketState(t=1, price=50.0, info=0.0, shares_remaining=100000.0)
    dec = decide_order("naive", state, 20)
    assert dec.order == 5000
    assert dec.rationale_tag == "naive_fallback"
    # auto-regressive with no history yet falls back to the uniform split
    dec = decide_order("ar", state, 20, estimates=None)
    assert dec.order == 5000
    assert dec.rationale_tag == "naive_fallback"


def test_decide_order_ar_uses_estimates_when_valid():
    state = MarketState(t=5, price=50.0, info=0.2, shares_remaining=80000.0)
    est = _estimates()
    dec = decide_order("ar", state, 20, estimates=est)
    f_hat = ar_adjustment_factor(est.theta_hat, est.gamma_hat, est.rho_hat, 5, 20)
    assert dec.rationale_tag == "autoregressive"
    assert dec.order == pytest.approx(80000.0 / 16 + f_hat * 0.2, rel=1e-12)


def test_decide_order_ar_fallback_on_invalid_estimates():
    state = MarketState(t=5, price=50.0, info=0.2, shares_remaining=80000.0)
    for est in (_estimates(impact_valid=False), _estimates(rho_valid=False),
                _estimates(theta=-1e-5)):
        dec = decide_order("ar", state, 20, estimates=est)
        assert dec.rationale_tag == "naive_fallback"
        assert dec.order == 5000


def test_decide_order_terminal_returns_remainder_for_all_strategies():
    sch = solve_coefficients(BASELINE, 20)
    state = MarketState(t=20, price=55.0, info=0.4, shares_remaining=3726.6147)
    for kind, kwargs in (("naive", {}), ("informed", {"schedule": sch}),
                         ("ar", {"estimates": _estimates()})):
        dec = decide_order(kind, state, 20, **kwargs)
        assert dec.order == 3726.6147
        assert dec.rationale_tag == "final_period"


def test_decide_order_contract_violations():
    state = MarketState(t=1, price=50.0, info=0.0, shares_remaining=100000.0)
    with pytest.raises(ValueError):
        decide_order("informed", state, 20)
    with pytest.raises(ValueError):
        decide_order("twap", state, 20)


def test_informed_matches_brute_force_small_horizons():
    rng = np.random.default_rng(6)
    for _ in range(6):
        T = int(rng.integers(2, 4))
        params = MarketParams(10 ** rng.uniform(-5, -3), rng.uniform(0, 10),
                              rng.uniform(-0.9, 0.9), rng.uniform(0, 0.05),
                              rng.uniform(0, 0.01))
        p0, x0, s0 = rng.uniform(10, 100), rng.uniform(-0.5, 0.5), rng.uniform(1e4, 2e5)
        b1, k2, c21, value = brute_force_best_execution(
            params.theta, params.gamma, params.rho, params.sigma_eta_sq,
            p0, x0, s0, T)
        sch = solve_coefficients(params, T)
        got = informed_order(s0, x0, 1, sch).order
        assert got == pytest.approx(b1, rel=1e-8)
        if T >= 3:
            # unrolled period-2 rule: B_2 = e_2 (s0 - B_1) + f_2 X_1
            e2, f2 = sch.at(2)[4], sch.at(2)[5]
            assert k2 == pytest.approx(e2 * (s0 - b1), rel=1e-7, abs=1e-6)
            assert c21 == pytest.approx(f2, rel=1e-7, abs=1e-6)


def test_solve_coefficients_rejects_nan_theta():
    # MarketParams already refuses NaN; the solver's own guard must hold too
    nan_theta = SimpleNamespace(theta=float("nan"), gamma=5.0, rho=0.5,
                                sigma_eps_sq=0.0, sigma_eta_sq=0.001)
    with pytest.raises(ValueError, match="theta"):
        solve_coefficients(nan_theta, 20)
