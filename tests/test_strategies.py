from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_force_best_execution, numpy_scalar_schedule

from bestexec import (TAGS, MarketParams, ParameterEstimates, ar_adjustment_factor,
                      ar_rho_factor, decide_order, naive_order, order_rule,
                      solve_coefficients)
from bestexec.strategies import AUTOREGRESSIVE, NAIVE_FALLBACK, STRATEGIES, _ar_order

BASELINE = MarketParams(5e-5, 5.0, 0.5, 0.125 ** 2, 0.001)


def _informed(s, x, t, sch):
    """The informed order and tag name, the tilt f_t * X_{t-1} formed as
    run_episode forms it."""
    order, tag = order_rule("informed", s, x, t, sch.horizon, sch.f[t - 1] * x)
    return order, TAGS[tag]


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
            assert _informed(s, x, t, sch)[0] == pytest.approx(
                naive_order(s, t, 12), rel=1e-12)


def test_solve_coefficients_requires_positive_theta():
    with pytest.raises(ValueError, match="theta"):
        solve_coefficients(MarketParams(0.0, 5.0, 0.5, 0.01, 0.001), 5)


def test_solve_coefficients_rejects_a_horizon_that_is_not_an_integer():
    assert solve_coefficients(BASELINE, np.int64(3)).horizon == 3
    for bad in (2.5, 2.0, True, "3"):
        with pytest.raises(ValueError, match=r"^horizon: must be an integer \(got "):
            solve_coefficients(BASELINE, bad)


def test_informed_order_zero_information_is_naive():
    sch = solve_coefficients(BASELINE, 20)
    order, tag = _informed(90000.0, 0.0, 3, sch)
    assert order == pytest.approx(naive_order(90000.0, 3, 20), rel=1e-12)
    assert tag == "informed"


def test_informed_order_terminal_ignores_information():
    sch = solve_coefficients(BASELINE, 20)
    order, tag = _informed(3726.61, 5.0, 20, sch)
    assert order == 3726.61
    assert tag == "final_period"


def test_informed_order_is_affine_in_information_with_slope_f():
    sch = solve_coefficients(BASELINE, 20)
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = int(rng.integers(1, 20))
        s = rng.uniform(1e3, 1e5)
        x1, x2 = rng.uniform(-1, 1, 2)
        f_t = sch.at(t)[5]
        d1 = _informed(s, x1, t, sch)[0]
        d2 = _informed(s, x2, t, sch)[0]
        assert d2 - d1 == pytest.approx(f_t * (x2 - x1), rel=1e-9, abs=1e-9)


def test_positive_information_tilts_order_above_naive():
    sch = solve_coefficients(BASELINE, 20)
    for t in range(1, 20):
        assert sch.at(t)[5] > 0  # f_t > 0 at the baseline calibration
        assert _informed(95000.0, 0.1, t, sch)[0] > naive_order(95000.0, t, 20)


def test_ar_adjustment_factor_edge_cases():
    assert ar_adjustment_factor(5e-5, 5.0, 0.5, 20, 20) == 0.0
    assert ar_adjustment_factor(5e-5, 5.0, 0.0, 1, 20) == 0.0
    # one period before the end the printed weights are all zero as well
    assert ar_adjustment_factor(5e-5, 5.0, 0.5, 19, 20) == 0.0
    with pytest.raises(ValueError, match="theta_hat"):
        ar_adjustment_factor(0.0, 5.0, 0.5, 1, 20)
    with pytest.raises(ValueError, match="rho_hat"):
        ar_adjustment_factor(5e-5, 5.0, 1.0, 1, 20)
    with pytest.raises(ValueError, match="theta_hat"):
        ar_adjustment_factor(float("nan"), 5.0, 0.5, 1, 20)


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


def _engine_ar_step(s, x_prev, t, T, theta, gamma, rho, impact_ok, rho_ok, clamp=False):
    """The batch engine's online step on (n,) arrays of fits, one per row:
    the usable mask and the rho factor, as the engine forms them, and its
    call of _ar_order. Returns the orders and the usable mask."""
    ok = impact_ok & rho_ok & (theta > 0.0)
    rho_factor = ar_rho_factor(np.where(ok, rho, 0.0), t, T)
    with np.errstate(all="ignore"):
        return _ar_order(s, ok, theta, gamma, rho_factor, x_prev, t, T, clamp), ok


def test_ar_rho_factor_rejects_a_unit_root_array():
    with pytest.raises(ValueError, match=r"^rho_hat: \|rho_hat\| must be < 1 \(got 1\.0\)$"):
        ar_rho_factor(np.array([1.0]), 5, 20)


def test_schedule_at_rejects_a_period_outside_the_horizon():
    with pytest.raises(ValueError, match="^t: period 0 outside schedule horizon 20$"):
        solve_coefficients(BASELINE, 20).at(0)


def test_ar_rho_factor_of_every_period_equals_the_float_form():
    # the batch engine takes the rho part of every period in one call, with t
    # a column of periods; each element must equal the float form, and the
    # ar order built from it the float rule's, bit for bit
    rng = np.random.default_rng(9)
    T, n = 40, 30
    rho = rng.uniform(-0.99, 0.99, (T, n))
    rho[rng.random((T, n)) < 0.1] = 0.0
    factor = ar_rho_factor(rho, np.arange(1, T + 1)[:, None], T)
    assert factor.tobytes() == np.array([[ar_rho_factor(r, t, T) for r in row]
                                         for t, row in enumerate(rho.tolist(), start=1)]
                                        ).tobytes()
    theta, gamma = 10 ** rng.uniform(-6, -3, n), rng.uniform(-10, 10, n)
    s, x_prev = rng.uniform(0.0, 1e5, n), rng.normal(0.0, 1.0, n)
    yes = np.ones(n, dtype=bool)
    for t in (1, T // 2, T - 2, T - 1):
        expected = np.array([
            order_rule("ar", si, xi, t, T, estimates=_estimates(th, g, r))[0]
            for si, xi, th, g, r in zip(s.tolist(), x_prev.tolist(), theta.tolist(),
                                        gamma.tolist(), rho[t - 1].tolist())]).tobytes()
        # the batch engine's call: the factor of every period, taken at once
        got = _ar_order(s, yes, theta, gamma, factor[t - 1], x_prev, t, T)
        assert got.tobytes() == expected


_THETAS = st.floats(1e-12, 1e-1) | st.sampled_from([5e-324, 1e-300, 1.0, 1e300])
_GAMMAS = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1e300, -1e300])
_RHOS = st.floats(-0.999, 0.999) | st.sampled_from([0.0, -0.0, 0.999999, -5e-324])
_VARIANCES = st.floats(0.0, 10.0) | st.sampled_from([0.0, 5e-324, 1e300])


@settings(max_examples=200, deadline=None)
@given(theta=_THETAS, gamma=_GAMMAS, rho=_RHOS, sigma_eta_sq=_VARIANCES,
       T=st.integers(1, 400))
def test_schedule_equals_the_numpy_scalar_recursion_property(theta, gamma, rho,
                                                             sigma_eta_sq, T):
    # solve_coefficients steps on Python floats: every field must keep the
    # bits of the recursion on numpy scalars it replaced
    schedule = solve_coefficients(MarketParams(theta, gamma, rho, 0.01, sigma_eta_sq), T)
    with np.errstate(all="ignore"):  # extreme draws overflow numpy's scalars
        expected = numpy_scalar_schedule(theta, gamma, rho, sigma_eta_sq, T)
    assert schedule.horizon == T
    for name, want in zip("abcdef", expected):
        assert getattr(schedule, name).tobytes() == want.tobytes(), name


def test_float_power_equals_python_pow_bit_for_bit():
    # ar_rho_factor takes its powers on arrays with np.float_power, and on
    # floats with Python's **: both must call the same C pow, or the batch
    # engine's ar orders stop equalling run_episode's (np.power does not)
    rng = np.random.default_rng(20)
    n = 120_000
    r = rng.uniform(-0.999, 0.999, n)
    r[:1000] = rng.choice([-1.0, 1.0], 1000) * 10.0 ** rng.uniform(-323.5, -300.0, 1000)
    r[1000:1004] = [0.999, -0.999, 5e-324, -5e-324]
    m = rng.integers(2, 401, n).astype(float)
    for bases, exponents in ((r, m), (r, m + 1.0), (1.0 - r, np.full(n, 2.0))):
        expected = np.fromiter(map(pow, bases.tolist(), exponents.tolist()), float, count=n)
        got = np.float_power(bases, exponents)
        differ = np.flatnonzero(got.view(np.uint64) != expected.view(np.uint64))
        assert differ.size == 0, (
            f"numpy {np.__version__}: np.float_power differs from Python's float ** "
            f"in {differ.size} of {n} cases (first: {float(bases[differ[0]])!r} ** "
            f"{float(exponents[differ[0]])!r}); the ar bytes of the batch engine depend on "
            "this identity")


def _estimates(theta=5e-5, gamma=5.0, rho=0.5, impact_valid=True, rho_valid=True):
    return ParameterEstimates(theta, gamma, rho, 0.01, 0.001,
                              impact_valid, rho_valid, 10)


def test_decide_order_naive_and_fallback_tags():
    order, tag = order_rule("naive", 100000.0, 0.0, 1, 20)
    assert order == 5000
    assert TAGS[tag] == "naive_fallback"
    # auto-regressive with no history yet falls back to the uniform split
    order, tag = order_rule("ar", 100000.0, 0.0, 1, 20, estimates=None)
    assert order == 5000
    assert TAGS[tag] == "naive_fallback"


def test_decide_order_ar_uses_estimates_when_valid():
    est = _estimates()
    order, tag = order_rule("ar", 80000.0, 0.2, 5, 20, estimates=est)
    f_hat = ar_adjustment_factor(est.theta_hat, est.gamma_hat, est.rho_hat, 5, 20)
    assert TAGS[tag] == "autoregressive"
    assert order == pytest.approx(80000.0 / 16 + f_hat * 0.2, rel=1e-12)


def test_decide_order_ar_fallback_on_invalid_estimates():
    for est in (_estimates(impact_valid=False), _estimates(rho_valid=False),
                _estimates(theta=-1e-5)):
        order, tag = order_rule("ar", 80000.0, 0.2, 5, 20, estimates=est)
        assert TAGS[tag] == "naive_fallback"
        assert order == 5000


def test_decide_order_terminal_returns_remainder_for_all_strategies():
    sch = solve_coefficients(BASELINE, 20)
    for kind, kwargs in (("naive", {}), ("informed", {"tilt": sch.f[19] * 0.4}),
                         ("ar", {"estimates": _estimates()})):
        order, tag = order_rule(kind, 3726.6147, 0.4, 20, 20, **kwargs)
        assert order == 3726.6147
        assert TAGS[tag] == "final_period"


def test_decide_order_contract_violations():
    with pytest.raises(ValueError, match="tilt"):
        order_rule("informed", 100000.0, 0.0, 1, 20)
    message = r"^strategy_kind: unknown strategy 'twap' \(choose from naive, informed, ar\)$"
    with pytest.raises(ValueError, match=message):
        order_rule("twap", 100000.0, 0.0, 1, 20)


def test_decide_order_returns_a_python_float_and_the_tag_name():
    sch = solve_coefficients(BASELINE, 20)
    x = np.float64(0.2)  # a library caller may pass numpy scalars
    for kind, tilt, estimates, tag in (
            ("naive", None, None, "naive_fallback"),
            ("informed", sch.f[4] * x, None, "informed"),
            ("ar", None, _estimates(), "autoregressive")):
        dec = decide_order(kind, np.float64(80000.0), x, 5, 20, tilt, estimates)
        assert type(dec.order) is float, kind
        assert dec.rationale_tag == tag
        assert dec.order == order_rule(kind, 80000.0, x, 5, 20, tilt, estimates)[0]


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
        got = _informed(s0, x0, 1, sch)[0]
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


_SHARES = st.one_of(st.floats(-1e6, 1e6), st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.5e-323]))
_VALID = st.sampled_from([True, True, True, False])
_ESTIMATE_ROWS = st.tuples(
    st.one_of(st.floats(1e-7, 1e-3),
              st.sampled_from([0.0, -0.0, -1e-5, float("nan")])),  # theta_hat
    st.floats(-50.0, 50.0),                                          # gamma_hat
    st.one_of(st.floats(-0.99, 0.99), st.just(float("nan"))),        # rho_hat
    _VALID, _VALID)                                                  # impact, rho valid


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(STRATEGIES), T=st.integers(1, 30), data=st.data(),
       clamp=st.booleans(),
       rows=st.lists(st.tuples(_SHARES, st.floats(-10.0, 10.0), st.floats(-1e3, 1e3),
                               _ESTIMATE_ROWS), min_size=1, max_size=8))
def test_order_rule_on_arrays_equals_the_rule_on_each_row_property(kind, T, data, clamp,
                                                                   rows):
    t = data.draw(st.integers(1, T), label="t")
    s, x_prev, tilt, est = (list(col) for col in zip(*rows))
    # a valid rho fit has |rho_hat| < 1
    est = [(th, g, r if not r_ok or abs(r) < 1.0 else 0.5, i_ok, r_ok)
           for th, g, r, i_ok, r_ok in est]
    scalar_est = [ParameterEstimates(th, g, r, 0.01, 0.001, i_ok, r_ok, t)
                  for th, g, r, i_ok, r_ok in est]
    by_row = [order_rule(kind, *row, t, T, tilt_i, est_i, clamp)
              for *row, tilt_i, est_i in zip(s, x_prev, tilt, scalar_est)]
    expected_orders = np.array([o for o, _ in by_row]).tobytes()
    expected_tags = np.array([c for _, c in by_row]).tobytes()
    s, x_prev = np.array(s), np.array(x_prev)
    if kind != "ar":
        order, tag = order_rule(kind, s, x_prev, t, T, np.array(tilt), None, clamp)
    else:
        # the engine's step, one fit per row; its usable mask is the tag
        order, ok = _engine_ar_step(s, x_prev, t, T, *(np.array(col) for col in zip(*est)),
                                    clamp)
        assert order.tobytes() == expected_orders
        if t < T:
            assert (np.where(ok, AUTOREGRESSIVE, NAIVE_FALLBACK).tobytes()
                    == expected_tags)
        # order_rule on arrays with one fit of floats for every row
        shared = scalar_est[0]
        by_row = [order_rule(kind, si, xi, t, T, None, shared, clamp)
                  for si, xi in zip(s.tolist(), x_prev.tolist())]
        expected_orders = np.array([o for o, _ in by_row]).tobytes()
        expected_tags = np.array([c for _, c in by_row]).tobytes()
        order, tag = order_rule(kind, s, x_prev, t, T, None, shared, clamp)
    assert order.tobytes() == expected_orders
    assert np.broadcast_to(tag, order.shape).tobytes() == expected_tags


def test_ar_rule_on_many_random_rows_equals_the_scalar_rule():
    # numpy's array power rounds differently from Python's float ** in a few
    # percent of cases, so the engine's array step must take f_hat from the
    # scalar form
    rng = np.random.default_rng(8)
    n = 400
    for T in (3, 20, 100):
        for t in range(1, T):
            theta, gamma = 10 ** rng.uniform(-7, -3, n), rng.uniform(-50, 50, n)
            rho = rng.uniform(-0.99, 0.99, n)
            impact_ok, rho_ok = rng.random(n) < 0.9, rng.random(n) < 0.9
            s, x_prev = rng.uniform(-1e5, 1e6, n), rng.uniform(-10, 10, n)
            order, ok = _engine_ar_step(s, x_prev, t, T, theta, gamma, rho, impact_ok, rho_ok)
            by_row = [order_rule("ar", s[i], x_prev[i], t, T, estimates=ParameterEstimates(
                          theta[i], gamma[i], rho[i], 0.01, 0.001, impact_ok[i], rho_ok[i], t))
                      for i in range(n)]
            assert order.tobytes() == np.array([o for o, _ in by_row]).tobytes(), (T, t)
            assert (np.where(ok, AUTOREGRESSIVE, NAIVE_FALLBACK).tobytes()
                    == np.array([c for _, c in by_row]).tobytes()), (T, t)
