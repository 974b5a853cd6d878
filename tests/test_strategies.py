import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import BASELINE, brute_force_best_execution, numpy_scalar_schedule

from bestexec import (TAGS, MarketParams, ParameterEstimates, ar_adjustment_factor,
                      ar_rho_factor, decide_order, naive_order, order_rule,
                      solve_coefficients)
from bestexec.strategies import (AUTOREGRESSIVE, FINAL_PERIOD, NAIVE_FALLBACK, STRATEGIES,
                                 _ar_order)


def _informed(s, x, t, sch):
    """The informed order and tag name, the tilt f_t * X_{t-1} formed as
    run_episode forms it."""
    order, tag = order_rule("informed", s, x, t, sch.horizon, sch.f[t - 1] * x)
    return order, TAGS[tag]


def _fit(theta=5e-5, gamma=5.0, rho=0.5, impact_valid=True, rho_valid=True):
    return ParameterEstimates(theta, gamma, rho, 0.01, 0.001, impact_valid, rho_valid, 10)


def _engine_fits(fits, T):
    """The online rule's inputs from one fit per row, as simulation._ar_orders
    forms them: the usable mask ok, theta_hat, gamma_hat and the (T, n) rho
    factors of every period, from one call of ar_rho_factor on a column of
    periods. The batch refit's impact_valid implies theta_hat > 0, so a
    row's impact fit counts as valid here only where theta_hat > 0."""
    theta, gamma, rho = (np.array([getattr(fit, name) for fit in fits])
                         for name in ("theta_hat", "gamma_hat", "rho_hat"))
    rho_valid = np.array([fit.rho_valid for fit in fits])
    ok = np.array([fit.impact_valid and fit.theta_hat > 0.0 for fit in fits]) & rho_valid
    rho = np.where(rho_valid, rho, 0.0)
    return ok, theta, gamma, ar_rho_factor(np.tile(rho, (T, 1)), np.arange(1, T + 1)[:, None], T)


def _engine_tags(ok, t, T):
    """The tag codes of the rows of _ar_order's orders: final_period at
    t = T, autoregressive where ok holds, naive_fallback elsewhere."""
    return FINAL_PERIOD if t == T else np.where(ok, AUTOREGRESSIVE, NAIVE_FALLBACK)


_F = solve_coefficients(BASELINE, 20).f.tolist()
# the online rule's order at the baseline fit, period 5 of 20, 80,000 shares
# left and X_4 = 0.2, with its tilt summed term by term
_AR_ORDER = 80000.0 / 16 + 5.0 / (5e-5 * 16) * math.fsum(
    (15 - k) * 0.5 ** k for k in range(1, 16)) * 0.2
# One row per hand case of the order rules at T = 20: an id, the strategy,
# (s, x_prev, t), order_rule's keywords and the order and tag name that every
# form must give; an error row has the whole message of the ValueError every
# form raises in place of the order, and no tag. A float matches by its bits
# and pytest.approx by itself. A new case of the rules gets a row here.
RULE_CASES = [
    ("naive-uniform-split", "naive", (100000.0, 0.0, 1), {}, 5000.0, "naive_fallback"),
    ("naive-after-a-period", "naive", (95000.0, 0.0, 2), {}, 5000.0, "naive_fallback"),
    ("naive-ignores-information", "naive", (80000.0, 0.2, 5), {}, 5000.0, "naive_fallback"),
    ("naive-last-period", "naive", (12345.0, 0.0, 20), {}, 12345.0, "final_period"),
    ("informed-zero-information-is-naive", "informed", (90000.0, 0.0, 3),
     dict(tilt=_F[2] * 0.0), 5000.0, "informed"),
    ("informed-tilts-by-f-x", "informed", (80000.0, 0.2, 5), dict(tilt=_F[4] * 0.2),
     5000.0 + _F[4] * 0.2, "informed"),
    ("informed-last-period-ignores-information", "informed", (3726.61, 5.0, 20),
     dict(tilt=_F[19] * 5.0), 3726.61, "final_period"),
    ("ar-before-any-fit", "ar", (100000.0, 0.0, 1), dict(estimates=None), 5000.0,
     "naive_fallback"),
    ("ar-usable-fit", "ar", (80000.0, 0.2, 5), dict(estimates=_fit()),
     pytest.approx(_AR_ORDER, rel=1e-12), "autoregressive"),
    *((f"ar-{name}-falls-back", "ar", (80000.0, 0.2, 5), dict(estimates=fit), 5000.0,
       "naive_fallback")
      for name, fit in (("invalid-impact", _fit(impact_valid=False)),
                        ("invalid-rho", _fit(rho_valid=False)),
                        ("negative-theta", _fit(theta=-1e-5)))),
    *((f"{kind}-last-period-takes-the-rest", kind, (3726.6147, 0.4, 20), keywords,
       3726.6147, "final_period")
      for kind, keywords in (("naive", {}), ("informed", dict(tilt=_F[19] * 0.4)),
                             ("ar", dict(estimates=_fit())))),
    ("ar-clamped-sell-is-zero", "ar", (80000.0, -20.0, 5), dict(estimates=_fit(), clamp=True),
     0.0, "autoregressive"),
    # the clamp floors only orders below zero: a -0.0 order passes as is
    ("clamp-keeps-minus-zero", "ar", (-0.0, 0.0, 1), dict(estimates=None, clamp=True), -0.0,
     "naive_fallback"),
    ("informed-needs-a-tilt", "informed", (100000.0, 0.0, 1), {},
     "tilt: the informed rule needs f_t * X_{t-1}", None),
    ("unknown-strategy", "twap", (100000.0, 0.0, 1), {},
     "strategy_kind: unknown strategy 'twap' (choose from naive, informed, ar)", None),
]


@pytest.mark.parametrize("kind, args, keywords, order, tag", [case[1:] for case in RULE_CASES],
                         ids=[case[0] for case in RULE_CASES])
def test_rule_case(kind, args, keywords, order, tag):
    s, x_prev, t = args
    tilt, estimates = keywords.get("tilt"), keywords.get("estimates")
    clamp = keywords.get("clamp", False)
    forms = {
        "float": lambda: order_rule(kind, s, x_prev, t, 20, tilt, estimates, clamp),
        # decide_order given numpy scalars, as a library caller may pass them
        "decide_order": lambda: decide_order(kind, np.float64(s), np.float64(x_prev), t, 20,
                                             None if tilt is None else np.float64(tilt),
                                             estimates, clamp),
        # order_rule on arrays, with one fit of floats for every row
        "arrays": lambda: order_rule(kind, np.array([s]), np.array([x_prev]), t, 20,
                                     None if tilt is None else np.array([tilt]), estimates,
                                     clamp)}
    if tag is None:
        for name, form in forms.items():
            with pytest.raises(ValueError) as info:
                form()
            assert type(info.value) is ValueError and str(info.value) == order, name
        return
    got, code = forms["float"]()
    assert (got == order if not isinstance(order, float)
            else np.float64(got).tobytes() == np.float64(order).tobytes()), (got, order)
    assert TAGS[code] == tag
    decision = forms["decide_order"]()
    assert type(decision.order) is float and decision.rationale_tag == tag
    results = [forms["arrays"](), (np.array([decision.order]), code)]
    if kind == "naive":
        results.append((np.array([naive_order(s, t, 20)]), code))
    if kind == "ar":
        # the batch engine's step, one fit per row; no fit before the first
        ok, theta, gamma, factors = (_engine_fits([estimates], 20) if estimates is not None
                                     else (None, None, None, np.zeros((20, 1))))
        results.append((_ar_order(np.array([s]), ok, theta, gamma, factors[t - 1],
                                  np.array([x_prev]), t, 20, clamp),
                        _engine_tags(False if ok is None else ok, t, 20)))
    for array, array_code in results:
        assert array.tobytes() == np.float64(got).tobytes()
        assert (np.asarray(array_code) == code).all()


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


def test_solve_coefficients_accepts_a_numpy_integer_horizon():
    assert solve_coefficients(BASELINE, np.int64(3)).horizon == 3


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


_SHARES = st.one_of(st.floats(-1e6, 1e6), st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.5e-323]))
_VALID = st.sampled_from([True, True, True, False])
_ESTIMATE_ROWS = st.tuples(
    st.one_of(st.floats(1e-7, 1e-3),
              st.sampled_from([0.0, -0.0, -1e-5, float("nan")])),  # theta_hat
    st.floats(-50.0, 50.0),                                          # gamma_hat
    st.one_of(st.floats(-0.99, 0.99), st.just(float("nan"))),        # rho_hat
    _VALID, _VALID)                                                  # impact, rho valid


def _random_rows(n):
    """n seeded rows of shares, X_{t-1}, no tilt and a fit with random
    theta_hat, gamma_hat and rho_hat, each validity flag set in nine rows of
    ten: numpy's array power rounds differently from Python's float ** in a
    few percent of (rho_hat, m) pairs, and 400 rows at T = 100 show it."""
    rng = np.random.default_rng(8)
    return list(zip(rng.uniform(-1e5, 1e6, n).tolist(), rng.uniform(-10, 10, n).tolist(),
                    [0.0] * n, zip((10 ** rng.uniform(-7, -3, n)).tolist(),
                                   rng.uniform(-50, 50, n).tolist(),
                                   rng.uniform(-0.99, 0.99, n).tolist(),
                                   (rng.random(n) < 0.9).tolist(),
                                   (rng.random(n) < 0.9).tolist())))


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(STRATEGIES), T=st.integers(1, 100), first_fit=st.integers(1, 101),
       clamp=st.booleans(),
       rows=st.lists(st.tuples(_SHARES, st.floats(-10.0, 10.0), st.floats(-1e3, 1e3),
                               _ESTIMATE_ROWS), min_size=1, max_size=8))
@example(kind="ar", T=100, first_fit=1, clamp=False, rows=_random_rows(400))
def test_rules_on_arrays_equal_the_float_rule_in_every_period_property(kind, T, first_fit,
                                                                      clamp, rows):
    # every period of the horizon on (n,) arrays, one row per draw: naive and
    # informed through order_rule, ar as the batch engine steps it, with no
    # fit before period first_fit; row i of each must be the float rule's on
    # row i's floats, orders and tags
    s, x_prev, tilt, est = (list(col) for col in zip(*rows))
    # a valid rho fit has |rho_hat| < 1
    fits = [ParameterEstimates(th, g, r if not r_ok or abs(r) < 1.0 else 0.5, 0.01, 0.001,
                               i_ok, r_ok, 3)
            for th, g, r, i_ok, r_ok in est]
    ok, theta, gamma, factors = _engine_fits(fits, T)
    arrays = [np.array(col) for col in (s, x_prev, tilt)]
    orders, tags, by_row = np.empty((T, len(rows))), np.empty((T, len(rows)), dtype=int), []
    for t in range(1, T + 1):
        fitted = t >= first_fit
        by_row += [order_rule(kind, *row, t, T, tilt_i, fit if fitted else None, clamp)
                   for *row, tilt_i, fit in zip(s, x_prev, tilt, fits)]
        if kind == "ar":
            with np.errstate(all="ignore"):  # as in the engine's loop
                orders[t - 1] = _ar_order(arrays[0], ok if fitted else None, theta, gamma,
                                          factors[t - 1], arrays[1], t, T, clamp)
            tags[t - 1] = _engine_tags(ok & fitted, t, T)
        else:
            orders[t - 1], tags[t - 1] = order_rule(kind, arrays[0], arrays[1], t, T,
                                                    arrays[2], None, clamp)
    assert orders.tobytes() == np.array([o for o, _ in by_row]).tobytes()
    assert tags.ravel().tolist() == [c for _, c in by_row]
