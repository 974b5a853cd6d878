import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import BASELINE, exact_refit, kolmogorov_q, ks_pvalue, student_t_cdf

from bestexec import (COND_LIMIT, RHO_CLAMP, ExecutionMandate, MarketParams, NoisePath,
                      ParameterEstimates, estimate_all, fit_information, generate_noise_path,
                      info_step, price_step, run_episode, simulation)
from bestexec.estimation import _carry_forward, _fit_impact

ESTIMATE_ATTRS = ("theta_hat", "gamma_hat", "rho_hat", "sigma_eps_sq_hat",
                  "sigma_eta_sq_hat", "impact_valid", "rho_valid")


def _refits(delta_p, orders, info_series):
    """Both refits of every prefix of the (n_rows, T) price changes and
    orders and the (n_rows, T + 1) information series (one history may come
    as 1-D arrays), as {"estimate_all": fields, "batch": fields}: each field
    of ESTIMATE_ATTRS is an (n_rows, T) array whose column n - 1 refits the
    first n periods. estimate_all runs chained with its prior on prefix
    views of one buffer per row, as run_episode runs it; the batch runs as
    _ar_orders(keep_log=True) does: fit_information, _fit_impact from n = 2
    into the log's column ("impact_fitted" holds its mask), _carry_forward.
    Floating-point warnings are silenced, as the engines silence them."""
    dp, b, info = (np.atleast_2d(np.asarray(a, dtype=float)) for a in
                   (delta_p, orders, info_series))
    n_rows, T = dp.shape
    history = np.stack([dp, b, info[:, 1:]])
    impact = np.empty((3, n_rows, T))
    fitted = np.zeros((n_rows, T), dtype=bool)
    impact_valid = np.zeros((n_rows, T), dtype=bool)
    chains = []
    with np.errstate(all="ignore"):
        information = fit_information(np.ascontiguousarray(info))
        for n in range(2, T + 1):
            fitted[:, n - 1], impact_valid[:, n - 1] = _fit_impact(history[:, :, :n],
                                                                   impact[:, :, n - 1])
        for row in zip(dp, b, info):
            row_dp, row_b, row_info = (a.copy() for a in row)  # a buffer of its own
            est, chain = None, []
            for n in range(1, T + 1):
                est = estimate_all(row_dp[:n], row_b[:n], row_info[:n + 1], prior=est)
                assert est.n_obs == n
                chain.append(est)
            chains.append(chain)
    theta_hat, gamma_hat, s2e_hat = _carry_forward(fitted, impact)
    batch = {"theta_hat": theta_hat, "gamma_hat": gamma_hat, "rho_hat": information.rho_hat,
             "sigma_eps_sq_hat": s2e_hat, "sigma_eta_sq_hat": information.sigma_eta_sq_hat,
             "impact_valid": impact_valid, "rho_valid": information.rho_valid,
             "impact_fitted": fitted}
    scalar = {name: np.array([[getattr(est, name) for est in chain] for chain in chains])
              for name in ESTIMATE_ATTRS}
    return {"estimate_all": scalar, "batch": batch}


def _same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _assert_refits_agree_bit_for_bit(refits):
    scalar, batch = refits["estimate_all"], refits["batch"]
    for name in ESTIMATE_ATTRS:
        for n in range(1, scalar[name].shape[1] + 1):
            assert batch[name][:, n - 1].tobytes() == scalar[name][:, n - 1].tobytes(), (n, name)


def _arrays(rows, x0=0.0):
    """(delta_p, orders, info_series) of the records (dP_k, B_k, X_k) after x0."""
    dp, b, x = np.array(list(rows), dtype=float).reshape(-1, 3).T.copy()
    return dp, b, np.concatenate([[x0], x])


def _info_only(info_series):
    """The history of an information series alone: zero orders and price
    changes make the impact design singular, so only the rho fit runs."""
    return _arrays([(0.0, 0.0, x) for x in info_series[1:]], info_series[0])


def _simulated_history(n, theta, gamma, rho, eps, eta, order_of, x0=0.0):
    """(delta_p, orders, info_series) of n periods of the true dynamics,
    starting at p = 50 and x0, with order order_of(k) in period k + 1."""
    dp, b, info = np.empty(n), np.empty(n), np.full(n + 1, x0)
    p, x = 50.0, x0
    for k in range(n):
        b[k] = order_of(k)
        x_new = info_step(x, rho, eta[k])
        p_new = price_step(p, b[k], x_new, theta, gamma, eps[k])
        dp[k] = p_new - p
        info[k + 1] = x_new
        p, x = p_new, x_new
    return dp, b, info


def _noiseless_history(theta, gamma, rho, orders, x0=1.0):
    """The history of the orders with zero shocks and a nonzero information start."""
    zeros = [0.0] * len(orders)
    return _simulated_history(len(orders), theta, gamma, rho, zeros, zeros, orders.__getitem__, x0)


def _insignificant_theta():
    rng = np.random.default_rng(29)
    x = rng.normal(0.0, 0.2, 6)
    dp = 5.0 * x + rng.normal(0.0, 0.05, 6)
    return _arrays(zip(dp, np.full(6, 5000.0), x))


def _random_designs():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(3, 30))
        b, x, dp = rng.uniform(1e3, 1e4, n), rng.normal(0.0, 0.2, n), rng.normal(0.0, 0.5, n)
        yield _arrays(zip(dp, b, x))


approx, NAN = pytest.approx, math.nan
# One row per refit case: an id, a history of at least one period and the
# fields both refits must give after its last period. A bool matches by value
# and type, NaN by isnan, another float by its bits (0.0 is +0.0) and
# pytest.approx by itself. normal_equations = tol asserts that the residual
# of theta_hat and gamma_hat is orthogonal to B and to X, within tol of
# ||dP|| times the regressor's norm. A new refit case gets a row here.
REFIT_CASES = [
    # two observations fit two parameters exactly; zero residuals say nothing
    ("two-points-interpolate", _arrays([(0.25, 5000.0, 0.0), (0.35, 5000.0, 0.02)]),
     dict(theta_hat=approx(5e-5, rel=1e-12), gamma_hat=approx(5.0, rel=1e-12),
          impact_valid=False)),
    ("zero-information-is-singular",
     _arrays([(0.25, 5000.0, 0.0), (0.26, 6000.0, 0.0), (0.27, 7000.0, 0.0)]),
     dict(theta_hat=NAN, gamma_hat=NAN, sigma_eps_sq_hat=NAN, impact_valid=False)),
    # one observation: rho is fitted, but neither the impact nor a variance
    ("one-observation-fits-rho-alone", _arrays([(0.1, 5000.0, 0.5)], x0=1.0),
     dict(theta_hat=NAN, gamma_hat=NAN, impact_valid=False, rho_hat=0.5, rho_valid=True,
          sigma_eps_sq_hat=NAN, sigma_eta_sq_hat=NAN)),
    ("noiseless-path-recovers-parameters",
     _noiseless_history(5e-5, 5.0, 0.5, [5000.0 + 700.0 * k for k in range(10)]),
     dict(theta_hat=approx(5e-5, rel=1e-9), gamma_hat=approx(5.0, rel=1e-9),
          rho_hat=approx(0.5, rel=1e-9), impact_valid=True, rho_valid=True,
          sigma_eps_sq_hat=approx(0.0, abs=1e-18), sigma_eta_sq_hat=approx(0.0, abs=1e-18))),
    # powers of two throughout: every sum, product and Cramer solve is exact,
    # so the estimates equal the generating constants bit for bit
    ("noiseless-dyadic-path-is-exact",
     _noiseless_history(2.0 ** -14, 4.0, 0.5, [8192.0, 4096.0, 16384.0, 2048.0, 32768.0]),
     dict(theta_hat=2.0 ** -14, gamma_hat=4.0, rho_hat=0.5, sigma_eps_sq_hat=0.0,
          sigma_eta_sq_hat=0.0, impact_valid=True, rho_valid=True)),
    # B = (1, 0, 1), X = (0, 1, 1) and x0 = 1 give theta_hat = 1, gamma_hat = 2
    # with price residuals (0.5, 0.5, -0.5), and rho_hat = 0.5 with information
    # residuals (-0.5, 1, 0.5): each variance is SSE / (n - 1), exact in binary
    ("hand-residuals", _arrays([(1.5, 1.0, 0.0), (2.5, 0.0, 1.0), (2.5, 1.0, 1.0)], x0=1.0),
     dict(theta_hat=1.0, gamma_hat=2.0, rho_hat=0.5, sigma_eps_sq_hat=0.375,
          sigma_eta_sq_hat=0.75)),
    # price changes carry no real order-size signal: theta_hat is noise around
    # zero and must not be handed to the order rule as a divisor
    ("insignificant-theta-is-unusable", _insignificant_theta(), dict(impact_valid=False)),
    ("rho-hand-series", _info_only([1.0, 0.5, 0.25]),
     dict(rho_hat=approx(0.5, rel=1e-12), rho_valid=True)),
    # the same series reversed: raw rho_hat 2.0, clamped
    ("rho-reversed-series-is-clamped", _info_only([0.25, 0.5, 1.0]),
     dict(rho_hat=0.999, rho_valid=False)),
    ("rho-zero-series-is-singular", _info_only([0.0, 0.0, 0.0]),
     dict(rho_hat=NAN, sigma_eta_sq_hat=NAN, rho_valid=False)),
    ("rho-noiseless-ar1", _info_only(_noiseless_history(0.0, 0.0, 0.9, [0.0] * 10)[2]),
     dict(rho_hat=approx(0.9, rel=1e-12))),
    ("clamped-rho-is-invalid", _arrays([(0.0, 5000.0, 0.5), (0.0, 6000.0, 1.0)], x0=0.25),
     dict(rho_hat=0.999, rho_valid=False)),
    # at n = 1, dot returns the lone product -1.0 * 0.0 = -0.0 itself, while
    # @ and np.vecdot sum it from 0.0 and give +0.0: the rho fit keeps @
    ("one-pair-rho-fit-is-plus-zero", _info_only([-1.0, 0.0]), dict(rho_hat=0.0)),
    *((f"random-design-{k}", history, dict(normal_equations=1e-9))
      for k, history in enumerate(_random_designs())),
]


@pytest.mark.parametrize("history, expected", [case[1:] for case in REFIT_CASES],
                         ids=[case[0] for case in REFIT_CASES])
def test_refit_case(history, expected):
    dp, b, info = history
    for refit, fields in _refits(*history).items():
        for name, want in expected.items():
            if name == "normal_equations":
                r = dp - fields["theta_hat"][0, -1] * b - fields["gamma_hat"][0, -1] * info[1:]
                for regressor in (b, info[1:]):
                    assert (abs(r @ regressor)
                            <= want * np.linalg.norm(dp) * np.linalg.norm(regressor)), refit
            else:
                got = fields[name][0, -1]
                assert (type(got) is np.bool_ and got == want if isinstance(want, bool)
                        else got == want if not isinstance(want, float)
                        else math.isnan(got) if math.isnan(want)
                        else _same_bits(got, want)), (refit, name, got, want)


def test_fit_variances_needs_two_observations():
    # one observation fits no variance, so both carry the prior's
    prior = ParameterEstimates(0.0, 0.0, 0.0, 0.25, 0.125, True, True, 0)
    est = estimate_all(*_arrays([(0.1, 5000.0, 0.5)], x0=1.0), prior=prior)
    assert (est.sigma_eps_sq_hat, est.sigma_eta_sq_hat) == (0.25, 0.125)


def test_long_path_variance_consistency():
    theta, gamma, rho = 5e-5, 5.0, 0.5
    s2e, s2h = 0.125 ** 2, 0.001
    rng = np.random.default_rng(17)
    eps = rng.normal(0.0, math.sqrt(s2e), 10 ** 4)
    eta = rng.normal(0.0, math.sqrt(s2h), 10 ** 4)
    est = estimate_all(*_simulated_history(10 ** 4, theta, gamma, rho, eps, eta,
                                           lambda k: 5000.0))
    assert est.impact_valid and est.rho_valid
    assert abs(est.sigma_eps_sq_hat - s2e) / s2e < 0.10
    assert abs(est.sigma_eta_sq_hat - s2h) / s2h < 0.10


def test_estimate_all_empty_history():
    est = estimate_all(np.empty(0), np.empty(0), np.zeros(1))
    assert not est.impact_valid and not est.rho_valid
    assert est.n_obs == 0
    assert math.isnan(est.theta_hat) and math.isnan(est.rho_hat)


def test_unfitted_estimates_compare_and_hash_by_value():
    # NaN != NaN, but a tuple compares an element to itself as equal, and
    # every unfitted field is one object, math.nan
    assert ParameterEstimates.invalid() == ParameterEstimates.invalid()
    assert hash(ParameterEstimates.invalid()) == hash(ParameterEstimates.invalid())
    path = generate_noise_path(0, 20, BASELINE.sigma_eps_sq, BASELINE.sigma_eta_sq)
    a, b = (run_episode("ar", BASELINE, ExecutionMandate(1e5, 50.0, 20), path).estimates_log
            for _ in range(2))
    assert any(math.isnan(est.theta_hat) for est in a)
    assert a == b


def test_estimate_all_refuses_histories_of_mismatched_lengths():
    dp, b, info = np.ones(3), np.ones(3), np.arange(4.0)
    with pytest.raises(ValueError,
                       match=r"^orders: must have len\(delta_p\) = 3 values \(got 2\)$"):
        estimate_all(dp, b[:2], info)
    for bad in (info[:2], info):
        with pytest.raises(ValueError, match=r"^info_series: must have len\(delta_p\) \+ 1 = 3 "
                                             rf"values \(got {len(bad)}\)$"):
            estimate_all(dp[:2], b[:2], bad)


def test_estimate_all_carries_prior_values_on_failure():
    good = _noiseless_history(5e-5, 5.0, 0.5, [5000.0 + 700.0 * k for k in range(8)])
    prior = estimate_all(*good)
    assert prior.impact_valid
    est = estimate_all(np.empty(0), np.empty(0), np.zeros(1), prior=prior)
    assert est.theta_hat == prior.theta_hat
    assert est.gamma_hat == prior.gamma_hat
    assert est.rho_hat == prior.rho_hat
    assert not est.impact_valid and not est.rho_valid


def test_estimates_converge_with_sample_size():
    # mean absolute error at t = 10^4 is below the error at t = 20, per field
    theta, gamma, rho = 5e-5, 5.0, 0.5
    s2e, s2h = 0.125 ** 2, 0.001
    n_seeds, t_short, t_long = 100, 20, 10 ** 4
    truth = dict(theta_hat=theta, gamma_hat=gamma, rho_hat=rho,
                 sigma_eps_sq_hat=s2e, sigma_eta_sq_hat=s2h)
    err_short = {k: [] for k in truth}
    err_long = {k: [] for k in truth}
    rng = np.random.default_rng(37)
    for _ in range(n_seeds):
        eps = rng.normal(0.0, math.sqrt(s2e), t_long)
        eta = rng.normal(0.0, math.sqrt(s2h), t_long)
        dp, b, info = _simulated_history(t_long, theta, gamma, rho, eps, eta,
                                         lambda k: 5000.0 if k % 2 == 0 else 6000.0)
        est_short = estimate_all(dp[:t_short], b[:t_short], info[:t_short + 1])
        est_long = estimate_all(dp, b, info)
        for name, true_val in truth.items():
            err_short[name].append(abs(getattr(est_short, name) - true_val))
            err_long[name].append(abs(getattr(est_long, name) - true_val))
    for name in truth:
        assert np.mean(err_long[name]) < np.mean(err_short[name]), name


def _batch_test_rows(n_obs):
    """Histories (dp, B, X) that between them take every branch of the refit:
    well posed, all-zero information (both fits singular), constant orders,
    an explosive information series (rho clamped), a noiseless exact fit
    (zero residual variance), a negative theta, plain noise, sums that
    overflow (a NaN design, which is fitted), and a noiseless fit whose
    design turns ill-conditioned at a huge X_k four periods before the end,
    so that its last fit is carried forward."""
    rng = np.random.default_rng(43)
    k = np.arange(1, n_obs + 1, dtype=float)
    b_var = 5000.0 + 700.0 * k
    x_ar = np.cumsum(rng.normal(0.0, 0.03, n_obs))
    x_jump = x_ar.copy()
    x_jump[n_obs - 4] = 1e12
    return [
        (5e-5 * b_var + 5.0 * x_ar + rng.normal(0.0, 0.1, n_obs), b_var, x_ar),
        (5e-5 * b_var + rng.normal(0.0, 0.1, n_obs), b_var, np.zeros(n_obs)),
        (rng.normal(0.3, 0.1, n_obs), np.full(n_obs, 5000.0), x_ar),
        (5e-5 * b_var + 5.0 * 1.5 ** k, b_var, 1.5 ** k),
        (5e-5 * b_var + 5.0 * x_ar, b_var, x_ar),
        (-5e-5 * b_var + 5.0 * x_ar + rng.normal(0.0, 0.01, n_obs), b_var, x_ar),
        (rng.normal(0.0, 1.0, n_obs), rng.normal(0.0, 1e3, n_obs),
         rng.normal(0.0, 1.0, n_obs)),
        (rng.normal(0.0, 1e300, n_obs), 1e300 * b_var, 1e300 * x_ar),
        (5e-5 * b_var + 5.0 * x_jump, b_var, x_jump),
    ]


def test_batch_refit_equals_chained_estimate_all_bit_for_bit():
    n_obs = 12
    rows = _batch_test_rows(n_obs)
    dp, b, x = (np.array([r[k] for r in rows]) for k in range(3))
    refits = _refits(dp, b, np.pad(x, ((0, 0), (1, 0))))
    _assert_refits_agree_bit_for_bit(refits)
    # every branch was taken at the final length
    batch = refits["batch"]
    last = {name: column[:, -1] for name, column in batch.items()}
    assert last["impact_valid"].any() and not last["impact_valid"].all()
    assert last["rho_valid"].any() and not last["rho_valid"].all()
    assert np.isnan(last["theta_hat"][1]) and np.isnan(last["rho_hat"][1])
    assert last["rho_hat"][3] == 0.999
    assert last["sigma_eps_sq_hat"][4] <= 1e-20
    assert last["theta_hat"][5] < 0.0
    # the jump history's usable fit before its jump is carried through the end
    assert batch["impact_valid"][8, n_obs - 5] and not batch["impact_fitted"][8, n_obs - 4:].any()
    for name in ("theta_hat", "gamma_hat", "sigma_eps_sq_hat"):
        carried = batch[name][8, n_obs - 5:]
        assert np.isfinite(carried).all() and (carried == carried[0]).all(), name


# information values: ordinary, signed zeros, subnormals, and values whose
# squares (or their sums) overflow
_INFO_VALUES = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e-160,
                     1e154, -1e154, 1e200, 1e300, -1e300]))


@settings(max_examples=150, deadline=None)
@given(n_rows=st.integers(1, 3), T=st.integers(1, 40), zeros=st.integers(0, 41),
       data=st.data())
def test_fit_information_equals_estimate_all_property(n_rows, T, zeros, data):
    # information histories alone: zero orders and price changes
    info = np.array(data.draw(st.lists(
        st.lists(_INFO_VALUES, min_size=T + 1, max_size=T + 1),
        min_size=n_rows, max_size=n_rows), label="info"))
    info[:, :zeros] = 0.0  # an all-zero prefix: the rho fit stays singular
    _assert_refits_agree_bit_for_bit(_refits(np.zeros((n_rows, T)), np.zeros((n_rows, T)), info))


def _exact_test_history(T, constant, zeros, jump, rho, scale, noise, seed):
    """(delta_p, orders, info_series) of T periods at theta 5e-5 and gamma 5:
    orders about 5,000 whose first `constant` are exactly 5,000 (a nearly
    singular impact design early on), an AR(1) information series of
    innovation sd `scale` whose first `zeros` values are 0.0 (a singular rho
    fit), and X_jump = 1e12, which leaves every later impact design too
    ill-conditioned to fit, after fits that may have been good."""
    rng = np.random.default_rng(seed)
    orders = 5000.0 * (1.0 + 0.3 * rng.standard_normal(T))
    orders[:constant] = 5000.0
    eta = scale * rng.standard_normal(T + 1)
    info = np.zeros(T + 1)
    if zeros == 0:
        info[0] = eta[0]
    for k in range(max(zeros, 1), T + 1):
        info[k] = rho * info[k - 1] + eta[k]
    if jump is not None and jump <= T:
        info[jump] = 1e12
    delta_p = 5e-5 * orders + 5.0 * info[1:] + noise * rng.standard_normal(T)
    return delta_p, orders, info


def _scaled_error(got, exact, regressor_sq, regressand_sq):
    """|got - exact| * ||regressor|| / ||regressand|| from the sums of squares:
    the share of the data's size that the error moves the fitted values by."""
    return math.sqrt((Fraction(got) - exact) ** 2 * regressor_sq / regressand_sq)


def _mean_square_error(got, exact, regressand_sq, n):
    """|got - exact| over the mean square sum(y^2) / (n - 1) of n values y."""
    return float(abs(Fraction(got) - exact) / (regressand_sq / (n - 1)))


# Error bounds, in units of EPS. Over 6,000 such histories (about 63,000
# impact designs with condition number cond below 1e10), the worst errors
# measured were 0.71 * cond * EPS for theta_hat and gamma_hat (as
# _scaled_error gives them), 2.7 * EPS for rho_hat and 2.4 * EPS for the
# variances (as _mean_square_error gives them). Plain relative errors need
# no such scaling for rho_hat (2.9e-13), but do for theta_hat (3.0e-8,
# where theta * B is a sliver of dP) and sigma_eps_sq_hat (a two-point fit
# interpolates, so its exact residual variance is 0)
EPS = float(np.finfo(float).eps)
IMPACT_ERROR_PER_COND = 4.0 * EPS
RHO_ERROR_BOUND = VARIANCE_ERROR_BOUND = 8.0 * EPS
WELL_CONDITIONED = 1e10
# a decision is compared only outside these margins: the float refit's
# condition number is off by up to about cond * EPS of itself (2e-4 at
# COND_LIMIT), its t statistic by about theta_hat's relative error, and
# its raw rho_hat by a few ulps
COND_MARGIN = 2.0  # cond within a factor of 2 of COND_LIMIT
T_RATIO_MARGIN = Fraction(1, 1000)  # (t / THETA_TSTAT_MIN)^2 within 1e-3 of 1
RHO_MARGIN = Fraction(1, 10 ** 12)  # |raw rho_hat| within 1e-12 of RHO_CLAMP


@settings(max_examples=120, deadline=None, derandomize=True)
@given(T=st.integers(2, 40), constant=st.integers(0, 40), zeros=st.integers(0, 8),
       jump=st.none() | st.integers(1, 40), rho=st.sampled_from([-0.9, 0.0, 0.5, 0.95, 1.2]),
       scale=st.sampled_from([0.03, 3.0, 300.0]), noise=st.sampled_from([0.0, 1e-3, 0.125, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_refit_equals_exact_ols_property(T, constant, zeros, jump, rho, scale, noise, seed):
    # every field of both refits of every prefix against its exact refit;
    # a failed fit carries the prior forward, NaN before the first
    dp, b, info = _exact_test_history(T, constant, zeros, jump, rho, scale, noise, seed)
    refits = _refits(dp, b, info)
    # the exact sums of squares of every prefix of dP, B, X and the lags
    sq = {key: list(accumulate(Fraction(v) ** 2 for v in series.tolist()))
          for key, series in (("dp", dp), ("b", b), ("x", info[1:]), ("lag", info[:-1]))}
    clamp = Fraction(RHO_CLAMP)
    for n, exact in enumerate(exact_refit(dp, b, info), start=1):
        cond, t_ratio, raw = exact["cond"], exact["t_ratio"], exact["rho_raw"]
        near_limit = (cond is not None
                      and COND_LIMIT / COND_MARGIN <= cond <= COND_LIMIT * COND_MARGIN)
        if n >= 2 and not near_limit:
            assert refits["batch"]["impact_fitted"][0, n - 1] == exact["impact_fitted"], (n, cond)
        for refit, fields in refits.items():
            got = {name: fields[name][0, n - 1] for name in ESTIMATE_ATTRS}
            prior = {name: fields[name][0, n - 2] if n >= 2 else NAN for name in ESTIMATE_ATTRS}
            carried = [name for name in ESTIMATE_ATTRS if _same_bits(got[name], prior[name])]
            if not near_limit and (t_ratio is None or abs(t_ratio - 1) > T_RATIO_MARGIN):
                assert got["impact_valid"] == exact["impact_valid"], (refit, n, t_ratio)
            if exact["impact_fitted"] and cond < WELL_CONDITIONED:
                for name, regressor in (("theta_hat", "b"), ("gamma_hat", "x")):
                    error = _scaled_error(got[name], exact[name], sq[regressor][n - 1],
                                          sq["dp"][n - 1])
                    assert error <= IMPACT_ERROR_PER_COND * cond, (refit, n, name, error, cond)
                error = _mean_square_error(got["sigma_eps_sq_hat"], exact["sigma_eps_sq_hat"],
                                           sq["dp"][n - 1], n)
                assert error <= VARIANCE_ERROR_BOUND, (refit, n, error)
            elif not exact["impact_fitted"] and not near_limit:
                assert {"theta_hat", "gamma_hat", "sigma_eps_sq_hat"} <= {*carried}, (refit, n)
            if raw is None or abs(abs(raw) - clamp) > RHO_MARGIN:
                assert got["rho_valid"] == exact["rho_valid"], (refit, n, raw)
            if exact["rho_fitted"]:
                error = _scaled_error(got["rho_hat"], exact["rho_hat"], sq["lag"][n - 1],
                                      sq["x"][n - 1])
                assert error <= RHO_ERROR_BOUND, (refit, n, error)
            else:
                assert "rho_hat" in carried, (refit, n)
            if exact["sigma_eta_sq_hat"] is not None:
                error = _mean_square_error(got["sigma_eta_sq_hat"], exact["sigma_eta_sq_hat"],
                                           sq["x"][n - 1], n)
                assert error <= VARIANCE_ERROR_BOUND, (refit, n, error)
            else:
                assert "sigma_eta_sq_hat" in carried, (refit, n)


def test_dot_equals_matmul_on_1d_views_bit_for_bit():
    # estimate_all takes its sums with a.dot(b), at less call overhead than
    # a @ b; the batch refit's np.vecdot rounds as a @ b, so the two must run
    # the same BLAS ddot on the same operands. Views at offsets 0..2 vary the
    # operands' alignment, by which some ddot kernels round
    rng = np.random.default_rng(2026)
    buffers = rng.normal(size=(2, 402)) * 10.0 ** rng.uniform(-6.0, 6.0, (2, 402))
    differ = [(n, i, j) for n in range(1, 401) for i in range(3) for j in range(3)
              if (np.float64(buffers[0, i:i + n].dot(buffers[1, j:j + n])).tobytes()
                  != np.float64(buffers[0, i:i + n] @ buffers[1, j:j + n]).tobytes())]
    assert not differ, (
        f"numpy {np.__version__}: ndarray.dot differs from @ on {len(differ)} of 3600 "
        f"pairs of views (first: length, offsets {differ[0]}); the batch refit equals "
        "estimate_all only through this identity")


def test_broadcast_vecdot_block_equals_separate_vecdots_bit_for_bit():
    # the batch engine takes sum dP*B, sum dP*X, sum B^2, sum B*X, sum X*B
    # and sum X^2 of its (3, n_sims, t) history [dP, B, X] in one broadcast
    # np.vecdot, where the earlier refit took np.vecdot([B, dP], B),
    # np.vecdot(X, B), np.vecdot(dP, X) and np.vecdot(X, X): each block entry
    # must run the same BLAS ddot on the same products. Views at offsets 0..2
    # vary the operands' alignment, by which some ddot kernels round
    rng = np.random.default_rng(2027)
    buffers = rng.normal(size=(3, 2, 402)) * 10.0 ** rng.uniform(-6.0, 6.0, (3, 2, 402))
    differ = []
    for n in range(1, 401):
        for i in range(3):
            h = buffers[:, :, i:i + n]
            delta_p, b, x = h
            block = np.vecdot(h[0:3, None], h[None, 1:3])
            sbb, spb = np.vecdot(h[1::-1], b)
            separate = np.stack([[spb, np.vecdot(delta_p, x)], [sbb, np.vecdot(x, b)],
                                 [np.vecdot(x, b), np.vecdot(x, x)]])
            if block.tobytes() != separate.tobytes():
                differ.append((n, i))
    assert not differ, (
        f"numpy {np.__version__}: the broadcast vecdot block differs from separate "
        f"vecdot calls on {len(differ)} of 1200 histories (first: length, offset "
        f"{differ[0]}); the batch engine equals estimate_all only through this identity")


# The refit's sampling law. Under the naive and informed rules no order reads
# a price shock, so given the orders B and the information X the impact fit is
# textbook OLS with normal errors, and (theta_hat - theta)/se(theta_hat) and
# (gamma_hat - gamma)/se(gamma_hat) follow Student's t with n - 2 degrees of
# freedom exactly, with s^2 = sigma_eps_sq_hat (n - 1)/(n - 2). The design
# gate reads only B and X, so the fitted rows keep that law. A history whose
# price changes pair with the wrong X breaks it. Each case runs
# SAMPLING_LAW_SIMS simulations of both rules on both engines, whose histories
# are equal, and tests 2 rules x 2 refits x 3 lengths x 2 estimates = 24
# t-samples by Kolmogorov-Smirnov at level SAMPLING_LAW_ALPHA; over
# SAMPLING_LAW_CASES derandomized cases that is 240 tests, so a correct refit
# fails with probability at most 240 * 1e-5 = 0.24% (Bonferroni), fixed once
# and for all by the derandomized draws.
SAMPLING_LAW_ALPHA = 1e-5
SAMPLING_LAW_CASES = 10
SAMPLING_LAW_SIMS = 300
SAMPLING_LAW_LENGTHS = (5, 10, 20)


def test_student_t_cdf_equals_its_closed_forms_at_one_and_two_degrees():
    t = np.array([-1e6, -30.0, -2.5, -1.0, -0.1, 0.0, 0.1, 1.0, 2.5, 30.0, 1e6])
    np.testing.assert_allclose(student_t_cdf(t, 1), 0.5 + np.arctan(t) / np.pi,
                               rtol=1e-14, atol=1e-16)
    np.testing.assert_allclose(student_t_cdf(t, 2), 0.5 + t / (2.0 * np.sqrt(t * t + 2.0)),
                               rtol=1e-14, atol=1e-16)
    for nu in range(1, 12):  # a distribution function, symmetric about 0
        f = student_t_cdf(t, nu)
        assert np.all(np.diff(f) > 0.0) and f[5] == 0.5
        np.testing.assert_allclose(f + f[::-1], 1.0, rtol=0, atol=1e-15)


def test_ks_pvalue_on_known_laws():
    # the Kolmogorov tail at its tabulated 10%, 5% and 1% points, and its
    # two series agreeing where they meet
    for lam, q in ((1.22384787, 0.10), (1.35809863, 0.05), (1.62762361, 0.01)):
        assert kolmogorov_q(lam) == pytest.approx(q, abs=1e-8)
    assert kolmogorov_q(1.18 - 1e-12) == pytest.approx(kolmogorov_q(1.18), rel=1e-9)
    rng = np.random.default_rng(3)
    sample = rng.standard_t(3, 500)
    assert ks_pvalue(sample, lambda t: student_t_cdf(t, 3)) > 0.05
    assert ks_pvalue(sample, lambda t: student_t_cdf(t, 1)) < 1e-3


def _t_ratios(params, history, rows, fields, n):
    """The t-ratios of a refit's theta_hat and gamma_hat against the truth
    after the first n periods of the (3, n_sims, T) history, on the rows."""
    theta_hat, gamma_hat, s2e = (fields[name][rows, n - 1] for name in
                                 ("theta_hat", "gamma_hat", "sigma_eps_sq_hat"))
    b, x = history[1, rows, :n], history[2, rows, :n]
    sbb, sxx, sxb = (np.einsum("ij,ij->i", u, v) for u, v in ((b, b), (x, x), (x, b)))
    det = sbb * sxx - sxb * sxb
    s2 = s2e * (n - 1) / (n - 2)
    return ((theta_hat - params.theta) / np.sqrt(s2 * sxx / det),
            (gamma_hat - params.gamma) / np.sqrt(s2 * sbb / det))


@settings(max_examples=SAMPLING_LAW_CASES, deadline=None, derandomize=True)
@given(theta=st.floats(1e-6, 1e-3), gamma=st.floats(-10.0, 10.0), rho=st.floats(-0.95, 0.95),
       sigma_eps_sq=st.floats(1e-4, 1.0), sigma_eta_sq=st.floats(1e-3, 0.1),
       seed=st.integers(0, 2 ** 32 - 1))
def test_impact_t_ratios_follow_student_t_property(theta, gamma, rho, sigma_eps_sq,
                                                   sigma_eta_sq, seed):
    params = MarketParams(theta, gamma, rho, sigma_eps_sq, sigma_eta_sq)
    mandate = ExecutionMandate(1e5, 50.0, 20)
    T = mandate.horizon
    eps, eta = simulation._noise_arrays(SAMPLING_LAW_SIMS, params, T, seed)
    path = simulation._shared_path(params, eps, eta)
    for rule in ("naive", "informed"):
        # the scalar engine's histories, from its blotters
        blotters = [run_episode(rule, params, mandate, NoisePath(e, h)).blotter
                    for e, h in zip(eps, eta)]
        price, bought, info = (np.array([getattr(b, name) for b in blotters]) for name in
                               ("price", "shares_bought", "market_information"))
        scalar = np.stack([np.diff(price, axis=1), bought[:, 1:], info[:, 1:]])
        # the batch engine's, from its orders, its prices and the shared X
        orders = simulation._run_batch(rule, params, mandate, path, False)[0]
        prices = simulation._accumulate_prices(mandate.p0, params, orders, path)
        batch = np.stack([np.diff(prices, axis=0, prepend=mandate.p0).T, orders,
                          path.info[1:].T])
        assert scalar.tobytes() == batch.tobytes(), rule
        refits = _refits(batch[0], batch[1], info)
        for n in SAMPLING_LAW_LENGTHS:
            # the design gate refuses few rows at these calibrations
            rows = refits["batch"]["impact_fitted"][:, n - 1]
            assert rows.sum() >= SAMPLING_LAW_SIMS // 2, (rule, n)
            for refit, fields in refits.items():
                for name, sample in zip(("theta", "gamma"),
                                        _t_ratios(params, batch, rows, fields, n)):
                    p = ks_pvalue(sample, lambda t: student_t_cdf(t, n - 2))
                    assert p >= SAMPLING_LAW_ALPHA, (rule, n, refit, name, p)
