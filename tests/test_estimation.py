import math

import numpy as np
import pytest

from bestexec import (EstimationError, ObservationHistory, ParameterEstimates,
                      estimate_all, estimate_all_batch, fit_impact, fit_rho,
                      fit_variances, info_step, price_step)


def _history(rows, x0=0.0):
    h = ObservationHistory(x0=x0)
    for dp, b, x in rows:
        h.append(dp, b, x)
    return h


def test_fit_impact_hand_system():
    h = _history([(0.25, 5000.0, 0.0), (0.35, 5000.0, 0.02)])
    theta_hat, gamma_hat = fit_impact(h)
    assert theta_hat == pytest.approx(5e-5, rel=1e-12)
    assert gamma_hat == pytest.approx(5.0, rel=1e-12)


def test_fit_impact_all_zero_information_is_singular():
    h = _history([(0.25, 5000.0, 0.0), (0.26, 6000.0, 0.0), (0.27, 7000.0, 0.0)])
    with pytest.raises(EstimationError):
        fit_impact(h)


def test_fit_impact_needs_two_observations():
    with pytest.raises(EstimationError):
        fit_impact(_history([(0.25, 5000.0, 0.01)]))


def _noiseless_history(theta, gamma, rho, orders, x0=1.0):
    """Exact-dynamics history with zero shocks and a nonzero information start."""
    h = ObservationHistory(x0=x0)
    p, x = 50.0, x0
    for b in orders:
        x_new = info_step(x, rho, 0.0)
        p_new = price_step(p, b, x_new, theta, gamma, 0.0)
        h.append(p_new - p, b, x_new)
        p, x = p_new, x_new
    return h


def test_noiseless_path_recovers_parameters():
    theta, gamma, rho = 5e-5, 5.0, 0.5
    orders = [5000.0 + 700.0 * k for k in range(10)]
    h = _noiseless_history(theta, gamma, rho, orders)
    theta_hat, gamma_hat = fit_impact(h)
    assert theta_hat == pytest.approx(theta, rel=1e-9)
    assert gamma_hat == pytest.approx(gamma, rel=1e-9)
    assert fit_rho(h.info_series()) == pytest.approx(rho, rel=1e-9)
    est = estimate_all(h)
    assert est.impact_valid and est.rho_valid
    assert est.sigma_eps_sq_hat <= 1e-18
    assert est.sigma_eta_sq_hat <= 1e-18


def test_noiseless_dyadic_path_recovery_is_exact():
    # powers of two throughout: every sum, product and Cramer solve is exact,
    # so the estimates equal the generating constants bit for bit
    theta, gamma, rho = 2.0 ** -14, 4.0, 0.5
    orders = [8192.0, 4096.0, 16384.0, 2048.0, 32768.0]
    h = _noiseless_history(theta, gamma, rho, orders, x0=1.0)
    est = estimate_all(h)
    assert est.theta_hat == theta
    assert est.gamma_hat == gamma
    assert est.rho_hat == rho
    assert est.sigma_eps_sq_hat == 0.0
    assert est.sigma_eta_sq_hat == 0.0
    assert est.impact_valid and est.rho_valid


def test_fit_rho_hand_series():
    assert fit_rho([1.0, 0.5, 0.25]) == pytest.approx(0.5, rel=1e-12)


def test_fit_rho_zero_series_is_singular():
    with pytest.raises(EstimationError):
        fit_rho([0.0, 0.0, 0.0])


def test_fit_rho_noiseless_ar1():
    xs = [1.0]
    for _ in range(10):
        xs.append(info_step(xs[-1], 0.9, 0.0))
    assert fit_rho(xs) == pytest.approx(0.9, rel=1e-12)


def test_fit_rho_depends_on_series_order():
    forward = fit_rho([1.0, 0.5, 0.25])
    reversed_fit = fit_rho([0.25, 0.5, 1.0])
    assert forward != reversed_fit
    assert reversed_fit == 0.999  # raw 2.0, clamped


def test_estimate_all_flags_clamped_rho_invalid():
    h = _history([(0.0, 5000.0, 0.5), (0.0, 6000.0, 1.0)], x0=0.25)
    est = estimate_all(h)
    assert est.rho_hat == 0.999
    assert not est.rho_valid


def test_fit_variances_hand_residuals():
    # estimates of zero leave the raw observations as residuals
    est = ParameterEstimates(0.0, 0.0, 0.0, float("nan"), float("nan"),
                             True, True, 2)
    h = _history([(0.1, 5000.0, 0.0), (-0.1, 5000.0, 0.0)])
    s2e, s2h = fit_variances(h, est)
    assert s2e == pytest.approx(0.02, rel=1e-12)
    assert s2h == 0.0


def test_fit_variances_needs_two_observations():
    est = ParameterEstimates(0.0, 0.0, 0.0, 0.0, 0.0, True, True, 1)
    with pytest.raises(EstimationError):
        fit_variances(_history([(0.1, 5000.0, 0.0)]), est)


def test_long_path_variance_consistency():
    theta, gamma, rho = 5e-5, 5.0, 0.5
    s2e, s2h = 0.125 ** 2, 0.001
    rng = np.random.default_rng(17)
    eps = rng.normal(0.0, math.sqrt(s2e), 10 ** 4)
    eta = rng.normal(0.0, math.sqrt(s2h), 10 ** 4)
    h = ObservationHistory(x0=0.0)
    p, x = 50.0, 0.0
    for k in range(10 ** 4):
        b = 5000.0
        x_new = info_step(x, rho, eta[k])
        p_new = price_step(p, b, x_new, theta, gamma, eps[k])
        h.append(p_new - p, b, x_new)
        p, x = p_new, x_new
    est = estimate_all(h)
    assert est.impact_valid and est.rho_valid
    assert abs(est.sigma_eps_sq_hat - s2e) / s2e < 0.10
    assert abs(est.sigma_eta_sq_hat - s2h) / s2h < 0.10


def test_residual_orthogonality_after_fit():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(3, 30))
        b = rng.uniform(1e3, 1e4, n)
        x = rng.normal(0.0, 0.2, n)
        dp = rng.normal(0.0, 0.5, n)
        h = _history(list(zip(dp, b, x)))
        try:
            theta_hat, gamma_hat = fit_impact(h)
        except EstimationError:
            continue
        r = dp - theta_hat * b - gamma_hat * x
        norm_dp = np.linalg.norm(dp)
        assert abs(r @ b) <= 1e-9 * norm_dp * np.linalg.norm(b)
        assert abs(r @ x) <= 1e-9 * norm_dp * np.linalg.norm(x)


def test_estimate_all_empty_history():
    est = estimate_all(ObservationHistory())
    assert not est.impact_valid and not est.rho_valid
    assert est.n_obs == 0
    assert math.isnan(est.theta_hat) and math.isnan(est.rho_hat)


def test_estimate_all_single_observation_is_underdetermined():
    est = estimate_all(_history([(0.3, 5000.0, 0.05)]))
    assert not est.impact_valid
    assert est.n_obs == 1


def test_estimate_all_carries_prior_values_on_failure():
    good = _noiseless_history(5e-5, 5.0, 0.5, [5000.0 + 700.0 * k for k in range(8)])
    prior = estimate_all(good)
    assert prior.impact_valid
    est = estimate_all(ObservationHistory(), prior=prior)
    assert est.theta_hat == prior.theta_hat
    assert est.gamma_hat == prior.gamma_hat
    assert est.rho_hat == prior.rho_hat
    assert not est.impact_valid and not est.rho_valid


def test_insignificant_theta_is_flagged_unusable():
    # price changes carry no real order-size signal: theta_hat is noise around
    # zero and must not be handed to the order rule as a divisor
    rng = np.random.default_rng(29)
    x = rng.normal(0.0, 0.2, 6)
    dp = 5.0 * x + rng.normal(0.0, 0.05, 6)
    h = _history(list(zip(dp, np.full(6, 5000.0), x)))
    est = estimate_all(h)
    assert not est.impact_valid


def test_two_point_interpolation_is_not_usable():
    # two observations fit two parameters exactly; zero residuals say nothing
    h = _history([(0.25, 5000.0, 0.0), (0.35, 5000.0, 0.02)])
    est = estimate_all(h)
    assert est.theta_hat == pytest.approx(5e-5, rel=1e-12)
    assert not est.impact_valid


def test_streaming_consistency_full_refit():
    # appending one record at a time and refitting must match a one-shot fit
    rng = np.random.default_rng(31)
    rows = [(float(rng.normal(0.3, 0.1)), float(rng.uniform(4e3, 6e3)),
             float(rng.normal(0.0, 0.2))) for _ in range(15)]
    h_incr = ObservationHistory()
    for row in rows:
        h_incr.append(*row)
        estimate_all(h_incr)
    final_incr = estimate_all(h_incr)
    final_full = estimate_all(_history(rows))
    for name in ("theta_hat", "gamma_hat", "rho_hat",
                 "sigma_eps_sq_hat", "sigma_eta_sq_hat"):
        assert getattr(final_incr, name) == getattr(final_full, name)


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
        h = ObservationHistory(x0=0.0)
        p, x = 50.0, 0.0
        for k in range(t_long):
            b = 5000.0 if k % 2 == 0 else 6000.0
            x_new = info_step(x, rho, eta[k])
            p_new = price_step(p, b, x_new, theta, gamma, eps[k])
            h.append(p_new - p, b, x_new)
            p, x = p_new, x_new
            if k + 1 == t_short:
                est_short = estimate_all(h)
        est_long = estimate_all(h)
        for name, true_val in truth.items():
            err_short[name].append(abs(getattr(est_short, name) - true_val))
            err_long[name].append(abs(getattr(est_long, name) - true_val))
    for name in truth:
        assert np.mean(err_long[name]) < np.mean(err_short[name]), name


ESTIMATE_ATTRS = ("theta_hat", "gamma_hat", "rho_hat", "sigma_eps_sq_hat",
                  "sigma_eta_sq_hat", "impact_valid", "rho_valid")


def _batch_test_rows(n_obs):
    """Histories (dp, B, X) that between them take every branch of the refit:
    well posed, all-zero information (both fits singular), constant orders,
    an explosive information series (rho clamped), a noiseless exact fit
    (zero residual variance), a negative theta, and plain noise."""
    rng = np.random.default_rng(43)
    k = np.arange(1, n_obs + 1, dtype=float)
    b_var = 5000.0 + 700.0 * k
    x_ar = np.cumsum(rng.normal(0.0, 0.03, n_obs))
    rows = [
        (5e-5 * b_var + 5.0 * x_ar + rng.normal(0.0, 0.1, n_obs), b_var, x_ar),
        (5e-5 * b_var + rng.normal(0.0, 0.1, n_obs), b_var, np.zeros(n_obs)),
        (rng.normal(0.3, 0.1, n_obs), np.full(n_obs, 5000.0), x_ar),
        (5e-5 * b_var + 5.0 * 1.5 ** k, b_var, 1.5 ** k),
        (5e-5 * b_var + 5.0 * x_ar, b_var, x_ar),
        (-5e-5 * b_var + 5.0 * x_ar + rng.normal(0.0, 0.01, n_obs), b_var, x_ar),
        (rng.normal(0.0, 1.0, n_obs), rng.normal(0.0, 1e3, n_obs),
         rng.normal(0.0, 1.0, n_obs)),
    ]
    return rows


def test_estimate_all_batch_equals_estimate_all_bit_for_bit():
    n_obs = 12
    rows = _batch_test_rows(n_obs)
    dp = np.array([r[0] for r in rows])
    b = np.array([r[1] for r in rows])
    info = np.zeros((len(rows), n_obs + 1))
    info[:, 1:] = [r[2] for r in rows]
    histories = [ObservationHistory() for _ in rows]
    scalar = [None] * len(rows)
    batch = None
    for n in range(1, n_obs + 1):
        batch = estimate_all_batch(dp[:, :n], b[:, :n], info[:, :n + 1], prior=batch)
        assert batch.n_obs == n
        for i, h in enumerate(histories):
            h.append(dp[i, n - 1], b[i, n - 1], info[i, n])
            scalar[i] = estimate_all(h, prior=scalar[i])
        for name in ESTIMATE_ATTRS:
            ref = np.array([getattr(est, name) for est in scalar])
            assert getattr(batch, name).tobytes() == ref.tobytes(), (n, name)
    # every branch was taken at the final length
    assert batch.impact_valid.any() and not batch.impact_valid.all()
    assert batch.rho_valid.any() and not batch.rho_valid.all()
    assert np.isnan(batch.theta_hat[1]) and np.isnan(batch.rho_hat[1])
    assert batch.rho_hat[3] == 0.999
    assert batch.sigma_eps_sq_hat[4] <= 1e-20
    assert batch.theta_hat[5] < 0.0
