import math
import re
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import BASELINE, study_episodes

from bestexec import (ExecutionMandate, MarketParams, NoisePath,
                      generate_noise_path, informed_expected_cost,
                      naive_expected_cost, per_share_improvement,
                      run_convergence, run_episode,
                      run_monte_carlo, solve_coefficients,
                      summarize_convergence, substream_seed)
from bestexec import market, simulation
from bestexec.simulation import ESTIMATE_FIELDS
from bestexec.strategies import STRATEGIES

MANDATE = ExecutionMandate(100000.0, 50.0, 20)

# uniform-split reference run: prices and accumulated costs, periods 0..20
TABLE1_PRICES = [50.00000, 50.17994, 50.40117, 50.84601, 51.10482, 51.37098,
                 51.83536, 52.14298, 52.23485, 52.39899, 52.59328, 52.99629,
                 53.29127, 53.59137, 53.85520, 54.03572, 54.50908, 54.82132,
                 54.82549, 55.16316, 55.35406]
TABLE1_COSTS = [0.0, 250899.7, 502905.5, 757135.6, 1012659.7, 1269514.6,
                1528691.4, 1789406.3, 2050580.5, 2312575.5, 2575541.9,
                2840523.4, 3106979.7, 3374936.5, 3644212.5, 3914391.1,
                4186936.6, 4461043.1, 4735170.6, 5010986.4, 5287756.7]


def test_uniform_split_reference_blotter_reproduced():
    # back-solve the price shocks from the reference prices, replay the episode
    eps = np.array([TABLE1_PRICES[t] - TABLE1_PRICES[t - 1] - 5e-5 * 5000.0
                    for t in range(1, 21)])
    path = NoisePath(eps=eps, eta=np.zeros(20))
    res = run_episode("naive", BASELINE, MANDATE, path)
    blotter = res.blotter
    for t in range(21):
        assert blotter.price[t] == pytest.approx(TABLE1_PRICES[t], abs=1e-4)
        assert blotter.accumulated_cost[t] == pytest.approx(
            TABLE1_COSTS[t], rel=1e-4)
        if t >= 1:
            assert blotter.shares_bought[t] == 5000.0
    assert res.improvement_per_share == pytest.approx(-0.2525668, abs=1e-6)


def test_naive_zero_noise_cost_is_closed_form():
    path = NoisePath(eps=np.zeros(20), eta=np.zeros(20))
    res = run_episode("naive", BASELINE, MANDATE, path)
    assert res.actual_cost == pytest.approx(5262500.0, abs=1e-5)
    assert res.improvement_per_share == pytest.approx(0.0, abs=1e-12)


def test_blotter_shape_and_conservation():
    rng = np.random.default_rng(12)
    for kind in ("naive", "informed", "ar"):
        for _ in range(30):
            seed = int(rng.integers(0, 2 ** 32))
            path = generate_noise_path(seed, 20, BASELINE.sigma_eps_sq,
                                       BASELINE.sigma_eta_sq)
            res = run_episode(kind, BASELINE, MANDATE, path)
            blotter = res.blotter
            assert [len(column) for column in blotter] == [21] * 6
            row0 = tuple(column[0] for column in blotter)
            assert row0 == (0, 50.0, 0.0, 100000.0, 0.0, 0.0)
            bought = sum(blotter.shares_bought[1:])
            assert abs(bought - 100000.0) <= 1e-6
            assert blotter.shares_remaining[-1] == 0.0
            # final order equals the remainder entering the last period
            assert blotter.shares_bought[20] == pytest.approx(
                blotter.shares_remaining[19], abs=1e-9)
            # accumulated cost is the running sum of price * bought
            running = 0.0
            for price, shares, cost in zip(blotter.price[1:], blotter.shares_bought[1:],
                                           blotter.accumulated_cost[1:]):
                running += price * shares
                assert cost == pytest.approx(running, rel=1e-12)
            assert res.actual_cost == blotter.accumulated_cost[-1]


def test_clamped_orders_stay_nonnegative_and_conserve():
    rng = np.random.default_rng(14)
    for _ in range(20):
        seed = int(rng.integers(0, 2 ** 32))
        path = generate_noise_path(seed, 20, BASELINE.sigma_eps_sq,
                                   BASELINE.sigma_eta_sq)
        res = run_episode("informed", BASELINE, MANDATE, path,
                          clamp_nonneg_orders=True)
        assert all(b >= 0.0 for b in res.blotter.shares_bought[1:20])
        assert abs(sum(res.blotter.shares_bought[1:]) - 100000.0) <= 1e-6


def test_run_episode_rejects_mismatched_path():
    path = generate_noise_path(0, 19, 0.01, 0.001)
    with pytest.raises(ValueError):
        run_episode("naive", BASELINE, MANDATE, path)


def test_per_share_improvement_values():
    assert per_share_improvement(123.0, 123.0, 10.0) == 0.0
    with pytest.raises(ValueError):
        per_share_improvement(1.0, 1.0, 0.0)


@pytest.mark.parametrize("s0, message", [
    (0.0, r"s0: must be > 0 \(got 0\.0\)"),
    (-1.0, r"s0: must be > 0 \(got -1\.0\)"),
    (math.nan, r"s0: must be finite \(got nan\)"),
    (math.inf, r"s0: must be finite \(got inf\)"),
    ("1", r"s0: must be a real number \(got '1'\)"),
])
def test_per_share_improvement_rejects_a_bad_s0_naming_it(s0, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        per_share_improvement(1.0, 2.0, s0)


def test_expected_cost_conventions_per_strategy():
    path = generate_noise_path(1, 20, BASELINE.sigma_eps_sq, BASELINE.sigma_eta_sq)
    naive = run_episode("naive", BASELINE, MANDATE, path)
    informed = run_episode("informed", BASELINE, MANDATE, path)
    ar = run_episode("ar", BASELINE, MANDATE, path)
    v_naive = 5262500.0
    sch = solve_coefficients(BASELINE, 20)
    assert naive.expected_cost == pytest.approx(v_naive, abs=1e-6)
    assert ar.expected_cost == pytest.approx(v_naive, abs=1e-6)
    from bestexec import informed_expected_cost
    assert informed.expected_cost == informed_expected_cost(1e5, 50.0, 0.0, 1, sch)


def test_summarize_convergence_spread_zero_for_single_episode():
    path = generate_noise_path(5, 20, BASELINE.sigma_eps_sq, BASELINE.sigma_eta_sq)
    res = run_episode("ar", BASELINE, MANDATE, path)
    conv = summarize_convergence([res])
    for name in conv.sd:
        finite = np.isfinite(conv.sd[name])
        assert np.all(conv.sd[name][finite] == 0.0)


def test_summarize_convergence_requires_estimate_logs():
    path = generate_noise_path(5, 20, BASELINE.sigma_eps_sq, BASELINE.sigma_eta_sq)
    res = run_episode("naive", BASELINE, MANDATE, path)
    with pytest.raises(ValueError):
        summarize_convergence([res])


def test_noiseless_price_equation_pins_impact_estimates():
    # with zero price shocks the impact fit is exact from its first valid
    # period onward, in every simulation
    params = MarketParams(5e-5, 5.0, 0.5, 0.0, 0.001)
    conv = summarize_convergence(study_episodes("ar", params, MANDATE, 9, 20)[1])
    valid = np.isfinite(conv.mean["theta_hat"])
    assert valid.any()
    assert np.allclose(conv.mean["theta_hat"][valid], 5e-5, rtol=1e-9)
    assert np.allclose(conv.mean["gamma_hat"][valid], 5.0, rtol=1e-9)
    assert np.all(conv.sd["theta_hat"][valid] <= 1e-12 * 5e-5)
    assert np.all(conv.mean["sigma_eps_sq_hat"][np.isfinite(conv.mean["sigma_eps_sq_hat"])]
                  <= 1e-18)


def test_rho_estimate_tightens_with_time():
    episodes = study_episodes("ar", BASELINE, MANDATE, 21, 100)[1]
    rho_abs_err = {t: [] for t in (3, 20)}
    for ep in episodes:
        for t in (3, 20):
            val = ep.estimates_log[t - 1].rho_hat
            if np.isfinite(val):
                rho_abs_err[t].append(abs(val - 0.5))
    assert np.mean(rho_abs_err[20]) < np.mean(rho_abs_err[3])


def _batch(kind, params, mandate, eps, eta, clamp_nonneg_orders=False):
    """The Monte Carlo study's engine on the (n_sims, T) shock arrays eps and
    eta: (orders, accumulated costs)."""
    path = simulation._shared_path(params, eps, eta)
    return simulation._run_batch(kind, params, mandate, path, clamp_nonneg_orders)


def _logged(params, mandate, eps, eta, clamp_nonneg_orders=False):
    """The convergence study's logged online loop on the (n_sims, T) shock
    arrays eps and eta: (orders, estimates log)."""
    path = simulation._shared_path(params, eps, eta)
    return simulation._ar_orders(params, mandate, path, clamp_nonneg_orders, keep_log=True)


# large gamma and rho make the informed tilt f_t * X_{t-1} outweigh the
# uniform part, so interior informed orders go negative
STEEP = MarketParams(5e-5, 40.0, 0.9, 0.125 ** 2, 0.01)

# calibrations that take the refit and the informed tilt off the paths the
# paper's own takes: no price shocks (the impact fit is exact), no
# information shocks (X stays at zero and the rho fit has no signal), a
# mean-reverting X, and no information impact (the informed tilt vanishes)
QUIET_PRICES = replace(BASELINE, sigma_eps_sq=0.0)
NO_INFORMATION = replace(BASELINE, sigma_eta_sq=0.0)
MEAN_REVERTING = replace(BASELINE, rho=-0.5)
NO_TILT = replace(BASELINE, gamma=0.0)


def _same(got, want) -> bool:
    """got and want have one dtype, one shape and the same bytes."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def _check_engines_agree(params, mandate, base_seed, n_sims, clamp):
    """run_episode is the reference that every batch entry point equals byte
    for byte. It runs simulation i on the path of substream_seed(base_seed,
    i), keyed apart from the studies' rows, so this also checks the studies'
    noise keying end to end:

    (a) _run_batch, on the references' stacked paths, places each rule's
        orders and books its accumulated and final costs;
    (b) for ar, _ar_orders calls simulation._ar_order once per period, in
        order and with the clamp flag, in both loop modes; its results are
        the loop's orders, which are the references'; the tags its
        arguments imply are those run_episode gets from decide_order; and
        the logged loop's log holds the references' estimates_log;
    (c) run_monte_carlo gives each rule's costs, mean orders and
        accumulated-cost variances, and at n_sims = 1 a zero spread and the
        reference's improvement on the common uniform-split benchmark;
    (d) run_convergence is summarize_convergence over the ar references.

    Returns the references' orders by rule, and the ar references' log and
    tags, for the fixed grid's non-vacuity checks."""
    T = mandate.horizon
    decide, ar_order, decisions, calls = simulation.decide_order, simulation._ar_order, [], []

    def deciding(*args):
        decisions.append(decide(*args))
        return decisions[-1]

    def ordering(s, ok, theta_hat, gamma_hat, rho_factor, x_prev, t, horizon, clamps=False):
        order = ar_order(s, ok, theta_hat, gamma_hat, rho_factor, x_prev, t, horizon, clamps)
        if t == horizon:
            tags = np.full(len(s), "final_period")
        elif ok is None:
            tags = np.full(len(s), "naive_fallback")
        else:
            tags = np.where(ok, "autoregressive", "naive_fallback")
        calls.append((t, horizon, clamps, order.copy(), tags))
        return order

    episodes = {kind: study_episodes(kind, params, mandate, base_seed, n_sims, clamp)[1]
                for kind in ("naive", "informed")}
    with mock.patch.object(simulation, "decide_order", deciding):
        paths, episodes["ar"] = study_episodes("ar", params, mandate, base_seed, n_sims, clamp)
    tags = np.array([decision.rationale_tag for decision in decisions]).reshape(n_sims, T)
    path = simulation._shared_path(params, np.stack([p.eps for p in paths]),
                                   np.stack([p.eta for p in paths]))
    summary = run_monte_carlo(n_sims, STRATEGIES, params, mandate, base_seed,
                              clamp_nonneg_orders=clamp)
    orders = {}
    for kind, refs in episodes.items():
        cost = np.array([ref.actual_cost for ref in refs])
        orders[kind] = np.array([ref.blotter.shares_bought[1:] for ref in refs])
        cum = np.array([ref.blotter.accumulated_cost[1:] for ref in refs])
        batch_orders, batch_cum = simulation._run_batch(kind, params, mandate, path, clamp)
        assert _same(batch_orders, orders[kind]), kind
        assert _same(batch_cum, cum), kind
        assert _same(batch_cum[:, -1], cost), kind
        stats = summary.stats[kind]
        assert _same(stats.per_sim_actual_cost, cost), kind
        assert _same(stats.mean_order_size, np.mean(orders[kind], axis=0)), kind
        if n_sims > 1:
            assert _same(stats.accumulated_cost_variance, np.var(cum, axis=0, ddof=1)), kind
        else:
            assert _same(stats.accumulated_cost_variance, np.zeros(T)), kind
            assert _same(stats.sd_improvement, 0.0), kind
            assert _same(stats.mean_improvement, per_share_improvement(
                summary.benchmark_expected_cost, cost[0], mandate.s0)), kind

    with mock.patch.object(simulation, "_ar_order", ordering):
        for keep_log in (False, True):
            calls.clear()
            loop_orders, log = simulation._ar_orders(params, mandate, path, clamp, keep_log)
            assert [call[:3] for call in calls] == [(t, T, clamp) for t in range(1, T + 1)]
            assert _same(np.stack([call[3] for call in calls], axis=1), loop_orders)
            assert _same(loop_orders, orders["ar"]), keep_log
            assert np.array_equal(np.stack([call[4] for call in calls], axis=1), tags), keep_log
    for name in ESTIMATE_FIELDS + ("impact_valid", "rho_valid"):
        ref_log = [[getattr(est, name) for est in ref.estimates_log] for ref in episodes["ar"]]
        assert _same(log[name], np.array(ref_log)), name

    conv = run_convergence(n_sims, params, mandate, base_seed, clamp_nonneg_orders=clamp)
    ref = summarize_convergence(episodes["ar"])
    assert conv.n_episodes == ref.n_episodes == n_sims
    for name in ESTIMATE_FIELDS:
        for stat in ("mean", "sd", "n_values"):
            assert _same(getattr(conv, stat)[name], getattr(ref, stat)[name]), (stat, name)
    return orders, log, tags


# the union of the grids of the tests the oracle replaced, over the paper's
# calibration, STEEP and the four above: T = 1..5 cross the edges of the
# study's refit range, periods 3..T-2. Every non-vacuity check below holds
# at GRID_N_SIMS; n_sims = 1 has no spread to reduce
GRID_SEED, GRID_N_SIMS = 17, 12
FIXED_GRID = [pytest.param(params, T, clamp, n_sims, id=f"{name}-{clamp}-{T}-{n_sims}")
              for name, params in (("baseline", BASELINE), ("steep", STEEP),
                                   ("quiet-prices", QUIET_PRICES),
                                   ("no-information", NO_INFORMATION),
                                   ("mean-reverting", MEAN_REVERTING), ("no-tilt", NO_TILT))
              for clamp in (False, True) for T in (1, 2, 3, 4, 5, 20, 100)
              for n_sims in ((GRID_N_SIMS, 1) if T == 20 else (GRID_N_SIMS,))]


@pytest.mark.parametrize("params, T, clamp, n_sims", FIXED_GRID)
def test_engines_agree_on_the_fixed_grid(params, T, clamp, n_sims):
    orders, log, tags = _check_engines_agree(params, ExecutionMandate(100000.0, 50.0, T),
                                             GRID_SEED, n_sims, clamp)
    if n_sims == 1:
        return
    if params is NO_INFORMATION:
        # X never moves, so no fit is ever valid and the rule falls back
        assert not (log["impact_valid"].any() or log["rho_valid"].any())
        assert (tags[:, :-1] == "naive_fallback").all()
    elif T == 100:
        # the online rule did leave the uniform split
        assert log["impact_valid"].any() and log["rho_valid"].any()
        assert (orders["ar"][:, :-1] != 100000.0 / T).any()
    elif T == 20:
        assert (tags == "autoregressive").any()
    if params is QUIET_PRICES and T >= 20:
        valid = log["impact_valid"]
        assert valid.any()
        assert np.allclose(log["theta_hat"][valid], QUIET_PRICES.theta, rtol=1e-9)
    if params is NO_TILT:
        assert _same(orders["informed"], orders["naive"])
    if params is STEEP and T >= 3:
        # unclamped interior orders go negative, so the clamp floors some
        interior = orders["informed"][:, :-1]
        assert (interior == 0.0).any() if clamp else (interior < 0.0).any()


@settings(max_examples=40, deadline=None)
@given(theta=st.floats(1e-7, 1e-3), gamma=st.floats(-50.0, 50.0),
       rho=st.floats(-0.99, 0.99),
       sigma_eps_sq=st.sampled_from([0.0, 1e-4, 0.125 ** 2, 1.0]),
       sigma_eta_sq=st.sampled_from([0.0, 1e-4, 0.001, 0.1]),
       T=st.integers(1, 30), seed=st.integers(0, 2 ** 64 - 1), clamp=st.booleans())
def test_engines_agree_property(theta, gamma, rho, sigma_eps_sq, sigma_eta_sq, T, seed, clamp):
    _check_engines_agree(MarketParams(theta, gamma, rho, sigma_eps_sq, sigma_eta_sq),
                         ExecutionMandate(100000.0, 50.0, T), seed, 3, clamp)


@pytest.mark.parametrize("T", [1, 2, 20])
def test_batch_estimates_are_c_contiguous_n_sims_by_t(T):
    # run_convergence reduces them with nanmean and nanstd along axis 0, which
    # round differently over a Fortran-ordered or transposed layout
    eps, eta = market._noise_rows(5, range(5), T, BASELINE.sigma_eps_sq, BASELINE.sigma_eta_sq)
    log = _logged(BASELINE, ExecutionMandate(100000.0, 50.0, T), eps, eta)[1]
    assert tuple(log) == ESTIMATE_FIELDS + ("impact_valid", "rho_valid")
    for name, values in log.items():
        assert values.shape == (5, T) and values.flags.c_contiguous, name


@pytest.mark.parametrize("clamp", [False, True])
def test_batch_engine_keeps_the_sign_of_a_zero_first_cost(clamp):
    # s0 = 5e-324 makes the interior orders 0.0 and the first shock makes
    # P_1 negative, so the first cost term P_1 * B_1 is -0.0; the scalar loop
    # adds it to 0.0 and records +0.0, where a plain running sum would start
    # from -0.0
    mandate = ExecutionMandate(5e-324, 1e-300, 3)
    path = NoisePath(eps=np.array([-1.0, 0.25, -0.5]),
                     eta=np.array([0.01, -0.02, 0.03]))
    for kind in ("naive", "informed", "ar"):
        with np.errstate(over="ignore"):  # the improvement per share overflows
            ref = run_episode(kind, BASELINE, mandate, path, clamp_nonneg_orders=clamp)
        assert ref.blotter.shares_bought[1] == 0.0 and ref.blotter.price[1] < 0.0
        orders, cum_cost = _batch(kind, BASELINE, mandate, path.eps[None, :],
                                  path.eta[None, :], clamp_nonneg_orders=clamp)
        ref_orders = np.array(ref.blotter.shares_bought[1:])
        ref_cum = np.array(ref.blotter.accumulated_cost[1:])
        assert math.copysign(1.0, ref_cum[0]) == 1.0, kind
        assert cum_cost[:, -1].tobytes() == np.float64(ref.actual_cost).tobytes(), kind
        assert orders[0].tobytes() == ref_orders.tobytes(), kind
        assert cum_cost[0].tobytes() == ref_cum.tobytes(), kind


def test_ar_value_toggle_uses_the_schedule_of_valid_final_estimates():
    # a baseline path whose final estimates are usable
    for i in range(50):
        path = generate_noise_path(substream_seed(3, i), 20, BASELINE.sigma_eps_sq,
                                   BASELINE.sigma_eta_sq)
        res = run_episode("ar", BASELINE, MANDATE, path,
                          ar_expected_cost_from_estimates=True)
        est = res.estimates_log[-1]
        if est.impact_valid and est.rho_valid and est.theta_hat > 0.0:
            break
    else:
        pytest.fail("no path with usable final estimates")
    est_params = MarketParams(est.theta_hat, est.gamma_hat, est.rho_hat,
                              est.sigma_eps_sq_hat, est.sigma_eta_sq_hat)
    expected = informed_expected_cost(1e5, 50.0, 0.0, 1,
                                      solve_coefficients(est_params, 20))
    assert res.expected_cost == expected
    assert res.expected_cost != naive_expected_cost(1e5, 50.0, 1, 20, BASELINE.theta)
    assert res.improvement_per_share == (expected - res.actual_cost) / 1e5
    # without the toggle the same episode reports the uniform-split value
    plain = run_episode("ar", BASELINE, MANDATE, path)
    assert plain.expected_cost == naive_expected_cost(1e5, 50.0, 1, 20, BASELINE.theta)
    assert plain.actual_cost == res.actual_cost


def test_ar_value_toggle_falls_back_to_uniform_split_when_never_valid():
    # two periods give at most two observations: the impact fit is never valid
    mandate = ExecutionMandate(100000.0, 50.0, 2)
    for i in range(10):
        path = generate_noise_path(substream_seed(3, i), 2, BASELINE.sigma_eps_sq,
                                   BASELINE.sigma_eta_sq)
        res = run_episode("ar", BASELINE, mandate, path,
                          ar_expected_cost_from_estimates=True)
        assert not any(est.impact_valid for est in res.estimates_log)
        assert res.expected_cost == naive_expected_cost(1e5, 50.0, 1, 2, BASELINE.theta)


def _never_drawn(*args, **kwargs):
    raise AssertionError("noise drawn")


def test_monte_carlo_rejects_unknown_strategy_before_drawing_noise(monkeypatch):
    monkeypatch.setattr(simulation, "_noise_rows", _never_drawn)
    choose = r" \(choose from naive, informed, ar\)$"
    with pytest.raises(ValueError, match=r"^strategy_set: unknown strategy 'twap'" + choose):
        run_monte_carlo(0, ("naive", "twap"), BASELINE, MANDATE, 0)
    # a str would be read as its characters, None as no set at all, a set in
    # an order that follows PYTHONHASHSEED and an iterator only once
    for strategy_set in ("ar", None, 5, {"ar"}, frozenset({"ar"}), iter(["ar"]), {"ar": 1}):
        message = (r"^strategy_set: must be a sequence of names "
                   rf"\(got {re.escape(repr(strategy_set))}\)$")
        with pytest.raises(ValueError, match=message):
            run_monte_carlo(0, strategy_set, BASELINE, MANDATE, 0)
    # a name is checked before it is hashed, and an empty list runs nothing
    with pytest.raises(ValueError, match=r"^strategy_set: unknown strategy \['ar'\]" + choose):
        run_monte_carlo(2, [["ar"]], BASELINE, MANDATE, 0)
    with pytest.raises(ValueError, match="^strategy_set: at least one strategy required$"):
        run_monte_carlo(2, (), BASELINE, MANDATE, 0)
    with pytest.raises(AssertionError, match="^noise drawn$"):  # a good list draws
        run_monte_carlo(2, ["ar", "ar"], BASELINE, MANDATE, 0)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, True])
def test_monte_carlo_rejects_out_of_range_base_seed(seed):
    with pytest.raises(ValueError, match="base_seed"):
        run_monte_carlo(2, ("naive",), BASELINE, MANDATE, seed)
    with pytest.raises(ValueError, match="base_seed"):
        run_convergence(2, BASELINE, MANDATE, seed)


@pytest.mark.parametrize("n_sims", [True, False, 2.5, 3.0, "3", None])
def test_studies_reject_a_non_integer_n_sims(n_sims):
    message = rf"^n_sims: must be an integer \(got {re.escape(repr(n_sims))}\)$"
    with pytest.raises(ValueError, match=message):
        run_monte_carlo(n_sims, ("naive",), BASELINE, MANDATE, 0)
    with pytest.raises(ValueError, match=message):
        run_convergence(n_sims, BASELINE, MANDATE, 0)


def test_studies_reject_n_sims_below_one():
    with pytest.raises(ValueError, match=r"^n_sims: must be >= 1 \(got 0\)$"):
        run_monte_carlo(0, ("naive",), BASELINE, MANDATE, 0)


def test_study_noise_is_allocated_before_any_seed_is_hashed():
    # 10**23 rows: hashing the seeds first would run for years
    with pytest.raises(ValueError, match="dimension|too big"):
        simulation._noise_arrays(10 ** 23, BASELINE, 2, 0)


def test_summarize_convergence_needs_an_episode():
    with pytest.raises(ValueError, match="^episodes: need at least one episode$"):
        summarize_convergence([])


def test_summarize_convergence_refuses_episodes_of_unequal_horizons():
    episodes = [run_episode("ar", BASELINE, ExecutionMandate(1e5, 50.0, T),
                            generate_noise_path(T, T, BASELINE.sigma_eps_sq,
                                                BASELINE.sigma_eta_sq))
                for T in (3, 4)]
    with pytest.raises(ValueError, match=re.escape(
            "episodes: every episode must have the same horizon (got 3 and 4)")):
        summarize_convergence(episodes)


def test_studies_accept_a_numpy_integer_n_sims():
    s = run_monte_carlo(np.int64(3), ("naive",), BASELINE, MANDATE, 0)
    assert s.n_sims == 3 and type(s.n_sims) is int
    assert run_convergence(np.int64(3), BASELINE, MANDATE, 0).n_episodes == 3


@pytest.mark.parametrize("base_seed", [0, 2 ** 64 - 1])
def test_study_noise_rows_equal_their_substream_paths(base_seed):
    # _noise_arrays hashes every substream seed from one copied prefix
    eps, eta = simulation._noise_arrays(7, BASELINE, 5, base_seed)
    for i in range(7):
        path = generate_noise_path(substream_seed(base_seed, i), 5,
                                   BASELINE.sigma_eps_sq, BASELINE.sigma_eta_sq)
        assert eps[i].tobytes() == path.eps.tobytes(), i
        assert eta[i].tobytes() == path.eta.tobytes(), i


def test_monte_carlo_accepts_largest_seed():
    s = run_monte_carlo(2, ("naive",), BASELINE, MANDATE, 2 ** 64 - 1)
    assert s.base_seed == 2 ** 64 - 1


@st.composite
def _scenarios(draw):
    """(params, mandate, seed, clamp) over a wide range of calibrations."""
    params = MarketParams(draw(st.floats(1e-7, 1e-3)), draw(st.floats(-50.0, 50.0)),
                          draw(st.floats(-0.99, 0.99)),
                          draw(st.sampled_from([0.0, 1e-4, 0.125 ** 2, 1.0])),
                          draw(st.sampled_from([0.0, 1e-4, 0.001, 0.1])))
    mandate = ExecutionMandate(draw(st.floats(1.0, 1e7)), draw(st.floats(1.0, 1e3)),
                               draw(st.integers(1, 30)))
    return params, mandate, draw(st.integers(0, 2 ** 64 - 1)), draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(scenario=_scenarios())
def test_shares_are_conserved_property(scenario):
    params, mandate, seed, clamp = scenario
    eps, eta = market._noise_rows(4, [substream_seed(seed, i) for i in range(4)],
                                  mandate.horizon, params.sigma_eps_sq, params.sigma_eta_sq)
    for kind in STRATEGIES:
        orders = _batch(kind, params, mandate, eps, eta, clamp_nonneg_orders=clamp)[0]
        for row in orders.tolist():
            # relative to the shares traded, which is s0 unless an order is
            # negative; the running position rounds at the scale of the trades
            traded = math.fsum(map(abs, row))
            assert abs(math.fsum(row) - mandate.s0) <= 1e-9 * traded, kind
            if clamp:
                assert min(row[:-1], default=0.0) >= 0.0, kind


@settings(max_examples=200, deadline=None)
@given(scenario=_scenarios())
def test_informed_value_at_zero_information_is_at_most_uniform_split_property(scenario):
    params, mandate, _, _ = scenario
    T = mandate.horizon
    informed = informed_expected_cost(mandate.s0, mandate.p0, 0.0, 1,
                                      solve_coefficients(params, T))
    uniform = naive_expected_cost(mandate.s0, mandate.p0, 1, T, params.theta)
    # the two closed forms round differently: allow a few ulps
    assert informed <= uniform * (1.0 + 1e-12)


_SIGNS = st.sampled_from([-1.0, 1.0])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(theta_exp=st.floats(-6.0, -4.0), gamma=st.floats(1.0, 10.0), gamma_sign=_SIGNS,
       rho=st.floats(0.2, 0.9), rho_sign=_SIGNS, sigma_eta_sq=st.floats(1e-4, 1e-2),
       sigma_eps_sq=st.floats(0.0, 0.05), T=st.integers(5, 20),
       seed=st.integers(0, 2 ** 64 - 1))
def test_study_means_equal_the_closed_form_values_property(theta_exp, gamma, gamma_sign, rho,
                                                           rho_sign, sigma_eta_sq,
                                                           sigma_eps_sq, T, seed):
    # naive's mean improvement is 0, and informed beats it by the gap of the
    # two closed-form values, each within z = 5 paired standard errors. No
    # boundary values (gamma, rho or sigma_eta_sq at 0): there the informed
    # rule is the naive one and no timing error could show. With 60
    # comparisons, the false-alarm rate is about 60 * 5.7e-7 = 3e-5
    params = MarketParams(10.0 ** theta_exp, gamma_sign * gamma, rho_sign * rho,
                          sigma_eps_sq, sigma_eta_sq)
    mandate = ExecutionMandate(100000.0, 50.0, T)
    n_sims, z = 4000, 5.0
    summary = run_monte_carlo(n_sims, ("naive", "informed"), params, mandate, seed)
    naive, informed = summary.stats["naive"], summary.stats["informed"]
    assert abs(naive.mean_improvement) <= z * naive.sd_improvement / math.sqrt(n_sims)
    gain = (naive.per_sim_actual_cost - informed.per_sim_actual_cost) / mandate.s0
    expected_gain = (naive_expected_cost(mandate.s0, mandate.p0, 1, T, params.theta)
                     - informed_expected_cost(mandate.s0, mandate.p0, 0.0, 1,
                                              solve_coefficients(params, T))) / mandate.s0
    assert (abs(float(np.mean(gain)) - expected_gain)
            <= z * float(np.std(gain, ddof=1)) / math.sqrt(n_sims))


@settings(max_examples=60, deadline=None)
@given(scenario=_scenarios())
def test_zero_noise_gives_every_strategy_the_same_orders_property(scenario):
    params, mandate, _, clamp = scenario
    params = replace(params, sigma_eps_sq=0.0, sigma_eta_sq=0.0)
    zeros = np.zeros((2, mandate.horizon))
    orders = {kind: _batch(kind, params, mandate, zeros, zeros,
                           clamp_nonneg_orders=clamp)[0]
              for kind in STRATEGIES}
    for kind in STRATEGIES:
        assert orders[kind].tobytes() == orders["naive"].tobytes(), kind


# each study with a calibration that overflows inside it: s0 = 1e308 the
# accumulated costs, gamma = sigma_eta_sq = 1e300 the spread of the
# sigma_eta_sq_hat estimates (the convergence study books no costs)
@pytest.mark.parametrize("study, overflowing", [
    (lambda params, mandate: run_monte_carlo(7, STRATEGIES, params, mandate, 0),
     (BASELINE, ExecutionMandate(1e308, 50.0, 20))),
    (lambda params, mandate: run_convergence(7, params, mandate, 0),
     (replace(BASELINE, gamma=1e300, sigma_eta_sq=1e300), MANDATE)),
], ids=["montecarlo", "convergence"])
def test_studies_leave_the_numpy_error_state_as_they_found_it(study, overflowing):
    before = np.geterr()
    study(BASELINE, MANDATE)
    assert np.geterr() == before
    # under "raise" the study raises from inside, and must still restore the
    # caller's state
    with np.errstate(over="raise", invalid="raise"):
        inside = np.geterr()
        with pytest.raises(FloatingPointError):
            study(*overflowing)
        assert np.geterr() == inside
    assert np.geterr() == before


def _runtime_warnings(call) -> set[str]:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    return {str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)}


@pytest.mark.parametrize("T", [3, 20])
def test_ar_runs_at_an_overflowing_s0_emit_the_pinned_warnings(T):
    # the refit silences its own warnings and no other: the accumulated costs
    # overflow, and the study's improvements subtract infinities
    mandate = ExecutionMandate(1e308, 50.0, T)
    eps, eta = market._noise_rows(10, range(10), T, BASELINE.sigma_eps_sq,
                                  BASELINE.sigma_eta_sq)
    assert _runtime_warnings(lambda: run_monte_carlo(1, ["ar"], BASELINE, mandate, 0)) == {
        "overflow encountered in multiply", "invalid value encountered in subtract"}
    assert _runtime_warnings(lambda: _batch("ar", BASELINE, mandate, eps, eta)) == {
        "overflow encountered in multiply"}
    # the convergence study's logged loop books no costs, and warns of nothing
    assert _runtime_warnings(lambda: _logged(BASELINE, mandate, eps, eta)) == set()


@pytest.mark.parametrize("n_episodes, T", [(1, 1), (2, 3), (37, 5), (200, 100)])
def test_stacked_estimate_reduction_equals_one_call_per_field(n_episodes, T):
    # convergence.csv reduces the five fields in one call per statistic; its
    # bytes must be those of reducing each field on its own along axis 0
    rng = np.random.default_rng(n_episodes * T)
    values = {}
    for name in ESTIMATE_FIELDS:
        field = rng.normal(size=(n_episodes, T)) * 10.0 ** rng.uniform(-8, 8, (n_episodes, T))
        field[rng.random((n_episodes, T)) < 0.2] = np.nan
        values[name] = field
    summary = simulation._reduce_estimates(values)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for name, field in values.items():
            assert summary.mean[name].tobytes() == np.nanmean(field, axis=0).tobytes()
            assert summary.sd[name].tobytes() == np.nanstd(field, axis=0).tobytes()
            n_values = np.count_nonzero(~np.isnan(field), axis=0)
            assert summary.n_values[name].tobytes() == n_values.tobytes()
    assert summary.n_episodes == n_episodes
