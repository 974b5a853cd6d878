"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them on success)."""

import math
import time
from pathlib import Path

import numpy as np
from oracles import brute_force_best_execution

from bestexec import (ExecutionMandate, MarketParams, NoisePath,
                      cost_sensitivity, estimate_all, generate_noise_path,
                      informed_expected_cost, naive_expected_cost, order_rule,
                      per_share_improvement, run_episode, run_monte_carlo,
                      solve_coefficients, stationary_info_component_std)
from bestexec.cli import main
from bestexec.market import info_step, price_step

BASELINE = MarketParams(5e-5, 5.0, 0.5, 0.125 ** 2, 0.001)
MANDATE = ExecutionMandate(100000.0, 50.0, 20)
REPO_ROOT = Path(__file__).resolve().parent.parent


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num}: {name}{suffix}"


def test_criterion_01_naive_value_closed_form():
    v = naive_expected_cost(100000, 50.0, 1, 20, 5e-5)
    _report(1, "naive value closed form", abs(v - 5262500.0) <= 1e-6, f"v={v!r}")


def test_criterion_02_full_impact_calibration():
    v = naive_expected_cost(100000, 50.0, 20, 20, 5e-5)
    _report(2, "full-impact calibration", abs(v - 5500000.0) <= 1e-6, f"v={v!r}")


def test_criterion_03_stationary_information_std():
    v = stationary_info_component_std(5.0, 0.5, 0.001)
    _report(3, "stationary information std", abs(v - 0.1826) <= 0.0005, f"v={v:.6f}")


def test_criterion_04_informed_value_target_or_dominance():
    sch = solve_coefficients(BASELINE, 20)
    v = informed_expected_cost(100000.0, 50.0, 0.0, 1, sch)
    v_naive = naive_expected_cost(100000.0, 50.0, 1, 20, 5e-5)
    if abs(v - 5258727.0) <= 5.0:
        _report(4, "informed value target", True, f"v={v:.2f}")
        return
    # the target value belongs to the observe-then-trade timing convention
    # and is unattainable for this simulator's information flow; the required
    # fallback is strict dominance plus the documented discrepancy report
    dominance = v < v_naive
    report = REPO_ROOT / "docs" / "value_function_conventions.md"
    documented = report.exists()
    if documented:
        text = report.read_text()
        documented = "5,258,727" in text and "5,261,556.73" in text
    _report(4, "informed value dominance + discrepancy report",
            dominance and documented,
            f"v={v:.2f} < naive={v_naive:.2f}, report={'ok' if documented else 'missing'}")


def test_criterion_05_dp_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for draw in range(20):
        T = 2 + draw % 2
        params = MarketParams(10 ** rng.uniform(-5, -3), rng.uniform(0, 10),
                              rng.uniform(-0.9, 0.9), rng.uniform(0, 0.05),
                              rng.uniform(0, 0.01))
        p0 = rng.uniform(10, 100)
        x0 = rng.uniform(-0.5, 0.5)
        s0 = rng.uniform(1e4, 2e5)
        b1_star, _, _, v_star = brute_force_best_execution(
            params.theta, params.gamma, params.rho, params.sigma_eta_sq,
            p0, x0, s0, T)
        sch = solve_coefficients(params, T)
        b1 = order_rule("informed", s0, x0, 1, T, sch.f[0] * x0)[0]
        v = informed_expected_cost(s0, p0, x0, 1, sch)
        worst = max(worst,
                    abs(b1 - b1_star) / max(abs(b1_star), 1.0),
                    abs(v - v_star) / abs(v_star))
    elapsed = time.perf_counter() - start
    _report(5, "dp oracle equivalence",
            worst <= 1e-8 and elapsed < 1.0,
            f"worst rel err={worst:.2e}, {elapsed:.3f}s")


def test_criterion_06_estimator_recovery():
    # exact recovery on a noiseless dyadic path (all arithmetic exact)
    theta, gamma, rho = 2.0 ** -14, 4.0, 0.5
    orders = np.array([8192.0, 4096.0, 16384.0, 2048.0, 32768.0])
    dp = np.empty(5)
    info = np.empty(6)
    p, info[0] = 50.0, 1.0
    for k, b in enumerate(orders):
        info[k + 1] = info_step(info[k], rho, 0.0)
        p_new = price_step(p, b, info[k + 1], theta, gamma, 0.0)
        dp[k] = p_new - p
        p = p_new
    est = estimate_all(dp, orders, info)
    exact = (abs(est.theta_hat - theta) / theta <= 1e-9
             and abs(est.gamma_hat - gamma) / gamma <= 1e-9
             and abs(est.rho_hat - rho) / rho <= 1e-9
             and est.sigma_eps_sq_hat == 0.0 and est.sigma_eta_sq_hat == 0.0)

    # variance consistency on a long baseline path
    rng = np.random.default_rng(103)
    dp = np.empty(10 ** 4)
    info = np.zeros(10 ** 4 + 1)
    p = 50.0
    eps = rng.normal(0.0, 0.125, 10 ** 4)
    eta = rng.normal(0.0, math.sqrt(0.001), 10 ** 4)
    for k in range(10 ** 4):
        info[k + 1] = info_step(info[k], 0.5, eta[k])
        p_new = price_step(p, 5000.0, info[k + 1], 5e-5, 5.0, eps[k])
        dp[k] = p_new - p
        p = p_new
    est2 = estimate_all(dp, np.full(10 ** 4, 5000.0), info)
    consistent = (abs(est2.sigma_eps_sq_hat - 0.015625) / 0.015625 < 0.10
                  and abs(est2.sigma_eta_sq_hat - 0.001) / 0.001 < 0.10)
    _report(6, "estimator recovery", exact and consistent,
            f"noiseless exact={exact}, s2e={est2.sigma_eps_sq_hat:.6f}, "
            f"s2h={est2.sigma_eta_sq_hat:.6f}")


def test_criterion_07_table_metric_reproduction():
    checks = [
        (per_share_improvement(5262500.0, 5287756.7, 100000.0), -0.2525668),
        (per_share_improvement(5258727.0, 5223147.4, 100000.0), 0.3557954),
        (per_share_improvement(5262500.0, 5271736.862, 100000.0), -0.09236862),
    ]
    ok = all(abs(got - want) <= 1e-6 for got, want in checks)
    _report(7, "table metric reproduction", ok,
            ", ".join(f"{got:+.7f}" for got, _ in checks))


def test_criterion_08_conservation():
    rng = np.random.default_rng(107)
    worst = 0.0
    final_ok = True
    for kind in ("naive", "informed", "ar"):
        for _ in range(1000):
            T = int(rng.integers(1, 31))
            s0 = float(rng.uniform(1e4, 2e5))
            mandate = ExecutionMandate(s0, 50.0, T)
            path = generate_noise_path(int(rng.integers(0, 2 ** 32)), T,
                                       BASELINE.sigma_eps_sq,
                                       BASELINE.sigma_eta_sq)
            res = run_episode(kind, BASELINE, mandate, path)
            bought = sum(res.blotter.shares_bought[1:])
            worst = max(worst, abs(bought - s0))
            final_ok = final_ok and (
                res.blotter.shares_bought[T] == res.blotter.shares_remaining[T - 1])
    _report(8, "share conservation", worst <= 1e-6 and final_ok,
            f"worst |sum B - S0|={worst:.2e}")


def test_criterion_09_monte_carlo_ordering():
    start = time.perf_counter()
    s = run_monte_carlo(1000, ("naive", "informed", "ar"), BASELINE, MANDATE,
                        base_seed=0)
    elapsed = time.perf_counter() - start
    mean = {k: s.stats[k].mean_improvement for k in s.strategies}
    sd = {k: s.stats[k].sd_improvement for k in s.strategies}
    mean_order = mean["informed"] > mean["naive"] > mean["ar"]
    sd_order = sd["naive"] < sd["informed"] <= sd["ar"]
    in_range = all(-0.2 <= mean[k] <= 0.2 for k in s.strategies)
    _report(9, "monte carlo ordering",
            mean_order and sd_order and in_range and elapsed < 10.0,
            f"means n/i/a={mean['naive']:+.4f}/{mean['informed']:+.4f}/"
            f"{mean['ar']:+.4f}, sds={sd['naive']:.4f}/{sd['informed']:.4f}/"
            f"{sd['ar']:.4f}, {elapsed:.2f}s")


def test_criterion_10_determinism(tmp_path):
    args = ["montecarlo", "--n-sims", "40", "--seed", "9"]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    names = ["summary.txt", "order_size_mean.csv",
             "accumulated_cost_variance.csv", "total_costs.csv"]
    identical = all((tmp_path / "a" / n).read_bytes() ==
                    (tmp_path / "b" / n).read_bytes() for n in names)
    _report(10, "byte-identical reruns", identical)


def test_criterion_11_sensitivity_check():
    rng = np.random.default_rng(109)
    sch = solve_coefficients(BASELINE, 20)
    worst = 0.0
    for _ in range(20):
        s = rng.uniform(1e3, 1e5)
        p = rng.uniform(10, 100)
        x = rng.uniform(-0.5, 0.5)
        t = int(rng.integers(1, 21))
        b_t, c_t = sch.at(t)[1], sch.at(t)[2]
        h = 1e-3
        fd = (informed_expected_cost(s, p, x + h, t, sch)
              - informed_expected_cost(s, p, x - h, t, sch)) / (2 * h)
        got = cost_sensitivity(b_t, c_t, s, x)
        worst = max(worst, abs(got - fd) / max(abs(fd), 1e-9))
    _report(11, "sensitivity vs finite differences", worst <= 1e-6,
            f"worst rel err={worst:.2e}")


def test_criterion_12_zero_noise_degeneracy():
    params = MarketParams(5e-5, 5.0, 0.5, 0.0, 0.0)
    path = NoisePath(eps=np.zeros(20), eta=np.zeros(20))
    results = {k: run_episode(k, params, MANDATE, path)
               for k in ("naive", "informed", "ar")}
    identical = all(res.blotter == results["naive"].blotter
                    for res in results.values())
    zero_improvement = all(abs(res.improvement_per_share) < 1e-12
                           for res in results.values())
    _report(12, "zero-noise degeneracy", identical and zero_improvement,
            f"identical={identical}, max |improvement|="
            f"{max(abs(r.improvement_per_share) for r in results.values()):.2e}")
