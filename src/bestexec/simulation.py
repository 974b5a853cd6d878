"""Single strategy episodes (blotters) and paired-noise Monte Carlo studies.

An episode walks the mandate's horizon period by period: decide the order
(the online strategy refits its estimates first), evolve the information and
then the price under the true dynamics, extend the blotter columns. The final
period always buys the remainder, so every episode conserves shares exactly.

Monte Carlo studies use common random numbers: simulation i draws ONE noise
path from substream_seed(base_seed, i) and replays it identically for every
strategy in the set, which removes the shared noise from the strategy
comparison. Everything is deterministic given (n_sims, base_seed, params,
mandate).

Two engines run episodes: run_episode, the readable scalar reference, on
floats (strategies.order_rule, through decide_order), and the batch engine,
which advances many episodes of one strategy at once, on (n_sims,) vectors
(order_rule, and strategies._ar_order for the online rule). _run_batch gives
a Monte Carlo study each rule's orders and accumulated costs; the
convergence study runs the online rule's period loop, _ar_orders, directly
and reduces its estimates log. No order moves the information process, so a
study computes the information path X_0..X_T (with info_step) and lays out
its shocks by period once, and every strategy reads them. Naive orders read
no noise at all, so the batch engine decides one row of them on floats and
copies it to every simulation. The period loops decide orders only. In a
Monte Carlo study every rule's prices follow after its loop from one
sequential np.add.accumulate along the period axis (_accumulate_prices), and
its accumulated costs from another. Such an accumulate is a left fold and
rounds exactly as the loop's running sums; np.sum and np.mean along a
contiguous axis sum pairwise and would not. The online strategy keeps one
running price in its loop, stepped by price_step as in run_episode, only for
its refit's price changes. Before the loop it fits the information half of
every period's refit (estimation.fit_information) and the rho part of the
tilt of every period that can tilt (strategies.ar_rho_factor), and copies
X_1..X_T into its one (3, n_sims, T) history buffer of price changes, orders
and X. In the loop it refits only the impact half: estimation._fit_impact
takes its sums from that buffer and writes its values straight into the
estimates log (into one reused slot in a study). The rule,
strategies._ar_order, reads an impact fit only on its impact_valid rows,
fitted in that same period, so the loop masks in no prior and builds no
estimates object; the logged run carries the prior of a failed fit forward
after the loop, along the period axis. The whole loop runs under one
np.errstate. So the batch engine's results equal run_episode's bit for bit.

A Monte Carlo study reads only orders and costs, so there the online
strategy refits in a shorter window and keeps no estimates log (see
_ar_orders); run_convergence keeps the full log. The study's noise rows are
keyed from substream seeds hashed off one SHA-256 prefix over (b"episode",
base_seed), as market._noise_rows keys each path off one prefix over
b"noise".

Per-share improvement conventions: a RunResult compares an episode's actual
cost against that strategy's own ex-ante expected cost, while the Monte Carlo
summary measures every strategy against the common uniform-split expected
cost so the cross-strategy ordering is meaningful.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .estimation import (ParameterEstimates, _carry_forward, _fit_impact, _fit_rho,
                         estimate_all, fit_information)
# generate_noise_path is unused here but stays importable under this name:
# bench/tracer.py wraps bestexec.simulation.generate_noise_path
from .market import (ExecutionMandate, MarketParams, NoisePath,  # noqa: F401
                     _check_count, _check_finite, _noise_rows, _substream_seeds, check_seed,
                     generate_noise_path, info_step, price_step)
# run_episode calls decide_order by this name: bench/tracer.py wraps
# bestexec.simulation.decide_order and reads the tags of its results
from .strategies import (_ar_order, ar_rho_factor, decide_order, order_rule,
                         solve_coefficients, strategy_list, usable)
from .valuation import informed_expected_cost, naive_expected_cost

__all__ = [
    "Blotter",
    "RunResult",
    "StrategyStats",
    "MonteCarloSummary",
    "ConvergenceSummary",
    "run_episode",
    "per_share_improvement",
    "run_monte_carlo",
    "run_convergence",
    "summarize_convergence",
    "ESTIMATE_FIELDS",
]

ESTIMATE_FIELDS = ("theta_hat", "gamma_hat", "rho_hat",
                   "sigma_eps_sq_hat", "sigma_eta_sq_hat")


class Blotter(NamedTuple):
    """An episode's blotter as columns, each indexed by period 0..T. Row 0
    is the pre-trade state: nothing bought, everything remaining, zero
    information and zero cost."""

    period: range
    price: list[float]
    shares_bought: list[float]
    shares_remaining: list[float]
    market_information: list[float]
    accumulated_cost: list[float]


@dataclass(frozen=True, eq=False)
class RunResult:
    """A finished episode: its blotter plus the cost summary."""

    blotter: Blotter
    actual_cost: float
    expected_cost: float
    improvement_per_share: float
    estimates_log: list[ParameterEstimates] | None = None


def run_episode(strategy_kind: str, params: MarketParams,
                mandate: ExecutionMandate, noise_path: NoisePath,
                clamp_nonneg_orders: bool = False,
                ar_expected_cost_from_estimates: bool = False) -> RunResult:
    """Run one episode of the given strategy.

    The market evolves under `params`, and the informed schedule is built
    from them. The online strategy starts with an empty history and refits
    after every period. The blotter's columns are lists that the loop
    appends to; period t is index t of each.

    With clamp_nonneg_orders, interior orders are floored at zero and the
    final period still takes the exact remainder.

    ar_expected_cost_from_estimates switches the online strategy's reported
    expected cost from the uniform-split benchmark to an informed-style value
    built from its final estimates (used only when those are fully valid).
    """
    T = mandate.horizon
    if noise_path.horizon != T:
        raise ValueError(f"noise path length {noise_path.horizon} != horizon {T}")
    schedule = f = None
    if strategy_kind == "informed":
        schedule = solve_coefficients(params, T)
        f = schedule.f.tolist()

    is_ar = strategy_kind == "ar"
    estimates: ParameterEstimates | None = None
    estimates_log: list[ParameterEstimates] | None = [] if is_ar else None
    if is_ar:
        # the refit's history: price changes, orders and (x0, X_1..X_T)
        delta_p, orders, info = np.empty(T), np.empty(T), np.zeros(T + 1)

    # the shocks as Python floats, whose arithmetic rounds as float64's does
    eps, eta = noise_path.eps.tolist(), noise_path.eta.tolist()
    theta, gamma, rho = params.theta, params.gamma, params.rho
    price, x, s, cost = mandate.p0, 0.0, mandate.s0, 0.0
    blotter = Blotter(range(T + 1), [price], [0.0], [s], [0.0], [0.0])
    prices, bought, remaining, information, costs = blotter[1:]

    for t in range(1, T + 1):
        tilt = f[t - 1] * x if f is not None else None
        order = decide_order(strategy_kind, s, x, t, T, tilt, estimates,
                             clamp_nonneg_orders).order
        x_new = info_step(x, rho, eta[t - 1])
        price_new = price_step(price, order, x_new, theta, gamma, eps[t - 1])
        cost += price_new * order
        s_new = s - order
        prices.append(price_new)
        bought.append(order)
        remaining.append(s_new)
        information.append(x_new)
        costs.append(cost)
        if is_ar:
            delta_p[t - 1] = price_new - price
            orders[t - 1] = order
            info[t] = x_new
            estimates = estimate_all(delta_p[:t], orders[:t], info[:t + 1], prior=estimates)
            estimates_log.append(estimates)
        price, x, s = price_new, x_new, s_new

    expected = _expected_cost_for(strategy_kind, params, mandate, schedule,
                                  estimates if ar_expected_cost_from_estimates else None)
    return RunResult(
        blotter=blotter,
        actual_cost=cost,
        expected_cost=expected,
        improvement_per_share=per_share_improvement(expected, cost, mandate.s0),
        estimates_log=estimates_log,
    )


def _expected_cost_for(strategy_kind, params, mandate, schedule,
                       final_estimates) -> float:
    T = mandate.horizon
    if strategy_kind == "informed":
        return informed_expected_cost(mandate.s0, mandate.p0, 0.0, 1, schedule)
    if strategy_kind == "ar" and final_estimates is not None:
        est = final_estimates
        if (usable(est) and math.isfinite(est.sigma_eps_sq_hat)
                and math.isfinite(est.sigma_eta_sq_hat)):
            est_params = MarketParams(est.theta_hat, est.gamma_hat, est.rho_hat,
                                      est.sigma_eps_sq_hat, est.sigma_eta_sq_hat)
            est_schedule = solve_coefficients(est_params, T)
            return informed_expected_cost(mandate.s0, mandate.p0, 0.0, 1, est_schedule)
    # the uniform-split value is the ex-ante benchmark for naive and online runs
    return naive_expected_cost(mandate.s0, mandate.p0, 1, T, params.theta)


@dataclass(frozen=True, eq=False)
class _SharedPath:
    """A study's common random numbers laid out by period, for every strategy:
    the price shocks eps (T, n_sims) and the information path info (T+1,
    n_sims) with X_0 = 0 in row 0. No order moves the information, so one
    path serves every strategy of a study."""

    eps: np.ndarray
    info: np.ndarray


def _shared_path(params: MarketParams, eps: np.ndarray, eta: np.ndarray) -> _SharedPath:
    """The _SharedPath of the (n_sims, T) shock arrays eps and eta."""
    n, T = eta.shape
    info = np.zeros((T + 1, n))
    x = info[0]
    for t, eta_t in enumerate(np.ascontiguousarray(eta.T), start=1):
        info[t] = x = info_step(x, params.rho, eta_t)
    return _SharedPath(np.ascontiguousarray(eps.T), info)


def _run_batch(strategy_kind: str, params: MarketParams, mandate: ExecutionMandate,
               path: _SharedPath, clamp_nonneg_orders: bool):
    """The Monte Carlo study's engine: run_episode on every simulation of a
    shared path at once, bit for bit, as the (n_sims, T) orders and the
    (n_sims, T) accumulated costs C_1..C_T. Naive orders read no noise, so
    one row of them, decided on floats, serves every simulation. For the
    other rules a period loop decides the orders (the online strategy's also
    refits, in the study's window of _ar_orders). Every rule's prices and
    accumulated costs follow after it, by sequential sums over periods."""
    T = mandate.horizon
    n = path.eps.shape[1]
    if strategy_kind == "naive":
        # order_rule on floats equals it on arrays, row by row, bit for bit
        s, row = mandate.s0, []
        for t in range(1, T + 1):
            order = order_rule("naive", s, 0.0, t, T, clamp=clamp_nonneg_orders)[0]
            s = s - order
            row.append(order)
        orders = np.empty((n, T))
        orders[:] = row
    elif strategy_kind == "informed":
        orders = _informed_orders(params, mandate, path, clamp_nonneg_orders)
    else:
        orders = _ar_orders(params, mandate, path, clamp_nonneg_orders, keep_log=False)[0]
    prices = _accumulate_prices(mandate.p0, params, orders, path)
    # accumulated costs C_t = C_{t-1} + P_t * B_t from C_0 = 0.0: the zero row
    # makes a first term of -0.0 give +0.0, as the loop's 0.0 + (-0.0) does
    cost = np.empty((T + 1, n))
    cost[0] = 0.0
    np.multiply(prices, orders.T, out=cost[1:])
    np.add.accumulate(cost, axis=0, out=cost)
    return orders, np.ascontiguousarray(cost[1:].T)


def _informed_orders(params: MarketParams, mandate: ExecutionMandate, path: _SharedPath,
                     clamp_nonneg_orders: bool) -> np.ndarray:
    """The period loop of the informed rule: its (n_sims, T) orders."""
    T = mandate.horizon
    s = np.full(path.eps.shape[1], mandate.s0)
    orders = np.empty((len(s), T))
    # the informed tilt f_t * X_{t-1} of every period, in one product
    tilts = solve_coefficients(params, T).f[:, None] * path.info[:-1]
    for t in range(1, T + 1):
        order = order_rule("informed", s, path.info[t - 1], t, T, tilts[t - 1],
                           clamp=clamp_nonneg_orders)[0]
        s = s - order
        orders[:, t - 1] = order
    return orders


def _ar_orders(params: MarketParams, mandate: ExecutionMandate, path: _SharedPath,
               clamp_nonneg_orders: bool, keep_log: bool):
    """The period loop of the online rule: its (n_sims, T) orders and, with
    keep_log, its estimates log (None otherwise). Each period decides its
    orders in one call of strategies._ar_order, steps its running price
    (market.price_step, for the refit's price changes only) and refits the
    impact half (estimation._fit_impact, which takes its sums from the
    history buffer) into a slot.

    With keep_log (run_convergence), every period from 2 on refits into the
    log's column. Without it (a Monte Carlo study, which reads only orders
    and costs), the loop refits only after periods 3..T-2, into one slot
    that each refit overwrites, with no prior and no sigma_eta_sq_hat: the
    rule tilts only by impact fits of n >= 3 observations, period T buys
    the remainder, and a row it tilts by was fitted in that same period, so
    the orders are the logged run's. The loop runs under one np.errstate,
    for the failed fits and unread rows that warn; it silences the price
    step too."""
    T = mandate.horizon
    n = path.eps.shape[1]
    info = np.ascontiguousarray(path.info.T)
    # the refit's history: price changes, orders and X_1..X_T
    history = np.empty((3, n, T))
    delta_p, orders, x = history
    x[:] = info[:, 1:]
    # no order moves the information, so its half of every period's
    # refit, and the rho part of every period's tilt, come first
    information = fit_information(info) if keep_log else _fit_rho(info)[0]
    # period t tilts by the estimates of period t - 1, which are usable
    # only from 3 observations on, and period T tilts by none: only
    # periods 4..T-1 need a rho factor. ar_rho_factor needs |rho_hat| < 1,
    # which every row the rule reads has
    rho_factors = np.zeros((T, n))
    rho_prev = np.where(information.rho_valid, information.rho_hat, 0.0).T[2:T - 2]
    rho_factors[3:T - 1] = ar_rho_factor(rho_prev, np.arange(4, T)[:, None], T)
    if keep_log:
        # the impact half's theta_hat, gamma_hat and sigma_eps_sq_hat after
        # every period as fitted, its prior carried after the loop
        impact = np.empty((3, n, T))
        fitted = np.zeros((n, T), dtype=bool)
        impact_valid = np.zeros((n, T), dtype=bool)
    else:
        impact = np.empty((3, n, 1))
    # an impact fit needs 2 observations: after period 1 nothing is fitted
    refits = range(2, T + 1) if keep_log else range(3, T - 1)
    s = np.full(n, mandate.s0)
    price = np.full(n, mandate.p0)
    ok, slot = None, impact[:, :, 0]  # before the first refit, the rule reads no fit
    with np.errstate(all="ignore"):
        for t in range(1, T + 1):
            order = _ar_order(s, ok, slot[0], slot[1], rho_factors[t - 1], path.info[t - 1],
                              t, T, clamp_nonneg_orders)
            s = s - order
            orders[:, t - 1] = order
            price_new = price_step(price, order, path.info[t], params.theta, params.gamma,
                                   path.eps[t - 1])
            np.subtract(price_new, price, out=delta_p[:, t - 1])
            price = price_new
            if t in refits:
                slot = impact[:, :, t - 1 if keep_log else 0]
                fit, valid = _fit_impact(history[:, :, :t], slot)
                # impact_valid implies theta_hat > 0: these rows are usable
                ok = valid & information.rho_valid[:, t - 1]
                if keep_log:
                    fitted[:, t - 1] = fit
                    impact_valid[:, t - 1] = valid
    estimates_log = None
    if keep_log:
        theta_hat, gamma_hat, s2e = _carry_forward(fitted, impact)
        estimates_log = {
            "theta_hat": theta_hat, "gamma_hat": gamma_hat,
            "rho_hat": information.rho_hat, "sigma_eps_sq_hat": s2e,
            "sigma_eta_sq_hat": information.sigma_eta_sq_hat,
            "impact_valid": impact_valid, "rho_valid": information.rho_valid}
    return orders, estimates_log


def _accumulate_prices(p0: float, params: MarketParams, orders: np.ndarray,
                       path: _SharedPath) -> np.ndarray:
    """Prices P_1..P_T as a (T, n_sims) view, from the (n_sims, T) orders B.
    One sequential sum runs down the interleaved rows [p0; theta*B_1;
    gamma*X_1; eps_1; theta*B_2; ...], so its row 3t is price_step's left
    fold ((P_{t-1} + theta*B_t) + gamma*X_t) + eps_t, each term the same
    single multiply."""
    n, T = orders.shape
    terms = np.empty((3 * T + 1, n))
    terms[0] = p0
    np.multiply(params.theta, orders.T, out=terms[1::3])
    np.multiply(params.gamma, path.info[1:], out=terms[2::3])
    terms[3::3] = path.eps
    np.add.accumulate(terms, axis=0, out=terms)
    return terms[3::3]


def per_share_improvement(expected_cost: float, actual_cost: float, s0: float) -> float:
    """(expected - actual) / s0: positive when the run beat its benchmark.
    s0 must be a finite real number > 0; the costs may be arrays."""
    _check_finite("s0", s0)
    if s0 <= 0.0:
        raise ValueError(f"s0: must be > 0 (got {s0})")
    return (expected_cost - actual_cost) / s0


@dataclass(frozen=True, eq=False)
class StrategyStats:
    """Cross-simulation statistics for one strategy.

    Improvements are measured against the common uniform-split expected cost.
    mean_improvement_periodwise is the alternative reading of the same metric:
    the per-period benchmark-minus-actual accumulated cost gap per share,
    averaged over periods and then simulations.
    """

    mean_improvement: float
    sd_improvement: float
    mean_improvement_periodwise: float
    mean_order_size: np.ndarray          # (T,)
    accumulated_cost_variance: np.ndarray  # (T,)
    per_sim_actual_cost: np.ndarray      # (n_sims,)


@dataclass(frozen=True, eq=False)
class MonteCarloSummary:
    """Paired-noise study results for a set of strategies."""

    n_sims: int
    base_seed: int
    strategies: tuple[str, ...]
    benchmark_expected_cost: float
    stats: dict[str, StrategyStats]


def _noise_arrays(n_sims: int, params: MarketParams, horizon: int,
                  base_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The common random numbers as (n_sims, T) arrays eps and eta: row i is
    the path keyed by substream_seed(base_seed, i)."""
    n_sims = _check_count("n_sims", n_sims)
    base_seed = check_seed(base_seed, "base_seed")
    return _noise_rows(n_sims, _substream_seeds(base_seed, range(n_sims)),
                       horizon, params.sigma_eps_sq, params.sigma_eta_sq)


def run_monte_carlo(n_sims: int, strategy_set, params: MarketParams,
                    mandate: ExecutionMandate, base_seed: int,
                    clamp_nonneg_orders: bool = False) -> MonteCarloSummary:
    """Run n_sims paired episodes of every strategy in strategy_set.

    strategy_set, a list or a tuple of names, is checked by strategy_list
    before any noise is drawn; each name runs once, in the order first named.
    Simulation i draws its noise path from substream_seed(base_seed, i) and
    every strategy consumes that same path on the batch engine, so
    comparisons are under common random numbers. Results are reduced in
    simulation-index order and are bit-identical for a fixed (n_sims,
    base_seed, params, mandate). n_sims must be an integer >= 1 (not a
    bool) and base_seed must lie in [0, 2**64).
    """
    strategies = strategy_list(strategy_set, "strategy_set")
    T = mandate.horizon
    eps, eta = _noise_arrays(n_sims, params, T, base_seed)
    path = _shared_path(params, eps, eta)
    benchmark = naive_expected_cost(mandate.s0, mandate.p0, 1, T, params.theta)

    # expected accumulated cost of the unperturbed uniform split, per period
    per = mandate.s0 / T
    bench_cum = np.cumsum([(mandate.p0 + params.theta * per * t) * per
                           for t in range(1, T + 1)])

    stats = {}
    for strat in strategies:
        orders, cum_cost = _run_batch(strat, params, mandate, path, clamp_nonneg_orders)
        actual = cum_cost[:, -1].copy()
        imp = per_share_improvement(benchmark, actual, mandate.s0)
        periodwise = np.mean((bench_cum - cum_cost) / mandate.s0, axis=1)
        stats[strat] = StrategyStats(
            mean_improvement=float(np.mean(imp)),
            sd_improvement=float(np.std(imp, ddof=1)) if n_sims > 1 else 0.0,
            mean_improvement_periodwise=float(np.mean(periodwise)),
            mean_order_size=np.mean(orders, axis=0),
            accumulated_cost_variance=(np.var(cum_cost, axis=0, ddof=1)
                                       if n_sims > 1 else np.zeros(T)),
            per_sim_actual_cost=actual,
        )
    return MonteCarloSummary(n_sims=int(n_sims), base_seed=int(base_seed),
                             strategies=strategies,
                             benchmark_expected_cost=benchmark, stats=stats)


@dataclass(frozen=True, eq=False)
class ConvergenceSummary:
    """Per-period cross-simulation mean and spread of the five estimates."""

    mean: dict[str, np.ndarray]              # field -> (T,)
    sd: dict[str, np.ndarray]                # field -> (T,)
    n_values: dict[str, np.ndarray]          # field -> (T,) episodes with a non-NaN value
    n_episodes: int


def run_convergence(n_sims: int, params: MarketParams, mandate: ExecutionMandate,
                    base_seed: int, clamp_nonneg_orders: bool = False
                    ) -> ConvergenceSummary:
    """Run n_sims online-strategy episodes in the online rule's logged
    period loop (_ar_orders), simulation i on the noise path of
    substream_seed(base_seed, i) as in run_monte_carlo, and summarize their
    estimate trajectories. Equals summarize_convergence over the same
    episodes from run_episode, bit for bit."""
    eps, eta = _noise_arrays(n_sims, params, mandate.horizon, base_seed)
    path = _shared_path(params, eps, eta)
    return _reduce_estimates(_ar_orders(params, mandate, path, clamp_nonneg_orders,
                                        keep_log=True)[1])


def summarize_convergence(episodes) -> ConvergenceSummary:
    """Aggregate the estimate trajectories of online-strategy episodes.

    Periods where a value was never fitted are NaN and are skipped by the
    mean/spread, and n_values counts the episodes that do hold a value; the
    spread uses the population convention so a single episode yields an
    identically zero spread series.
    """
    episodes = list(episodes)
    if not episodes:
        raise ValueError("episodes: need at least one episode")
    for ep in episodes:
        if ep.estimates_log is None:
            raise ValueError("episodes must come from the 'ar' strategy "
                             "(estimates_log missing)")
        if len(ep.estimates_log) != len(episodes[0].estimates_log):
            raise ValueError(f"episodes: every episode must have the same horizon "
                             f"(got {len(episodes[0].estimates_log)} and "
                             f"{len(ep.estimates_log)})")
    return _reduce_estimates({
        name: np.array([[getattr(est, name) for est in ep.estimates_log]
                        for ep in episodes])
        for name in ESTIMATE_FIELDS})


def _reduce_estimates(values: dict[str, np.ndarray]) -> ConvergenceSummary:
    """NaN-skipping per-period mean and population spread of the
    (n_episodes, T) estimate arrays values[name], name in ESTIMATE_FIELDS.
    Each statistic is one call over the fields stacked as a (5, n_episodes,
    T) array, reduced along axis 1: along that axis, as along axis 0 of one
    field, numpy sums each column by a sequential left fold, so the bytes
    are those of five calls."""
    stacked = np.stack([values[name] for name in ESTIMATE_FIELDS])
    n_episodes = stacked.shape[1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mean = np.nanmean(stacked, axis=1)
        sd = np.nanstd(stacked, axis=1)
    n_values = np.count_nonzero(~np.isnan(stacked), axis=1)
    return ConvergenceSummary(mean=dict(zip(ESTIMATE_FIELDS, mean)),
                              sd=dict(zip(ESTIMATE_FIELDS, sd)),
                              n_values=dict(zip(ESTIMATE_FIELDS, n_values)),
                              n_episodes=n_episodes)
