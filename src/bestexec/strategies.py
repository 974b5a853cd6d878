"""Order-sizing rules for the three block-execution strategies.

Naive          uniform split: B_t = S_t / (T - t + 1).
Informed       Bellman-optimal split under known dynamics:
               B_t = e_t * S_t + f_t * X_{t-1}.
Auto-regressive  the informed shape driven by online least-squares estimates
               and a closed-form adjustment factor, falling back to the
               uniform split until the estimates are usable.

order_rule is the one implementation of all three, on floats for run_episode
(decide_order wraps it) and on (n_sims,) arrays; the batch engine's online
rule tilts each row by its own fit with _ar_order, the array form of the tilt.

The informed coefficients come from backward induction over the remaining
horizon k = T - t + 1. Writing the optimal remaining cost, given last price p,
last observed information x and s shares left, as

    V(p, x, s) = s*p + a*s^2 + b*s*x + c*x^2 + d

the one-step minimization (decisions are made before the period's shocks
realize, so the current information enters only through its conditional mean
rho*x) gives the base case k=1 (forced final order)

    a = theta, b = gamma*rho, c = 0, d = 0, e = 1, f = 0

and the recursion, with primes denoting the k-1 values,

    a = theta*(k+1)/(2k)                       (closed form of a = theta - theta^2/(4a'))
    b = rho*(gamma + theta*b'/(2a'))
    c = rho^2 * (c' - b'^2/(4a'))
    d = d' + c' * sigma_eta_sq
    e = 1/k
    f = rho*b'/(2a')

Each step is strictly convex for theta > 0, c and d are nonpositive, and the
schedule is validated against an independent brute-force minimizer in the
test suite. Because decisions act on one-period-lagged information, the
information coupling carries one factor of rho more than the naive completion
of the square suggests; docs/value_function_conventions.md works through the
alternative convention and the benchmark values each one produces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import MarketParams, _check_horizon

__all__ = [
    "CoefficientSchedule",
    "OrderDecision",
    "naive_order",
    "solve_coefficients",
    "ar_rho_factor",
    "ar_adjustment_factor",
    "usable",
    "order_rule",
    "decide_order",
    "STRATEGIES",
    "TAGS",
]

STRATEGIES = ("naive", "informed", "ar")
# order_rule's tag codes index TAGS
FINAL_PERIOD, NAIVE_FALLBACK, INFORMED, AUTOREGRESSIVE = range(4)
TAGS = ("final_period", "naive_fallback", "informed", "autoregressive")


@dataclass(frozen=True)
class CoefficientSchedule:
    """Per-period value-function and order coefficients, periods 1..T.

    Arrays are indexed by t-1. Invariants: a > 0 everywhere, e_t = 1/(T-t+1)
    exactly, e_T = 1, f_T = 0; gamma = 0 or rho = 0 zeroes b, c, d and f.
    """

    horizon: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    e: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        for arr in (self.a, self.b, self.c, self.d, self.e, self.f):
            arr.flags.writeable = False

    def at(self, t: int) -> tuple[float, float, float, float, float, float]:
        """Coefficients (a, b, c, d, e, f) for period t (1-based)."""
        if not 1 <= t <= self.horizon:
            raise ValueError(f"t: period {t} outside schedule horizon {self.horizon}")
        i = t - 1
        return (self.a[i], self.b[i], self.c[i], self.d[i], self.e[i], self.f[i])


@dataclass(frozen=True)
class OrderDecision:
    """An order size together with the name (in TAGS) of the rule that set it."""

    order: float
    rationale_tag: str


def naive_order(shares_remaining: float, t: int, horizon: int) -> float:
    """Uniform split of the remaining shares: S_t / (T - t + 1).

    Followed from t = 1 without perturbation this is the constant S_0 / T;
    the final period always takes the full remainder.
    """
    if not 1 <= t <= horizon:
        raise ValueError(f"t: period {t} outside 1..{horizon}")
    return shares_remaining / (horizon - t + 1)


def solve_coefficients(params: MarketParams, horizon: int) -> CoefficientSchedule:
    """Backward induction for the informed strategy's coefficient schedule.

    Requires params.theta > 0 (strict convexity of every Bellman step) and
    |rho| < 1 (already enforced by MarketParams). The recursion runs on
    Python floats, step for step the float64 operations of one on numpy
    scalars, so both give the same bits; the arrays are built once, after it.
    """
    if not params.theta > 0.0:
        raise ValueError(f"theta: must be > 0 for a convex Bellman step (got {params.theta})")
    T = _check_horizon(horizon)
    theta, gamma, rho, s2h = map(float, (params.theta, params.gamma, params.rho,
                                         params.sigma_eta_sq))

    # remaining-horizon values, k = 1..T at index k-1
    a, b, c, d, f = [theta], [gamma * rho], [0.0], [0.0], [0.0]
    for k in range(2, T + 1):
        ap, bp, cp, dp = a[k - 2], b[k - 2], c[k - 2], d[k - 2]
        a.append(theta * (k + 1) / (2.0 * k))
        f.append(rho * bp / (2.0 * ap))
        b.append(rho * (gamma + theta * bp / (2.0 * ap)))
        c.append(rho * rho * (cp - bp * bp / (4.0 * ap)))
        d.append(dp + cp * s2h)
    e = [1.0 / k for k in range(1, T + 1)]

    # reindex to periods: period t has k = T - t + 1 remaining
    a, b, c, d, e, f = np.array([a, b, c, d, e, f])[:, ::-1].copy()
    return CoefficientSchedule(horizon=T, a=a, b=b, c=c, d=d, e=e, f=f)


def ar_rho_factor(rho_hat, t, horizon):
    """The part of ar_adjustment_factor that depends on rho_hat alone,

        sum_{k=1}^{m} (m - k) * rho_hat^k = m*S1 - S2,  m = T - t,

    with S1 = sum rho_hat^k and S2 = sum k rho_hat^k in closed form. It is
    exactly 0.0 for m <= 1 (every weight vanishes) and for rho_hat = 0.0, and
    nonzero otherwise (the polynomial has no root inside the unit circle).

    rho_hat is a float, or an array with t an int or an integer array that
    broadcasts against it (the batch engine takes every period at once). On
    arrays the powers are np.float_power with float exponents, which calls
    the C library's pow, as Python's float ** does, so both forms give the
    same bits. np.power is SIMD-dispatched and rounds differently in a few
    percent of cases.
    """
    m = horizon - t
    if not isinstance(rho_hat, np.ndarray):
        if not abs(rho_hat) < 1.0:
            raise ValueError(f"rho_hat: |rho_hat| must be < 1 (got {rho_hat})")
        if m <= 1 or rho_hat == 0.0:
            return 0.0
        r = rho_hat
        s1 = r * (1.0 - r**m) / (1.0 - r)
        s2 = r * (1.0 - (m + 1) * r**m + m * r**(m + 1)) / (1.0 - r) ** 2
        return m * s1 - s2
    bad = ~(np.abs(rho_hat) < 1.0)
    if bad.any():
        raise ValueError(f"rho_hat: |rho_hat| must be < 1 (got {rho_hat[bad][0]})")
    m = np.broadcast_to(m, rho_hat.shape)
    factor = np.zeros(rho_hat.shape)
    nonzero = (m > 1) & (rho_hat != 0.0)
    # float exponents: r ** m converts an int m to this same double
    r, m = rho_hat[nonzero], m[nonzero].astype(float)
    r_m = np.float_power(r, m)
    s1 = r * (1.0 - r_m) / (1.0 - r)
    s2 = (r * (1.0 - (m + 1.0) * r_m + m * np.float_power(r, m + 1.0))
          / np.float_power(1.0 - r, 2.0))
    factor[nonzero] = m * s1 - s2
    return factor


def ar_adjustment_factor(theta_hat: float, gamma_hat: float, rho_hat: float,
                         t: int, horizon: int) -> float:
    """Closed-form shares-per-information-unit tilt used by the online strategy:

        f_hat_t = gamma_hat / (theta_hat * (T - t + 1)) * sum_{k=1}^{T-t} (T - t - k) * rho_hat^k

    The sum (ar_rho_factor) is empty at t = T and its k = T-t term carries
    zero weight, so the factor is exactly 0.0 with two or fewer periods
    remaining; the recursive informed f_t does not vanish there. The
    brute-force tests arbitrate in favor of the recursive form for the
    informed strategy; this closed form is what the online strategy applies
    to its estimates (see docs/value_function_conventions.md).

    On floats. On arrays, _ar_order tilts many rows at once by the same
    formula, from ar_rho_factor of the rows.
    """
    if not theta_hat > 0.0:
        raise ValueError(f"theta_hat: must be > 0 (got {theta_hat})")
    rho_factor = ar_rho_factor(rho_hat, t, horizon)
    if rho_factor == 0.0:
        return 0.0
    return gamma_hat / (theta_hat * (horizon - t + 1)) * rho_factor


def _ar_order(order, ok, theta_hat, gamma_hat, rho_factor, x_prev, t: int, horizon: int):
    """The online rule on (n_sims,) arrays, one fit per row, as the batch
    engine steps it: order (the uniform split) plus f_hat_t * x_prev in the
    usable rows ok, order elsewhere; f_hat_t = ar_adjustment_factor from its
    rho part rho_factor = ar_rho_factor(rho_hat, t, horizon). Row i is
    order_rule's on row i's floats, before the final period and the clamp.
    The other rows may hold NaN or a nonpositive theta_hat: their values are
    dropped, and the caller silences their floating-point warnings. Adding a
    zero tilt there would not be the identity (-0.0 + 0.0 is +0.0, and
    0.0 * inf is NaN), and the tilt is exactly 0.0 where rho_factor is, as
    on floats: gamma_hat / (theta_hat * k) * 0.0 may be -0.0, or NaN."""
    f_hat = np.where(rho_factor == 0.0, 0.0,
                     gamma_hat / (theta_hat * (horizon - t + 1)) * rho_factor)
    return np.where(ok, order + f_hat * x_prev, order)


def usable(estimates) -> bool:
    """Whether the online rule may tilt by these estimates: present, both fits
    valid and theta_hat > 0."""
    return (estimates is not None and estimates.impact_valid and estimates.rho_valid
            and estimates.theta_hat > 0.0)


def order_rule(strategy_kind: str, s, x_prev, t: int, horizon: int, tilt=None,
               estimates=None, clamp: bool = False):
    """The order B_t of one strategy at period t and its tag code (see TAGS).

    s (shares remaining) and x_prev (X_{t-1}) are floats, or (n_sims,) arrays
    with a tilt per row and one ParameterEstimates for all rows: row i of the
    result is then the result on row i's floats, bit for bit.

    final period  -> s, whatever the strategy.
    naive         -> the uniform split naive_order(s, t, horizon).
    informed      -> e_t * S_t + f_t * X_{t-1}: the uniform split (e_t is
                     1/(T-t+1) exactly) + tilt, the schedule's f_t * X_{t-1}
                     (the caller forms it, the batch engine for all periods
                     in one product).
    ar            -> uniform split + f_hat_t * x_prev, f_hat_t from
                     ar_adjustment_factor, if the estimates are usable; the
                     uniform split otherwise.

    With clamp, an interior order below zero becomes 0.0; a -0.0 order passes
    through as is, as np.where(order < 0.0, 0.0, order) does.
    """
    if strategy_kind not in STRATEGIES:
        raise ValueError(f"strategy_kind: unknown strategy {strategy_kind!r}")
    if t == horizon:
        return s, FINAL_PERIOD
    order, tag = naive_order(s, t, horizon), NAIVE_FALLBACK
    if strategy_kind == "informed":
        if tilt is None:
            raise ValueError("tilt: the informed rule needs f_t * X_{t-1}")
        order, tag = order + tilt, INFORMED
    elif strategy_kind == "ar" and usable(estimates):
        f_hat = ar_adjustment_factor(estimates.theta_hat, estimates.gamma_hat,
                                     estimates.rho_hat, t, horizon)
        order, tag = order + f_hat * x_prev, AUTOREGRESSIVE
    if clamp:
        if isinstance(order, np.ndarray):
            order = np.where(order < 0.0, 0.0, order)
        elif order < 0.0:
            order = 0.0
    return order, tag


def decide_order(strategy_kind: str, s: float, x_prev: float, t: int, horizon: int,
                 tilt: float | None = None, estimates=None,
                 clamp: bool = False) -> OrderDecision:
    """order_rule on floats, as an OrderDecision with a Python float order and
    the tag's name."""
    order, tag = order_rule(strategy_kind, s, x_prev, t, horizon, tilt, estimates, clamp)
    return OrderDecision(order=float(order), rationale_tag=TAGS[tag])
