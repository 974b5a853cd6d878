"""Closed-form expected best-execution costs and the value sensitivity to
information.

The uniform-split value has the closed form

    V_t = S_t * P_t + (theta * S_t^2 / 2) * (T - t + 2) / (T - t + 1)

and the informed value evaluates the quadratic

    V_t = S_t * P_t + a_t S_t^2 + b_t S_t X + c_t X^2 + d_t

with the schedule produced by solve_coefficients, where X is the most
recently observed information value (decisions act on one-period-lagged
information; see docs/value_function_conventions.md for the benchmark values
produced by the alternative timing convention). Since c_t, d_t <= 0, the
informed value never exceeds the uniform-split value at X = 0. From T = 3
on it is strictly lower when gamma, rho and sigma_eta_sq are all nonzero;
for T <= 2, d_1 = 0 and the two values are equal.
"""

from __future__ import annotations

from .strategies import CoefficientSchedule

__all__ = [
    "naive_expected_cost",
    "informed_expected_cost",
    "cost_sensitivity",
]


def naive_expected_cost(shares_remaining: float, price: float, t: int,
                        horizon: int, theta: float) -> float:
    """Expected cost of the uniform split over the remaining horizon."""
    if not 1 <= t <= horizon:
        raise ValueError(f"t: period {t} outside 1..{horizon}")
    k = horizon - t + 1
    return shares_remaining * price \
        + theta * shares_remaining * shares_remaining / 2.0 * (k + 1) / k


def informed_expected_cost(shares_remaining: float, price: float, info: float,
                           t: int, schedule: CoefficientSchedule) -> float:
    """Expected cost of the optimal informed strategy from period t onward,
    given `info`, the most recently observed information value."""
    a, b, c, d, _, _ = schedule.at(t)
    s = shares_remaining
    return s * price + a * s * s + b * s * info + c * info * info + d


def cost_sensitivity(b_t: float, c_t: float, order: float, x_t: float) -> float:
    """Derivative of the informed value with respect to the information value:
    b_t * order + 2 * c_t * x_t, where `order` is the share quantity paired
    with b_t in the value being differentiated (the remaining position for
    interior periods, the final order at t = T)."""
    return b_t * order + 2.0 * c_t * x_t
