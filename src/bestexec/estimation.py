"""Online ordinary-least-squares estimation of the market dynamics.

From the realized price changes dP_k, own orders B_k and the observed
information series (x0, X_1, ..., X_n), each period refits

    (theta_hat, gamma_hat)  minimizing sum_k (dP_k - theta*B_k - gamma*X_k)^2
    rho_hat               = sum_k X_{k-1} X_k / sum_k X_{k-1}^2   (in-sample lags only)
    sigma_eps_sq_hat      = (1/(n-1)) sum_k (dP_k - theta_hat*B_k - gamma_hat*X_k)^2
    sigma_eta_sq_hat      = (1/(n-1)) sum_k (X_k - rho_hat*X_{k-1})^2

The impact fit solves the 2x2 normal equations by Cramer's rule and refuses
designs with condition number above COND_LIMIT (early histories have nearly
constant orders, which makes the design nearly singular). rho_hat is clamped
to [-RHO_CLAMP, RHO_CLAMP]; a clamped fit is flagged invalid so strategy code
falls back to the uniform split. Failed fits never raise: they are encoded
in the validity flags, and prior values (when supplied) are carried forward
untouched.

Because the order adjustment factor divides by theta_hat, a tiny positive
theta_hat is as unusable as a nonpositive one (the implied order explodes).
The impact fit is therefore flagged valid only when theta_hat clears
THETA_TSTAT_MIN standard errors; the gate loosens automatically as the
sample grows.

estimate_all refits one history given as 1-D arrays and is the reference;
it refits the whole history each period. The batch refit serves many
equal-length histories at once (one row per simulation) in two phases and
equals it row by row, bit for bit. The information half reads no order, so
fit_information fits it for every period of a study at once; a Monte Carlo
study, whose orders read no sigma_eta_sq_hat, fits it without the residual
pass (_fit_rho). The impact half runs each period after the orders are
known, as _fit_impact with no prior: it takes all five of its sums from
the caller's (3, n_sims, n) history of price changes, orders and X and
writes its three values into slots the caller gives it. After the last
period, _carry_forward carries each failed fit's prior forward along the
period axis. Every sum is np.vecdot over row views, one call per prefix
length, which rounds as the scalar refit's 1-D `a.dot(b)` does (the BLAS
ddot of `a @ b`, at less call overhead; np.einsum, (a*b).sum(1) and
running sums do not). Every other step is the same IEEE operation in the
same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "ParameterEstimates",
    "RHO_CLAMP",
    "COND_LIMIT",
    "THETA_TSTAT_MIN",
    "estimate_all",
    "InformationFit",
    "fit_information",
]

RHO_CLAMP = 0.999
COND_LIMIT = 1e12
THETA_TSTAT_MIN = 2.0


@dataclass(frozen=True)
class ParameterEstimates:
    """The five online estimates plus validity flags, of n_obs periods, as
    estimate_all returns them and order_rule reads them.

    impact_valid: the (theta, gamma) design was well conditioned at fit time
                  and theta_hat cleared its significance gate.
    rho_valid:    the lag regression was nonsingular and needed no clamping.
    Values from failed fits are math.nan (one object: unfitted records compare
    equal; a NaN from arithmetic does not) unless a prior carried them forward.
    """

    theta_hat: float
    gamma_hat: float
    rho_hat: float
    sigma_eps_sq_hat: float
    sigma_eta_sq_hat: float
    impact_valid: bool
    rho_valid: bool
    n_obs: int

    @classmethod
    def invalid(cls) -> "ParameterEstimates":
        return cls(math.nan, math.nan, math.nan, math.nan, math.nan, False, False, 0)


def estimate_all(delta_p: np.ndarray, orders: np.ndarray, info_series: np.ndarray,
                 prior: ParameterEstimates | None = None) -> ParameterEstimates:
    """Refit all five estimates from one history of n periods.

    delta_p and orders are the n price changes and own orders; info_series is
    (x0, X_1, ..., X_n), the information series with its pre-trade value
    first. A fit that fails (n < 2, a singular or ill-conditioned impact
    design, an all-zero lag series) keeps the prior's values when a prior is
    given, NaN otherwise, and its validity flag is False. Histories of
    mismatched lengths are refused by name.
    """
    dp, b = delta_p, orders
    n = len(dp)
    if len(b) != n:
        raise ValueError(f"orders: must have len(delta_p) = {n} values (got {len(b)})")
    if len(info_series) != n + 1:
        raise ValueError(f"info_series: must have len(delta_p) + 1 = {n + 1} values "
                         f"(got {len(info_series)})")
    x = info_series[1:]
    lag = info_series[:-1]
    base = prior if prior is not None else ParameterEstimates.invalid()
    theta_hat, gamma_hat = base.theta_hat, base.gamma_hat
    rho_hat = base.rho_hat
    s2e_hat, s2h_hat = base.sigma_eps_sq_hat, base.sigma_eta_sq_hat
    impact_valid = False
    rho_valid = False

    # impact fit: the 2x2 normal equations in (theta, gamma), by Cramer's rule
    if n >= 2:
        sbb = float(b.dot(b))
        sxb = float(x.dot(b))
        sxx = float(x.dot(x))
        det = sbb * sxx - sxb * sxb
        # its eigenvalues lo <= hi give the condition number hi / lo; negated
        # so that an overflowed (NaN) design is fitted, as in the batch
        tr = sbb + sxx
        disc = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
        lo = (tr - disc) / 2.0
        hi = (tr + disc) / 2.0
        if not (det <= 0.0 or lo <= 0.0 or hi / lo > COND_LIMIT):
            spb = float(dp.dot(b))
            spx = float(dp.dot(x))
            theta_hat = (sxx * spb - sxb * spx) / det
            gamma_hat = (sbb * spx - sxb * spb) / det
            r = dp - theta_hat * b - gamma_hat * x
            s2e_hat = float(r.dot(r)) / (n - 1)
            # significance gate: Var(theta_hat) = s2e * sum X^2 / det, with the
            # residual variance on n - 2 degrees of freedom, so a two-point fit
            # (exact interpolation) never qualifies; a zero residual variance
            # (noiseless fit) qualifies for any theta_hat > 0
            if theta_hat > 0.0 and n >= 3:
                var_theta = s2e_hat * (n - 1) / (n - 2) * sxx / det
                impact_valid = (var_theta <= 0.0
                                or theta_hat >= THETA_TSTAT_MIN * math.sqrt(var_theta))

    # rho fit: X_k on X_{k-1} over in-sample pairs only, clamped
    den = float(lag.dot(lag))
    if den != 0.0:
        # @, not dot: at n = 1, dot returns the lone product itself, -0.0
        # included, where BLAS's sum from 0.0 (and so the batch) gives +0.0
        raw = float(lag @ x) / den
        rho_hat = min(max(raw, -RHO_CLAMP), RHO_CLAMP)
        rho_valid = rho_hat == raw
        if n >= 2:
            r = x - rho_hat * lag
            s2h_hat = float(r.dot(r)) / (n - 1)

    return ParameterEstimates(
        theta_hat=theta_hat, gamma_hat=gamma_hat, rho_hat=rho_hat,
        sigma_eps_sq_hat=s2e_hat, sigma_eta_sq_hat=s2h_hat,
        impact_valid=impact_valid, rho_valid=rho_valid, n_obs=n,
    )


@dataclass(frozen=True, eq=False)
class InformationFit:
    """The information half of the refit of n_sims information paths after
    every period: each field is a C-contiguous (n_sims, T) array whose
    column n-1 holds estimate_all's values for the first n periods, without
    a prior. sigma_eta_sq_hat is None in a Monte Carlo study's fit
    (_fit_rho), whose orders read none."""

    rho_hat: np.ndarray
    rho_valid: np.ndarray
    sigma_eta_sq_hat: np.ndarray | None


def fit_information(info_series: np.ndarray) -> InformationFit:
    """The rho fit and its residual variance of every prefix of the
    (n_sims, T + 1) information paths info_series (pre-trade value in column
    0), as estimate_all computes them period after period from no prior:
    equal to them bit for bit. Each prefix's sums are np.vecdot over row
    views, the dot products of estimate_all; the divisions, clamps and
    carried-forward values then run over all periods at once."""
    fit, fitted = _fit_rho(info_series)
    n_sims, T = fit.rho_hat.shape
    lag = info_series[:, :-1]
    x = info_series[:, 1:]
    periods = np.arange(T)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # residual sums of squares, each prefix with its own period's rho_hat
        ssr = np.zeros((n_sims, T))
        for n in range(2, T + 1):
            r = x[:, :n] - fit.rho_hat[:, n - 1:n] * lag[:, :n]
            np.vecdot(r, r, out=ssr[:, n - 1])
        s2h_hat = _carry_forward(fitted & (periods >= 1), ssr / periods)
    return replace(fit, sigma_eta_sq_hat=s2h_hat)


def _fit_rho(info_series: np.ndarray) -> tuple[InformationFit, np.ndarray]:
    """fit_information without the residual variance (its sigma_eta_sq_hat
    is None), and the (n_sims, T) mask of the prefixes whose lag series is
    not all zero, the ones the rho fit ran on."""
    n_sims, T = info_series.shape[0], info_series.shape[1] - 1
    lag = info_series[:, :-1]
    # lag and X as one (2, n_sims, T) view, for sum lag^2 and sum lag*X in one call
    lag_x = np.lib.stride_tricks.sliding_window_view(info_series, T, axis=1).transpose(1, 0, 2)
    sums = np.empty((2, n_sims, T))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for n in range(1, T + 1):
            np.vecdot(lag[:, :n], lag_x[:, :, :n], out=sums[:, :, n - 1])
        den, num = sums
        fitted = ~(den == 0.0)
        raw = num / den
        floored = np.where(-RHO_CLAMP > raw, -RHO_CLAMP, raw)
        clamped = np.where(RHO_CLAMP < floored, RHO_CLAMP, floored)
        rho_valid = fitted & (clamped == raw)
        rho_hat = _carry_forward(fitted, clamped)
    return InformationFit(rho_hat=rho_hat, rho_valid=rho_valid, sigma_eta_sq_hat=None), fitted


def _carry_forward(fitted: np.ndarray, values: np.ndarray) -> np.ndarray:
    """values where fitted, else the last fitted value before it along the
    period axis, NaN before the first: the prior carried forward. fitted is
    an (n_sims, T) mask, values an (n_sims, T) array or a stack of them
    (..., n_sims, T), each carried by the same mask."""
    last = np.where(fitted, np.arange(fitted.shape[1]), -1)
    np.maximum.accumulate(last, axis=1, out=last)
    index = np.broadcast_to(np.maximum(last, 0), values.shape)
    carried = np.take_along_axis(values, index, axis=-1)
    carried[..., last < 0] = np.nan
    return carried


def _fit_impact(h: np.ndarray, out: np.ndarray):
    """The impact fit of estimate_all, with no prior, for n_sims histories of
    n >= 2 periods. h is the (3, n_sims, n) history: price changes, orders
    and X_1..X_n. One broadcast np.vecdot(h[0:3, None], h[None, 1:3]) takes
    all its sums as a (3, 2, n_sims) block, whose six rows in order are
    sum dP*B, sum dP*X, sum B^2, sum B*X, sum X*B (unread) and sum X^2.
    Then the diagonal of the normal equations (sum X^2, sum B^2) and the
    right-hand sides (sum dP*B, sum dP*X) are each one (2, n_sims) view,
    and Cramer's two numerators one product.

    Writes theta_hat, gamma_hat and sigma_eps_sq_hat to the rows of the
    (3, n_sims) out and returns the (n_sims,) masks (fitted, impact_valid).
    On the fitted rows the three values are estimate_all's bit for bit; on
    the others they are whatever the arithmetic gave, and a caller carries
    its prior there. impact_valid is False on every row not fitted. Failures
    are encoded, not raised: callers must silence floating-point warnings
    (np.errstate), as the batch engine does once around its period loop.
    """
    n_sims, n = h.shape[1:]
    rows = np.vecdot(h[0:3, None], h[None, 1:3]).reshape(6, n_sims)
    diag, sxb = rows[5:1:-3], rows[3]
    sxx, sbb = diag
    # the 2x2 normal equations and their conditioning test as in estimate_all
    det = sbb * sxx - sxb * sxb
    tr = sbb + sxx
    disc_sq = tr * tr - 4.0 * det
    # max(disc_sq, 0.0), as np.maximum gives it: they would differ only at
    # -0.0, and tr * tr - 4.0 * det is never -0.0 (tr * tr never is)
    disc = np.sqrt(np.maximum(disc_sq, 0.0))
    lo = (tr - disc) / 2.0
    hi = (tr + disc) / 2.0
    fitted = ~((det <= 0.0) | (lo <= 0.0) | (hi / lo > COND_LIMIT))
    # theta_hat = (sxx*spb - sxb*spx) / det, gamma_hat = (sbb*spx - sxb*spb) / det
    np.divide(diag * rows[0:2] - sxb * rows[1::-1], det, out=out[:2])
    # the residual dP - theta_hat*B - gamma_hat*X, both products in one call
    r = out[:2, :, None] * h[1:]
    np.subtract(h[0], r[0], out=r[0])
    np.subtract(r[0], r[1], out=r[0])
    np.divide(np.vecdot(r[0], r[0]), n - 1, out=out[2])
    if n < 3:
        return fitted, np.zeros(len(fitted), dtype=bool)
    theta_hat = out[0]
    var_theta = out[2] * (n - 1) / (n - 2) * sxx / det
    impact_valid = (fitted & (theta_hat > 0.0)
                    & ((var_theta <= 0.0)
                       | (theta_hat >= THETA_TSTAT_MIN * np.sqrt(var_theta))))
    return fitted, impact_valid
