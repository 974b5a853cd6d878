"""Online ordinary-least-squares estimation of the market dynamics.

From the realized price changes, own orders and the observed information
series, each period refits

    (theta_hat, gamma_hat)  minimizing sum_k (dP_k - theta*B_k - gamma*X_k)^2
    rho_hat               = sum_k X_{k-1} X_k / sum_k X_{k-1}^2   (in-sample lags only)
    sigma_eps_sq_hat      = (1/(t-1)) sum_k (dP_k - theta_hat*B_k - gamma_hat*X_k)^2
    sigma_eta_sq_hat      = (1/(t-1)) sum_k (X_k - rho_hat*X_{k-1})^2

The impact fit solves the 2x2 normal equations by Cramer's rule and refuses
designs with condition number above COND_LIMIT (early histories have nearly
constant orders, which makes the design nearly singular). rho_hat is clamped
to [-RHO_CLAMP, RHO_CLAMP]; a clamped fit is flagged invalid so strategy code
falls back to the uniform split. Failed fits never raise out of
estimate_all: they are encoded in the validity flags, and prior values (when
supplied) are carried forward untouched.

estimate_all_batch runs the same refit for many equal-length histories at
once (one row per simulation) and equals estimate_all row by row, bit for
bit: every sum is np.vecdot over row views, which rounds exactly as the 1-D
`a @ b` of the scalar path (np.einsum and (a*b).sum(1) do not), every other
step is the same elementwise IEEE operation in the same order, and the
prior is carried forward through np.where masks.

Because the order adjustment factor divides by theta_hat, a tiny positive
theta_hat is as unusable as a nonpositive one (the implied order explodes).
estimate_all therefore also requires theta_hat to clear THETA_TSTAT_MIN
standard errors before flagging the impact fit valid; the gate loosens
automatically as the sample grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "EstimationError",
    "ObservationHistory",
    "ParameterEstimates",
    "RHO_CLAMP",
    "COND_LIMIT",
    "THETA_TSTAT_MIN",
    "fit_impact",
    "fit_rho",
    "fit_variances",
    "estimate_all",
    "EstimateArrays",
    "estimate_all_batch",
]

RHO_CLAMP = 0.999
COND_LIMIT = 1e12
THETA_TSTAT_MIN = 2.0


class EstimationError(ValueError):
    """A fit could not be produced (singular or ill-conditioned design)."""


class ObservationHistory:
    """Append-only regression sample: one record (dP_k, B_k, X_k) per period.

    The lagged information series starts at x0 (the pre-trade information
    value), so the rho regressors for record k are (X_{k-1}, X_k).
    """

    def __init__(self, x0: float = 0.0):
        self._delta_p: list[float] = []
        self._orders: list[float] = []
        self._info: list[float] = []
        self._x0 = float(x0)

    def append(self, delta_p: float, order: float, info: float) -> None:
        self._delta_p.append(float(delta_p))
        self._orders.append(float(order))
        self._info.append(float(info))

    @property
    def n_obs(self) -> int:
        return len(self._delta_p)

    @property
    def delta_p(self) -> np.ndarray:
        return np.asarray(self._delta_p)

    @property
    def orders(self) -> np.ndarray:
        return np.asarray(self._orders)

    @property
    def info(self) -> np.ndarray:
        return np.asarray(self._info)

    def info_series(self) -> np.ndarray:
        """The information series including its pre-trade start: (x0, X_1..X_t)."""
        return np.asarray([self._x0] + self._info)


@dataclass(frozen=True)
class ParameterEstimates:
    """The five online estimates plus validity flags.

    impact_valid: the (theta, gamma) design was well conditioned at fit time
                  and theta_hat cleared its significance gate.
    rho_valid:    the lag regression was nonsingular and needed no clamping.
    Values from failed fits are NaN unless a prior carried them forward.
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
        nan = float("nan")
        return cls(nan, nan, nan, nan, nan, False, False, 0)


def fit_impact(history: ObservationHistory) -> tuple[float, float]:
    """Least-squares (theta_hat, gamma_hat) from dP_k on (B_k, X_k).

    Requires at least two observations and a well-conditioned design matrix
    [[sum B^2, sum XB], [sum XB, sum X^2]]; raises EstimationError otherwise.
    The returned pair is the unique minimizer, so residuals are orthogonal to
    both regressors.
    """
    theta_hat, gamma_hat, _, _ = _solve_impact(history.delta_p, history.orders,
                                               history.info)
    return theta_hat, gamma_hat


def _solve_impact(dp: np.ndarray, b: np.ndarray,
                  x: np.ndarray) -> tuple[float, float, float, float]:
    """(theta_hat, gamma_hat, sum X^2, det) from the 2x2 normal equations,
    solved by Cramer's rule; the last two give theta_hat's standard error."""
    if len(dp) < 2:
        raise EstimationError(f"impact fit needs >= 2 observations (got {len(dp)})")
    sbb = float(b @ b)
    sxb = float(x @ b)
    sxx = float(x @ x)
    det = sbb * sxx - sxb * sxb
    if det <= 0.0 or _cond_2x2(sbb, sxb, sxx) > COND_LIMIT:
        raise EstimationError("impact design is singular or ill-conditioned")
    spb = float(dp @ b)
    spx = float(dp @ x)
    theta_hat = (sxx * spb - sxb * spx) / det
    gamma_hat = (sbb * spx - sxb * spb) / det
    return theta_hat, gamma_hat, sxx, det


def _cond_2x2(m00: float, m01: float, m11: float) -> float:
    """2-norm condition number of the symmetric matrix [[m00, m01], [m01, m11]]."""
    tr = m00 + m11
    det = m00 * m11 - m01 * m01
    disc = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
    lo = (tr - disc) / 2.0
    hi = (tr + disc) / 2.0
    if lo <= 0.0:
        return math.inf
    return hi / lo


def _rho_raw(info_series: Sequence[float]) -> float:
    """Unclamped lag-one regression slope over in-sample pairs only."""
    x = np.asarray(info_series, dtype=float)
    if len(x) < 2:
        raise EstimationError("rho fit needs >= 2 information values")
    lag = x[:-1]
    cur = x[1:]
    den = float(lag @ lag)
    if den == 0.0:
        raise EstimationError("rho design is singular (all-zero lag series)")
    return float(lag @ cur) / den


def fit_rho(info_series: Sequence[float]) -> float:
    """rho_hat from the information series (x0, X_1, ..., X_t), clamped to
    [-RHO_CLAMP, RHO_CLAMP]. Never uses future values: record k regresses
    X_k on X_{k-1}. Raises EstimationError when every lag value is zero."""
    raw = _rho_raw(info_series)
    return min(max(raw, -RHO_CLAMP), RHO_CLAMP)


def fit_variances(history: ObservationHistory,
                  estimates: "ParameterEstimates") -> tuple[float, float]:
    """Residual variances of both equations at the supplied estimates, each
    normalized by 1/(t-1). Requires t >= 2 and valid estimate values."""
    t = history.n_obs
    if t < 2:
        raise EstimationError(f"variance fit needs >= 2 observations (got {t})")
    for name in ("theta_hat", "gamma_hat", "rho_hat"):
        if math.isnan(getattr(estimates, name)):
            raise EstimationError(f"variance fit needs a value for {name}")
    return (_price_residual_var(history.delta_p, history.orders, history.info,
                                estimates.theta_hat, estimates.gamma_hat),
            _info_residual_var(history.info_series(), estimates.rho_hat))


def _price_residual_var(dp: np.ndarray, b: np.ndarray, x: np.ndarray,
                        theta_hat: float, gamma_hat: float) -> float:
    r = dp - theta_hat * b - gamma_hat * x
    return float(r @ r) / (len(dp) - 1)


def _info_residual_var(series: np.ndarray, rho_hat: float) -> float:
    r = series[1:] - rho_hat * series[:-1]
    return float(r @ r) / (len(series) - 2)


def estimate_all(history: ObservationHistory,
                 prior: ParameterEstimates | None = None) -> ParameterEstimates:
    """Run the impact, rho and variance fits in order, encoding failures in
    the validity flags. Fields of a failed fit keep the prior's values when a
    prior is given, NaN otherwise."""
    base = prior if prior is not None else ParameterEstimates.invalid()
    theta_hat, gamma_hat = base.theta_hat, base.gamma_hat
    rho_hat = base.rho_hat
    s2e_hat, s2h_hat = base.sigma_eps_sq_hat, base.sigma_eta_sq_hat
    impact_valid = False
    rho_valid = False
    n = history.n_obs
    dp, b, x = history.delta_p, history.orders, history.info
    series = history.info_series()

    impact_fitted = False
    try:
        theta_hat, gamma_hat, sxx, det = _solve_impact(dp, b, x)
        impact_fitted = True
    except EstimationError:
        pass

    rho_fitted = False
    try:
        raw = _rho_raw(series)
        rho_hat = min(max(raw, -RHO_CLAMP), RHO_CLAMP)
        rho_fitted = True
        rho_valid = rho_hat == raw
    except EstimationError:
        pass

    if n >= 2:
        if impact_fitted:
            s2e_hat = _price_residual_var(dp, b, x, theta_hat, gamma_hat)
            # significance gate: Var(theta_hat) = s2e * sum X^2 / det, with the
            # residual variance on n - 2 degrees of freedom, so a two-point fit
            # (exact interpolation) never qualifies; a zero residual variance
            # (noiseless fit) qualifies for any theta_hat > 0
            if theta_hat > 0.0 and n >= 3:
                var_theta = s2e_hat * (n - 1) / (n - 2) * sxx / det
                impact_valid = (var_theta <= 0.0
                                or theta_hat >= THETA_TSTAT_MIN * math.sqrt(var_theta))
        if rho_fitted:
            s2h_hat = _info_residual_var(series, rho_hat)

    return ParameterEstimates(
        theta_hat=theta_hat, gamma_hat=gamma_hat, rho_hat=rho_hat,
        sigma_eps_sq_hat=s2e_hat, sigma_eta_sq_hat=s2h_hat,
        impact_valid=impact_valid, rho_valid=rho_valid, n_obs=n,
    )


@dataclass(frozen=True)
class EstimateArrays:
    """ParameterEstimates of many histories of equal length n_obs: each field
    is an (n_sims,) array whose row i belongs to history i."""

    theta_hat: np.ndarray
    gamma_hat: np.ndarray
    rho_hat: np.ndarray
    sigma_eps_sq_hat: np.ndarray
    sigma_eta_sq_hat: np.ndarray
    impact_valid: np.ndarray
    rho_valid: np.ndarray
    n_obs: int

    @classmethod
    def invalid(cls, n_sims: int) -> "EstimateArrays":
        nan = np.full(n_sims, np.nan)
        no = np.zeros(n_sims, dtype=bool)
        return cls(nan, nan, nan, nan, nan, no, no, 0)


def estimate_all_batch(delta_p: np.ndarray, orders: np.ndarray, info_series: np.ndarray,
                       prior: EstimateArrays | None = None) -> EstimateArrays:
    """estimate_all for n_sims histories at once.

    delta_p and orders are (n_sims, n) arrays; info_series is (n_sims, n + 1)
    with the pre-trade information value in column 0. Row i of the result
    equals estimate_all(history_i, prior_i) bit for bit, where prior None
    stands for no prior in every row.
    """
    n_sims, n = delta_p.shape
    if prior is None:
        prior = EstimateArrays.invalid(n_sims)
    b = orders
    x = info_series[:, 1:]
    lag = info_series[:, :-1]
    no = np.zeros(n_sims, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # impact fit: _solve_impact with _cond_2x2, failures masked out
        sbb = np.vecdot(b, b)
        sxb = np.vecdot(x, b)
        sxx = np.vecdot(x, x)
        det = sbb * sxx - sxb * sxb
        tr = sbb + sxx
        disc_sq = tr * tr - 4.0 * det
        disc = np.sqrt(np.where(0.0 > disc_sq, 0.0, disc_sq))
        lo = (tr - disc) / 2.0
        hi = (tr + disc) / 2.0
        impact_fitted = (no if n < 2 else
                         ~((det <= 0.0) | (lo <= 0.0) | (hi / lo > COND_LIMIT)))
        spb = np.vecdot(delta_p, b)
        spx = np.vecdot(delta_p, x)
        theta_hat = np.where(impact_fitted, (sxx * spb - sxb * spx) / det, prior.theta_hat)
        gamma_hat = np.where(impact_fitted, (sbb * spx - sxb * spb) / det, prior.gamma_hat)

        # rho fit: _rho_raw, clamped as in estimate_all
        den = np.vecdot(lag, lag)
        rho_fitted = ~(den == 0.0)
        raw = np.vecdot(lag, x) / den
        floored = np.where(-RHO_CLAMP > raw, -RHO_CLAMP, raw)
        clamped = np.where(RHO_CLAMP < floored, RHO_CLAMP, floored)
        rho_hat = np.where(rho_fitted, clamped, prior.rho_hat)
        rho_valid = rho_fitted & (clamped == raw)

        s2e_hat, s2h_hat, impact_valid = prior.sigma_eps_sq_hat, prior.sigma_eta_sq_hat, no
        if n >= 2:
            r = delta_p - theta_hat[:, None] * b - gamma_hat[:, None] * x
            s2e = np.vecdot(r, r) / (n - 1)
            s2e_hat = np.where(impact_fitted, s2e, s2e_hat)
            if n >= 3:
                var_theta = s2e * (n - 1) / (n - 2) * sxx / det
                impact_valid = (impact_fitted & (theta_hat > 0.0)
                                & ((var_theta <= 0.0)
                                   | (theta_hat >= THETA_TSTAT_MIN * np.sqrt(var_theta))))
            r = x - rho_hat[:, None] * lag
            s2h_hat = np.where(rho_fitted, np.vecdot(r, r) / (n - 1), s2h_hat)

    return EstimateArrays(
        theta_hat=theta_hat, gamma_hat=gamma_hat, rho_hat=rho_hat,
        sigma_eps_sq_hat=s2e_hat, sigma_eta_sq_hat=s2h_hat,
        impact_valid=impact_valid, rho_valid=rho_valid, n_obs=n,
    )
