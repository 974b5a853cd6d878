"""Independent oracles used by the tests.

The brute-force execution oracle never touches the production backward
recursion: it evaluates the exact expected cost of an arbitrary
history-affine policy by propagating Gaussian moments, identifies the
(exactly quadratic) cost as a function of the policy coefficients from
function evaluations alone, and minimizes it with one linear solve. For
small horizons that global optimum is the ground truth the informed strategy
must reproduce.

The exact refit runs the online OLS refit in rational arithmetic on the
float inputs, so it carries no rounding at all: the ground truth the float
refits are measured against.

Student's t distribution function for integer degrees of freedom and the
one-sample Kolmogorov-Smirnov p-value test the refit's sampling law: where
orders do not read the price shocks, its t-ratios follow t_{n-2} exactly.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from bestexec import COND_LIMIT, RHO_CLAMP, THETA_TSTAT_MIN


def affine_policy_expected_cost(coefvec, theta, gamma, rho, sigma_eta_sq,
                                p0, x0, s0, T):
    """Exact E[sum_t P_t B_t] for the policy B_t = k_t + sum_{j<t} c_{t,j} X_j
    (t < T; the final order takes the remainder).

    coefvec packs, for t = 1..T-1, the constant k_t followed by the history
    weights c_{t,1..t-1}. Price shocks are independent of every order, so
    they drop out of the expectation and only the information moments enter:
    E[X_j] = rho^j x0 and Cov(X_i, X_j) = sigma_eta_sq * sum over common lags.
    """
    n = T  # tracked information values X_1..X_T
    mean_x = np.array([rho ** j * x0 for j in range(1, T + 1)])
    cov_x = np.zeros((n, n))
    for i in range(1, T + 1):
        for j in range(1, T + 1):
            cov_x[i - 1, j - 1] = sigma_eta_sq * sum(
                rho ** (i - l) * rho ** (j - l) for l in range(1, min(i, j) + 1))
    second_x = cov_x + np.outer(mean_x, mean_x)

    # affine representations B_t = b0[t] + bv[t] @ X
    b0 = np.zeros(T + 1)
    bv = np.zeros((T + 1, n))
    pos = 0
    for t in range(1, T):
        b0[t] = coefvec[pos]
        pos += 1
        for j in range(1, t):
            bv[t, j - 1] = coefvec[pos]
            pos += 1
    b0[T] = s0 - b0[1:T].sum()
    bv[T] = -bv[1:T].sum(axis=0)

    total = 0.0
    cum0, cumv = 0.0, np.zeros(n)      # cumulative orders
    infv = np.zeros(n)                 # cumulative information sum
    for t in range(1, T + 1):
        cum0 += b0[t]
        cumv = cumv + bv[t]
        infv = infv.copy()
        infv[t - 1] += 1.0
        a0 = p0 + theta * cum0
        av = theta * cumv + gamma * infv
        total += (a0 * b0[t] + a0 * bv[t] @ mean_x + b0[t] * av @ mean_x
                  + av @ second_x @ bv[t])
    return float(total)


def fit_quadratic_min(f, dim, scale=1000.0):
    """Identify the exactly quadratic f(v) = f0 + g.v + 0.5 v'Hv from function
    evaluations and return (argmin, min). Requires H positive definite."""
    f0 = f(np.zeros(dim))
    basis = np.eye(dim) * scale
    f1 = np.array([f(basis[i]) for i in range(dim)])
    f2 = np.array([f(2.0 * basis[i]) for i in range(dim)])
    H = np.zeros((dim, dim))
    g = np.zeros(dim)
    for i in range(dim):
        H[i, i] = (f2[i] - 2.0 * f1[i] + f0) / scale ** 2
        g[i] = (4.0 * f1[i] - f2[i] - 3.0 * f0) / (2.0 * scale)
    for i in range(dim):
        for j in range(i + 1, dim):
            fij = f(basis[i] + basis[j])
            H[i, j] = H[j, i] = (fij - f1[i] - f1[j] + f0) / scale ** 2
    x = np.linalg.solve(H, -g)
    return x, float(f0 + g @ x + 0.5 * x @ H @ x)


def brute_force_best_execution(theta, gamma, rho, sigma_eta_sq, p0, x0, s0, T):
    """Globally optimal first order, period-2 policy coefficients and optimal
    expected cost over all history-affine policies, for small T.

    Returns (b1, k2, c21, value); k2/c21 are None for T < 3.
    """
    dim = (T - 1) + sum(t - 1 for t in range(1, T))
    cost = lambda v: affine_policy_expected_cost(
        v, theta, gamma, rho, sigma_eta_sq, p0, x0, s0, T)
    x, value = fit_quadratic_min(cost, dim)
    b1 = float(x[0])
    if T >= 3:
        return b1, float(x[1]), float(x[2]), value
    return b1, None, None, value


def numpy_scalar_schedule(theta, gamma, rho, sigma_eta_sq, T):
    """The schedule (a, b, c, d, e, f), each indexed by period t - 1, from
    the backward recursion over the remaining horizon k = T - t + 1 on
    float64 arrays, every step reading its k - 1 values as numpy scalars."""
    a = np.empty(T)
    b = np.empty(T)
    c = np.empty(T)
    d = np.empty(T)
    e = np.empty(T)
    f = np.empty(T)
    a[0], b[0], c[0], d[0], e[0], f[0] = theta, gamma * rho, 0.0, 0.0, 1.0, 0.0
    for k in range(2, T + 1):
        ap, bp, cp, dp = a[k - 2], b[k - 2], c[k - 2], d[k - 2]
        a[k - 1] = theta * (k + 1) / (2.0 * k)
        e[k - 1] = 1.0 / k
        f[k - 1] = rho * bp / (2.0 * ap)
        b[k - 1] = rho * (gamma + theta * bp / (2.0 * ap))
        c[k - 1] = rho * rho * (cp - bp * bp / (4.0 * ap))
        d[k - 1] = dp + cp * sigma_eta_sq
    return tuple(arr[::-1].copy() for arr in (a, b, c, d, e, f))


def _sqrt(q: Fraction) -> Fraction:
    """The square root of q >= 0, rounded to 60 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        return Fraction((Decimal(q.numerator) / Decimal(q.denominator)).sqrt())


def exact_refit(delta_p, orders, info_series) -> dict:
    """estimate_all's refit of one history with no prior, in exact rational
    arithmetic (fractions.Fraction) on the float inputs: exact sums,
    Cramer's rule, residual variances and the rho clamp. Returns a dict:

    impact_fitted     the impact design is fitted: n >= 2, its determinant
                      is > 0 and its condition number is <= COND_LIMIT
    cond              that condition number (to about 60 digits), or None
                      where the determinant is <= 0
    theta_hat, gamma_hat, sigma_eps_sq_hat
                      the impact fit wherever the determinant is > 0, None
                      otherwise
    t_ratio           theta_hat / (THETA_TSTAT_MIN * its standard error),
                      squared, where theta_hat > 0, n >= 3 and the residual
                      variance is > 0; None otherwise
    impact_valid      fitted and theta_hat > 0 and n >= 3, and t_ratio >= 1
                      or a zero residual variance
    rho_fitted        the lag series is not all zero
    rho_raw           the unclamped rho fit where rho_fitted, else None
    rho_hat, rho_valid, sigma_eta_sq_hat
                      the clamped fit, raw == clamped, and its residual
                      variance (n >= 2); None and False where not fitted
    """
    dp = [Fraction(v) for v in np.asarray(delta_p, dtype=float).tolist()]
    b = [Fraction(v) for v in np.asarray(orders, dtype=float).tolist()]
    info = [Fraction(v) for v in np.asarray(info_series, dtype=float).tolist()]
    x, lag = info[1:], info[:-1]
    n = len(dp)

    def dot(u, v):
        return sum((p * q for p, q in zip(u, v)), Fraction(0))

    out = dict(impact_fitted=False, cond=None, theta_hat=None, gamma_hat=None,
               sigma_eps_sq_hat=None, t_ratio=None, impact_valid=False,
               rho_fitted=False, rho_raw=None, rho_hat=None, rho_valid=False,
               sigma_eta_sq_hat=None)
    if n >= 2:
        sbb, sxb, sxx = dot(b, b), dot(x, b), dot(x, x)
        det = sbb * sxx - sxb * sxb
        if det > 0:
            # hi * lo = det, so hi / lo = hi^2 / det; tr^2 - 4 det >= 0 exactly
            tr = sbb + sxx
            hi = (tr + _sqrt(tr * tr - 4 * det)) / 2
            out["cond"] = hi * hi / det
            spb, spx = dot(dp, b), dot(dp, x)
            theta = (sxx * spb - sxb * spx) / det
            gamma = (sbb * spx - sxb * spb) / det
            r = [p - theta * q - gamma * v for p, q, v in zip(dp, b, x)]
            s2e = dot(r, r) / (n - 1)
            out.update(impact_fitted=out["cond"] <= COND_LIMIT, theta_hat=theta,
                       gamma_hat=gamma, sigma_eps_sq_hat=s2e)
            if theta > 0 and n >= 3:
                var_theta = s2e * (n - 1) / (n - 2) * sxx / det
                if var_theta > 0:
                    out["t_ratio"] = theta * theta / (Fraction(THETA_TSTAT_MIN) ** 2 * var_theta)
                out["impact_valid"] = (out["impact_fitted"]
                                       and (var_theta == 0 or out["t_ratio"] >= 1))
    den = dot(lag, lag)
    if den != 0:
        raw = dot(lag, x) / den
        clamp = Fraction(RHO_CLAMP)
        rho = min(max(raw, -clamp), clamp)
        out.update(rho_fitted=True, rho_raw=raw, rho_hat=rho, rho_valid=rho == raw)
        if n >= 2:
            r = [v - rho * w for v, w in zip(x, lag)]
            out["sigma_eta_sq_hat"] = dot(r, r) / (n - 1)
    return out


def student_t_cdf(t, nu: int):
    """P(T <= t) for Student's t with integer nu >= 1 degrees of freedom, on
    floats or arrays, from Abramowitz & Stegun 26.7.3 (odd nu) and 26.7.4
    (even nu): with theta = arctan(t / sqrt(nu)), the two-sided
    A(t | nu) = P(|T| <= t) is a finite series in cos(theta), odd in t, and
    P(T <= t) = (1 + A) / 2."""
    theta = np.arctan(np.asarray(t, dtype=float) / math.sqrt(nu))
    sin, cos2 = np.sin(theta), np.cos(theta) ** 2
    if nu % 2 == 0:
        # sin(theta) * (1 + 1/2 cos^2 + 1*3/(2*4) cos^4 + ... up to cos^(nu-2))
        term = total = np.ones_like(theta)
        for j in range(1, nu // 2):
            term = term * cos2 * (2 * j - 1) / (2 * j)
            total = total + term
        two_sided = sin * total
    else:
        # (2/pi) (theta + sin(theta) (cos + 2/3 cos^3 + ... up to cos^(nu-2)))
        term = np.cos(theta)
        total = np.zeros_like(theta)
        for j in range(1, (nu - 1) // 2 + 1):
            total = total + term
            term = term * cos2 * (2 * j) / (2 * j + 1)
        two_sided = 2.0 / math.pi * (theta + sin * total)
    return 0.5 + 0.5 * two_sided


def kolmogorov_q(lam: float) -> float:
    """P(K > lam) for the Kolmogorov distribution, the limit law of
    sqrt(n) times the one-sample KS statistic: the alternating series
    2 sum_k (-1)^(k-1) exp(-2 k^2 lam^2) for lam >= 1.18, and its Jacobi
    dual 1 - sqrt(2 pi)/lam sum_k exp(-(2k-1)^2 pi^2 / (8 lam^2)) below,
    where the first converges slowly. Both series run to 100 terms."""
    if lam <= 0.0:
        return 1.0
    if lam < 1.18:
        y = math.exp(-math.pi ** 2 / (8.0 * lam * lam))
        total = sum(y ** ((2 * k - 1) ** 2) for k in range(1, 101))
        return 1.0 - math.sqrt(2.0 * math.pi) / lam * total
    return 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
                     for k in range(1, 101))


def ks_pvalue(sample, cdf) -> float:
    """The one-sample Kolmogorov-Smirnov p-value of sample against the
    distribution function cdf (which takes an array): the statistic
    D = sup |F_n - F| and P(K > (sqrt(n) + 0.12 + 0.11/sqrt(n)) D), with
    Stephens's (1970) finite-n correction to the asymptotic law."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    f = cdf(x)
    d = max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n))
    root = math.sqrt(n)
    return kolmogorov_q((root + 0.12 + 0.11 / root) * d)
