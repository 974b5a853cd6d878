"""Independent oracles used by the tests.

The brute-force execution oracle never touches the production backward
recursion: it evaluates the exact expected cost of an arbitrary
history-affine policy by propagating Gaussian moments, identifies the
(exactly quadratic) cost as a function of the policy coefficients from
function evaluations alone, and minimizes it with one linear solve. For
small horizons that global optimum is the ground truth the informed strategy
must reproduce.
"""

import numpy as np


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
