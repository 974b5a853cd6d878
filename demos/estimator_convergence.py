"""Convergence of the online least-squares estimates toward the true market
parameters.

The online strategy refits (theta, gamma, rho, sigma_eps_sq, sigma_eta_sq)
after every period. Across many episodes the cross-simulation mean of each
estimate drifts toward the truth while the spread shrinks; rho and
sigma_eta_sq converge noticeably more slowly than the price-equation
parameters because a 20-period information sample is short.
"""

import bestexec as bx

params = bx.MarketParams(theta=5e-5, gamma=5.0, rho=0.5,
                         sigma_eps_sq=0.125 ** 2, sigma_eta_sq=0.001)
mandate = bx.ExecutionMandate(s0=100000.0, p0=50.0, horizon=20)

conv = bx.run_convergence(200, params, mandate, base_seed=7)

truth = {"theta_hat": params.theta, "gamma_hat": params.gamma,
         "rho_hat": params.rho, "sigma_eps_sq_hat": params.sigma_eps_sq,
         "sigma_eta_sq_hat": params.sigma_eta_sq}

for name, true_val in truth.items():
    print(f"\n{name} (true value {true_val:g})")
    print(f"{'period':>6} {'mean':>14} {'sd':>14}")
    for t in (3, 5, 10, 15, 20):
        print(f"{t:>6} {conv.mean[name][t - 1]:>14.6g} {conv.sd[name][t - 1]:>14.6g}")
