"""Run one episode of each strategy on the same noise path and print the
blotters side by side.

All three strategies face identical shocks, so every difference in the
blotters comes from the order rule alone: the uniform split buys 5000 shares
every period, the informed rule tilts with the observed information, and the
online rule starts uniform and begins tilting once its estimates are usable.
"""

import bestexec as bx

params = bx.MarketParams(theta=5e-5, gamma=5.0, rho=0.5,
                         sigma_eps_sq=0.125 ** 2, sigma_eta_sq=0.001)
mandate = bx.ExecutionMandate(s0=100000.0, p0=50.0, horizon=20)
path = bx.generate_noise_path(seed=12, horizon=20,
                              sigma_eps_sq=params.sigma_eps_sq,
                              sigma_eta_sq=params.sigma_eta_sq)

for kind in ("naive", "informed", "ar"):
    res = bx.run_episode(kind, params, mandate, path)
    print(f"\n=== {kind} strategy ===")
    print(f"{'Period':>6} {'Price':>10} {'Shares Bought':>14} "
          f"{'Shares Remaining':>17} {'Information':>12} {'Accum. Cost':>14}")
    # the blotter holds columns; zip reads them back as rows
    for period, price, bought, remaining, info, cost in zip(*res.blotter):
        print(f"{period:>6} {price:>10.5f} {bought:>14.4f} "
              f"{remaining:>17.4f} {info:>12.8f} {cost:>14.1f}")
    print(f"Actual Cost: {res.actual_cost:.1f}")
    print(f"Expected Cost: {res.expected_cost:.1f}")
    print(f"Improvement: {res.improvement_per_share:.7f}")
