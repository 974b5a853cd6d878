"""Best-execution strategies for block orders under additive permanent price
impact with AR(1) market information: simulation, valuation, online
estimation and paired Monte Carlo comparison.

Every record is a frozen dataclass; one that holds arrays, lists or dicts
declares eq=False, and compares and hashes by identity."""

from .estimation import (COND_LIMIT, RHO_CLAMP, THETA_TSTAT_MIN, InformationFit,
                         ParameterEstimates, estimate_all, fit_information)
from .market import (ExecutionMandate, MarketParams, NoisePath, check_seed,
                     generate_noise_path, info_step, price_step,
                     stationary_info_component_std, substream_seed)
from .simulation import (ESTIMATE_FIELDS, Blotter, ConvergenceSummary, MonteCarloSummary,
                         RunResult, StrategyStats, per_share_improvement,
                         run_convergence, run_episode, run_monte_carlo,
                         summarize_convergence)
from .strategies import (STRATEGIES, TAGS, CoefficientSchedule, OrderDecision,
                         ar_adjustment_factor, ar_rho_factor, decide_order, naive_order,
                         order_rule, solve_coefficients, strategy_list, usable)
from .valuation import cost_sensitivity, informed_expected_cost, naive_expected_cost

__version__ = "0.1.0"
