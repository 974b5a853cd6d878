"""Best-execution strategies for block orders under additive permanent price
impact with AR(1) market information: simulation, valuation, online
estimation and paired Monte Carlo comparison."""

from .estimation import (COND_LIMIT, RHO_CLAMP, EstimateArrays, ParameterEstimates,
                         estimate_all, estimate_all_batch)
from .market import (ExecutionMandate, MarketParams, NoisePath, check_seed,
                     generate_noise_arrays, generate_noise_path, info_step,
                     noise_digest, price_step, stationary_info_component_std,
                     substream_seed)
from .simulation import (ConvergenceSummary, MonteCarloSummary, PeriodRecord,
                         RunResult, StrategyStats, per_share_improvement,
                         run_convergence, run_episode, run_episode_batch,
                         run_monte_carlo, summarize_convergence)
from .strategies import (STRATEGIES, TAGS, CoefficientSchedule, OrderDecision,
                         ar_adjustment_factor, decide_order, naive_order,
                         order_rule, solve_coefficients, usable)
from .valuation import cost_sensitivity, informed_expected_cost, naive_expected_cost

__version__ = "0.1.0"
