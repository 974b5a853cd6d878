"""Every refusal of the library's entry points, one row each.

A row holds the entry's name, a call and the whole message of the
ValueError the call must raise; the message names the field first. A new
refusal gets a row in LIBRARY_REFUSALS. Rows that tests/test_cli.py's
_REFUSALS already drives through a hand-built RunSpec (which builds the
MarketParams and the ExecutionMandate) are not repeated here, and neither
are order_rule's rows of RULE_CASES in tests/test_strategies.py, which run
through all three of its forms.
"""

import math
import re
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import BASELINE

from bestexec import (ExecutionMandate, NoisePath, ar_adjustment_factor,
                      ar_rho_factor, check_seed, estimate_all, fit_information,
                      generate_noise_path, naive_expected_cost, naive_order,
                      per_share_improvement, run_convergence, run_episode, run_monte_carlo,
                      simulation, solve_coefficients, stationary_info_component_std,
                      substream_seed, summarize_convergence)
from bestexec.market import _noise_rows

MANDATE = ExecutionMandate(1e5, 50.0, 20)
# the parameters and mandate of a two-period study
STUDY = (BASELINE, ExecutionMandate(100.0, 50.0, 2))
PARAM_FIELDS = ("theta", "gamma", "rho", "sigma_eps_sq", "sigma_eta_sq")
MANDATE_FIELDS = ("s0", "p0", "horizon")
CHOOSE = "(choose from naive, informed, ar)"


def _episode(kind, T):
    return run_episode(kind, BASELINE, replace(MANDATE, horizon=T),
                       generate_noise_path(T, T, BASELINE.sigma_eps_sq, BASELINE.sigma_eta_sq))


def _type_message(field, value):
    """The message of a value of the wrong type: a bool horizon is named by
    the integer check, every other one by the real check."""
    kind = "an integer" if field == "horizon" and isinstance(value, bool) else "a real number"
    return f"{field}: must be {kind} (got {value!r})"


# each public entry that keys on a seed, as (the name its message gives, call)
_SEEDED_ENTRIES = {
    "generate_noise_path": ("seed", lambda seed: generate_noise_path(seed, 4, 1.0, 1.0)),
    "substream_seed": ("seed", lambda seed: substream_seed(seed, 0)),
    "substream_seed index": ("index", lambda seed: substream_seed(0, seed)),
    "run_monte_carlo": ("base_seed", lambda seed: run_monte_carlo(1, ("naive",), *STUDY, seed)),
    "run_convergence": ("base_seed", lambda seed: run_convergence(1, *STUDY, seed)),
    "check_seed": ("base_seed", lambda seed: check_seed(seed, "base_seed")),
}
_BAD_SEEDS = [(1.5, "must be an integer (got 1.5)"), (1.0, "must be an integer (got 1.0)"),
              (True, "must be an integer (got True)"), ("3", "must be an integer (got '3')"),
              (-1, "must be in [0, 2**64) (got -1)"),
              (2 ** 64, f"must be in [0, 2**64) (got {2 ** 64})")]

# noise generation's inputs other than the seed, as (horizon, sigma_eps_sq,
# sigma_eta_sq, message)
_BAD_NOISE = [
    (True, 0.01, 0.001, "horizon: must be an integer (got True)"),
    (2.5, 0.01, 0.001, "horizon: must be an integer (got 2.5)"),
    (0, 0.01, 0.001, "horizon: must be >= 1 (got 0)"),
    (20, math.nan, 0.001, "sigma_eps_sq: must be finite (got nan)"),
    (20, 0.01, math.inf, "sigma_eta_sq: must be finite (got inf)"),
    (20, -0.01, 0.001, "sigma_eps_sq: must be >= 0 (got -0.01)"),
    (20, 0.01, -0.001, "sigma_eta_sq: must be >= 0 (got -0.001)"),
    (20, "0.01", 0.001, "sigma_eps_sq: must be a real number (got '0.01')"),
]

# One row a refusal: (the entry's name, a call, the whole message)
LIBRARY_REFUSALS = [
    # market: the value types
    ("MarketParams", partial(replace, BASELINE, rho=1.0), "rho: |rho| must be < 1 (got 1.0)"),
    ("MarketParams", partial(replace, BASELINE, rho=-1.0), "rho: |rho| must be < 1 (got -1.0)"),
    ("MarketParams", partial(replace, BASELINE, sigma_eta_sq=-0.001),
     "sigma_eta_sq: must be >= 0 (got -0.001)"),
    ("ExecutionMandate", partial(replace, MANDATE, s0=0.0), "s0: must be > 0 (got 0.0)"),
    # an int horizon is a count however large, but a float one must be finite
    *(("ExecutionMandate", partial(replace, MANDATE, horizon=value),
       f"horizon: must be finite (got {value})") for value in (math.nan, math.inf, -math.inf)),
    *(("ExecutionMandate", partial(replace, MANDATE, horizon=value),
       f"horizon: must be an integer (got {value})") for value in (2.5, True, False, 20.0)),
    *((name, partial(replace, record, **{field: value}), _type_message(field, value))
      for name, record, fields in (("MarketParams", BASELINE, PARAM_FIELDS),
                                   ("ExecutionMandate", MANDATE, MANDATE_FIELDS))
      for field in fields for value in ("5e-5", None, True, False, [1.0])),
    ("NoisePath", partial(NoisePath, np.zeros((2, 3)), np.zeros(2)),
     "eps: must be one-dimensional (got shape (2, 3))"),
    ("NoisePath", partial(NoisePath, np.zeros(1), 0.5),
     "eta: must be one-dimensional (got shape ())"),
    *(("NoisePath", partial(NoisePath, eps, eta), "eps and eta must have equal length")
      for eps, eta in (([0.1, 0.2], [0.3]), (np.zeros(3), np.zeros(4)))),
    # market: seeds and noise
    *((entry, partial(call, seed), f"{name}: {wording}")
      for entry, (name, call) in _SEEDED_ENTRIES.items() for seed, wording in _BAD_SEEDS),
    *((entry, partial(call, *args), message) for *args, message in _BAD_NOISE
      for entry, call in (("market._noise_rows", partial(_noise_rows, 1, [1])),
                          ("generate_noise_path", partial(generate_noise_path, 1)))),
    ("stationary_info_component_std", partial(stationary_info_component_std, 5.0, 1.0, 0.001),
     "rho: |rho| must be < 1 for a stationary process (got 1.0)"),
    ("stationary_info_component_std", partial(stationary_info_component_std, math.nan, 0.5, 1.0),
     "gamma: must be finite (got nan)"),
    ("stationary_info_component_std", partial(stationary_info_component_std, 1.0, "0.5", 1.0),
     "rho: must be a real number (got '0.5')"),
    ("stationary_info_component_std", partial(stationary_info_component_std, 1.0, 0.5, -1.0),
     "sigma_eta_sq: must be >= 0 (got -1.0)"),
    ("stationary_info_component_std", partial(stationary_info_component_std, 1.0, 0.5, math.nan),
     "sigma_eta_sq: must be finite (got nan)"),
    # strategies
    *(("naive_order", partial(naive_order, 1000.0, t, 20), f"t: period {t} outside 1..20")
      for t in (0, 21)),
    ("solve_coefficients", partial(solve_coefficients, replace(BASELINE, theta=0.0), 5),
     "theta: must be > 0 for a convex Bellman step (got 0.0)"),
    # MarketParams refuses a NaN theta; the solver's own guard must hold too
    ("solve_coefficients", partial(solve_coefficients, SimpleNamespace(
        theta=math.nan, gamma=5.0, rho=0.5, sigma_eps_sq=0.0, sigma_eta_sq=0.001), 20),
     "theta: must be > 0 for a convex Bellman step (got nan)"),
    *(("solve_coefficients", partial(solve_coefficients, BASELINE, bad),
       f"horizon: must be an integer (got {bad!r})") for bad in (2.5, 2.0, True, "3")),
    ("CoefficientSchedule.at", lambda: solve_coefficients(BASELINE, 20).at(0),
     "t: period 0 outside schedule horizon 20"),
    *(("ar_adjustment_factor", partial(ar_adjustment_factor, theta, 5.0, rho, 1, 20), message)
      for theta, rho, message in ((0.0, 0.5, "theta_hat: must be > 0 (got 0.0)"),
                                  (math.nan, 0.5, "theta_hat: must be > 0 (got nan)"),
                                  (5e-5, 1.0, "rho_hat: |rho_hat| must be < 1 (got 1.0)"))),
    ("ar_rho_factor", partial(ar_rho_factor, np.array([1.0]), 5, 20),
     "rho_hat: |rho_hat| must be < 1 (got 1.0)"),
    # valuation
    ("naive_expected_cost", partial(naive_expected_cost, 1e5, 50.0, 21, 20, 5e-5),
     "t: period 21 outside 1..20"),
    # estimation
    ("estimate_all", partial(estimate_all, np.ones(3), np.ones(2), np.arange(4.0)),
     "orders: must have len(delta_p) = 3 values (got 2)"),
    *(("estimate_all", partial(estimate_all, np.ones(2), np.ones(2), info),
       f"info_series: must have len(delta_p) + 1 = 3 values (got {len(info)})")
      for info in (np.arange(2.0), np.arange(4.0))),
    *(("fit_information", partial(fit_information, info),
       f"info_series: must be a 2-D numpy array of shape (n_sims, T + 1) (got {got})")
      for info, got in ((np.zeros(3), "shape (3,)"), (np.zeros((2, 3, 4)), "shape (2, 3, 4)"),
                        ([[0.0, 1.0], [1.0, 2.0]], "a list"))),
    # simulation
    ("run_episode", lambda: run_episode("naive", BASELINE, MANDATE, generate_noise_path(
        0, 19, 0.01, 0.001)), "noise_path: must have the mandate's horizon of 20 periods (got 19)"),
    *(("per_share_improvement", partial(per_share_improvement, 1.0, 2.0, s0), message)
      for s0, message in ((0.0, "s0: must be > 0 (got 0.0)"), (-1.0, "s0: must be > 0 (got -1.0)"),
                          (math.nan, "s0: must be finite (got nan)"),
                          (math.inf, "s0: must be finite (got inf)"),
                          ("1", "s0: must be a real number (got '1')"))),
    ("summarize_convergence", partial(summarize_convergence, []),
     "episodes: need at least one episode"),
    ("summarize_convergence", lambda: summarize_convergence([_episode("naive", 20)]),
     "episodes: must come from the 'ar' strategy (estimates_log missing)"),
    ("summarize_convergence", lambda: summarize_convergence([_episode("ar", 3), _episode("ar", 4)]),
     "episodes: every episode must have the same horizon (got 3 and 4)"),
    # the strategy set is checked before n_sims: a str would be read as its
    # characters, None as no set at all, a set in an order that follows
    # PYTHONHASHSEED and an iterator only once
    ("run_monte_carlo", partial(run_monte_carlo, 0, ("naive", "twap"), *STUDY, 0),
     f"strategy_set: unknown strategy 'twap' {CHOOSE}"),
    *(("run_monte_carlo", partial(run_monte_carlo, 0, strategy_set, *STUDY, 0),
       f"strategy_set: must be a sequence of names (got {strategy_set!r})")
      for strategy_set in ("ar", None, 5, {"ar"}, frozenset({"ar"}), iter(["ar"]), {"ar": 1})),
    # a name is checked before it is hashed, and an empty list runs nothing
    ("run_monte_carlo", partial(run_monte_carlo, 2, [["ar"]], *STUDY, 0),
     f"strategy_set: unknown strategy ['ar'] {CHOOSE}"),
    ("run_monte_carlo", partial(run_monte_carlo, 2, (), *STUDY, 0),
     "strategy_set: at least one strategy required"),
    *((entry, partial(study, n_sims), f"n_sims: must be {wording} (got {n_sims!r})")
      for entry, study in (("run_monte_carlo", lambda n: run_monte_carlo(n, ("naive",), *STUDY, 0)),
                           ("run_convergence", lambda n: run_convergence(n, *STUDY, 0)))
      for n_sims, wording in (*((n, "an integer") for n in (True, False, 2.5, 3.0, "3", None)),
                              (0, ">= 1"))),
]


def _never_drawn(*args, **kwargs):
    raise AssertionError("noise drawn")


# an id leaves out an object's address, which changes from run to run
@pytest.mark.parametrize("entry, call, message", LIBRARY_REFUSALS, ids=[
    re.sub(" at 0x[0-9a-f]+", "", f"{entry}-{message}") for entry, _, message in LIBRARY_REFUSALS])
def test_library_refusal(monkeypatch, entry, call, message):
    # a study refuses before it draws any noise
    monkeypatch.setattr(simulation, "_noise_rows", _never_drawn)
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message


def test_a_study_with_good_inputs_draws_under_the_refusals_patch(monkeypatch):
    monkeypatch.setattr(simulation, "_noise_rows", _never_drawn)
    for study in (partial(run_monte_carlo, 2, ["ar", "ar"], *STUDY, 0),
                  partial(run_convergence, 2, *STUDY, 0)):
        with pytest.raises(AssertionError, match="^noise drawn$"):
            study()
