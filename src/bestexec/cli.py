"""Command-line front end.

Commands
--------
simulate     one episode -> blotter CSV with a machine-readable JSON footer
montecarlo   paired study -> summary + figure-data CSVs
convergence  online-estimate trajectories across simulations -> CSV

Configuration flows flags > config file > defaults, where the defaults are
the baseline calibration (theta 5e-5, gamma 5, rho 0.5, sigma_eps_sq 0.125^2,
sigma_eta_sq 0.001, s0 100000, p0 50, horizon 20). The config file grammar is
flat ``key = value`` lines; '#' starts a comment, blank lines are ignored,
keys match the flag names with underscores, and the strategy key takes a
comma-separated list. Unknown keys are rejected by name.

Machine files render numbers at 17 significant digits (bit-stable round
trips); the human footer on stdout uses 6. Outputs carry no timestamps, so a
fixed spec produces byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .market import (ExecutionMandate, MarketParams, check_seed, generate_noise_path,
                     substream_seed)
# summarize_convergence is unused here but stays importable under this name:
# bench/tracer.py wraps bestexec.cli.summarize_convergence
from .simulation import (ESTIMATE_FIELDS, run_convergence, run_episode,  # noqa: F401
                         run_monte_carlo, summarize_convergence)
from .strategies import STRATEGIES

__all__ = ["RunSpec", "SpecError", "parse_config", "render_config",
           "cmd_simulate", "cmd_montecarlo", "cmd_convergence", "main"]

BLOTTER_HEADER = "period,price,shares_bought,shares_remaining,market_information,accumulated_cost"
CONVERGENCE_HEADER = "period," + ",".join(
    f"{name}_mean,{name}_sd" for name in ESTIMATE_FIELDS)


class SpecError(ValueError):
    """A configuration value violates an invariant; message names the field."""


@dataclass(frozen=True)
class RunSpec:
    """A fully validated run configuration."""

    theta: float = 5e-5
    gamma: float = 5.0
    rho: float = 0.5
    sigma_eps_sq: float = 0.125 ** 2
    sigma_eta_sq: float = 0.001
    s0: float = 100000.0
    p0: float = 50.0
    horizon: int = 20
    strategies: tuple[str, ...] = ("naive", "informed", "ar")
    n_sims: int = 100
    seed: int = 0
    out_dir: str = "."
    clamp_nonneg_orders: bool = False
    ar_value_toggle: bool = False

    def market_params(self) -> MarketParams:
        return MarketParams(self.theta, self.gamma, self.rho,
                            self.sigma_eps_sq, self.sigma_eta_sq)

    def mandate(self) -> ExecutionMandate:
        return ExecutionMandate(self.s0, self.p0, self.horizon)


_FLOAT_KEYS = ("theta", "gamma", "rho", "sigma_eps_sq", "sigma_eta_sq", "s0", "p0")
_INT_KEYS = ("horizon", "n_sims", "seed")
_BOOL_KEYS = ("clamp_nonneg_orders", "ar_value_toggle")
_ALL_KEYS = _FLOAT_KEYS + _INT_KEYS + _BOOL_KEYS + ("strategy", "out_dir")


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise SpecError(f"{key}: expected a boolean, got {raw!r}")


def _parse_strategies(key: str, raw: str) -> tuple[str, ...]:
    names = tuple(s.strip() for s in raw.split(",") if s.strip())
    for name in names:
        if name not in STRATEGIES:
            raise SpecError(f"{key}: unknown strategy {name!r} "
                            f"(choose from {', '.join(STRATEGIES)})")
    if not names:
        raise SpecError(f"{key}: at least one strategy required")
    return names


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpecError(f"config: cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise SpecError(f"config: line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _ALL_KEYS:
            raise SpecError(f"{key}: unknown key")
        values[key] = _coerce(key, raw)
    return values


def _coerce(key: str, raw: str):
    try:
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
    except ValueError as exc:
        raise SpecError(f"{key}: unparsable value {raw!r}") from exc
    if key in _BOOL_KEYS:
        return _parse_bool(key, raw)
    if key == "strategy":
        return _parse_strategies(key, raw)
    return raw  # out_dir


def validate(spec: RunSpec) -> RunSpec:
    """Check every field against its type invariants; raise SpecError naming
    the offending field."""
    try:
        spec.market_params()
        spec.mandate()
        check_seed(spec.seed)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    if spec.n_sims < 1:
        raise SpecError(f"n_sims: must be >= 1 (got {spec.n_sims})")
    if not spec.strategies:
        raise SpecError("strategy: at least one strategy required")
    for name in spec.strategies:
        if name not in STRATEGIES:
            raise SpecError(f"strategy: unknown strategy {name!r}")
    if ("informed" in spec.strategies or "ar" in spec.strategies) and spec.theta <= 0.0:
        raise SpecError(f"theta: must be > 0 for the informed/ar strategies (got {spec.theta})")
    return spec


class _FlagParser(argparse.ArgumentParser):
    """An argument parser that raises SpecError instead of printing its usage
    block and exiting."""

    def error(self, message):
        raise SpecError(f"argv: {message}")


@functools.cache
def _flag_parser() -> _FlagParser:
    """The flag parser, built once per process: building it costs several
    parses, and parse_known_args keeps no state on it between calls."""
    parser = _FlagParser(add_help=False, exit_on_error=False)
    # numbers arrive as strings and go through _coerce, as in config files
    for key in _FLOAT_KEYS + _INT_KEYS:
        parser.add_argument("--" + key.replace("_", "-"), dest=key)
    parser.add_argument("--strategy", dest="strategy", action="append",
                        choices=STRATEGIES)
    parser.add_argument("--out-dir", dest="out_dir")
    parser.add_argument("--config", dest="config")
    for key in _BOOL_KEYS:
        parser.add_argument("--" + key.replace("_", "-"), dest=key,
                            action="store_const", const=True)
    return parser


_NUMBER_FLAGS = {"--" + key.replace("_", "-") for key in _FLOAT_KEYS + _INT_KEYS}


def _attach_number_values(argv: list[str]) -> list[str]:
    """Rewrite `--theta VALUE` as `--theta=VALUE`, so that argparse does not
    read a value such as -1e-5 (not a negative number to its matcher) as a
    flag."""
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in _NUMBER_FLAGS and i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out.append(f"{arg}={argv[i + 1]}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def parse_config(argv: list[str],
                 default_strategies: tuple[str, ...] | None = None) -> RunSpec:
    """Build a validated RunSpec from flag-style argv (no subcommand).

    Precedence: flags override config-file values override baseline defaults.
    """
    try:
        ns, extra = _flag_parser().parse_known_args(_attach_number_values(argv))
    except argparse.ArgumentError as exc:
        name = (exc.argument_name or "argv").lstrip("-").replace("-", "_")
        raise SpecError(f"{name}: {exc.message}") from exc
    if extra:
        raise SpecError(f"argv: unknown arguments {' '.join(extra)!r}")
    values = {}
    if default_strategies is not None:
        values["strategies"] = tuple(default_strategies)
    if ns.config is not None:
        file_values = _read_config_file(ns.config)
        if "strategy" in file_values:
            file_values["strategies"] = file_values.pop("strategy")
        values.update(file_values)
    for key in _FLOAT_KEYS + _INT_KEYS:
        if getattr(ns, key) is not None:
            values[key] = _coerce(key, getattr(ns, key))
    for key in _BOOL_KEYS + ("out_dir",):
        flag_val = getattr(ns, key)
        if flag_val is not None:
            values[key] = flag_val
    if ns.strategy is not None:
        values["strategies"] = tuple(dict.fromkeys(ns.strategy))
    return validate(replace(RunSpec(), **values))


def render_config(spec: RunSpec) -> str:
    """Config-file text that parses back to exactly this spec.

    Raises SpecError naming out_dir if the file grammar cannot carry its
    value: one holding a '#' or a line break, or with whitespace at either
    end, would read back as another value or fail to parse."""
    out_dir = spec.out_dir
    if ("#" in out_dir or out_dir != out_dir.strip()
            or len(f"x{out_dir}x".splitlines()) != 1):
        raise SpecError(f"out_dir: cannot be written to a config file (got {out_dir!r})")
    lines = []
    for key in _FLOAT_KEYS:
        lines.append(f"{key} = {format(getattr(spec, key), '.17g')}")
    for key in _INT_KEYS:
        lines.append(f"{key} = {getattr(spec, key)}")
    lines.append(f"strategy = {','.join(spec.strategies)}")
    lines.append(f"out_dir = {spec.out_dir}")
    for key in _BOOL_KEYS:
        lines.append(f"{key} = {'true' if getattr(spec, key) else 'false'}")
    return "\n".join(lines) + "\n"


def _g17(v: float) -> str:
    return format(float(v), ".17g")


def _require_finite_outputs(named_values) -> None:
    """Raise SpecError naming the first of the (name, numbers) pairs that
    holds a NaN or an infinity: the spec's numbers overflowed."""
    for name, values in named_values:
        if not all(map(math.isfinite, values)):
            raise SpecError(f"overflow: {name} is not finite")


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def cmd_simulate(spec: RunSpec) -> int:
    """Run one episode and write <out_dir>/blotter.csv: header, T+1 rows, then
    one JSON footer line with actual_cost, expected_cost, improvement_per_share."""
    if len(spec.strategies) != 1:
        raise SpecError(f"strategy: simulate needs exactly one strategy "
                        f"(got {len(spec.strategies)})")
    strategy = spec.strategies[0]
    params = spec.market_params()
    mandate = spec.mandate()
    path = generate_noise_path(substream_seed(spec.seed, 0), spec.horizon,
                               spec.sigma_eps_sq, spec.sigma_eta_sq)
    with np.errstate(all="ignore"):  # overflow is reported below, by name
        result = run_episode(strategy, params, mandate, path,
                             clamp_nonneg_orders=spec.clamp_nonneg_orders,
                             ar_expected_cost_from_estimates=spec.ar_value_toggle)
    rows = [(row.price, row.shares_bought, row.shares_remaining, row.market_information,
             row.accumulated_cost) for row in result.blotter]
    _require_finite_outputs([
        ("total cost", [result.actual_cost]),
        ("expected cost", [result.expected_cost]),
        ("improvement per share", [result.improvement_per_share]),
        *zip(("price", "shares bought", "shares remaining", "market information",
              "accumulated cost"), zip(*rows)),
    ])
    lines = [BLOTTER_HEADER]
    for row in result.blotter:
        lines.append(",".join([
            str(row.period), _g17(row.price), _g17(row.shares_bought),
            _g17(row.shares_remaining), _g17(row.market_information),
            _g17(row.accumulated_cost),
        ]))
    footer = {"actual_cost": result.actual_cost,
              "expected_cost": result.expected_cost,
              "improvement_per_share": result.improvement_per_share}
    lines.append(json.dumps(footer, sort_keys=True))
    _write(Path(spec.out_dir) / "blotter.csv", "\n".join(lines) + "\n")
    print(f"Actual Cost: {result.actual_cost:.6g}")
    print(f"Expected Cost: {result.expected_cost:.6g}")
    print(f"Improvement: {result.improvement_per_share:.6g}")
    return 0


def cmd_montecarlo(spec: RunSpec) -> int:
    """Run the paired study and write, under out_dir: summary.txt (key = value),
    order_size_mean.csv, accumulated_cost_variance.csv and total_costs.csv."""
    with np.errstate(all="ignore"):  # overflow is reported below, by name
        summary = run_monte_carlo(spec.n_sims, spec.strategies, spec.market_params(),
                                  spec.mandate(), spec.seed,
                                  clamp_nonneg_orders=spec.clamp_nonneg_orders)
    checks = [("benchmark expected cost", [summary.benchmark_expected_cost])]
    for strat in summary.strategies:
        st = summary.stats[strat]
        checks += [(f"{strat} total cost", st.per_sim_actual_cost),
                   (f"{strat} mean improvement", [st.mean_improvement]),
                   (f"{strat} sd improvement", [st.sd_improvement]),
                   (f"{strat} periodwise mean improvement", [st.mean_improvement_periodwise]),
                   (f"{strat} mean order size", st.mean_order_size),
                   (f"{strat} accumulated cost variance", st.accumulated_cost_variance)]
    _require_finite_outputs(checks)
    out = Path(spec.out_dir)

    lines = [
        f"n_sims = {summary.n_sims}",
        f"base_seed = {summary.base_seed}",
        f"strategy = {','.join(summary.strategies)}",
        f"benchmark_expected_cost = {_g17(summary.benchmark_expected_cost)}",
    ]
    for strat in summary.strategies:
        st = summary.stats[strat]
        lines.append(f"{strat}_mean_improvement = {_g17(st.mean_improvement)}")
        lines.append(f"{strat}_sd_improvement = {_g17(st.sd_improvement)}")
        lines.append(f"{strat}_mean_improvement_periodwise = "
                     f"{_g17(st.mean_improvement_periodwise)}")
    _write(out / "summary.txt", "\n".join(lines) + "\n")

    header = "period," + ",".join(summary.strategies)
    for fname, attr in (("order_size_mean.csv", "mean_order_size"),
                        ("accumulated_cost_variance.csv", "accumulated_cost_variance")):
        rows = [header]
        for t in range(1, spec.horizon + 1):
            cells = [str(t)] + [_g17(getattr(summary.stats[s], attr)[t - 1])
                                for s in summary.strategies]
            rows.append(",".join(cells))
        _write(out / fname, "\n".join(rows) + "\n")

    rows = ["sim," + ",".join(summary.strategies)]
    for i in range(summary.n_sims):
        cells = [str(i)] + [_g17(summary.stats[s].per_sim_actual_cost[i])
                            for s in summary.strategies]
        rows.append(",".join(cells))
    _write(out / "total_costs.csv", "\n".join(rows) + "\n")

    for strat in summary.strategies:
        st = summary.stats[strat]
        print(f"{strat}: mean improvement {st.mean_improvement:.6g}, "
              f"sd {st.sd_improvement:.6g}")
    return 0


def cmd_convergence(spec: RunSpec) -> int:
    """Run n_sims online-strategy episodes and write <out_dir>/convergence.csv
    with per-period mean and spread of the five estimates. A NaN cell marks
    a period where no simulation has fitted that estimate yet; any other
    non-finite cell is an overflow and exits 2 before the file is written."""
    if "ar" not in spec.strategies:
        raise SpecError("strategy: convergence requires the 'ar' strategy")
    with np.errstate(all="ignore"):  # overflow is reported below, by name
        conv = run_convergence(spec.n_sims, spec.market_params(), spec.mandate(),
                               spec.seed, clamp_nonneg_orders=spec.clamp_nonneg_orders)
    for name in ESTIMATE_FIELDS:
        fitted = conv.n_values[name] > 0
        for stat in ("mean", "sd"):
            cells = getattr(conv, stat)[name]
            if np.isinf(cells).any() or np.isnan(cells[fitted]).any():
                raise SpecError(f"overflow: {name} {stat} is not finite")
    rows = [CONVERGENCE_HEADER]
    for idx, t in enumerate(conv.periods):
        cells = [str(int(t))]
        for name in ESTIMATE_FIELDS:
            cells.append(_g17(conv.mean[name][idx]))
            cells.append(_g17(conv.sd[name][idx]))
        rows.append(",".join(cells))
    _write(Path(spec.out_dir) / "convergence.csv", "\n".join(rows) + "\n")
    print(f"wrote convergence.csv for {conv.n_episodes} episodes")
    return 0


_COMMANDS = {"simulate": cmd_simulate, "montecarlo": cmd_montecarlo,
             "convergence": cmd_convergence}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0
    command = argv[0]
    if command not in _COMMANDS:
        print(f"error: command: unknown command {command!r} "
              f"(choose from {', '.join(_COMMANDS)})", file=sys.stderr)
        return 2
    try:
        default_strategies = ("naive",) if command == "simulate" else None
        spec = parse_config(argv[1:], default_strategies=default_strategies)
        return _COMMANDS[command](spec)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
