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
and the strategy key takes a comma-separated list. Unknown keys are rejected
by name. A flag is '--' and a config key with dashes for underscores, given
as `--key VALUE` or `--key=VALUE` and read as the line `key = VALUE` would
be; the two boolean flags stand alone, a repeated --strategy joins its values
into one comma list, and `--config PATH` names a config file. A value, a
flag's or a line's, is read without the whitespace at either end. Flags are
never abbreviated, and a token that starts with '--' is never a value.

A bad value, a config file that cannot be read (as UTF-8), a size whose noise
buffer numpy cannot address or an out_dir the file system cannot encode exits
2 with one stderr line naming the field; a failed write or allocation exits 1.
Errors come in this order: the shape of argv, then the config file, then the
flag values, then the checks of the spec they build.

Machine files render numbers at 17 significant digits (bit-stable round
trips); the human footer on stdout uses 6. Outputs carry no timestamps, so a
fixed spec produces byte-identical files.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .market import (ExecutionMandate, MarketParams, _check_count, check_seed,
                     generate_noise_path, substream_seed)
# summarize_convergence is unused here but stays importable under this name:
# bench/tracer.py wraps bestexec.cli.summarize_convergence
from .simulation import (ESTIMATE_FIELDS, run_convergence, run_episode,  # noqa: F401
                         run_monte_carlo, summarize_convergence)
from .strategies import STRATEGIES, strategy_list

__all__ = ["RunSpec", "SpecError", "parse_config", "cmd_simulate", "cmd_montecarlo",
           "cmd_convergence", "main"]

BLOTTER_HEADER = "period,price,shares_bought,shares_remaining,market_information,accumulated_cost"
# json.dumps(footer, sort_keys=True) of the finite floats, which it renders by repr
FOOTER = '{"actual_cost": %r, "expected_cost": %r, "improvement_per_share": %r}\n'
CONVERGENCE_HEADER = "period," + ",".join(
    f"{name}_mean,{name}_sd" for name in ESTIMATE_FIELDS)
# the most n_sims * horizon shock pairs, 16 bytes each, numpy can address
_MAX_SHOCK_PAIRS = np.iinfo(np.intp).max // 16


class SpecError(ValueError):
    """A configuration value violates an invariant; message names the field."""


@dataclass(frozen=True)
class RunSpec:
    """A run configuration that checks itself as it is built, so a RunSpec
    that exists is valid: construction raises SpecError naming the first
    bad field, in the order of the checks of __post_init__. strategies goes
    through strategy_list, as run_monte_carlo's strategy_set does."""

    theta: float = 5e-5
    gamma: float = 5.0
    rho: float = 0.5
    sigma_eps_sq: float = 0.125 ** 2
    sigma_eta_sq: float = 0.001
    s0: float = 100000.0
    p0: float = 50.0
    horizon: int = 20
    strategies: tuple[str, ...] = STRATEGIES  # held as distinct names
    n_sims: int = 100
    seed: int = 0
    out_dir: str = "."
    clamp_nonneg_orders: bool = False
    ar_value_toggle: bool = False

    def __post_init__(self):
        try:
            # the market and mandate: both immutable, so every caller shares them
            object.__setattr__(self, "_model", (
                MarketParams(self.theta, self.gamma, self.rho,
                             self.sigma_eps_sq, self.sigma_eta_sq),
                ExecutionMandate(self.s0, self.p0, self.horizon)))
            check_seed(self.seed)
            _check_count("n_sims", self.n_sims)
            if self.horizon > _MAX_SHOCK_PAIRS:
                raise ValueError(f"horizon: must be <= {_MAX_SHOCK_PAIRS} for a noise buffer "
                                 f"numpy can address (got {self.horizon})")
            if self.n_sims > _MAX_SHOCK_PAIRS // self.horizon:
                raise ValueError(f"n_sims: must be <= {_MAX_SHOCK_PAIRS // self.horizon} at "
                                 f"horizon {self.horizon} for a noise buffer numpy can "
                                 f"address (got {self.n_sims})")
            object.__setattr__(self, "strategies", strategy_list(self.strategies, "strategy"))
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
        if ("informed" in self.strategies or "ar" in self.strategies) and self.theta <= 0.0:
            raise SpecError(f"theta: must be > 0 for the informed/ar strategies "
                            f"(got {self.theta})")
        for key in _BOOL_KEYS:
            if type(getattr(self, key)) is not bool:
                raise SpecError(f"{key}: must be a bool (got {getattr(self, key)!r})")
        if not (isinstance(self.out_dir, (str, os.PathLike))
                and isinstance(os.fspath(self.out_dir), str)):
            raise SpecError(f"out_dir: must be a str or a str path (got {self.out_dir!r})")
        if "\0" in os.fspath(self.out_dir):  # no path holds one
            raise SpecError(f"out_dir: must not hold a NUL character (got {self.out_dir!r})")

    def market_params(self) -> MarketParams:
        return self._model[0]

    def mandate(self) -> ExecutionMandate:
        return self._model[1]


_FLOAT_KEYS = ("theta", "gamma", "rho", "sigma_eps_sq", "sigma_eta_sq", "s0", "p0")
_INT_KEYS = ("horizon", "n_sims", "seed")
_BOOL_KEYS = ("clamp_nonneg_orders", "ar_value_toggle")
_ALL_KEYS = _FLOAT_KEYS + _INT_KEYS + _BOOL_KEYS + ("strategy", "out_dir")


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise SpecError(f"{key}: expected a boolean, got {raw!r}")


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise SpecError(f"config: cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise SpecError(f"config: line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _ALL_KEYS:
            raise SpecError(f"{key}: unknown key")
        values[key] = _coerce(key, raw)
    return values


def _coerce(key: str, raw: str):
    """key's value from a flag's or a config line's raw text, stripped."""
    raw = raw.strip()
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
        return tuple(name.strip() for name in raw.split(",") if name.strip())
    return raw


# every flag: "--" and a config key with dashes for underscores, or --config
_FLAGS = {"--" + key.replace("_", "-"): key for key in _ALL_KEYS + ("config",)}


def _read_flags(argv: list[str]) -> dict[str, str]:
    """Walk argv once and return its raw values by key, the last of a
    repeated flag winning, but a repeated --strategy's joined in one list.

    A flag takes its value as `--key VALUE` or `--key=VALUE`; a boolean flag
    stands alone. A token that starts with "--" is never a value. Raises
    SpecError for the shape of argv only: at the first missing value or
    explicit value of a boolean, and then for any unknown token."""
    values, unknown = {}, []
    tokens = iter(argv)
    for token in tokens:
        flag, has_value, raw = token.partition("=")
        key = _FLAGS.get(flag)
        if key is None:
            unknown.append(token)
            continue
        if key in _BOOL_KEYS:
            if has_value:
                raise SpecError(f"{key}: ignored explicit argument {raw!r}")
            raw = "true"
        elif not has_value:
            raw = next(tokens, None)
            if raw is None or raw.startswith("--"):
                raise SpecError(f"{key}: expected one argument")
        if key == "strategy" and key in values:
            raw = values[key] + "," + raw
        values[key] = raw
    if unknown:
        raise SpecError(f"argv: unknown arguments {' '.join(unknown)!r}")
    return values


def parse_config(argv: list[str],
                 default_strategies: tuple[str, ...] | None = None) -> RunSpec:
    """Build a RunSpec from flag-style argv (no subcommand).

    Precedence: flags override config-file values override baseline defaults.
    Errors in the shape of argv come first, then those of the config file,
    then those of the flag values, each coerced as its config line would be,
    and last those of the RunSpec's own checks.
    """
    flags = _read_flags(argv)
    values = {} if default_strategies is None else {"strategy": default_strategies}
    if "config" in flags:
        values.update(_read_config_file(flags["config"]))
    for key in _ALL_KEYS:
        if key in flags:
            values[key] = _coerce(key, flags[key])
    if "strategy" in values:
        values["strategies"] = values.pop("strategy")
    return RunSpec(**values)


def _g17(v: float) -> str:
    return format(float(v), ".17g")


def _csv_rows(first: int, columns) -> str:
    """CSV rows, one per cell of the equal-length float columns: the index
    (first, first + 1, ...) and then the row's cells at 17 significant
    digits, as _g17 renders them ("%.17g" % v and format(v, ".17g") are
    the same routine). One template formats every row from one flat tuple,
    in one operation."""
    columns = list(columns)
    k = len(columns)
    n = len(columns[0])
    cells = [0] * (n * (k + 1))
    cells[0::k + 1] = range(first, first + n)
    for j, column in enumerate(columns, start=1):
        cells[j::k + 1] = column
    return ("%d" + ",%.17g" * k + "\n") * n % tuple(cells)


def _require_finite_outputs(named_values) -> None:
    """Raise SpecError naming the first of the (name, numbers) pairs that
    holds a NaN or an infinity: the spec's numbers overflowed."""
    for name, values in named_values:
        if not all(map(math.isfinite, values)):
            raise SpecError(f"overflow: {name} is not finite")


def _out_dir(spec: RunSpec) -> Path:
    try:  # a spec is built the same under any locale; a path must encode in this one
        os.fsencode(spec.out_dir)
    except UnicodeEncodeError as exc:
        raise SpecError(f"out_dir: cannot be encoded as {exc.encoding} (got {spec.out_dir!r})")
    return Path(spec.out_dir)


def _write(path: Path, text: str) -> None:
    try:
        fh = open(path, "w", newline="\n")
    except OSError:  # a missing directory; an error left is mkdir's or the retry's
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(path, "w", newline="\n")
    with fh:
        fh.write(text)


def cmd_simulate(spec: RunSpec) -> int:
    """Run one episode and write <out_dir>/blotter.csv: header, T+1 rows, then
    one JSON footer line with actual_cost, expected_cost, improvement_per_share."""
    if len(spec.strategies) != 1:
        raise SpecError(f"strategy: simulate needs exactly one strategy "
                        f"(got {len(spec.strategies)})")
    out = _out_dir(spec)
    path = generate_noise_path(substream_seed(spec.seed, 0), spec.horizon,
                               spec.sigma_eps_sq, spec.sigma_eta_sq)
    with np.errstate(all="ignore"):  # overflow is reported below, by name
        result = run_episode(spec.strategies[0], spec.market_params(), spec.mandate(),
                             path, clamp_nonneg_orders=spec.clamp_nonneg_orders,
                             ar_expected_cost_from_estimates=spec.ar_value_toggle)
    columns = result.blotter[1:]  # the period column is _csv_rows's index
    _require_finite_outputs([
        ("total cost", [result.actual_cost]),
        ("expected cost", [result.expected_cost]),
        ("improvement per share", [result.improvement_per_share]),
        *zip(("price", "shares bought", "shares remaining", "market information",
              "accumulated cost"), columns),
    ])
    footer = FOOTER % (float(result.actual_cost), float(result.expected_cost),
                       float(result.improvement_per_share))
    _write(out / "blotter.csv", BLOTTER_HEADER + "\n" + _csv_rows(0, columns) + footer)
    print(f"Actual Cost: {result.actual_cost:.6g}")
    print(f"Expected Cost: {result.expected_cost:.6g}")
    print(f"Improvement: {result.improvement_per_share:.6g}")
    return 0


def cmd_montecarlo(spec: RunSpec) -> int:
    """Run the paired study and write, under out_dir: summary.txt (key = value),
    order_size_mean.csv, accumulated_cost_variance.csv and total_costs.csv."""
    out = _out_dir(spec)
    with np.errstate(all="ignore"):  # overflow is reported below, by name
        summary = run_monte_carlo(spec.n_sims, spec.strategies, spec.market_params(),
                                  spec.mandate(), spec.seed,
                                  clamp_nonneg_orders=spec.clamp_nonneg_orders)
    # cells are formatted from Python floats: .tolist() once per column is
    # cheaper than a numpy scalar per cell, and renders the same digits
    columns = {(strat, attr): getattr(summary.stats[strat], attr).tolist()
               for strat in summary.strategies
               for attr in ("per_sim_actual_cost", "mean_order_size",
                            "accumulated_cost_variance")}
    checks = [("benchmark expected cost", [summary.benchmark_expected_cost])]
    for strat in summary.strategies:
        st = summary.stats[strat]
        checks += [(f"{strat} total cost", columns[strat, "per_sim_actual_cost"]),
                   (f"{strat} mean improvement", [st.mean_improvement]),
                   (f"{strat} sd improvement", [st.sd_improvement]),
                   (f"{strat} periodwise mean improvement", [st.mean_improvement_periodwise]),
                   (f"{strat} mean order size", columns[strat, "mean_order_size"]),
                   (f"{strat} accumulated cost variance",
                    columns[strat, "accumulated_cost_variance"])]
    _require_finite_outputs(checks)

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

    # (file, column, index label, first index): periods count from 1, sims from 0
    for fname, attr, label, first in (
            ("order_size_mean.csv", "mean_order_size", "period", 1),
            ("accumulated_cost_variance.csv", "accumulated_cost_variance", "period", 1),
            ("total_costs.csv", "per_sim_actual_cost", "sim", 0)):
        _write(out / fname, label + "," + ",".join(summary.strategies) + "\n"
               + _csv_rows(first, (columns[s, attr] for s in summary.strategies)))

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
    out = _out_dir(spec)
    with np.errstate(all="ignore"):  # overflow is reported below, by name
        conv = run_convergence(spec.n_sims, spec.market_params(), spec.mandate(),
                               spec.seed, clamp_nonneg_orders=spec.clamp_nonneg_orders)
    # a cell that no simulation fitted is NaN, never infinite: only the
    # fitted cells must be finite
    _require_finite_outputs(
        (f"{name} {stat}", getattr(conv, stat)[name][conv.n_values[name] > 0].tolist())
        for name in ESTIMATE_FIELDS for stat in ("mean", "sd"))
    columns = [stat[name].tolist() for name in ESTIMATE_FIELDS
               for stat in (conv.mean, conv.sd)]
    _write(out / "convergence.csv", CONVERGENCE_HEADER + "\n" + _csv_rows(1, columns))
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
    except MemoryError as exc:
        print(f"error: memory: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
