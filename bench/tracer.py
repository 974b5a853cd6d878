"""Span tracer for the benchmark's traced run.

The tracer wraps bestexec's public functions in the module namespaces where
their callers look them up (``bestexec.simulation.estimate_all``,
``bestexec.cli.run_monte_carlo``, ...), so the program itself is not edited.
Each wrapped call records one span: a name, start, end and the index of the
enclosing span. Spans stay in memory until ``drain`` turns the spans of one
CLI call into additive totals: calls and self time per span name, plus the
counts read from returned values (order rationale tags, estimate validity).
A span's self time is its duration minus the durations of its child spans.

Functions that are not wrapped (``info_step``, ``price_step``,
``substream_seed``, ``ObservationHistory.append``, ...) run inside their
caller's span and count as the caller's self time.
"""

from __future__ import annotations

import contextlib
import importlib
import time

import numpy as np

STRATEGY_CODES = {"naive": 0, "informed": 1, "ar": 2}
# decide_order spans of the ar strategy carry the rationale tag; 0 = other strategy
TAG_CODES = {"final_period": 1, "naive_fallback": 2, "autoregressive": 3}
UNKNOWN_TAG = 4


def _strategy(args, kwargs) -> int:
    kind = args[0] if args else kwargs.get("strategy_kind")
    return STRATEGY_CODES.get(kind, len(STRATEGY_CODES))


def _episode_attr(args, kwargs, result) -> int:
    return _strategy(args, kwargs)


def _decision_attr(args, kwargs, result) -> int:
    if _strategy(args, kwargs) != STRATEGY_CODES["ar"]:
        return 0
    return TAG_CODES.get(result.rationale_tag, UNKNOWN_TAG)


def _estimate_attr(args, kwargs, result) -> int:
    return (result.n_obs << 2) | (bool(result.impact_valid) << 1) | bool(result.rho_valid)


SPANS = (
    "cli.main",
    "simulation.run_monte_carlo",
    "simulation.summarize_convergence",
    "simulation.run_episode",
    "market.generate_noise_path",
    "strategies.decide_order",
    "strategies.solve_coefficients",
    "estimation.estimate_all",
    "valuation.naive_expected_cost",
    "valuation.informed_expected_cost",
)
LAYERS = ("market", "strategies", "valuation", "estimation", "simulation", "cli")
_ID = {name: i for i, name in enumerate(SPANS)}

# (module, attribute the caller looks up, span name, reader of the call's attribute)
TARGETS = (
    ("bestexec.cli", "main", "cli.main", None),
    ("bestexec.cli", "run_monte_carlo", "simulation.run_monte_carlo", None),
    ("bestexec.cli", "summarize_convergence", "simulation.summarize_convergence", None),
    ("bestexec.cli", "run_episode", "simulation.run_episode", _episode_attr),
    ("bestexec.cli", "generate_noise_path", "market.generate_noise_path", None),
    ("bestexec.simulation", "run_episode", "simulation.run_episode", _episode_attr),
    ("bestexec.simulation", "generate_noise_path", "market.generate_noise_path", None),
    ("bestexec.simulation", "decide_order", "strategies.decide_order", _decision_attr),
    ("bestexec.simulation", "solve_coefficients", "strategies.solve_coefficients", None),
    ("bestexec.simulation", "estimate_all", "estimation.estimate_all", _estimate_attr),
    ("bestexec.simulation", "naive_expected_cost", "valuation.naive_expected_cost", None),
    ("bestexec.simulation", "informed_expected_cost", "valuation.informed_expected_cost", None),
)

# history lengths (n_obs) at which the estimate_all buckets end: <=20, 21..50, 51..100
N_OBS_EDGES = (20, 50)
N_OBS_BUCKETS = ("n_le_20", "n_21_50", "n_51_100")


class Tracer:
    """Records spans while ``installed`` has the wrappers in place."""

    def __init__(self):
        self._names: list[int] = []
        self._parents: list[int] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._attrs: list[int] = []
        self._stack = [-1]

    def _wrap(self, fn, span: str, attr_fn):
        names, parents, starts, ends = self._names, self._parents, self._starts, self._ends
        attrs, stack = self._attrs, self._stack
        span_id = _ID[span]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(span_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            attrs.append(0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[index] = start
                ends[index] = end
            if attr_fn is not None:
                attrs[index] = attr_fn(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every target attribute by its traced wrapper; restore on exit."""
        saved = []
        try:
            for module_name, attr, span, attr_fn in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, span, attr_fn))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def drain(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self-time totals (seconds) and counts of the spans recorded since
        the last drain; clears them."""
        names = np.array(self._names, dtype=np.intp)
        parents = np.array(self._parents, dtype=np.intp)
        attrs = np.array(self._attrs, dtype=np.int64)
        duration = np.array(self._ends) - np.array(self._starts)
        for spans in (self._names, self._parents, self._starts, self._ends, self._attrs):
            spans.clear()

        child_time = np.zeros(len(duration))
        inner = parents >= 0
        np.add.at(child_time, parents[inner], duration[inner])
        self_time = duration - child_time

        times: dict[str, float] = {}
        counts: dict[str, int] = {}
        calls = np.bincount(names, minlength=len(SPANS))
        self_s = np.bincount(names, weights=self_time, minlength=len(SPANS))
        for i, span in enumerate(SPANS):
            counts[f"{span}.calls"] = int(calls[i])
            times[span] = float(self_s[i])

        episode = names == _ID["simulation.run_episode"]
        by_strategy = np.bincount(attrs[episode], weights=self_time[episode],
                                  minlength=len(STRATEGY_CODES) + 1)
        for kind, code in STRATEGY_CODES.items():
            times[f"simulation.run_episode.{kind}"] = float(by_strategy[code])

        estimate = names == _ID["estimation.estimate_all"]
        est_attrs = attrs[estimate]
        bucket = np.searchsorted(N_OBS_EDGES, est_attrs >> 2, side="left")
        bucket_self = np.bincount(bucket, weights=self_time[estimate], minlength=3)
        bucket_calls = np.bincount(bucket, minlength=3)
        for i, label in enumerate(N_OBS_BUCKETS):
            times[f"estimation.estimate_all.{label}"] = float(bucket_self[i])
            counts[f"estimation.estimate_all.calls.{label}"] = int(bucket_calls[i])
        counts["estimation.impact_valid"] = int(((est_attrs >> 1) & 1).sum())
        counts["estimation.rho_valid"] = int((est_attrs & 1).sum())

        decision = attrs[names == _ID["strategies.decide_order"]]
        ar_interior = decision >= TAG_CODES["naive_fallback"]
        counts["strategies.ar_interior_decisions"] = int(ar_interior.sum())
        counts["strategies.ar_fallbacks"] = int((decision == TAG_CODES["naive_fallback"]).sum())
        return times, counts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(times: dict, timed_counts: dict, timed_calls: int, counted: dict,
                  counted_calls: int, horizon: int, traced_wall_s: float,
                  untraced_wall_s: float) -> dict:
    """Per-layer metrics, as {name: (value, unit)}, per CLI call.

    ``times`` and ``timed_counts`` sum the drained totals of every traced
    call; ``counted`` sums the counts of the first calls only, a fixed set,
    so that counts and ratios repeat exactly for a given seed.
    """
    def count(key):
        return counted[key] / counted_calls

    def self_us(key):
        return times[key] * 1e6 / timed_calls

    def self_ms(key):
        return times[key] * 1e3 / timed_calls

    noise_calls = count("market.generate_noise_path.calls")
    m = {
        "market.generate_noise_path.calls": (noise_calls, "count"),
        "market.generate_noise_path.self_us": (self_us("market.generate_noise_path"), "us"),
        # computed, not measured: eps and eta, T float64 values each, per path
        "market.noise_bytes": (16 * horizon * noise_calls, "bytes"),
        "strategies.decide_order.calls": (count("strategies.decide_order.calls"), "count"),
        "strategies.decide_order.self_us": (self_us("strategies.decide_order"), "us"),
        "strategies.solve_coefficients.calls": (
            count("strategies.solve_coefficients.calls"), "count"),
        "strategies.solve_coefficients.self_us": (self_us("strategies.solve_coefficients"), "us"),
        "strategies.ar_fallback_ratio": (
            _ratio(counted["strategies.ar_fallbacks"],
                   counted["strategies.ar_interior_decisions"]), "ratio"),
        "estimation.estimate_all.calls": (count("estimation.estimate_all.calls"), "count"),
        "estimation.estimate_all.self_us": (self_us("estimation.estimate_all"), "us"),
    }
    for label in N_OBS_BUCKETS:
        m[f"estimation.estimate_all.self_us.{label}"] = (
            self_us(f"estimation.estimate_all.{label}"), "us")
    for label in N_OBS_BUCKETS:
        m[f"estimation.estimate_all.us_per_call.{label}"] = (
            _ratio(times[f"estimation.estimate_all.{label}"] * 1e6,
                   timed_counts[f"estimation.estimate_all.calls.{label}"]), "us")
    estimates = counted["estimation.estimate_all.calls"]
    m["estimation.impact_valid_ratio"] = (
        _ratio(counted["estimation.impact_valid"], estimates), "ratio")
    m["estimation.rho_valid_ratio"] = (_ratio(counted["estimation.rho_valid"], estimates), "ratio")
    m["valuation.calls"] = (count("valuation.naive_expected_cost.calls")
                            + count("valuation.informed_expected_cost.calls"), "count")
    m["valuation.self_us"] = (self_us("valuation.naive_expected_cost")
                              + self_us("valuation.informed_expected_cost"), "us")
    m["simulation.run_episode.calls"] = (count("simulation.run_episode.calls"), "count")
    for kind in STRATEGY_CODES:
        m[f"simulation.run_episode.self_us.{kind}"] = (
            self_us(f"simulation.run_episode.{kind}"), "us")
    m["simulation.run_monte_carlo.self_ms"] = (self_ms("simulation.run_monte_carlo"), "ms")
    m["simulation.summarize_convergence.self_ms"] = (
        self_ms("simulation.summarize_convergence"), "ms")
    m["cli.self_ms"] = (self_ms("cli.main"), "ms")
    m["cli.bytes_written"] = (count("cli.bytes_written"), "bytes")

    for layer in LAYERS:
        layer_self = sum(times[span] for span in SPANS if span.split(".", 1)[0] == layer)
        m[f"share.{layer}"] = (layer_self / traced_wall_s, "ratio")
    m["trace_overhead_ratio"] = (traced_wall_s / untraced_wall_s, "ratio")
    return m
