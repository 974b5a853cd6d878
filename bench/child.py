"""Benchmark worker: runs one workload's bestexec CLI calls in this process.

run.py starts one worker per measurement with a JSON job as its only
argument; the worker prints one JSON result line on its standard output.
The CLI's own console summary is discarded.

Modes
  setup    import bestexec and run the reference round: one setup_s sample
  measure  setup, then untraced calls for `seconds`: latency, throughput, RSS
  trace    setup, then every call once untraced and once traced, in
           alternating order: per-layer metrics and the tracing overhead

A call is one ``bestexec.cli.main(argv)``. A round is one call per strategy
in the cycle for ``simulate`` and a single call for the study commands. The
reference round uses CLI seeds from 0 and its output digests are pinned; the
measured rounds use CLI seeds from ``base_seed``. Every call is checked, and
a call that fails any check counts as failed; nothing is retried.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

import calibration

EXPECTED_FILES = {
    "simulate": ("blotter.csv",),
    "montecarlo": ("summary.txt", "order_size_mean.csv",
                   "accumulated_cost_variance.csv", "total_costs.csv"),
    "convergence": ("convergence.csv",),
}
CONSERVATION_RTOL = 1e-9
BLOCK_S = 0.2  # seconds of calls between two readings of the machine's speed


class CheckError(Exception):
    """An output file violates what the CLI promises."""


def _numbers(cells, where: str, allow_nan: bool = False) -> list[float]:
    values = [float(c) for c in cells]
    for v in values:
        if not (math.isfinite(v) or (allow_nan and math.isnan(v))):
            raise CheckError(f"{where}: non-finite value {v}")
    return values


def _table(text: str, name: str, header: str, n_rows: int,
           nan_rows: int = 0) -> list[list[float]]:
    """Rows of a CSV with the given header; the first `nan_rows` may hold NaN."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise CheckError(f"{name}: header {lines[:1]!r}, expected {header!r}")
    if len(lines) != n_rows + 1:
        raise CheckError(f"{name}: {len(lines) - 1} rows, expected {n_rows}")
    return [_numbers(line.split(","), name, allow_nan=i < nan_rows)
            for i, line in enumerate(lines[1:])]


def _conserved(total: float, s0: float, where: str) -> None:
    if not abs(total - s0) <= CONSERVATION_RTOL * s0:
        raise CheckError(f"{where}: orders sum to {total!r}, not s0 = {s0!r}")


def _check_simulate(texts: dict, job: dict, strategy: str) -> None:
    T = job["horizon"]
    lines = texts["blotter.csv"].splitlines()
    rows = _table("\n".join(lines[:-1]), "blotter.csv",
                  "period,price,shares_bought,shares_remaining,"
                  "market_information,accumulated_cost", T + 1)
    footer = json.loads(lines[-1])
    _numbers([footer["actual_cost"], footer["expected_cost"],
              footer["improvement_per_share"]], "blotter.csv footer")
    _conserved(math.fsum(row[2] for row in rows[1:]), job["s0"], f"blotter.csv ({strategy})")


def _check_montecarlo(texts: dict, job: dict, strategy: str) -> None:
    T, strategies = job["horizon"], job["strategies"]
    summary = dict(line.split(" = ", 1) for line in texts["summary.txt"].splitlines())
    if summary.get("strategy") != ",".join(strategies):
        raise CheckError(f"summary.txt: strategy = {summary.get('strategy')!r}")
    if int(summary["n_sims"]) != job["n_sims"]:
        raise CheckError(f"summary.txt: n_sims = {summary['n_sims']}")
    expected_keys = 4 + 3 * len(strategies)
    if len(summary) != expected_keys:
        raise CheckError(f"summary.txt: {len(summary)} keys, expected {expected_keys}")
    _numbers([v for k, v in summary.items() if k != "strategy"], "summary.txt")

    header = "period," + ",".join(strategies)
    orders = _table(texts["order_size_mean.csv"], "order_size_mean.csv", header, T)
    for j, name in enumerate(strategies, start=1):
        _conserved(math.fsum(row[j] for row in orders), job["s0"],
                   f"order_size_mean.csv ({name})")
    _table(texts["accumulated_cost_variance.csv"], "accumulated_cost_variance.csv", header, T)
    _table(texts["total_costs.csv"], "total_costs.csv", "sim," + ",".join(strategies),
           job["n_sims"])


def _check_convergence(texts: dict, job: dict, strategy: str) -> None:
    header = texts["convergence.csv"].split("\n", 1)[0]
    if not header.startswith("period,theta_hat_mean,"):
        raise CheckError(f"convergence.csv: header {header!r}")
    # period 1 has one observation, too few for any fit, so its estimates are NaN
    rows = _table(texts["convergence.csv"], "convergence.csv", header, job["horizon"],
                  nan_rows=1)
    if [row[0] for row in rows] != list(range(1, job["horizon"] + 1)):
        raise CheckError("convergence.csv: periods are not 1..T")


CHECKS = {"simulate": _check_simulate, "montecarlo": _check_montecarlo,
          "convergence": _check_convergence}


class Call(NamedTuple):
    ok: bool
    wall: float          # seconds, call only
    digest: str | None   # sha256 over the output files
    nbytes: int          # output bytes


class Runner:
    """Runs and checks the CLI calls of one job, counting attempts and failures."""

    def __init__(self, job: dict, cli):
        self.job = job
        self.cli = cli
        self.out_dir = Path(job["work_dir"]) / "out"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.files = [self.out_dir / name for name in EXPECTED_FILES[job["command"]]]
        self.per_round = len(job["strategies"]) if job["command"] == "simulate" else 1
        self.sims_per_call = job["n_sims"] if job["command"] != "simulate" else 1
        self.attempted = 0
        self.failed = 0

    def argv(self, base_seed: int, index: int) -> list[str]:
        job = self.job
        argv = [job["command"], "--config", job["config"], "--seed", str(base_seed + index),
                "--out-dir", str(self.out_dir)]
        if job["command"] == "simulate":
            argv += ["--strategy", self._strategy(index)]
        return argv

    def _strategy(self, index: int) -> str:
        return self.job["strategies"][index % len(self.job["strategies"])]

    def round_calls(self, r: int) -> range:
        return range(r * self.per_round, (r + 1) * self.per_round)

    def call(self, base_seed: int, index: int, expected_digest: str | None = None) -> Call:
        """Run call `index` and check its outputs."""
        argv = self.argv(base_seed, index)
        for path in self.files:
            path.unlink(missing_ok=True)
        self.attempted += 1
        start = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception as exc:  # a crash is one failed operation, reported below
            rc = exc
        wall = time.perf_counter() - start
        digest, nbytes, problem = None, 0, None
        if isinstance(rc, Exception):
            problem = f"raised {rc!r}"
        elif rc != 0:
            problem = f"exit status {rc}"
        else:
            try:
                digest, nbytes = self._check(index)
            except (CheckError, OSError, ValueError, KeyError, IndexError) as exc:
                problem = str(exc)
        if problem is None and expected_digest is not None and digest != expected_digest:
            problem = f"output digest {digest} differs from the pinned {expected_digest}"
        if problem is not None:
            self.fail(f"{' '.join(argv)}: {problem}")
        return Call(problem is None, wall, digest, nbytes)

    def fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"bench: call failed: {message}", file=sys.stderr)

    def _check(self, index: int) -> tuple[str, int]:
        h = hashlib.sha256()
        texts = {}
        nbytes = 0
        for path in self.files:
            data = path.read_bytes()
            h.update(path.name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
            nbytes += len(data)
            texts[path.name] = data.decode("utf-8")
        CHECKS[self.job["command"]](texts, self.job, self._strategy(index))
        return h.hexdigest(), nbytes

    def reference_round(self) -> list[Call]:
        pinned = self.job["reference_digests"] or [None] * self.per_round
        return [self.call(0, i, pinned[i]) for i in range(self.per_round)]


def blocks(seconds: float, count_rounds: int, run_round):
    """Run rounds 0, 1, ... for `seconds` and at least `count_rounds` rounds.

    Rounds run in blocks of at least BLOCK_S, with the machine's speed read
    before and after each block. Yields each block, a list of (round index,
    run_round result), with its time scale: the mean of the two readings.
    """
    deadline = time.perf_counter() + seconds
    before = calibration.speed()
    r = 0
    while r < count_rounds or time.perf_counter() < deadline:
        block = []
        block_end = time.perf_counter() + BLOCK_S
        while not block or time.perf_counter() < block_end:
            block.append((r, run_round(r)))
            r += 1
        after = calibration.speed()
        yield block, (before + after) / 2
        before = after


def _percentile(samples: list[float], q: int) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def measure(runner: Runner, seconds: float, count_rounds: int) -> dict:
    """Untraced calls: throughput, per-episode latency and peak RSS.

    Throughput is the median over blocks of the simulation indices a block
    completed per second of its scaled call time: a block the calibration
    misjudges then moves the result no more than any other block.
    """
    base = runner.job["base_seed"]
    digests = hashlib.sha256()
    rates, latencies_ms, failed_ms, scales = [], [], [], []
    calls = sims = 0
    raw_wall = 0.0

    def run_round(r):
        return [runner.call(base, i) for i in runner.round_calls(r)]

    for block, scale in blocks(seconds, count_rounds, run_round):
        scales.append(scale)
        block_sims, block_wall = 0, 0.0
        for r, results in block:
            for call in results:
                calls += 1
                block_wall += call.wall
                latency_ms = call.wall * scale * 1e3 / runner.sims_per_call
                if call.ok:
                    block_sims += runner.sims_per_call
                    latencies_ms.append(latency_ms)
                else:
                    failed_ms.append(latency_ms)
                if r < count_rounds:
                    digests.update(str(call.digest).encode())
        rates.append(block_sims / (block_wall * scale))
        sims += block_sims
        raw_wall += block_wall
    # latency is over the calls that passed their checks; if none did, the
    # result still reports (correct is false) with the failed calls' latency
    latencies_ms = latencies_ms or failed_ms
    p99 = _percentile(latencies_ms, 99)
    return {
        "metrics": {
            "sims_per_s": (statistics.median(rates), "1/s"),
            "episode_p50_ms": (statistics.median(latencies_ms), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
        # printed only: their run-to-run spread is too wide for a bound (README)
        "tail": {"episode_p90_ms": (_percentile(latencies_ms, 90), "ms"),
                 "episode_p99_ms": (p99, "ms")},
        "samples": {"calls": calls, "blocks": len(rates), "latency_samples": len(latencies_ms),
                    "beyond_p99": sum(1 for v in latencies_ms if v > p99),
                    "unscaled_sims_per_s": sims / raw_wall,
                    "median_time_scale": statistics.median(scales)},
        "rounds_digest": digests.hexdigest(),
    }


def trace(runner: Runner, seconds: float, count_rounds: int) -> dict:
    """Every call once untraced and once traced, in alternating order."""
    import tracer

    t = tracer.Tracer()
    base = runner.job["base_seed"]
    digests = hashlib.sha256()
    times, timed_counts, counted = {}, {}, {}
    timed_calls = counted_calls = 0
    walls = {False: 0.0, True: 0.0}

    def run_round(r):
        pairs = []
        for i in runner.round_calls(r):
            results = {}
            for traced in ((False, True) if r % 2 == 0 else (True, False)):
                if traced:
                    with t.installed():
                        results[True] = runner.call(base, i)
                    span_times, counts = t.drain()
                else:
                    results[False] = runner.call(base, i)
            plain, traced_call = results[False], results[True]
            if plain.ok and traced_call.ok and plain.digest != traced_call.digest:
                runner.fail(f"traced output of call {i} differs from its untraced output")
            counts["cli.bytes_written"] = traced_call.nbytes
            pairs.append((plain, traced_call, span_times, counts))
        return pairs

    for block, scale in blocks(seconds, count_rounds, run_round):
        for r, pairs in block:
            for plain, traced_call, span_times, counts in pairs:
                walls[False] += plain.wall * scale
                walls[True] += traced_call.wall * scale
                _add(times, span_times, scale)
                _add(timed_counts, counts)
                timed_calls += 1
                if r < count_rounds:
                    _add(counted, counts)
                    counted_calls += 1
                    digests.update(str(traced_call.digest).encode())
    metrics = tracer.layer_metrics(times, timed_counts, timed_calls, counted, counted_calls,
                                   runner.job["horizon"], walls[True], walls[False])
    return {"metrics": metrics,
            "samples": {"traced_calls": timed_calls, "counted_calls": counted_calls},
            "rounds_digest": digests.hexdigest()}


def _add(into: dict, values: dict, scale: float = 1) -> None:
    for key, value in values.items():
        into[key] = into.get(key, 0) + value * scale


def main() -> int:
    job = json.loads(sys.argv[1])
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    console = sys.stdout
    sys.stdout = open(os.devnull, "w")

    start = time.perf_counter()
    from bestexec import cli
    import_s = time.perf_counter() - start
    if src not in Path(cli.__file__).resolve().parents:
        print(f"bench: imported bestexec from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    Path(job["config"]).write_text(job["config_text"])
    runner = Runner(job, cli)
    reference = runner.reference_round()
    # set-up is the import plus the reference calls, without the output checks
    setup_s = (import_s + math.fsum(c.wall for c in reference)) * calibration.speed()

    result = {"setup_s": setup_s, "reference_digests": [c.digest for c in reference]}
    if job["mode"] == "measure":
        result.update(measure(runner, job["seconds"], job["count_rounds"]))
    elif job["mode"] == "trace":
        result.update(trace(runner, job["seconds"], job["count_rounds"]))
    result.update(attempted=runner.attempted, failed=runner.failed,
                  numpy=sys.modules["numpy"].__version__)
    print(json.dumps(result), file=console)
    return 0


if __name__ == "__main__":
    sys.exit(main())
