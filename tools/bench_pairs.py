"""Compare two checkouts on one benchmark workload, in alternating pairs.

Pair k runs

    python3 <root>/bench/run.py --workload W --seed S+k --seconds <run_seconds> --trace 0

in the parent's checkout and in the change's, the parent first in even
pairs and the change first in odd ones, so drifts in machine speed fall on
both alike. The run length is BENCHMARK.json's run_seconds, the same on
both sides. Each run's last line is its JSON result; a run that fails,
reports correct: false or counts a failed call stops the tool with exit
status 1. For every end-to-end metric of BENCHMARK.json it prints both
medians, the parent's interquartile range as a share of its median
(statistics.quantiles, inclusive method, as tools/ab_time.py takes it), the
pairs the change won by the metric's direction (ties count for neither) and
a verdict:

    gain   the change won at least nine tenths of the pairs, and its median
           beats the parent's by more than the parent's interquartile range
    worse  the change's median is worse than the parent's by more than the
           metric's bound, as a share of the parent's median
    same   otherwise

    python tools/bench_pairs.py ../parent . --workload study_T20 --pairs 10 --seed 100
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def run_bench(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced bench/run.py run of the checkout at root: its JSON
    result. Stops the tool on a failed run or a failed call."""
    argv = [sys.executable, str(Path(root) / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {root} seed {seed} exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] > 0:
        raise SystemExit(f"bench_pairs: {root} seed {seed}: correct={result['correct']}, "
                         f"{result['failed']} failed calls")
    return result


def summarize(metrics: list[dict], parent: list[dict], change: list[dict]) -> list[dict]:
    """Per end-to-end metric, from the pairs' JSON results: both medians,
    the parent's IQR as a share of its median, the pairs the change won and
    the verdict."""
    rows = []
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        a = [run["metrics"][name]["value"] for run in parent]
        b = [run["metrics"][name]["value"] for run in change]
        med_a, med_b = statistics.median(a), statistics.median(b)
        q1, _, q3 = statistics.quantiles(a, n=4, method="inclusive") if len(a) > 1 else a * 3
        iqr = (q3 - q1) / abs(med_a) if med_a else 0.0
        wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        # the change's median gain as a share of the parent's, positive when better
        gain = ((med_b - med_a) if higher else (med_a - med_b)) / abs(med_a) if med_a else 0.0
        if wins >= 0.9 * len(a) and gain > iqr:
            verdict = "gain"
        elif -gain > metric["bound"]:
            verdict = "worse"
        else:
            verdict = "same"
        rows.append({"name": name, "unit": metric["unit"], "parent": med_a, "change": med_b,
                     "parent_iqr": iqr, "wins": wins, "pairs": len(a), "verdict": verdict})
    return rows


def main(args: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the parent's checkout root")
    parser.add_argument("change", help="the change's checkout root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    opts = parser.parse_args(args)
    if opts.pairs < 1:
        parser.error("--pairs must be >= 1")
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    runs: tuple[list[dict], list[dict]] = ([], [])
    for k in range(opts.pairs):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            root = (opts.parent, opts.change)[side]
            runs[side].append(run_bench(root, opts.workload, opts.seed + k,
                                        bench["run_seconds"]))
    print(f"workload={opts.workload} pairs={opts.pairs} seeds={opts.seed}.."
          f"{opts.seed + opts.pairs - 1} seconds={bench['run_seconds']}")
    for row in summarize(bench["end_to_end"], *runs):
        print(f"{row['name']}: parent {row['parent']:.6g} change {row['change']:.6g} "
              f"{row['unit']} | parent IQR {row['parent_iqr']:.1%} of median | "
              f"change won {row['wins']} of {row['pairs']} | {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
