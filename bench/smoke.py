"""Smoke check of the benchmark at small sizes.

    python3 bench/smoke.py

For every workload it runs the untraced and the traced measurement for half
a second with few simulations per call, and checks that

- every metric that BENCHMARK.json names is emitted, and no other;
- no call failed its output checks;
- the traced run wrote byte-identical outputs to the untraced run for the
  same calls (the digests of the first rounds agree).

The full-size reference outputs are checked against their pinned digests by
every run of bench/run.py. This check takes about fifteen seconds.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run

SMALL_SIMS = {"montecarlo": 20, "convergence": 5, "simulate": 1}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {False: sorted(m["name"] for m in spec["end_to_end"]),
                True: sorted(m["name"] for m in spec["per_layer"])}
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from bench/run.py")
    for w in run.WORKLOADS.values():
        small = dataclasses.replace(w, n_sims=SMALL_SIMS[w.command], reference_digests=None)
        results = {trace: run.run_workload(small, seed=7, seconds=0.5, trace=trace)
                   for trace in (False, True)}
        for trace, r in results.items():
            if r["failed"]:
                problems.append(f"{w.name} trace={trace:d}: {r['failed']} calls failed")
            if sorted(r["metrics"]) != expected[trace]:
                problems.append(f"{w.name} trace={trace:d}: metrics "
                                f"{sorted(set(r['metrics']) ^ set(expected[trace]))} "
                                "emitted or missing against BENCHMARK.json")
        if results[False]["rounds_digest"] != results[True]["rounds_digest"]:
            problems.append(f"{w.name}: traced outputs differ from untraced outputs")
        print(f"{w.name}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("smoke check passed" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
