"""Benchmark of the bestexec CLI: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload study_T20 --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the program is imported from
the checkout's ``src`` directory. Each measurement runs in its own child
process (bench/child.py), one CLI call at a time, with BLAS/OpenMP pinned
to one thread. ``--trace 0`` reports the end-to-end metrics and ``--trace 1``
the per-layer metrics of a traced run. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it print each metric with its unit, the sample counts, the
failure fraction and where the numbers were taken. bench/README.md explains
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# the paper's baseline calibration, written into every workload's config file
CALIBRATION = {"theta": 5e-5, "gamma": 5.0, "rho": 0.5, "sigma_eps_sq": 0.125 ** 2,
               "sigma_eta_sq": 0.001, "s0": 1e5, "p0": 50.0}
SETUP_SAMPLES = 5     # fresh processes per run whose set-up times give setup_s
DEADLINE_S = 170      # the whole run, children included, ends before this


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                    # bestexec CLI command
    horizon: int
    strategies: tuple[str, ...]     # study strategy set, or the simulate cycle
    n_sims: int                     # simulation indices per study call
    count_rounds: int               # rounds that the exact per-layer counts cover
    reference_digests: tuple[str, ...] | None  # outputs of the reference round


# Output digests of the reference round (CLI seeds 0, 1, ...), recorded at the
# commit that introduced this benchmark: the byte-identical output contract.
# run_workload on a copy with reference_digests=None returns the current ones.
WORKLOADS = {w.name: w for w in (
    Workload("study_T20", "montecarlo", 20, ("naive", "informed", "ar"), 100, 1, (
        "badcf942fefaa6cf9f68be3f5b133882f7cdda749cfdfc1e21e8c47eef90d92c",
    )),
    Workload("informed_T100", "montecarlo", 100, ("naive", "informed"), 100, 1, (
        "9c5a558118dab17bb97b85bfb03986096bc5993c2b362fea4421c5363c6ac42e",
    )),
    Workload("convergence_T100", "convergence", 100, ("ar",), 20, 1, (
        "b8404d6aae0b8d9938453c7d2a22e8c513c8351b2907e7f03505439443692644",
    )),
    Workload("simulate_episodes", "simulate", 20, ("naive", "informed", "ar"), 1, 20, (
        "6c6fce1c96d4ea4765fea2c540f7d00b195c5f06fde6bdcee8d95730884b9711",
        "678d77c9dff442a75b15e38417d0ae12bc0660baa0092384aa02aac31366e17b",
        "6153b0e8bba2999b1d03b45b74e714f7ca3a3d5c03638e35fe054106fd41b95d",
    )),
)}


def config_text(w: Workload) -> str:
    """The config file of a workload's calls, in the CLI's key = value grammar."""
    values = dict(CALIBRATION, horizon=w.horizon)
    if w.command != "simulate":
        values.update(n_sims=w.n_sims, strategy=",".join(w.strategies))
    return "".join(f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n"
                   for key, value in values.items())


def base_seed(seed: int) -> int:
    """First CLI seed of the measured calls; kept below 2**31 for any --seed."""
    digest = hashlib.sha256(f"bestexec-bench:{seed}".encode()).digest()
    return 1 + (int.from_bytes(digest[:4], "little") >> 2)


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(job: dict, deadline: float) -> dict:
    Path(job["work_dir"]).mkdir(parents=True)
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), json.dumps(job)],
                          stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{job['mode']} worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its result (metrics as {name: (value, unit)})."""
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".bench_work" / f"{w.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    job = dict(asdict(w), src=str(ROOT / "src"), config_text=config_text(w),
               base_seed=base_seed(seed), seconds=seconds, s0=CALIBRATION["s0"])
    modes = ["trace"] if trace else ["setup"] * (SETUP_SAMPLES - 1) + ["measure"]
    try:
        results = []
        for k, mode in enumerate(modes):
            child_work = work / f"{k}-{mode}"
            results.append(run_child(dict(job, mode=mode, work_dir=str(child_work),
                                          config=str(child_work / "run.cfg")), deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    main = results[-1]
    metrics = {name: tuple(pair) for name, pair in main["metrics"].items()}
    if not trace:
        metrics["setup_s"] = (statistics.median(r["setup_s"] for r in results), "s")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "tail": main.get("tail", {}),
            "samples": dict(main["samples"], setup=len(results)),
            "reference_digests": main["reference_digests"],
            "rounds_digest": main["rounds_digest"], "numpy": main["numpy"]}


def provenance(numpy_version: str) -> str:
    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref.partition("ref: ")[2]
        sha = ref_file.read_text().strip() if ref.startswith("ref: ") and ref_file.is_file() else ref
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"git={sha} python={sys.version.split()[0]} numpy={numpy_version} "
            f"nproc={os.cpu_count()} cpu={cpu!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bestexec" / "cli.py").is_file():
        print(f"bench: no bestexec source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    try:
        result = run_workload(w, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    print(f"workload={w.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"provenance: {provenance(result['numpy'])}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, (value, unit) in result["tail"].items():
        print(f"  {name} = {value:.6g} {unit} (printed only, no bound)")
    print("samples: " + " ".join(f"{k}={v}" for k, v in result["samples"].items()))
    print(f"ops_failed_frac = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} calls)")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
