"""bench/run.py pins the sha256 digests of each workload's reference round
(CLI seeds from 0). The calls whose bytes do not depend on the BLAS kernel,
the naive and informed ones, are checked here in-process, through the
benchmark's own worker code. bench/calibration.py, run.py and child.py are
loaded by path, and nothing is written beside them."""

import json
from dataclasses import asdict

import numpy as np
import pytest
from oracles import ROOT, load_script

from bestexec import cli

BENCH_DIR = ROOT / "bench"
calibration = load_script(BENCH_DIR / "calibration.py")
run = load_script(BENCH_DIR / "run.py")
child = load_script(BENCH_DIR / "child.py", calibration=calibration)  # imported by bare name

# (workload, indices of its reference calls): every call of informed_T100,
# and the naive and informed calls of the simulate cycle; the ar calls'
# bytes move with the BLAS kernel
KERNEL_FREE_CALLS = [("informed_T100", (0,)), ("simulate_episodes", (0, 1))]


def test_the_benchmark_declares_the_workloads_run_py_defines():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert [w["name"] for w in declared] == list(run.WORKLOADS)


@pytest.mark.parametrize("name, indices", KERNEL_FREE_CALLS,
                         ids=[name for name, _ in KERNEL_FREE_CALLS])
def test_kernel_free_reference_calls_reproduce_their_pinned_digests(tmp_path, name, indices):
    w = run.WORKLOADS[name]
    config = tmp_path / "run.cfg"
    config.write_text(run.config_text(w))
    # the job fields a Runner reads, as bench/run.py builds them
    job = dict(asdict(w), s0=run.CALIBRATION["s0"], work_dir=str(tmp_path), config=str(config))
    runner = child.Runner(job, cli)
    for index in indices:
        pinned = w.reference_digests[index]
        call = runner.call(0, index, pinned)
        assert call.ok, (f"{name} call {index}: digest {call.digest}, pinned {pinned}, "
                         f"numpy {np.__version__}")
