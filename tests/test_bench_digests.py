"""bench/run.py pins the sha256 digests of each workload's reference round
(CLI seeds from 0). The calls whose bytes do not depend on the BLAS kernel,
the naive and informed ones, are checked here in-process, through the
benchmark's own worker code. bench/calibration.py, run.py and child.py are
loaded by path, and nothing is written beside them."""

import json
import sys
import types
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from bestexec import cli

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "bench"


def _load(name: str, **imports: types.ModuleType) -> types.ModuleType:
    """bench/<name>.py as a module, with the modules `imports` importable by
    their bare names while it runs (child.py imports calibration so)."""
    path = BENCH_DIR / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    # a dataclass looks its own module up by name as it is defined
    with mock.patch.dict(sys.modules, {module.__name__: module, **imports}):
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


calibration = _load("calibration")
run = _load("run")
child = _load("child", calibration=calibration)

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
