"""Fingerprint the CLI's outputs over a fixed grid of specs.

Runs every spec of the grid in-process through bestexec.cli.main and prints
one line per spec: the argv, the exit code, and the sha256 of stdout, of
stderr and of each file the spec wrote. Two checkouts give the same lines
exactly when their outputs are byte-identical, so comparing them is a diff:

    PYTHONPATH=src python tools/cli_grid.py > after.txt
    (cd ../parent && PYTHONPATH=src python ../repo/tools/cli_grid.py) > before.txt
    diff before.txt after.txt

bestexec is imported from the environment, so one copy of this script
grids any checkout. The grid has 1,568 specs: montecarlo with all three
rules and convergence, each at n_sims 1 and 37, and simulate with naive,
informed, ar and ar with --ar-value-toggle; at T in {1, 2, 3, 4, 5, 20, 100},
with the clamp on and off, under seven calibrations and at seeds 0 and
987654321.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from itertools import product
from pathlib import Path

from bestexec.cli import main as cli_main

COMMANDS = (
    ("montecarlo", "--strategy", "naive", "--strategy", "informed", "--strategy", "ar",
     "--n-sims", "1"),
    ("montecarlo", "--strategy", "naive", "--strategy", "informed", "--strategy", "ar",
     "--n-sims", "37"),
    ("convergence", "--n-sims", "1"),
    ("convergence", "--n-sims", "37"),
    ("simulate", "--strategy", "naive"),
    ("simulate", "--strategy", "informed"),
    ("simulate", "--strategy", "ar"),
    ("simulate", "--strategy", "ar", "--ar-value-toggle"),
)
HORIZONS = (1, 2, 3, 4, 5, 20, 100)
CLAMPS = ((), ("--clamp-nonneg-orders",))
CALIBRATIONS = (
    (),                                                    # baseline
    ("--theta", "1e-3", "--gamma", "50", "--rho", "0.95"),  # steep
    ("--sigma-eps-sq", "0", "--sigma-eta-sq", "0"),        # zero noise
    ("--sigma-eps-sq", "0"),
    ("--gamma", "-5", "--rho", "-0.5"),
    ("--rho", "0"),
    ("--s0", "5e-324", "--p0", "1e-300"),
)
SEEDS = (0, 987654321)


def grid() -> list[tuple[str, ...]]:
    """Every spec's argv, without --out-dir, in a fixed order."""
    return [(*command, "--horizon", str(T), *clamp, *calibration, "--seed", str(seed))
            for command, T, clamp, calibration, seed
            in product(COMMANDS, HORIZONS, CLAMPS, CALIBRATIONS, SEEDS)]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_spec(argv: tuple[str, ...], out_dir: Path) -> str:
    """Run one spec with its files written to the empty directory out_dir
    and return its line; out_dir is emptied again afterwards."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main([*argv, "--out-dir", str(out_dir)])
    fields = [" ".join(argv), f"exit={code}",
              f"stdout={_sha(stdout.getvalue().encode())}",
              f"stderr={_sha(stderr.getvalue().encode())}"]
    for path in sorted(out_dir.iterdir()):
        fields.append(f"{path.name}={_sha(path.read_bytes())}")
        path.unlink()
    return " | ".join(fields)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for argv in grid():
            print(run_spec(argv, Path(tmp)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
