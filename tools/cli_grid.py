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

With --argv it fingerprints argv shapes instead: every flag in both forms,
negative values, values that start with '-', values padded with spaces,
missing values, repeated, unknown and abbreviated flags, a boolean flag
given a value, an invalid strategy, config files against flags, the order
of errors, and an out_dir the file system cannot encode. These run in a
temporary working directory that holds the config files they name:

    PYTHONPATH=src python tools/cli_grid.py --argv
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
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


# config files of the argv shapes, written to their working directory
CONFIG_FILES = {
    "run.cfg": "theta = 2e-5\nhorizon = 4\nn_sims = 3\nstrategy = naive,informed\n",
    "bad.cfg": "rho = fast\n",
    "-run.cfg": "horizon = 2\n",
    "dup.cfg": "strategy = naive,naive\n",
}
MC = ("montecarlo", "--horizon", "3", "--n-sims", "2")
# each flag with a value, given as --key VALUE by one shape and --key=VALUE by the next
VALUES = (("--theta", "1e-4"), ("--gamma", "2.5"), ("--rho", "-0.25"),
          ("--sigma-eps-sq", "0.01"), ("--sigma-eta-sq", "0.002"), ("--s0", "5e4"),
          ("--p0", "20"), ("--horizon", "2"), ("--n-sims", "4"), ("--seed", "11"),
          ("--strategy", "informed"), ("--config", "run.cfg"), ("--out-dir", "."),
          ("--theta", "-1e-5"), ("--gamma", "-2.5e1"), ("--seed", "-1"), ("--rho", "-2"),
          ("--theta", "abc"), ("--horizon", "2.5"), ("--theta", ""),
          ("--out-dir", "-x"), ("--config", "-run.cfg"), ("--strategy", "-x"),
          ("--strategy", "twap"), ("--strategy", "naive,ar"),
          # padded values, read as their config lines: ' out ' is the directory out
          ("--theta", " abc "), ("--out-dir", " out "))
ARGV = (
    *((*MC, *form) for flag, value in VALUES for form in ((flag, value), (f"{flag}={value}",))),
    # missing values: at the end, and before another flag
    *((*MC, flag) for flag in ("--theta", "--seed", "--strategy", "--config", "--out-dir")),
    (*MC, "--theta", "--gamma", "1"), (*MC, "--out-dir", "--x"),
    # repeated flags: the last value wins; --strategy accumulates
    (*MC, "--theta", "abc", "--theta", "1e-4"),
    (*MC, "--seed", "1", "--seed=2"),
    (*MC, "--strategy", "ar", "--strategy", "naive", "--strategy", "ar"),
    # unknown and abbreviated flags
    (*MC, "--frobnicate", "1"), (*MC, "frobnicate"), (*MC, "-x"), (*MC, "--sigma_eps_sq", "0"),
    (*MC, "--frob", "--theta", "1e-4", "--blah"), (*MC, "--", "--theta", "1e-4"),
    (*MC, "--the", "1e-4"), (*MC, "--the=1e-4"), (*MC, "--n-sim", "5"), (*MC, "--s", "1"),
    (*MC, "--clamp"),
    # boolean flags, alone and given a value
    ("simulate", "--strategy", "ar", "--clamp-nonneg-orders", "--ar-value-toggle"),
    (*MC, "--clamp-nonneg-orders=true"), (*MC, "--ar-value-toggle="),
    # config against flags, and the order of errors
    ("montecarlo", "--config", "run.cfg"),
    ("montecarlo", "--config", "run.cfg", "--theta", "1e-4", "--horizon", "3"),
    ("montecarlo", "--theta", "1e-4", "--strategy", "ar", "--config", "run.cfg"),
    (*MC, "--theta", "abc", "--config", "bad.cfg"),
    (*MC, "--config", "bad.cfg", "--theta"),
    (*MC, "--config", "bad.cfg", "--frob"),
    (*MC, "--config", "missing.cfg", "--theta", "abc"),
    (*MC, "--seed", "abc", "--theta", "abc"),
    (*MC, "--frob", "--theta"),
    # a strategy named twice, in the config file and in the flags
    ("simulate", "--config", "dup.cfg"),
    ("simulate", "--strategy", "naive,naive"),
    # an out_dir the file system cannot encode, which argv never carries on Linux
    *((*command, "--out-dir", "\ud800") for command in (
        ("simulate", "--horizon", "3"), MC, ("convergence", "--horizon", "3", "--n-sims", "2"))),
)


def grid() -> list[tuple[str, ...]]:
    """Every spec's argv, without --out-dir, in a fixed order."""
    return [(*command, "--horizon", str(T), *clamp, *calibration, "--seed", str(seed))
            for command, T, clamp, calibration, seed
            in product(COMMANDS, HORIZONS, CLAMPS, CALIBRATIONS, SEEDS)]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_spec(argv: tuple[str, ...], out_dir: Path) -> str:
    """Run one spec with its files written to the empty directory out_dir
    and return its line; out_dir is emptied again afterwards. --out-dir
    follows the command, so the spec's last token ends argv and a later
    --out-dir in the spec overrides it."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main([argv[0], "--out-dir", str(out_dir), *argv[1:]])
    fields = [" ".join(argv), f"exit={code}",
              f"stdout={_sha(stdout.getvalue().encode())}",
              f"stderr={_sha(stderr.getvalue().encode())}"]
    for path in sorted(out_dir.iterdir()):
        fields.append(f"{path.name}={_sha(path.read_bytes())}")
        path.unlink()
    return " | ".join(fields)


def argv_lines() -> list[str]:
    """The line of every argv shape, run in a temporary working directory
    that holds CONFIG_FILES."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in CONFIG_FILES.items():
            (Path(tmp) / name).write_text(text)
        out_dir = Path(tmp) / "out"
        out_dir.mkdir()
        os.chdir(tmp)
        try:
            return [run_spec(argv, out_dir) for argv in ARGV]
        finally:
            os.chdir(cwd)


def main(args: list[str]) -> int:
    if args == ["--argv"]:
        # an argv may hold a lone surrogate, which only an escape prints
        print("\n".join(argv_lines()).encode("utf-8", "backslashreplace").decode())
        return 0
    if args:
        print("usage: cli_grid.py [--argv]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        for argv in grid():
            print(run_spec(argv, Path(tmp)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
