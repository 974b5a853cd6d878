"""tools/cli_grid.py fingerprints CLI outputs; a handful of its specs run here."""

import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

import pytest

from bestexec.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _load_cli_grid():
    spec = importlib.util.spec_from_file_location("cli_grid", ROOT / "tools" / "cli_grid.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cli_grid = _load_cli_grid()
GRID = cli_grid.grid()


def test_the_grid_has_its_1568_distinct_specs():
    assert len(GRID) == len(set(GRID)) == 1568
    assert all("--out-dir" not in argv for argv in GRID)


# every command at T = 4 and seed 0, at the baseline and at s0 = 5e-324
HANDFUL = [(*command, "--horizon", "4", *calibration, "--seed", "0")
           for command in cli_grid.COMMANDS
           for calibration in (cli_grid.CALIBRATIONS[0], cli_grid.CALIBRATIONS[-1])]


def test_the_handful_is_in_the_grid():
    assert set(HANDFUL) <= set(GRID)


@pytest.mark.parametrize("argv", HANDFUL, ids=" ".join)
def test_a_spec_line_is_the_digests_of_its_run(argv, tmp_path):
    line = cli_grid.run_spec(argv, tmp_path)
    assert list(tmp_path.iterdir()) == []
    assert cli_grid.run_spec(argv, tmp_path) == line
    # the same spec run directly gives the digests the line holds
    out = tmp_path / "direct"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out-dir", str(out)])
    files = sorted(out.iterdir()) if out.exists() else []
    expected = [" ".join(argv), f"exit={code}",
                f"stdout={hashlib.sha256(stdout.getvalue().encode()).hexdigest()}",
                f"stderr={hashlib.sha256(stderr.getvalue().encode()).hexdigest()}",
                *(f"{p.name}={hashlib.sha256(p.read_bytes()).hexdigest()}" for p in files)]
    assert line == " | ".join(expected)
    assert (code == 0) == bool(files)
    assert code in (0, 2)
