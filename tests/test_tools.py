"""tools/cli_grid.py fingerprints CLI outputs; a handful of its specs run here."""

import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

import numpy as np
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


def test_the_argv_shapes_read_both_flag_forms_alike():
    lines = cli_grid.argv_lines()
    assert len(lines) == len(set(cli_grid.ARGV)) == len(cli_grid.ARGV)
    fields = [line.split(" | ") for line in lines]
    assert [f[0] for f in fields] == [" ".join(argv) for argv in cli_grid.ARGV]
    assert all(f[1] in ("exit=0", "exit=2") for f in fields)
    # shape 2i gives a flag as --key VALUE and shape 2i + 1 as --key=VALUE
    for i in range(len(cli_grid.VALUES)):
        assert fields[2 * i][1:] == fields[2 * i + 1][1:], fields[2 * i][0]


# the lines of the simulate specs with the naive and informed rules, whose
# bytes depend on no BLAS kernel: a change that moves them on purpose
# regenerates the file in a commit of its own, with
#   PYTHONPATH=src python tools/cli_grid.py | grep -E '^simulate --strategy (naive|informed) '
NAIVE_INFORMED_LINES = ROOT / "tests" / "data" / "cli_grid_simulate_naive_informed.txt"
NAIVE_INFORMED = [argv for argv in GRID
                  if argv[:3] in (("simulate", "--strategy", "naive"),
                                  ("simulate", "--strategy", "informed"))]


def test_naive_and_informed_simulate_lines_equal_the_committed_ones(tmp_path):
    expected = NAIVE_INFORMED_LINES.read_text().splitlines()
    assert len(expected) == len(NAIVE_INFORMED) == 392
    assert [line.split(" | ")[0] for line in expected] == [" ".join(a) for a in NAIVE_INFORMED]
    for argv, want in zip(NAIVE_INFORMED, expected):
        got = cli_grid.run_spec(argv, tmp_path)
        assert got == want, (f"numpy {np.__version__}: the first spec whose outputs differ "
                             f"from the committed line is {' '.join(argv)!r}\n"
                             f"got:  {got}\nwant: {want}")


# the line of every argv shape but the one simulate spec with the ar rule,
# whose refit at T = 20 runs through a BLAS kernel, as --argv prints them: a
# change that moves them on purpose regenerates the file in a commit of its own, with
#   PYTHONPATH=src python tools/cli_grid.py --argv | grep -v '^simulate --strategy ar '
ARGV_LINES = ROOT / "tests" / "data" / "cli_grid_argv.txt"


def test_argv_shape_lines_equal_the_committed_ones():
    expected = ARGV_LINES.read_text(encoding="utf-8").splitlines()
    got = [line.encode("utf-8", "backslashreplace").decode()  # an argv's lone surrogate
           for argv, line in zip(cli_grid.ARGV, cli_grid.argv_lines())
           if argv[:3] != ("simulate", "--strategy", "ar")]
    assert len(expected) == len(got) == 91
    assert [line.split(" | ")[0] for line in expected] == [line.split(" | ")[0] for line in got]
    for line, want in zip(got, expected):
        assert line == want, (f"numpy {np.__version__}: the first argv whose outputs differ "
                              f"from the committed line is {line.split(' | ')[0]!r}\n"
                              f"got:  {line}\nwant: {want}")


def _load_ab_time():
    spec = importlib.util.spec_from_file_location("ab_time", ROOT / "tools" / "ab_time.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_time_times_a_checkout_against_itself(capsys, monkeypatch):
    ab_time = _load_ab_time()
    src = str(ROOT / "src")
    assert ab_time.main([src, src, "--rounds", "4", "--warmup", "1",
                         "--argv", "simulate --strategy ar --horizon 4 --seed {i}",
                         "--argv", "montecarlo --horizon 4 --n-sims 3 --seed {i}"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "a", "b", "median per-round ratio b/a", "rounds in which b was faster",
        "interquartile range of the per-round ratio b/a"]
    ratio = float(lines[2].split(": ")[1].split()[0])
    assert 0.0 < ratio < float("inf")
    wins, of = lines[3].split(": ")[1].split(" of ")
    assert 0 <= int(wins) <= 4 and of == "4"
    assert 0.0 <= float(lines[4].split(": ")[1]) < float("inf")
    res = ab_time.ab_time(src, src, [["simulate", "--horizon", "3", "--seed", "{i}"]],
                          rounds=2, warmup=0)
    assert res["a_s"] > 0.0 and res["b_s"] > 0.0
    assert 0.0 < res["ratio"] < float("inf")
    # with every round's time fixed (a 1 s, b as listed), the win count and
    # the interquartile range of the ratios are exact
    b_times = [0.5, 2.0, 0.9, 1.1]
    monkeypatch.setattr(ab_time, "_run_round", lambda cli, argvs, index, out_dir: (
        b_times[index] if cli.__name__.startswith("_ab_time_b") else 1.0, [0]))
    res = ab_time.ab_time(src, src, [["simulate"]], rounds=4, warmup=0)
    assert (res["ratio"], res["b_wins"]) == (1.0, 2)
    assert res["ratio_iqr"] == pytest.approx(1.325 - 0.8)
    res = ab_time.ab_time(src, src, [["simulate"]], rounds=1, warmup=0)
    assert (res["ratio"], res["b_wins"], res["ratio_iqr"]) == (0.5, 1, 0.0)


def test_ab_time_stops_when_the_checkouts_exit_differently(tmp_path):
    # a stand-in checkout whose CLI exits 3 on every call
    package = tmp_path / "src" / "bestexec"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("def main(argv):\n    return 3\n")
    ab_time = _load_ab_time()
    with pytest.raises(SystemExit, match="round 0 exit codes differ: a \\[0\\], b \\[3\\]"):
        ab_time.ab_time(str(ROOT / "src"), str(tmp_path / "src"),
                        [["simulate", "--horizon", "4"]], rounds=2, warmup=0)


def test_ab_time_rejects_zero_rounds(capsys):
    ab_time = _load_ab_time()
    src = str(ROOT / "src")
    with pytest.raises(SystemExit) as info:
        ab_time.main([src, src, "--argv", "simulate", "--rounds", "0"])
    assert info.value.code == 2
    assert "--rounds must be >= 1" in capsys.readouterr().err
