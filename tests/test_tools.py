"""tools/cli_grid.py fingerprints CLI outputs; a handful of its specs run here."""

import contextlib
import hashlib
import io
import json
import subprocess
from pathlib import Path

import numpy as np
import pytest
from oracles import ROOT, load_script

from bestexec.cli import main

TOOLS = ROOT / "tools"
cli_grid = load_script(TOOLS / "cli_grid.py")
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


def test_ab_time_times_a_checkout_against_itself(capsys, monkeypatch):
    ab_time = load_script(TOOLS / "ab_time.py")
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
    ab_time = load_script(TOOLS / "ab_time.py")
    with pytest.raises(SystemExit, match="round 0 exit codes differ: a \\[0\\], b \\[3\\]"):
        ab_time.ab_time(str(ROOT / "src"), str(tmp_path / "src"),
                        [["simulate", "--horizon", "4"]], rounds=2, warmup=0)


def test_ab_time_rejects_zero_rounds(capsys):
    ab_time = load_script(TOOLS / "ab_time.py")
    src = str(ROOT / "src")
    with pytest.raises(SystemExit) as info:
        ab_time.main([src, src, "--argv", "simulate", "--rounds", "0"])
    assert info.value.code == 2
    assert "--rounds must be >= 1" in capsys.readouterr().err


def _bench_line(correct=True, failed=0, **values):
    """A bench/run.py result line with the given end-to-end metric values."""
    return json.dumps({"correct": correct, "attempted": 10, "failed": failed,
                       "metrics": {name: {"value": v, "unit": "-"} for name, v in values.items()}})


def test_bench_pairs_summarizes_canned_runs(capsys, monkeypatch):
    bench_pairs = load_script(TOOLS / "bench_pairs.py")
    parent_sims = [100.0, 104.0, 96.0, 102.0, 98.0, 100.0, 101.0, 99.0, 103.0, 97.0]
    calls = []

    def canned(argv, capture_output, text):
        root, seed = Path(argv[1]).parents[1].name, int(argv[argv.index("--seed") + 1])
        calls.append((root, seed, argv[argv.index("--seconds") + 1]))
        k = seed - 50
        sims = parent_sims[k] * (1.2 if root == "change" else 1.0)  # the change wins every pair
        p50 = 10.0 if root == "parent" else 13.0  # and is 30% worse on this one
        rss = 50.0 if root == "parent" else 50.0 + (k % 3 - 1)  # a mix of wins, ties, losses
        line = _bench_line(sims_per_s=sims, episode_p50_ms=p50, peak_rss_mb=rss, setup_s=0.3)
        return subprocess.CompletedProcess(argv, 0, stdout=f"workload=w\n{line}\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", canned)
    assert bench_pairs.main(["x/parent", "x/change", "--workload", "study_T20",
                             "--pairs", "10", "--seed", "50"]) == 0
    # pair k runs seed 50 + k on both sides, the parent first in even pairs
    assert [c[:2] for c in calls[:4]] == [("parent", 50), ("change", 50),
                                         ("change", 51), ("parent", 51)]
    assert len(calls) == 20 and {c[2] for c in calls} == {"20"}
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "workload=study_T20 pairs=10 seeds=50..59 seconds=20"
    rows = dict(line.split(": ", 1) for line in lines[1:])
    assert list(rows) == ["sims_per_s", "episode_p50_ms", "peak_rss_mb", "setup_s"]
    # parent IQR of sims_per_s: quartiles 98.25 and 101.75 of median 100
    assert rows["sims_per_s"] == ("parent 100 change 120 1/s | parent IQR 3.5% of median | "
                                  "change won 10 of 10 | gain")
    assert rows["episode_p50_ms"].endswith("change won 0 of 10 | worse")
    assert rows["peak_rss_mb"].endswith("change won 4 of 10 | same")  # 3 ties, 3 losses
    assert rows["setup_s"].endswith("change won 0 of 10 | same")


@pytest.mark.parametrize("returncode, line, message", [
    (1, "", "exited 1"),
    (0, _bench_line(correct=False), "correct=False"),
    (0, _bench_line(failed=2), "2 failed calls"),
])
def test_bench_pairs_stops_on_a_failed_run(monkeypatch, returncode, line, message):
    bench_pairs = load_script(TOOLS / "bench_pairs.py")
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda argv, capture_output, text:
                        subprocess.CompletedProcess(argv, returncode, stdout=line, stderr=""))
    with pytest.raises(SystemExit, match=message):
        bench_pairs.main(["parent", "change", "--workload", "study_T20", "--pairs", "1"])


def test_a_seeds_mutants_are_fixed_and_every_survivor_site_exists():
    # each line of the survivors of tools/mutants.py --seed 30 --count 70 is
    # "<id> <site> <change>: <reason>"; no mutant runs here
    mutants = load_script(TOOLS / "mutants.py")
    drawn = mutants.draw(30, 70)
    assert drawn == mutants.draw(30, 70) != mutants.draw(31, 70)
    for line in (ROOT / "tests" / "data" / "mutant_survivors.txt").read_text().splitlines():
        if not line.startswith("#"):
            ident, site, change = line.split(": ", 1)[0].split(" ", 2)
            assert (drawn[int(ident[1:])].site, drawn[int(ident[1:])].change) == (site, change)
