import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bestexec import cli, simulation
from bestexec.cli import (BLOTTER_HEADER, CONVERGENCE_HEADER, RunSpec,
                          SpecError, main, parse_config)
from bestexec.strategies import STRATEGIES


def test_defaults_are_the_baseline_calibration():
    spec = parse_config([])
    assert spec.theta == 5e-5
    assert spec.gamma == 5.0
    assert spec.rho == 0.5
    assert spec.sigma_eps_sq == 0.125 ** 2
    assert spec.sigma_eta_sq == 0.001
    assert spec.s0 == 100000.0
    assert spec.p0 == 50.0
    assert spec.horizon == 20
    assert spec.strategies == ("naive", "informed", "ar")
    assert spec.n_sims == 100
    assert spec.clamp_nonneg_orders is False


def test_flags_override_file_values(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("horizon = 20\nrho = 0.25\n")
    spec = parse_config(["--config", str(cfg), "--horizon", "5"])
    assert spec.horizon == 5
    assert spec.rho == 0.25


def test_config_round_trip(tmp_path):
    spec = RunSpec(theta=7.25e-5, gamma=3.5, rho=-0.3, sigma_eps_sq=0.01,
                   sigma_eta_sq=0.002, s0=50000.0, p0=33.33, horizon=15,
                   strategies=("informed", "ar"), n_sims=7, seed=11,
                   out_dir="results", clamp_nonneg_orders=True,
                   ar_value_toggle=True)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_config_text(spec))
    assert parse_config(["--config", str(cfg)]) == spec


def _config_text(spec):
    """Config-file text with one `key = value` line per field of spec, its
    floats at 17 significant digits."""
    values = {field.name: getattr(spec, field.name) for field in dataclasses.fields(spec)}
    values["strategy"] = ",".join(values.pop("strategies"))
    return "".join(f"{key} = {format(value, '.17g') if type(value) is float else value}\n"
                   for key, value in values.items())


def _a_line_carries(out_dir):
    """Whether the line `out_dir = <out_dir>` of a UTF-8 file can read back
    as out_dir: not with a '#', a line break or whitespace at either end,
    nor with a lone surrogate, which UTF-8 does not encode."""
    return ("#" not in out_dir and out_dir == out_dir.strip()
            and len(f"x{out_dir}x".splitlines()) == 1
            and not any("\ud800" <= c <= "\udfff" for c in out_dir))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)  # -0.0 and subnormals included
_NONNEG = st.one_of(st.just(-0.0), st.floats(0.0, allow_infinity=False))
_POSITIVE = st.floats(0.0, allow_infinity=False, exclude_min=True)
_OUT_DIR_TEXT = st.text(st.characters(exclude_characters="\0"))  # a spec refuses a NUL


@st.composite
def _specs(draw):
    """Valid RunSpecs over the whole range of every field."""
    strategies = tuple(draw(st.lists(st.sampled_from(STRATEGIES), min_size=1, max_size=4)))
    needs_theta = "informed" in strategies or "ar" in strategies
    return RunSpec(
        theta=draw(_POSITIVE if needs_theta else _FINITE), gamma=draw(_FINITE),
        rho=draw(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)),
        sigma_eps_sq=draw(_NONNEG), sigma_eta_sq=draw(_NONNEG),
        s0=draw(_POSITIVE), p0=draw(_POSITIVE), horizon=draw(st.integers(1, 10 ** 6)),
        strategies=strategies, n_sims=draw(st.integers(1, 10 ** 9)),
        seed=draw(st.integers(0, 2 ** 64 - 1)),
        out_dir=draw(st.one_of(_OUT_DIR_TEXT, st.sampled_from(
            ["results", "a#b", " lead", "trail ", "x\ny", "x\ry", "x\u2028y", ""]))),
        clamp_nonneg_orders=draw(st.booleans()), ar_value_toggle=draw(st.booleans()))


def _parse_config_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(text, encoding="utf-8")
        return parse_config(["--config", str(cfg)])


@settings(max_examples=300, deadline=None)
@given(spec=_specs())
# on Linux, argv decodes a byte that is not UTF-8 to a lone surrogate:
# --out-dir $'\xff' gives '\udcff'
@example(spec=RunSpec(out_dir="\udcff"))
def test_a_config_file_reads_back_its_spec_unless_no_line_carries_out_dir(spec):
    if _a_line_carries(spec.out_dir):
        parsed = _parse_config_text(_config_text(spec))
        assert parsed == spec
        assert repr(parsed) == repr(spec)  # and -0.0 stays -0.0
    else:
        # the plain out_dir line reads back as another value, or no UTF-8
        # file can hold it
        try:
            assert _parse_config_text(f"out_dir = {spec.out_dir}\n").out_dir != spec.out_dir
        except (SpecError, UnicodeEncodeError):
            pass


def test_simulate_blotter_file(tmp_path, capsys):
    rc = main(["simulate", "--strategy", "naive", "--seed", "7",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "blotter.csv").read_text().splitlines()
    assert lines[0] == BLOTTER_HEADER
    assert len(lines) == 23  # header + 21 rows + footer
    assert lines[1] == "0,50,0,100000,0,0"
    footer = json.loads(lines[-1])
    assert set(footer) == {"actual_cost", "expected_cost", "improvement_per_share"}
    out = capsys.readouterr().out
    assert "Actual Cost" in out and "Improvement" in out


def test_simulate_zero_noise_improvement_is_zero(tmp_path):
    rc = main(["simulate", "--strategy", "naive", "--sigma-eps-sq", "0",
               "--sigma-eta-sq", "0", "--out-dir", str(tmp_path)])
    assert rc == 0
    footer = json.loads((tmp_path / "blotter.csv").read_text().splitlines()[-1])
    assert abs(footer["improvement_per_share"]) < 1e-12


def test_simulate_ar_first_order_is_uniform_slice(tmp_path):
    rc = main(["simulate", "--strategy", "ar", "--seed", "3",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    row1 = (tmp_path / "blotter.csv").read_text().splitlines()[2].split(",")
    assert float(row1[2]) == 5000.0


def test_a_spec_holds_each_strategy_once_in_first_seen_order():
    spec = RunSpec(strategies=["ar", "naive", "ar"])
    assert spec.strategies == ("ar", "naive")
    assert spec == RunSpec(strategies=("ar", "naive"))
    assert hash(spec) == hash(RunSpec(strategies=("ar", "naive")))
    assert _parse_config_text("strategy = naive,naive\n").strategies == ("naive",)
    # a spec takes a list or a tuple: an iterator is refused whole, unread
    names = iter(["naive"])
    with pytest.raises(SpecError):
        RunSpec(strategies=names)
    assert list(names) == ["naive"]


def test_montecarlo_outputs(tmp_path):
    # test_criterion_10_determinism reruns this command and compares the bytes
    rc = main(["montecarlo", "--n-sims", "30", "--seed", "5", "--out-dir", str(tmp_path / "a")])
    assert rc == 0
    series = (tmp_path / "a" / "order_size_mean.csv").read_text().splitlines()
    assert series[0] == "period,naive,informed,ar"
    assert len(series) == 21
    totals = (tmp_path / "a" / "total_costs.csv").read_text().splitlines()
    assert totals[0] == "sim,naive,informed,ar"
    assert len(totals) == 31
    summary = (tmp_path / "a" / "summary.txt").read_text()
    assert "naive_mean_improvement = " in summary
    assert "ar_sd_improvement = " in summary


def test_montecarlo_single_sim(tmp_path):
    rc = main(["montecarlo", "--n-sims", "1", "--strategy", "naive",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    totals = (tmp_path / "total_costs.csv").read_text().splitlines()
    assert len(totals) == 2


def test_convergence_file(tmp_path):
    rc = main(["convergence", "--n-sims", "12", "--seed", "2",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert lines[0] == CONVERGENCE_HEADER
    assert lines[0] == ("period,theta_hat_mean,theta_hat_sd,gamma_hat_mean,"
                        "gamma_hat_sd,rho_hat_mean,rho_hat_sd,"
                        "sigma_eps_sq_hat_mean,sigma_eps_sq_hat_sd,"
                        "sigma_eta_sq_hat_mean,sigma_eta_sq_hat_sd")
    assert len(lines) == 21


def test_convergence_zero_price_noise_pins_impact_columns(tmp_path):
    rc = main(["convergence", "--n-sims", "10", "--sigma-eps-sq", "0",
               "--seed", "2", "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "convergence.csv").read_text().splitlines()[1:]
    saw_valid = False
    for line in lines:
        cells = line.split(",")
        theta_mean, theta_sd = float(cells[1]), float(cells[2])
        if math.isfinite(theta_mean):
            saw_valid = True
            assert abs(theta_mean - 5e-5) / 5e-5 < 1e-9
            assert theta_sd <= 1e-12 * 5e-5
    assert saw_valid


def test_convergence_single_sim_has_zero_spread(tmp_path):
    rc = main(["convergence", "--n-sims", "1", "--out-dir", str(tmp_path)])
    assert rc == 0
    for line in (tmp_path / "convergence.csv").read_text().splitlines()[1:]:
        cells = [float(v) for v in line.split(",")[1:]]
        sds = cells[1::2]
        assert all(sd == 0.0 for sd in sds if math.isfinite(sd))


def test_unwritable_output_path(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    rc = main(["simulate", "--strategy", "naive",
               "--out-dir", str(blocker / "sub")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


_SMALL_RUNS = {"simulate": ["--horizon", "3"],
               "montecarlo": ["--horizon", "3", "--n-sims", "2"],
               "convergence": ["--horizon", "3", "--n-sims", "2"]}
_FILES = {"simulate": ["blotter.csv"], "convergence": ["convergence.csv"],
          "montecarlo": ["accumulated_cost_variance.csv", "order_size_mean.csv",
                         "summary.txt", "total_costs.csv"]}


@pytest.mark.parametrize("command", list(_SMALL_RUNS))
def test_a_missing_nested_out_dir_is_created(tmp_path, command):
    out = tmp_path / "a" / "b" / "c"
    rc, _, err, _ = _run_cli([command, *_SMALL_RUNS[command], "--out-dir", str(out)])
    assert (rc, err) == (0, "")
    assert sorted(p.name for p in out.iterdir()) == _FILES[command]


@pytest.mark.parametrize("command", list(_SMALL_RUNS))
def test_an_out_dir_that_is_a_file_exits_1_with_the_mkdir_error(tmp_path, command):
    # the files are opened first and the directory made only when that
    # fails; the error is still mkdir's, as when the directory came first
    blocker = tmp_path / "file"
    blocker.write_text("x")
    rc, out, err, _ = _run_cli([command, *_SMALL_RUNS[command], "--out-dir", str(blocker)])
    assert rc == 1
    assert err == f"error: io: [Errno 17] File exists: {str(blocker)!r}\n"
    assert out == ""
    assert blocker.read_text() == "x"


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 7.45 GiB for an array with shape (1000000, 1000)",
     "error: memory: Unable to allocate 7.45 GiB for an array with shape (1000000, 1000)\n"),
    ("", "error: memory: out of memory\n"),
], ids=["numpy", "bare"])
@pytest.mark.parametrize("command", list(_SMALL_RUNS))
def test_an_allocation_that_fails_exits_1_with_one_line(tmp_path, monkeypatch, command,
                                                        message, line):
    # the engines (the study's, the online loop that convergence runs, and
    # simulate's episode) raising as numpy does when an array cannot be
    # allocated; no real memory limit is involved
    def fail(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(simulation, "_run_batch", fail)
    monkeypatch.setattr(simulation, "_ar_orders", fail)
    monkeypatch.setattr(cli, "run_episode", fail)
    out_dir = tmp_path / "out"
    rc, out, err, _ = _run_cli([command, *_SMALL_RUNS[command], "--out-dir", str(out_dir)])
    assert (rc, out, err) == (1, "", line)
    assert not out_dir.exists()


@pytest.mark.parametrize("form", [["--strategy", "naive,ar"], ["--strategy=naive,ar"],
                                  ["--strategy", " naive , ar ,"]])
def test_a_strategy_flag_takes_the_config_lines_comma_list(form):
    spec = parse_config(form)
    assert spec.strategies == ("naive", "ar")
    assert spec == _parse_config_text("strategy = naive,ar\n")
    # a repeated flag still appends, and names are kept once, in order
    assert parse_config([*form, "--strategy", "informed,naive"]).strategies == (
        "naive", "ar", "informed")


def test_a_value_may_start_with_one_dash(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-x").write_text("horizon = 3\n")
    assert parse_config(["--out-dir", "-x"]).out_dir == "-x"
    assert parse_config(["--config", "-x"]).horizon == 3
    assert parse_config(["--config=-x", "--out-dir=-y"]).out_dir == "-y"


def test_a_repeated_flag_keeps_its_last_value_and_reads_only_it():
    assert parse_config(["--theta", "abc", "--theta", "1e-4"]).theta == 1e-4
    assert parse_config(["--seed=3", "--seed", "4"]).seed == 4


def test_errors_come_in_argv_shape_then_file_then_value_order(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("rho = fast\n")
    missing = tmp_path / "missing.cfg"
    for argv, message in [
            (["--theta", "abc", "--config", str(bad)], "rho: unparsable value 'fast'"),
            (["--config", str(bad), "--theta"], "theta: expected one argument"),
            (["--config", str(bad), "--frob"], "argv: unknown arguments '--frob'"),
            (["--frob", "--theta"], "theta: expected one argument"),
            (["--theta", "abc", "--config", str(missing)], f"config: cannot read {missing}: "),
            (["--config", str(bad), "--strategy", "twap"], "rho: unparsable value 'fast'"),
            # a strategy name is checked by the spec, after every flag value
            (["--strategy", "twap", "--theta", "abc"], "theta: unparsable value 'abc'"),
            # flag values are read in the keys' fixed order, not in argv's
            (["--seed", "abc", "--theta", "abc"], "theta: unparsable value 'abc'")]:
        with pytest.raises(SpecError) as info:
            parse_config(argv)
        assert str(info.value).startswith(message), argv


def _run_cli(argv):
    """(exit code, stdout, stderr, warnings raised) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue(), caught


# the most shock pairs a noise buffer numpy can address holds
_LIMIT = np.iinfo(np.intp).max // 16
_BUFFER = "for a noise buffer numpy can address"
_CHOOSE = "(choose from naive, informed, ar)"
_NO_VALUE = object()  # a text that no hand-built value stands for

# one refusal a row: (config key, the text of its flag and config line or
# None, a hand-built RunSpec's value or _NO_VALUE, the message[, the commands
# that refuse it, if not all]), checked at every door by _check_refused
_REFUSALS = [
    # NaN, infinities and an int beyond the float range, which no float field holds
    *((key, text, value, f"{key}: must be finite (got {shown})")
      for key in ("theta", "gamma", "rho", "sigma_eps_sq", "sigma_eta_sq", "s0", "p0")
      for text, value, shown in (*((text, float(text), text) for text in ("nan", "inf", "-inf")),
                                 (None, 10 ** 400, "a number beyond the float range"))),
    ("theta", "abc", _NO_VALUE, "theta: unparsable value 'abc'"),
    ("theta", "0", 0.0, "theta: must be > 0 for the informed/ar strategies (got 0.0)"),
    ("theta", "-1e-5", -1e-5, "theta: must be > 0 for the informed/ar strategies (got -1e-05)"),
    ("rho", "1.5", 1.5, "rho: |rho| must be < 1 (got 1.5)"),
    ("sigma_eps_sq", "-1", -1.0, "sigma_eps_sq: must be >= 0 (got -1.0)"),
    ("p0", "0", 0.0, "p0: must be > 0 (got 0.0)"),
    ("horizon", "0", 0, "horizon: must be >= 1 (got 0)"),
    ("horizon", "2.5", _NO_VALUE, "horizon: unparsable value '2.5'"),
    *(("horizon", str(n), n, f"horizon: must be <= {_LIMIT} {_BUFFER} (got {n})")
      for n in (_LIMIT + 1, 10 ** 400)),
    ("n_sims", "0", 0, "n_sims: must be >= 1 (got 0)"),
    ("n_sims", None, 2.5, "n_sims: must be an integer (got 2.5)"),
    # simulate reads no n_sims, but a spec holds no size numpy cannot address
    *(("n_sims", str(n), n, f"n_sims: must be <= {_LIMIT // 20} at horizon 20 {_BUFFER} "
       f"(got {n})") for n in (_LIMIT // 20 + 1, 10 ** 23)),
    *(("seed", str(n), n, f"seed: must be in [0, 2**64) (got {n})")
      for n in (-1, 2 ** 64, 99999999999999999999999)),
    # an int too long for str is shown by str's limit
    *((key, None, n, f"{key}: must be {bound} (got {an} int of more than "
       f"{sys.get_int_max_str_digits()} digits)") for key, n, bound, an in (
        ("horizon", 10 ** 5000, f"<= {_LIMIT} {_BUFFER}", "an"),
        ("n_sims", 10 ** 5000, f"<= {_LIMIT // 20} at horizon 20 {_BUFFER}", "an"),
        ("n_sims", -10 ** 5000, ">= 1", "a negative"),
        ("seed", 10 ** 5000, "in [0, 2**64)", "an"))),
    ("strategy", "twap", ("twap",), f"strategy: unknown strategy 'twap' {_CHOOSE}"),
    ("strategy", "naive,twap", ["naive", "twap"], f"strategy: unknown strategy 'twap' {_CHOOSE}"),
    ("strategy", "", (), "strategy: at least one strategy required"),
    *(("strategy", text, _NO_VALUE, "strategy: at least one strategy required")
      for text in (",", " , ")),
    # a str would be read as its characters, a set in PYTHONHASHSEED's order
    # and an iterator once; an unhashable name is checked before it is hashed
    *(("strategy", None, value, f"strategy: must be a sequence of names (got {value!r})")
      for value in ("ar", None, 5, {"ar"}, frozenset({"ar"}), iter(["naive"]), {"ar": 1})),
    ("strategy", None, [["ar"]], f"strategy: unknown strategy ['ar'] {_CHOOSE}"),
    # a spec holds distinct names: a file's repeat counts once
    *(("strategy", text, text.split(","), "strategy: simulate needs exactly one strategy "
       "(got 2)", ("simulate",)) for text in ("naive,ar", "naive,ar,naive")),
    ("strategy", "naive", ["naive"], "strategy: convergence requires the 'ar' strategy",
     ("convergence",)),
    # no command reaches open with it, which would raise a bare ValueError
    ("out_dir", "a\0b", "a\0b", "out_dir: must not hold a NUL character (got 'a\\x00b')"),
    # which os.fsencode would refuse in every command with a bare TypeError
    *(("out_dir", None, value, f"out_dir: must be a str or a str path (got {value!r})")
      for value in (None, 5, b"out")),
    # a non-empty string would otherwise switch the clamp on
    ("clamp_nonneg_orders", None, "false", "clamp_nonneg_orders: must be a bool (got 'false')"),
    ("ar_value_toggle", None, 2, "ar_value_toggle: must be a bool (got 2)"),
]


def _check_exits_2(argv, message, lines="", commands=cli._COMMANDS):
    """Each command, run with a config file of `strategy = ar` (a rule that needs theta > 0) and
    lines, then argv, exits 2 with the one line `error: message` and writes no file."""
    Path("run.cfg").write_text("strategy = ar\n" + lines, encoding="utf-8")
    for command in commands:
        result = _run_cli([command, "--config", "run.cfg", *argv])
        assert result == (2, "", f"error: {message}\n", []), (command, argv, lines)
    assert os.listdir() == ["run.cfg"]


def _check_refused(field, text, value, message, commands=cli._COMMANDS):
    """Each command refuses the value with the message at every door: `--key text`, `--key=text`
    and `key = text` unless text is None, a hand-built RunSpec unless value is _NO_VALUE."""
    if text is not None:
        flag = "--" + field.replace("_", "-")
        for argv, line in ([flag, text], ""), ([f"{flag}={text}"], ""), ([], f"{field} = {text}\n"):
            _check_exits_2(argv, message, line, commands)
    for command in commands if value is not _NO_VALUE else ():
        with pytest.raises(SpecError) as info:
            cli._COMMANDS[command](RunSpec(**{field.replace("strategy", "strategies"): value}))
        assert str(info.value) == message


@pytest.mark.parametrize("row", _REFUSALS, ids=lambda row: f"{row[0]}={row[1]!r:.24}"
                         if row[1] is not None else f"{row[0]}:{type(row[2]).__name__}")
def test_every_door_refuses_a_bad_value_with_one_message(tmp_path, monkeypatch, row):
    monkeypatch.chdir(tmp_path)
    _check_refused(*row)


# refusals that one door alone meets: of argv's shape, of a config line's,
# and of a boolean's text, which no flag carries
@pytest.mark.parametrize("argv, lines, message", [
    (["--theta"], "", "theta: expected one argument"),
    (["--out-dir", "--x"], "", "out_dir: expected one argument"),
    (["--clamp-nonneg-orders=yes"], "", "clamp_nonneg_orders: ignored explicit argument 'yes'"),
    # flags are never abbreviated
    *((argv, "", f"argv: unknown arguments {' '.join(argv)!r}") for argv in (
        ["--frobnicate", "1"], ["--n-sim", "5"], ["--the", "1e-5"], ["--the=1e-5"], ["--s", "1"],
        ["--clamp"], ["--sigma_eps_sq", "0.01"])),
    ([], "thetaa = 1\n", "thetaa: unknown key"),
    ([], "theta 1\n", "config: line 2: expected 'key = value', got 'theta 1'"),
    ([], "clamp_nonneg_orders = maybe\n", "clamp_nonneg_orders: expected a boolean, got 'maybe'"),
])
def test_a_refusal_that_one_door_alone_meets(tmp_path, monkeypatch, argv, lines, message):
    monkeypatch.chdir(tmp_path)
    _check_exits_2(argv, message, lines)


def test_an_unknown_command_exits_2_naming_the_choices():
    assert _run_cli(["frobnicate"]) == (2, "", "error: command: unknown command 'frobnicate' "
                                        "(choose from simulate, montecarlo, convergence)\n", [])


def test_cached_flag_parser_keeps_no_state_between_calls(tmp_path):
    small = ["--horizon", "4", "--n-sims", "3"]
    calls = [
        ["simulate", "--strategy", "ar"],
        ["simulate"],  # the default, naive
        ["montecarlo", "--strategy", "naive", "--strategy", "ar"],
        ["montecarlo"],  # all three: the repeated flag's list must not carry over
        ["montecarlo", "--theta"],
        ["simulate", "--strategy", "twap"],
        ["simulate", "--strategy", "informed"],
    ]

    def run(argv, out_dir):
        argv = argv[:1] + small + argv[1:] + ["--out-dir", str(out_dir)]
        rc, out, err, caught = _run_cli(argv)
        files = {p.name: p.read_bytes() for p in out_dir.glob("*")}
        return rc, out, err, [str(w.message) for w in caught], files

    in_sequence = [run(argv, tmp_path / f"seq{i}") for i, argv in enumerate(calls)]
    for i, argv in enumerate(calls):
        assert in_sequence[i] == run(argv, tmp_path / f"own{i}"), argv
    assert [result[0] for result in in_sequence] == [0, 0, 0, 0, 2, 2, 0]
    assert in_sequence[3][4]["total_costs.csv"].startswith(b"sim,naive,informed,ar\n")
    naive = run(["simulate", "--strategy", "naive"], tmp_path / "naive")
    assert in_sequence[1][4]["blotter.csv"] == naive[4]["blotter.csv"]


# a NaN or an infinity as the CLI and json render them ("informed" does not match)
_NON_FINITE = re.compile(r"\b(?:nan|inf|infinity)\b", re.IGNORECASE)
_INFINITE = re.compile(r"\b(?:inf|infinity)\b", re.IGNORECASE)


@pytest.mark.parametrize("argv, name", [
    (["montecarlo", "--n-sims", "2", "--s0", "1e308", "--horizon", "3"],
     "benchmark expected cost"),
    (["montecarlo", "--n-sims", "3", "--sigma-eps-sq", "1e308"], "naive sd improvement"),
    (["montecarlo", "--n-sims", "3", "--theta", "1e300"], "benchmark expected cost"),
    (["simulate", "--p0", "1e308", "--s0", "1e308"], "total cost"),
    (["convergence", "--sigma-eps-sq", "1e308", "--n-sims", "3"], "gamma_hat sd"),
    (["convergence", "--theta", "1e300", "--n-sims", "3"], "theta_hat mean"),
])
def test_overflow_exits_2_before_writing(tmp_path, argv, name):
    rc, out, err, caught = _run_cli(argv + ["--out-dir", str(tmp_path)])
    assert rc == 2
    assert err == f"error: overflow: {name} is not finite\n"
    assert out == "" and not caught
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, name", [("simulate", "total cost"),
                                           ("montecarlo", "benchmark expected cost")])
def test_a_hand_built_spec_of_ints_overflows_as_its_floats_do(tmp_path, command, name):
    for theta, s0 in ((3.0, 1e300), (3, 10 ** 300)):
        spec = RunSpec(theta=theta, s0=s0, horizon=3, n_sims=2, strategies=("naive",),
                       out_dir=str(tmp_path))
        with pytest.raises(SpecError, match=rf"^overflow: {name} is not finite$"):
            cli._COMMANDS[command](spec)
    assert not any(tmp_path.iterdir())


def test_convergence_never_fitted_cells_stay_nan_with_exit_0(tmp_path):
    # no information noise: no simulation ever fits, so every cell is NaN
    rc, out, err, caught = _run_cli(["convergence", "--sigma-eta-sq", "0", "--horizon", "4",
                                     "--n-sims", "3", "--out-dir", str(tmp_path)])
    assert (rc, err, caught) == (0, "", [])
    rows = (tmp_path / "convergence.csv").read_text().splitlines()[1:]
    assert len(rows) == 4
    for row in rows:
        assert row.split(",")[1:] == ["nan"] * 10


_NUMBERS = st.one_of(st.sampled_from(["0", "1", "-1", "0.5", "-0.5", "5e-5", "1e-320"]),
                     st.sampled_from(["1e300", "-1e300", "1e308", "1e154"]),
                     st.sampled_from(["nan", "inf", "-inf", "abc", ""]))
_SMALL_INTS = st.sampled_from(["1", "2", "3", "0", "-1", "2.5", "nan", "abc", ""])
_SEEDS = st.sampled_from(["0", "7", str(2 ** 64 - 1), str(2 ** 64), "-1", "abc"])
_FLAG_VALUES = {
    **{flag: _NUMBERS for flag in ("--theta", "--gamma", "--rho", "--sigma-eps-sq",
                                   "--sigma-eta-sq", "--s0", "--p0")},
    "--horizon": _SMALL_INTS,
    "--n-sims": _SMALL_INTS,
    "--seed": _SEEDS,
}


@st.composite
def _argvs(draw):
    argv = [draw(st.sampled_from(["simulate", "montecarlo", "convergence"]))]
    for flag in draw(st.lists(st.sampled_from(sorted(_FLAG_VALUES)), max_size=5)):
        argv += [flag, draw(_FLAG_VALUES[flag])]
    for name in draw(st.lists(st.sampled_from(["naive", "informed", "ar", "twap"]),
                              max_size=3)):
        argv += ["--strategy", name]
    for flag in ("--clamp-nonneg-orders", "--ar-value-toggle"):
        if draw(st.booleans()):
            argv.append(flag)
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=_argvs())
def test_cli_fuzz_exits_0_or_2_with_finite_files(argv):
    # the default horizon and n_sims are cut down to keep each call small
    argv = argv[:1] + ["--horizon", "4", "--n-sims", "3"] + argv[1:]
    with tempfile.TemporaryDirectory() as tmp:
        rc, out, err, caught = _run_cli(argv + ["--out-dir", tmp])
        assert not caught, [str(w.message) for w in caught]
        if rc == 2:
            assert err.count("\n") == 1 and err.startswith("error: "), err
            assert not any(Path(tmp).iterdir())
        else:
            assert rc == 0, (rc, err)
            for path in Path(tmp).iterdir():
                # NaN cells of convergence.csv mark never-fitted periods
                pattern = _INFINITE if argv[0] == "convergence" else _NON_FINITE
                assert not pattern.search(path.read_text()), path.name


# out_dir's values hold no '#' or line break, which no config line carries
_KEY_VALUES = {**{flag[2:].replace("-", "_"): values for flag, values in _FLAG_VALUES.items()},
               "out_dir": st.sampled_from(["results", "a b", "-x", "\u00fc/x", ""])}
# a line break ends a config line: "\v" and "\f" are whitespace but no padding
_PADDING = st.sampled_from(["", " ", "  ", "\t", " \t"])


def _spec_or_error(parse):
    """repr of the parsed RunSpec, or the message of its one-line SpecError."""
    try:
        return repr(parse())
    except SpecError as exc:
        assert "\n" not in str(exc)
        return f"SpecError: {exc}"


@pytest.mark.parametrize("key", list(_KEY_VALUES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_both_flag_forms_read_a_value_as_its_config_line_property(key, data):
    value = (data.draw(_PADDING, label="lead") + data.draw(_KEY_VALUES[key], label="value")
             + data.draw(_PADDING, label="trail"))
    flag = "--" + key.replace("_", "-")
    assert (_spec_or_error(lambda: parse_config([flag, value]))
            == _spec_or_error(lambda: parse_config([f"{flag}={value}"]))
            == _spec_or_error(lambda: _parse_config_text(f"{key} = {value}\n")))


# pieces of a strategy text: known and unknown names, commas and blanks; none
# starts with '--' (never a flag's value) or holds a '#' or a line break
# (which end a config line's value)
_STRATEGY_TEXTS = st.lists(st.sampled_from(
    ["naive", "informed", "ar", "twap", "-x", "NAIVE", "naive ar", ",", " ", "\t", ""]),
    max_size=6).map("".join)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(texts=st.lists(_STRATEGY_TEXTS, min_size=1, max_size=3))
@example(texts=["naive", ""])  # reads as the line `strategy = naive,`
def test_strategy_flags_and_their_config_line_share_one_path_property(texts):
    # repeated flags read as the one comma list of all their values
    argv = [token for text in texts for token in ("--strategy", text)]
    assert (_spec_or_error(lambda: parse_config(argv))
            == _spec_or_error(lambda: _parse_config_text(f"strategy = {','.join(texts)}\n")))


_CSV_CELLS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.7e308, -1.7e308])


@settings(max_examples=300, deadline=None)
@given(first=st.integers(0, 1), data=st.data())
def test_csv_rows_equal_per_cell_formatting_property(first, data):
    k = data.draw(st.integers(1, 3), label="columns")
    rows = data.draw(st.lists(st.lists(_CSV_CELLS, min_size=k, max_size=k),
                              min_size=1, max_size=5), label="rows")
    expected = "".join(",".join([str(i), *(format(float(v), ".17g") for v in row)]) + "\n"
                       for i, row in enumerate(rows, start=first))
    assert cli._csv_rows(first, [list(column) for column in zip(*rows)]) == expected


# sha256 of every output file of a naive and informed study of the default
# calibration at seed 0: the CLI's bytes. The ar rule is left out, as its
# refit's dot products round by the OpenBLAS kernel the machine selects
# (ROADMAP item 1); the simulate blotters are lines of
# tests/data/cli_grid_simulate_naive_informed.txt.
_PINNED_OUTPUTS = {
    "montecarlo --strategy naive --strategy informed --horizon 1": {
        "accumulated_cost_variance.csv":
            "8c965a5a33b2465b4b4819e63c56c22857ee09e6860b605678a2e5252a167f7f",
        "order_size_mean.csv": "46968b19963697946f0ea7db36aa9ce4a394fd498f7acb1c77c32374bd132ad2",
        "summary.txt": "5cce3a912f9bb1c76349fc5e68966e0d7c136f76ed9a065e195921c9cd1b835b",
        "total_costs.csv": "5b44c20a2351a3a0fe42f24b67ae06da46fd18e7d5aa94e82a5be81b97f8b1b8",
    },
    "montecarlo --strategy naive --strategy informed --horizon 20": {
        "accumulated_cost_variance.csv":
            "aed60d605cd14afc4a6033f687da9e70e6fadd36754a99223e15bbdfc1745c1b",
        "order_size_mean.csv": "2d54c2b0da8e255022ad9ad9d75e3a11214a85ada3fc64a7ca8ca6190f9bd680",
        "summary.txt": "3ce11cc1e6a873789da91dbfe95cd137eb22f09328e66b6494f5c11e39463833",
        "total_costs.csv": "0557f92c8b4deea7ea4397023e706cd1317ce0a4e47d5bd15faf5d7cae39e286",
    },
}


@pytest.mark.parametrize("command", list(_PINNED_OUTPUTS))
def test_cli_output_bytes_are_pinned(tmp_path, command):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(command.split() + ["--seed", "0", "--out-dir", str(tmp_path)]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert digests == _PINNED_OUTPUTS[command]


def test_a_size_numpy_can_address_but_no_memory_holds_exits_1(tmp_path):
    # 16 * 10**12 * 20 bytes is 291 TiB: beyond the user address space, so
    # the allocation fails at once, before any seed is hashed
    out_dir = tmp_path / "out"
    rc, out, err, _ = _run_cli(["montecarlo", "--n-sims", str(10 ** 12),
                                "--out-dir", str(out_dir)])
    assert (rc, out) == (1, "")
    assert err.startswith("error: memory: ") and err.count("\n") == 1, err
    assert not out_dir.exists()


def test_each_bound_admits_its_largest_value(tmp_path):
    # the table refuses each of these plus one
    assert RunSpec(horizon=_LIMIT, n_sims=1).horizon == _LIMIT
    assert RunSpec(n_sims=_LIMIT // 20).n_sims == _LIMIT // 20
    assert main(["montecarlo", "--seed", str(2 ** 64 - 1), "--n-sims", "2",
                 "--strategy", "naive", "--out-dir", str(tmp_path)]) == 0


def _unreadable_paths(tmp_path):
    """(argv, start of the error line) of each config file that cannot be
    read, and of each out_dir that no path can be: one with a NUL, and one
    with a lone surrogate outside U+DC80..U+DCFF, which no encoding of
    file names holds (argv never carries one on Linux; a hand-built spec can)."""
    latin = tmp_path / "latin.cfg"
    latin.write_bytes(b"theta = 1e-5\n\xff\n")
    return [
        (["--config", str(latin)], f"error: config: cannot read {latin}: 'utf-8' codec "),
        (["--config", f"{tmp_path}/a\0b.cfg"],
         f"error: config: cannot read {tmp_path}/a\0b.cfg: embedded null byte"),
        (["--out-dir", f"{tmp_path}/out\0x"], "error: out_dir: must not hold a NUL character"),
        (["--out-dir", f"{tmp_path}/out\ud800"], "error: out_dir: cannot be encoded as "),
    ]


@pytest.mark.parametrize("command", list(_SMALL_RUNS))
def test_an_unreadable_config_or_a_nul_path_exits_2_with_one_line(tmp_path, command):
    for argv, message in _unreadable_paths(tmp_path):
        out_dir = ["--out-dir", str(tmp_path / "out")] if argv[0] == "--config" else []
        rc, out, err, _ = _run_cli([command, *_SMALL_RUNS[command], *argv, *out_dir])
        assert (rc, out) == (2, ""), err
        assert err.startswith(message) and err.count("\n") == 1, err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["latin.cfg"]


def _never_run(*args, **kwargs):
    raise AssertionError("an episode or study ran")


@pytest.mark.parametrize("command", list(_SMALL_RUNS))
def test_a_command_refuses_an_out_dir_the_file_system_cannot_encode_before_running(
        tmp_path, monkeypatch, command):
    # a hand-built spec is refused too, by the command, before its episode or study
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(simulation, "_run_batch", _never_run)
    monkeypatch.setattr(simulation, "_ar_orders", _never_run)
    monkeypatch.setattr(cli, "run_episode", _never_run)
    message = f"out_dir: cannot be encoded as {sys.getfilesystemencoding()} (got '\\ud800')"
    strategies = ("naive",) if command == "simulate" else ("ar",)
    with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
        cli._COMMANDS[command](RunSpec(out_dir="\ud800", strategies=strategies, horizon=3))
    assert list(tmp_path.iterdir()) == []


def _python(args, cwd, **env):
    """The finished run of a Python subprocess with args, in cwd, that imports
    this checkout's bestexec, with env's variables set."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]), **env)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=60)


def test_an_out_dir_the_locale_cannot_encode_exits_2_and_a_byte_argv_writes(tmp_path):
    (tmp_path / "run.cfg").write_bytes("out_dir = résultats\n".encode("utf-8"))
    # the C locale without UTF-8 mode: the file system's encoding is ASCII
    command = ["-m", "bestexec", "simulate", "--horizon", "3"]
    proc = _python([*command, "--config", "run.cfg"], tmp_path, LC_ALL="C", PYTHONUTF8="0")
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr == "error: out_dir: cannot be encoded as ascii (got 'r\\xe9sultats')\n"
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]
    # --out-dir $'\xff': argv decodes the byte to '\udcff', which encodes back to it
    proc = _python([*command, "--out-dir", b"\xff"], tmp_path, LC_ALL="C", PYTHONUTF8="0")
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert os.listdir(tmp_path / os.fsdecode(b"\xff")) == ["blotter.csv"]


def test_a_config_file_is_read_as_utf8_under_any_locale(tmp_path):
    (tmp_path / "run.cfg").write_bytes("out_dir = résultats\n".encode("utf-8"))
    code = ("from bestexec.cli import parse_config\n"
            "print(ascii(parse_config(['--config', 'run.cfg']).out_dir))")
    # the C locale without UTF-8 mode: open's default encoding is ASCII
    proc = _python(["-c", code], tmp_path, LC_ALL="C", PYTHONUTF8="0")
    assert (proc.returncode, proc.stdout) == (0, ascii("résultats") + "\n"), proc.stderr


def test_comment_and_blank_config_lines_are_skipped(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment line\n\n   \n  # indented\nhorizon = 7  # trailing\n")
    assert parse_config(["--config", str(cfg)]) == RunSpec(horizon=7)


@pytest.mark.parametrize("argv", [[], ["--help"], ["-h"]])
def test_no_command_or_help_prints_the_help_with_exit_0(argv):
    rc, out, err, _ = _run_cli(argv)
    assert (rc, out, err) == (0, cli.__doc__.strip() + "\n", "")


def test_the_module_entry_point_prints_the_help(tmp_path):
    proc = _python(["-m", "bestexec", "--help"], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, cli.__doc__.strip() + "\n", "")


def test_parse_config_holds_its_default_strategies_to_the_same_rule():
    # a set of defaults would run in PYTHONHASHSEED's order
    message = r"^strategy: must be a sequence of names \(got \{'ar'\}\)$"
    with pytest.raises(SpecError, match=message):
        parse_config([], default_strategies={"ar"})
    spec = parse_config([], default_strategies=["ar", "naive", "ar"])
    assert spec.strategies == ("ar", "naive")


@settings(max_examples=40, deadline=None)
@given(names=st.lists(st.sampled_from(STRATEGIES), min_size=1, max_size=6))
def test_both_doors_hold_a_strategy_list_as_its_distinct_names_in_first_seen_order(names):
    distinct = tuple(name for i, name in enumerate(names) if name not in names[:i])
    with tempfile.TemporaryDirectory() as out:
        spec = RunSpec(strategies=names, n_sims=1, horizon=2, out_dir=out)
        summary = simulation.run_monte_carlo(1, names, spec.market_params(),
                                             spec.mandate(), spec.seed)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.cmd_montecarlo(spec) == 0
        lines = Path(out, "summary.txt").read_text().splitlines()
    assert spec.strategies == summary.strategies == distinct
    assert [line for line in lines if line.startswith("strategy = ")] == [
        "strategy = " + ",".join(distinct)]
