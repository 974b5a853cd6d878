import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bestexec import cli
from bestexec.cli import (BLOTTER_HEADER, CONVERGENCE_HEADER, RunSpec,
                          SpecError, main, parse_config, render_config)
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


def test_invariant_violations_name_the_field():
    with pytest.raises(SpecError, match="rho"):
        parse_config(["--rho", "1.5"])
    with pytest.raises(SpecError, match="sigma_eps_sq"):
        parse_config(["--sigma-eps-sq", "-1"])
    with pytest.raises(SpecError, match="n_sims"):
        parse_config(["--n-sims", "0"])
    with pytest.raises(SpecError, match="horizon"):
        parse_config(["--horizon", "0"])


def test_flags_override_file_values(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("horizon = 20\nrho = 0.25\n")
    spec = parse_config(["--config", str(cfg), "--horizon", "5"])
    assert spec.horizon == 5
    assert spec.rho == 0.25


def test_unknown_config_key_is_rejected_by_name(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("thetaa = 1\n")
    with pytest.raises(SpecError, match="thetaa"):
        parse_config(["--config", str(cfg)])


def test_unparsable_value_names_the_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta = fast\n")
    with pytest.raises(SpecError, match="theta"):
        parse_config(["--config", str(cfg)])


def test_config_round_trip(tmp_path):
    spec = RunSpec(theta=7.25e-5, gamma=3.5, rho=-0.3, sigma_eps_sq=0.01,
                   sigma_eta_sq=0.002, s0=50000.0, p0=33.33, horizon=15,
                   strategies=("informed", "ar"), n_sims=7, seed=11,
                   out_dir="results", clamp_nonneg_orders=True,
                   ar_value_toggle=True)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(render_config(spec))
    assert parse_config(["--config", str(cfg)]) == spec


_FINITE = st.floats(allow_nan=False, allow_infinity=False)  # -0.0 and subnormals included
_NONNEG = st.one_of(st.just(-0.0), st.floats(0.0, allow_infinity=False))
_POSITIVE = st.floats(0.0, allow_infinity=False, exclude_min=True)


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
        out_dir=draw(st.one_of(st.text(), st.sampled_from(
            ["results", "a#b", " lead", "trail ", "x\ny", "x\ry", "x\u2028y", ""]))),
        clamp_nonneg_orders=draw(st.booleans()), ar_value_toggle=draw(st.booleans()))


def _parse_config_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(text)
        return parse_config(["--config", str(cfg)])


@settings(max_examples=300, deadline=None)
@given(spec=_specs())
def test_render_config_round_trips_or_names_out_dir(spec):
    try:
        text = render_config(spec)
    except SpecError as exc:
        assert str(exc).startswith("out_dir: ")
        # the refusal is needed: a plain out_dir line reads back otherwise
        try:
            assert _parse_config_text(f"out_dir = {spec.out_dir}\n").out_dir != spec.out_dir
        except SpecError:
            pass
    else:
        parsed = _parse_config_text(text)
        assert parsed == spec
        assert repr(parsed) == repr(spec)  # and -0.0 stays -0.0


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


def test_simulate_requires_exactly_one_strategy(tmp_path, capsys):
    rc = main(["simulate", "--strategy", "naive", "--strategy", "ar",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "strategy" in capsys.readouterr().err


def test_montecarlo_outputs_and_determinism(tmp_path):
    args = ["montecarlo", "--n-sims", "30", "--seed", "5"]
    rc = main(args + ["--out-dir", str(tmp_path / "a")])
    assert rc == 0
    rc = main(args + ["--out-dir", str(tmp_path / "b")])
    assert rc == 0
    names = ["summary.txt", "order_size_mean.csv",
             "accumulated_cost_variance.csv", "total_costs.csv"]
    for name in names:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name
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


def test_convergence_requires_ar_strategy(tmp_path, capsys):
    rc = main(["convergence", "--strategy", "naive", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "strategy" in capsys.readouterr().err


def test_unknown_command_and_flag(capsys):
    assert main(["frobnicate"]) == 2
    assert "command" in capsys.readouterr().err
    assert main(["simulate", "--frobnicate", "1"]) == 2


def test_unwritable_output_path(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    rc = main(["simulate", "--strategy", "naive",
               "--out-dir", str(blocker / "sub")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["99999999999999999999999", str(2 ** 64), "-1"])
def test_out_of_range_seed_exits_2_naming_the_field(tmp_path, capsys, seed):
    rc = main(["montecarlo", "--seed", seed, "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed: ") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


def test_largest_seed_is_accepted(tmp_path):
    rc = main(["montecarlo", "--seed", str(2 ** 64 - 1), "--n-sims", "2",
               "--strategy", "naive", "--out-dir", str(tmp_path)])
    assert rc == 0


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["theta", "gamma", "rho", "sigma_eps_sq",
                                 "sigma_eta_sq", "s0", "p0"])
def test_non_finite_value_exits_2_naming_the_field(tmp_path, capsys, key, value):
    flag = "--" + key.replace("_", "-")
    for command in ("simulate", "montecarlo"):
        rc = main([command, f"{flag}={value}", "--strategy", "naive",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {key}: ")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    rc = main(["convergence", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {key}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("argv, message", [
    (["--theta", "abc"], "error: theta: unparsable value 'abc'\n"),
    (["--theta=abc"], "error: theta: unparsable value 'abc'\n"),
    (["--horizon", "2.5"], "error: horizon: unparsable value '2.5'\n"),
    (["--theta"], "error: theta: expected one argument\n"),
    (["--strategy", "twap"], "error: strategy: invalid choice: "),
])
def test_bad_flag_value_exits_2_with_one_line(tmp_path, capsys, argv, message):
    rc = main(["montecarlo"] + argv + ["--out-dir", str(tmp_path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(message) and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag", [["--theta", "-1e-5"], ["--theta=-1e-5"]])
def test_negative_exponent_value_reaches_the_theta_check(tmp_path, capsys, flag):
    rc = main(["montecarlo"] + flag + ["--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == ("error: theta: must be > 0 for the informed/ar strategies "
                   "(got -1e-05)\n")
    # the naive rule needs no positive theta: the value parses and is used
    spec = parse_config(["--strategy", "naive"] + flag)
    assert spec.theta == -1e-5
    assert parse_config(["--gamma", "-2.5e1"]).gamma == -25.0


def _run_cli(argv):
    """(exit code, stdout, stderr, warnings raised) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue(), caught


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

    hits = cli._flag_parser.cache_info().hits
    in_sequence = [run(argv, tmp_path / f"seq{i}") for i, argv in enumerate(calls)]
    assert cli._flag_parser.cache_info().hits >= hits + len(calls) - 1
    for i, argv in enumerate(calls):
        cli._flag_parser.cache_clear()  # the call on its own builds a fresh parser
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
