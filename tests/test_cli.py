import json
import math

import pytest

from bestexec.cli import (BLOTTER_HEADER, CONVERGENCE_HEADER, RunSpec,
                          SpecError, main, parse_config, render_config)


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
