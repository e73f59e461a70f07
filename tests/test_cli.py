import math

import numpy as np
import pytest

from iecpulse import pulse
from iecpulse.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigError,
    RunConfig,
    main,
    parse_config,
)
from iecpulse.poly import Polynomial
from iecpulse.schedule import SchedulePair

PI = math.pi


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


THIRD_CFG = """
# baseline third-order run
t_f = 1.0
family = third
grid_n = 400
rk4_steps = 1000
"""

ANTE_CFG = """
t_f = 1.0
family = antedated
t_a = 0.5
grid_n = 400
rk4_steps = 1000
sweep_lo = 4.5
sweep_hi = 6.0
sweep_n = 12
"""


def test_parse_config_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, THIRD_CFG))
    assert cfg.t_f == 1.0
    assert cfg.family == "third"
    assert cfg.weights.p_plus == 0.2 and cfg.weights.p_minus == 0.8
    assert cfg.sweep is None


def test_parse_config_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(_write(tmp_path, "t_f = 1\nfamily = third\nbogus = 2\n"))


def test_parse_config_missing_required(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path, "family = third\n"))
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path, "t_f = 1.0\n"))


def test_parse_config_bad_weights(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path, "t_f = 1\nfamily = third\np_plus = 0.5\np_minus = 0.8\n"))


def test_parse_config_duplicate_key(tmp_path):
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(_write(tmp_path, "t_f = 1\nt_f = 2\nfamily = third\n"))


def test_exit_code_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "t_f = 1\nfamily = fourth\n")  # missing gamma_mid
    code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_exit_code_infeasible(tmp_path, capsys):
    cfg = _write(tmp_path, "t_f = 1.0\nfamily = antedated\nt_a = 0.2\n")
    code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text",
    [
        ("synth", "t_f = inf\nfamily = third\n"),
        ("synth", "t_f = nan\nfamily = third\n"),
        ("synth", "t_f = 1\nfamily = antedated\nt_a = 0.5\nbeta_dot0 = -inf\n"),
        ("synth", "t_f = 1\nfamily = third\ngrid_n = 1\n"),
        ("evolve", "t_f = 1\nfamily = third\nrk4_steps = 99\n"),
        ("sweep", ANTE_CFG.replace("sweep_n = 12", "sweep_n = 9")),
    ],
    ids=["t_f-inf", "t_f-nan", "beta_dot0-inf", "grid_n", "rk4_steps", "sweep_n"],
)
def test_invalid_config_exits_1(tmp_path, capsys, command, text):
    out = tmp_path / "out"
    code = main([command, "--config", str(_write(tmp_path, text)), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_sweep_without_buildable_schedule_is_infeasible(tmp_path, capsys):
    cfg = _write(tmp_path, ANTE_CFG.replace("t_a = 0.5", "t_a = 0.999"))
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_INFEASIBLE
    assert "no feasible beta_dot0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "check"])
def test_unbuildable_schedule_exits_2(tmp_path, capsys, command):
    # at t_a = 0.999 t_f the antedated fit is singular: an infeasible design
    cfg = _write(tmp_path, "t_f = 1.0\nfamily = antedated\nt_a = 0.999\n")
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_INFEASIBLE
    assert "schedule infeasible" in capsys.readouterr().err


def test_unconverged_cost_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pulse, "SIMPSON_BUDGET", 20)
    cfg = _write(tmp_path, THIRD_CFG)
    code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    assert "did not reach" in capsys.readouterr().err


def test_synth_outputs(tmp_path):
    cfg = _write(tmp_path, THIRD_CFG)
    out = tmp_path / "out"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    header, data = _read_csv(out / "pulse.csv")
    assert header == ["t", "omega_r", "delta", "gamma", "beta"]
    delta = data[:, 2]
    assert delta[0] == pytest.approx(-4.5 * PI, abs=1e-9)
    assert delta[-1] == pytest.approx(4.5 * PI, abs=1e-9)
    summary = (out / "summary.txt").read_text()
    assert "energy_cost" in summary and "max_adiabaticity_metric" in summary


@pytest.mark.parametrize("command", ["synth", "evolve", "check"])
def test_synth_deterministic(tmp_path, command):
    cfg = _write(tmp_path, THIRD_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([command, "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main([command, "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
    names = sorted(p.name for p in out1.iterdir())
    assert names and names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def _assert_no_nan_csv(out):
    for path in out.glob("*.csv"):
        assert np.isfinite(_read_csv(path)[1]).all(), path.name


def test_evolve_level_crossing_exits_3(tmp_path, capsys, monkeypatch):
    # constant angles: omega_r = delta = 0, so the adiabatic reference is undefined
    crossing = SchedulePair(Polynomial([1.0]), Polynomial([-1.2]), 1.0, None, 0.3)
    monkeypatch.setattr(RunConfig, "build_pair", lambda self: crossing)
    out = tmp_path / "out"
    code = main(["evolve", "--config", str(_write(tmp_path, THIRD_CFG)), "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert "level crossing" in capsys.readouterr().err
    _assert_no_nan_csv(out)


@pytest.mark.parametrize(
    "extra, message",
    [
        ("beta_dot0 = 8.17\n", "waveform diverges at s = 0.195259"),
        # unstable at 100 steps: eigenvalues reach +-3e13 while trace and
        # Hermiticity hold
        ("beta_dot0 = 8.164\nrk4_steps = 100\ngrid_n = 100\n", "increase n_steps"),
    ],
    ids=["divergent", "rk4-blow-up"],
)
def test_evolve_numerical_failure_exits_3(tmp_path, capsys, extra, message):
    cfg = _write(tmp_path, "t_f = 1\nfamily = antedated\nt_a = 0.71\n" + extra)
    out = tmp_path / "out"
    code = main(["evolve", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert message in capsys.readouterr().err
    _assert_no_nan_csv(out)


def test_evolve_antedated_freezes_populations(tmp_path):
    cfg = _write(tmp_path, ANTE_CFG)
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    header, data = _read_csv(out / "trajectory_iec.csv")
    assert header[:3] == ["t", "rho11", "rho22"]
    t, rho11 = data[:, 0], data[:, 1]
    after = t > 0.5
    np.testing.assert_allclose(rho11[after], 0.2, atol=1e-9)
    assert (out / "trajectory_adiabatic.csv").exists()
    _, ad = _read_csv(out / "trajectory_adiabatic.csv")
    assert np.abs(ad[:, 6]).max() == 0.0  # bloch_y column of the reference


def test_sweep_subcommand(tmp_path):
    cfg = _write(tmp_path, ANTE_CFG)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    header, data = _read_csv(out / "sweep.csv")
    assert header == ["beta_dot0_units", "cost", "feasible"]
    assert len(data) == 12
    assert np.all(data[:, 2] == 1.0)
    summary = dict(
        line.split(" = ") for line in (out / "summary.txt").read_text().strip().splitlines()
    )
    assert float(summary["min_cost"]) == pytest.approx(3.230, abs=0.01)
    assert float(summary["argmin_beta_dot0"]) == pytest.approx(5.232, abs=0.05)


def test_sweep_requires_sweep_keys(tmp_path):
    cfg = _write(tmp_path, THIRD_CFG)
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG


def test_check_subcommand(tmp_path):
    cfg = _write(tmp_path, THIRD_CFG)
    out = tmp_path / "out"
    assert main(["check", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    summary = dict(
        line.split(" = ") for line in (out / "summary.txt").read_text().strip().splitlines()
    )
    assert float(summary["max_residual"]) < 1e-8
    assert summary["schedule_feasible"] == "true"
    assert (out / "check_report.txt").exists()


def test_check_antedated_family(tmp_path):
    cfg = _write(tmp_path, "t_f = 1.0\nfamily = antedated\nt_a = 0.5\n")
    out = tmp_path / "out"
    assert main(["check", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    summary = dict(
        line.split(" = ") for line in (out / "summary.txt").read_text().strip().splitlines()
    )
    assert float(summary["max_residual"]) < 1e-8
    assert summary["schedule_feasible"] == "true"
