import inspect
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iecpulse import analysis, cli, errors, pulse
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


def test_exit_codes_are_the_documented_numbers():
    assert (EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_NUMERICAL) == (0, 1, 2, 3)


@pytest.mark.parametrize("dropped", [["sweep_n"], ["sweep_hi", "sweep_n"]])
def test_a_partial_sweep_is_a_config_error(tmp_path, capsys, dropped):
    text = "".join(line + "\n" for line in ANTE_CFG.splitlines() if line.split(" ")[0] not in dropped)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(_write(tmp_path, text)), "--out", str(out)]) == EXIT_CONFIG
    assert "sweep requires all of sweep_lo, sweep_hi, sweep_n" in capsys.readouterr().err
    assert not out.exists()


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
        # 1e308 units of pi / (2 t_f) overflow to an infinite rate
        ("synth", "t_f = 0.5\nfamily = antedated\nt_a = 0.25\nbeta_dot0 = 1e308\n"),
        ("synth", "t_f = 1\nfamily = third\ngrid_n = 1\n"),
        ("evolve", "t_f = 1\nfamily = third\nrk4_steps = 99\n"),
        ("sweep", ANTE_CFG.replace("sweep_n = 12", "sweep_n = 9")),
        ("synth", ANTE_CFG.replace("t_a = 0.5", "t_a = 2")),
        ("synth", ANTE_CFG.replace("t_a = 0.5", "t_a = 1")),
        ("synth", ANTE_CFG.replace("t_a = 0.5", "t_a = 0")),
        ("synth", ANTE_CFG.replace("t_a = 0.5", "t_a = -0.5")),
        ("sweep", ANTE_CFG.replace("t_a = 0.5", "t_a = 1")),
        ("synth", ANTE_CFG + "beta_dot0 = 0\n"),
        ("check", ANTE_CFG + "beta_dot0 = -1.5\n"),
        ("sweep", ANTE_CFG.replace("sweep_hi = 6.0", "sweep_hi = 4.5")),
        ("sweep", ANTE_CFG.replace("sweep_hi = 6.0", "sweep_hi = 3.0")),
        ("sweep", ANTE_CFG.replace("sweep_lo = 4.5", "sweep_lo = 0")),
        ("sweep", ANTE_CFG.replace("sweep_lo = 4.5", "sweep_lo = -1")),
        ("sweep", ANTE_CFG.replace("family = antedated", "family = third")),
        # a subcommand that does not read a key still rejects its bad value
        ("check", "t_f = 1\nfamily = third\nt_a = 5\n"),
        ("synth", THIRD_CFG + "beta_dot0 = 0\n"),
        ("check", THIRD_CFG.replace("grid_n = 400", "grid_n = 1")),
        ("sweep", ANTE_CFG.replace("rk4_steps = 1000", "rk4_steps = 99")),
        ("synth", ANTE_CFG.replace("sweep_n = 12", "sweep_n = 9")),
        # sizes above the 10**6 cap are rejected before anything is allocated
        ("synth", THIRD_CFG.replace("grid_n = 400", "grid_n = 1000001")),
        ("check", THIRD_CFG.replace("grid_n = 400", "grid_n = 1000000000000000")),
        ("evolve", THIRD_CFG.replace("rk4_steps = 1000", "rk4_steps = 1000001")),
        ("synth", THIRD_CFG.replace("rk4_steps = 1000", "rk4_steps = 1000000000000000")),
        ("sweep", ANTE_CFG.replace("sweep_n = 12", "sweep_n = 1000001")),
        ("sweep", ANTE_CFG.replace("sweep_n = 12", "sweep_n = 1000000000000000")),
    ],
    ids=[
        "t_f-inf", "t_f-nan", "beta_dot0-inf", "beta_dot0-rate-overflow", "grid_n", "rk4_steps",
        "sweep_n",
        "t_a-2", "t_a-1", "t_a-0", "t_a-negative", "sweep-t_a-1", "beta_dot0-0",
        "beta_dot0-negative", "sweep_lo-equals-hi", "sweep_lo-above-hi", "sweep_lo-0",
        "sweep_lo-negative", "sweep-family-third", "unread-t_a", "unread-beta_dot0",
        "unread-grid_n", "unread-rk4_steps", "unread-sweep_n", "grid_n-cap", "grid_n-1e15",
        "rk4_steps-cap", "rk4_steps-1e15", "sweep_n-cap", "sweep_n-1e15",
    ],
)
def test_invalid_config_exits_1(tmp_path, capsys, command, text):
    out = tmp_path / "out"
    code = main([command, "--config", str(_write(tmp_path, text)), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [THIRD_CFG, ANTE_CFG], ids=["third", "antedated"])
def test_check_makes_no_scalar_waveform_scan(tmp_path, monkeypatch, text):
    # check evaluates its residual and metric grids as arrays: the only
    # scalar evaluation left is the cached detuning held after the switch
    calls = []
    for name in ("omega", "delta"):
        scalar = getattr(pulse._Waveform, name)
        monkeypatch.setattr(
            pulse._Waveform, name, lambda self, s, f=scalar: calls.append(s) or f(self, s)
        )
    pulse._waveform.cache_clear()
    out = tmp_path / "out"
    assert main(["check", "--config", str(_write(tmp_path, text)), "--out", str(out)]) == EXIT_OK
    assert len(calls) <= 1


def test_synth_and_check_share_one_grid_pass(tmp_path, monkeypatch):
    # the metric and check's detuning bound read one complex pass over the
    # validation grid, kept on the waveform until the waveform cache is cleared
    passes = []
    fields = pulse._Waveform.fields

    def counted(self, s):
        if len(s) >= pulse.GRID_POINTS:
            passes.append(np.iscomplexobj(s) and len(s) == pulse.GRID_POINTS + 2)
        return fields(self, s)

    monkeypatch.setattr(pulse._Waveform, "fields", counted)
    pulse._waveform.cache_clear()
    cfg = _write(tmp_path, THIRD_CFG)
    for command in ("synth", "check"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == EXIT_OK
    assert passes == [True]
    pulse._waveform.cache_clear()
    analysis.max_adiabaticity_metric(parse_config(cfg).build_pair())
    assert passes == [True, True]


def _csv_by_rows(header, columns):
    """The CSV writer as it was before it formatted each distinct value once:
    one repr per cell, one join per row."""
    rows = (np.column_stack(columns) + 0.0).tolist()
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    return "\n".join(lines) + "\n"


#: Values where repr's text is least regular: both zeros, NaN (negative and
#: with a payload too), both infinities, subnormals, the largest float, and
#: both sides of repr's switches to exponent form at 1e-5 and 1e16.
_CSV_SPECIALS = [0.0, -0.0, math.nan, -math.nan,
                 float(np.array(0x7FF8000000000123, dtype=np.uint64).view(np.float64)),
                 math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
                 math.nextafter(2.2250738585072014e-308, 0.0), 1.7976931348623157e308,
                 1e-5, -1e-5, math.nextafter(1e-5, 0.0), math.nextafter(1e-5, 1.0), 1e-4,
                 1e16, -1e16, math.nextafter(1e16, 0.0), math.nextafter(1e16, math.inf), 1e15]


@st.composite
def _csv_columns(draw):
    """1-4 columns of 1-6 rows, drawn from a small pool so that values repeat."""
    pool = draw(st.lists(st.sampled_from(_CSV_SPECIALS) | st.floats(), min_size=1, max_size=6))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    cells = draw(st.lists(st.sampled_from(pool), min_size=rows * cols, max_size=rows * cols))
    return list(np.array(cells, dtype=float).reshape(cols, rows))


@settings(max_examples=300)
@given(columns=_csv_columns())
@example(columns=[np.array([-0.0])])  # one row, one column
@example(columns=[np.array(_CSV_SPECIALS)])  # one column
@example(columns=[np.array([x]) for x in _CSV_SPECIALS])  # one row
@example(columns=[np.array([1e-5, 1e-5, math.nan]), np.array([math.nan, -0.0, 1e16])])
def test_csv_is_the_per_row_writer_byte_for_byte(columns):
    header = [f"c{i}" for i in range(len(columns))]
    assert cli._csv(header, columns) == _csv_by_rows(header, columns)


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


@pytest.mark.parametrize("command", ["synth", "check", "evolve"])
@pytest.mark.parametrize(
    "text",
    [
        "family = antedated\nt_a = 0.5\nbeta_dot0 = 1e308\n",
        "family = antedated\nt_a = 0.5\nbeta_dot0 = 1e-300\n",
        "family = fourth\ngamma_mid = 1e308\n",
        "family = antedated\nt_a = 1e-300\n",
    ],
    ids=["beta_dot0-1e308", "beta_dot0-1e-300", "gamma_mid-1e308", "t_a-1e-300"],
)
def test_extreme_config_exits_with_a_code(tmp_path, command, text):
    # an exit code and no traceback (nor warning) for every input, and only
    # finite values in the outputs of a successful run
    out = tmp_path / "out"
    cfg = _write(tmp_path, "t_f = 1.0\ngrid_n = 100\nrk4_steps = 1000\n" + text)
    code = main([command, "--config", str(cfg), "--out", str(out)])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_NUMERICAL)
    if code == EXIT_OK:
        for path in out.iterdir():
            assert not re.search(r"\b(nan|inf)\b", path.read_text(), re.IGNORECASE), path.name


@pytest.mark.parametrize("command", ["synth", "check", "evolve"])
@pytest.mark.parametrize("t_a", ["0.98", "0.99"])
def test_switch_near_t_f_fails_fast(tmp_path, capsys, command, t_a):
    # beta crosses thousands of multiples of pi before t_a; the first
    # uncompensated crossing ends the waveform build
    pulse._waveform.cache_clear()
    out = tmp_path / "out"
    cfg = _write(tmp_path, f"t_f = 1\nfamily = antedated\nt_a = {t_a}\nbeta_dot0 = 2\n")
    start = time.perf_counter()
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
    assert time.perf_counter() - start < 5.0
    assert "waveform diverges at s = " in capsys.readouterr().err
    assert pulse._waveform.cache_info().currsize == 0


@pytest.mark.parametrize("command", ["synth", "check", "evolve"])
def test_level_crossing_at_start_exits_3(tmp_path, capsys, command):
    # |delta(0)| t_f = 3 beta_dot0 t_f ~ 0 and omega_r(0) = 0: the crossing
    # sits at s = 0, which no midpoint grid samples
    out = tmp_path / "out"
    cfg = _write(tmp_path, "t_f = 1.0\nfamily = antedated\nt_a = 0.5\nbeta_dot0 = 1e-300\n")
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
    assert re.search(r"at s = 0\b(?!\.)", capsys.readouterr().err)
    assert not out.exists()


def test_unconverged_cost_exits_3(tmp_path, capsys, monkeypatch):
    # the first rule may not double: no piece can settle
    monkeypatch.setattr(pulse, "GAUSS_CAP", pulse.GAUSS_START)
    cfg = _write(tmp_path, THIRD_CFG)
    out = tmp_path / "out"
    code = main(["synth", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert "did not converge" in capsys.readouterr().err
    assert not out.exists()


#: The documented exit code of every error type the subcommands raise.
DOCUMENTED_EXIT = {
    "ConfigError": EXIT_CONFIG,
    "Infeasible": EXIT_INFEASIBLE,
    "NumericalFailure": EXIT_NUMERICAL,
    "SingularSystem": EXIT_INFEASIBLE,
    "UnphysicalSchedule": EXIT_INFEASIBLE,
    "NoCrossing": EXIT_INFEASIBLE,
    "NoFeasiblePoint": EXIT_INFEASIBLE,
    "DivergentPulse": EXIT_NUMERICAL,
    "DegeneratePoint": EXIT_NUMERICAL,
    "StepTooCoarse": EXIT_NUMERICAL,
    "NoConvergence": EXIT_NUMERICAL,
}


@pytest.mark.parametrize(
    "error",
    [c for _, c in inspect.getmembers(errors, inspect.isclass)
     if c.__module__ == errors.__name__],
    ids=lambda c: c.__name__,
)
def test_every_error_type_maps_to_its_exit_code(tmp_path, capsys, monkeypatch, error):
    # a new error type must be given an exit code, not escape as a traceback:
    # it falls under exactly one category, which the CLI catches in its place
    categories = (errors.ConfigError, errors.Infeasible, errors.NumericalFailure)
    assert sum(issubclass(error, c) for c in categories) == 1
    assert error in categories or not hasattr(cli, error.__name__)

    def fail(cfg):
        raise error("injected failure")

    monkeypatch.setitem(cli._COMMANDS, "synth", fail)
    cfg = _write(tmp_path, THIRD_CFG)
    code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == DOCUMENTED_EXIT[error.__name__]
    err = capsys.readouterr().err
    assert "injected failure" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "args",
    [
        "synth --out {out}",
        "plot --config {cfg} --out {out}",
        "synth --config {cfg} --out {cfg}",
        "synth --config {cfg} --out {cfg}/out",
        "synth --config {cfg} --out {busy}",
        "synth --config {cfg} --out {long}/out",
    ],
    ids=["missing-config", "unknown-command", "out-is-a-file", "out-under-a-file",
         "out-file-is-a-directory", "out-name-too-long"],
)
def test_usage_and_output_errors_return_1(tmp_path, capsys, args):
    cfg = _write(tmp_path, THIRD_CFG)
    busy = tmp_path / "busy"
    (busy / "pulse.csv").mkdir(parents=True)
    argv = args.format(cfg=cfg, out=tmp_path / "out", busy=busy, long=tmp_path / ("x" * 300)).split()
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("iecpulse: config error: ") and err.count("\n") == 1


def test_failed_write_removes_the_files_it_created(tmp_path, capsys):
    # trajectory_iec.csv is written before the name trajectory_adiabatic.csv,
    # taken by a folder, fails; files that were there before stay
    cfg = _write(tmp_path, THIRD_CFG)
    out = tmp_path / "out"
    (out / "trajectory_adiabatic.csv").mkdir(parents=True)
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert "cannot write to --out" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["trajectory_adiabatic.csv"]
    (out / "trajectory_iec.csv").write_text("old\n")
    (out / "notes.txt").write_text("mine\n")
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    names = sorted(p.name for p in out.iterdir())
    assert names == ["notes.txt", "trajectory_adiabatic.csv", "trajectory_iec.csv"]
    assert (out / "notes.txt").read_text() == "mine\n"


def test_failed_write_keeps_a_dangling_link(tmp_path, capsys):
    # a symlink to a missing file existed before the run, so it stays
    cfg = _write(tmp_path, THIRD_CFG)
    out = tmp_path / "out"
    (out / "trajectory_adiabatic.csv").mkdir(parents=True)
    (out / "summary.txt").symlink_to(tmp_path / "missing")
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert "cannot write to --out" in capsys.readouterr().err
    assert (out / "summary.txt").is_symlink()


def test_failed_write_removes_the_folders_it_created(tmp_path, monkeypatch):
    # the second file's folder does not exist: its write fails after the
    # first file and --out with its parent were made
    monkeypatch.setitem(cli._COMMANDS, "synth", lambda cfg: {"a.txt": "a\n", "no/b.txt": "b\n"})
    cfg = _write(tmp_path, THIRD_CFG)
    out = tmp_path / "new" / "out"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


@pytest.mark.parametrize(
    "args, code",
    [
        (["synth", "--out", "out"], EXIT_CONFIG),
        (["synth", "--config", "run.cfg", "--out", "run.cfg"], EXIT_CONFIG),
        (["synth", "--config", "run.cfg", "--out", "x" * 300], EXIT_CONFIG),
        (["synth", "--config", "run.cfg", "--out", "out"], EXIT_OK),
    ],
    ids=["usage-error", "out-is-a-file", "out-name-too-long", "good-config"],
)
def test_console_exit_code(tmp_path, args, code):
    # the process's own exit status, through SystemExit(main())
    _write(tmp_path, THIRD_CFG)
    src = Path(cli.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "iecpulse.cli", *args], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    assert (tmp_path / "out" / "pulse.csv").exists() == (code == EXIT_OK)


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


@pytest.mark.parametrize("t_f", [0.37, 3.7, 780.0, 1e-3])
def test_synth_writes_the_dimensionless_drive(tmp_path, t_f):
    # the columns come from the one grid s of the drive, with no division
    # by t_f and multiplication back, so they are exactly independent of t_f
    cfg = _write(tmp_path, f"t_f = {t_f!r}\nfamily = antedated\nt_a = {t_f / 2!r}\nbeta_dot0 = 5\n")
    out = tmp_path / "out"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    header, data = _read_csv(out / "pulse.csv")
    pair = parse_config(cfg).build_pair()
    s = np.arange(1001) / 1000
    omega, delta = pulse._waveform(pair).drive(s)
    assert np.array_equal(data[:, 0], s * t_f)
    assert np.array_equal(data[:, 1], omega) and np.array_equal(data[:, 2], delta)
    assert np.array_equal(data[:, 3], pair.gamma(s)) and np.array_equal(data[:, 4], pair.beta(s))


@pytest.mark.parametrize(
    "command, text",
    [
        pytest.param("synth", THIRD_CFG, id="synth"),
        pytest.param("evolve", THIRD_CFG, id="evolve"),
        pytest.param("check", THIRD_CFG, id="check"),
        pytest.param("sweep", ANTE_CFG, id="sweep"),
    ],
)
def test_synth_deterministic(tmp_path, command, text):
    cfg = _write(tmp_path, text)
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
    crossing = SchedulePair(Polynomial([1.0]), Polynomial([-1.2]), 1.0, None)
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


def test_sweep_subcommand_marks_infeasible_rows(tmp_path):
    cfg = _write(
        tmp_path,
        "t_f = 1\nfamily = antedated\nt_a = 0.72\nsweep_lo = 0.1\nsweep_hi = 8\nsweep_n = 12\n",
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    _, data = _read_csv(out / "sweep.csv")
    cost, feasible = data[:, 1], data[:, 2]
    assert set(feasible) == {0.0, 1.0}
    np.testing.assert_array_equal(feasible == 0.0, np.isnan(cost))
    summary = dict(
        line.split(" = ") for line in (out / "summary.txt").read_text().strip().splitlines()
    )
    assert summary["n_infeasible"] == "7"
    assert float(summary["min_cost"]) <= np.nanmin(cost)


#: The README's example config.
README_CFG = """
t_f = 1.0
family = antedated    # third | fourth | antedated
t_a = 0.5             # switch time (antedated)
beta_dot0 = 5.232     # initial beta rate, units of pi/(2 t_f); optional
p_plus = 0.2
p_minus = 0.8
grid_n = 1000
rk4_steps = 10000
sweep_lo = 0.1        # sweep subcommand only
sweep_hi = 8.0
sweep_n = 200
"""


def _summary_values(path):
    return dict(line.split(" = ") for line in path.read_text().strip().splitlines())


def test_synth_and_check_at_the_sweep_minimum_report_what_the_sweep_did(tmp_path):
    # a pair carries the basis the sweep decides and costs on, so the
    # minimum's cost is the same float, and check finds it feasible
    assert main(["sweep", "--config", str(_write(tmp_path, README_CFG)),
                 "--out", str(tmp_path / "sweep")]) == EXIT_OK
    sweep = _summary_values(tmp_path / "sweep" / "summary.txt")
    text = README_CFG.replace("beta_dot0 = 5.232", f"beta_dot0 = {sweep['argmin_beta_dot0']}")
    cfg = _write(tmp_path, text, name="minimum.cfg")
    for command in ("synth", "check"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == EXIT_OK
    assert _summary_values(tmp_path / "check" / "summary.txt")["schedule_feasible"] == "true"
    assert _summary_values(tmp_path / "synth" / "summary.txt")["energy_cost"] == sweep["min_cost"]


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
