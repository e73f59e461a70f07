"""Argument errors: one ConfigError, raised by the library function that uses
the value, and a fuzz of CLI config texts over every subcommand."""

import contextlib
import io
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iecpulse import ConfigError, cli
from iecpulse.analysis import check_sweep, compare_passages, sweep_beta_dot0
from iecpulse.dynamics import Weights, check_steps
from iecpulse.pulse import check_grid, delta_at, omega_r_at, synthesize
from iecpulse.schedule import SchedulePair, antedated_pair, fourth_order_pair, third_order_pair

PI = math.pi
W = Weights(0.2, 0.8)


def test_config_error_is_the_cli_config_error_and_a_value_error():
    assert cli.ConfigError is ConfigError and issubclass(ConfigError, ValueError)


def _third_pair_at(t_f, t_a):
    pair = third_order_pair(1.0)
    return SchedulePair(pair.gamma, pair.beta, t_f, t_a)


@pytest.mark.parametrize(
    "call, names",
    [
        (lambda: third_order_pair(math.inf), "t_f"),
        (lambda: fourth_order_pair(1.0, math.nan), "gamma_mid"),
        (lambda: fourth_order_pair(1.0, math.inf), "gamma_mid"),
        # t_f is checked before gamma_mid's range rule
        (lambda: fourth_order_pair(-1.0, 0.1), "t_f"),
        (lambda: antedated_pair(1.0, 0.5, math.inf), "beta_dot0"),
        (lambda: antedated_pair(math.inf, 1.0), "t_f"),
        (lambda: synthesize(third_order_pair(1.0), 2.5), "grid intervals"),
        (lambda: compare_passages(third_order_pair(1.0), W, 0), "grid intervals"),
        (lambda: compare_passages(third_order_pair(1.0), W, 1), "grid intervals"),
        (lambda: sweep_beta_dot0(1.0, 0.5, 1.0, math.inf, 10), "hi"),
        # t_a / t_f underflows to 0: every consumer of the pair rejects it alike
        (lambda: _third_pair_at(1e308, 1e-20), "t_a"),
        (lambda: antedated_pair(1e308, 1e-20), "t_a"),
        (lambda: sweep_beta_dot0(1e308, 1e-20, 4.5, 6.0, 10), "t_a"),
        # sizes are capped at 10**6: the verdict comes before any allocation
        (lambda: check_grid(10**6 + 1), "grid intervals"),
        (lambda: check_grid(10**15), "grid intervals"),
        (lambda: check_steps(10**6 + 1), "n_steps"),
        (lambda: check_steps(10**15), "n_steps"),
        (lambda: check_sweep(1.0, 0.1, 8.0, 10**6 + 1), "grid points"),
        (lambda: check_sweep(1.0, 0.1, 8.0, 10**15), "grid points"),
        # the waveform probes take one real s
        (lambda: omega_r_at(third_order_pair(1.0), np.array([0.2, 0.4])), "not a real number"),
        (lambda: delta_at(third_order_pair(1.0), [0.5]), "not a real number"),
        (lambda: omega_r_at(third_order_pair(1.0), math.nan), "not a real number"),
    ],
    ids=[
        "third-t_f-inf", "fourth-gamma_mid-nan", "fourth-gamma_mid-inf", "fourth-t_f-negative",
        "antedated-beta_dot0-inf", "antedated-t_f-inf", "synthesize-n-2.5", "compare-n-0",
        "compare-n-1", "sweep-hi-inf", "pair-t_a-underflow", "antedated-t_a-underflow",
        "sweep-t_a-underflow", "grid-cap", "grid-1e15", "steps-cap", "steps-1e15",
        "sweep-cap", "sweep-1e15", "omega_r_at-array", "delta_at-list", "omega_r_at-nan",
    ],
)
def test_bad_argument_raises_config_error(call, names):
    with pytest.raises(ConfigError, match=names):
        call()


def test_sizes_at_the_cap_are_accepted(tmp_path):
    check_grid(10**6)
    check_steps(10**6)
    check_sweep(1.0, 0.1, 8.0, 10**6)
    path = tmp_path / "run.cfg"
    path.write_text("t_f = 1\nfamily = third\ngrid_n = 1000000\nrk4_steps = 1000000\n")
    cfg = cli.parse_config(path)
    assert (cfg.grid_n, cfg.rk4_steps) == (10**6, 10**6)


# ---------------------------------------------------------------------------
# CLI config fuzz

_EXTREME = st.sampled_from(["0", "-1", "1e-300", "1e308", "5e-324", "inf", "-inf", "nan", "x"])


def _mostly(typical, rare):
    """typical nine times in ten, else rare (Hypothesis's integers favour
    their ends; sampled_from draws its index evenly)."""
    return st.sampled_from(range(10)).flatmap(lambda i: rare if i == 0 else typical)


def _number(typical):
    return _mostly(typical.map(repr), _EXTREME)


def _count(lo, hi):
    """An integer in [lo, hi], or one below lo."""
    return _mostly(st.integers(lo, hi), st.integers(-1, lo - 1)).map(str)


def _maybe(draw, reads: bool) -> bool:
    """Whether to write an optional key: mostly when the family reads it,
    sometimes when it does not."""
    return draw(st.sampled_from(range(20))) < (17 if reads else 4)


@st.composite
def _configs(draw):
    family = draw(st.sampled_from(["third", "fourth", "antedated"]))
    t_f = draw(st.sampled_from([1.0, 0.37, 780.0, 1e-3]) | st.floats(1e-6, 1e6))
    lines = [f"family = {family}", f"t_f = {draw(_number(st.just(t_f)))}"]
    if _maybe(draw, family == "antedated"):
        lines.append(f"t_a = {draw(_number(st.floats(0.2, 0.999).map(lambda a: a * t_f)))}")
    if _maybe(draw, family == "antedated"):
        lines.append(f"beta_dot0 = {draw(_number(st.floats(0.05, 10.0)))}")
    if _maybe(draw, family == "fourth"):
        lines.append(f"gamma_mid = {draw(_number(st.floats(0.3, PI / 2)))}")
    if _maybe(draw, False):
        p_plus = draw(st.floats(0.0, 1.0))
        lines.append(f"p_plus = {draw(_number(st.just(p_plus)))}")
        lines.append(f"p_minus = {draw(_number(st.just(1.0 - p_plus)))}")
    if _maybe(draw, family == "antedated"):
        lines.append(f"sweep_lo = {draw(_number(st.floats(0.1, 6.0)))}")
        lines.append(f"sweep_hi = {draw(_number(st.floats(4.5, 10.0)))}")
        lines.append(f"sweep_n = {draw(_count(10, 25))}")
    lines.append(f"grid_n = {draw(_count(2, 200))}")
    lines.append(f"rk4_steps = {draw(_count(100, 400))}")
    return "\n".join(draw(st.permutations(lines))) + "\n"


def _assert_finite_outputs(out: Path) -> None:
    """No nan or inf in any output, except the cost of an infeasible sweep row."""
    for path in out.iterdir():
        if path.suffix != ".csv":
            assert not re.search(r"\b(nan|inf)\b", path.read_text(), re.IGNORECASE), path.name
            continue
        rows = [line.split(",") for line in path.read_text().splitlines()]
        data = np.array([[float(v) for v in row] for row in rows[1:]])
        if path.name == "sweep.csv":
            data[data[:, 2] == 0.0, 1] = 0.0
        assert np.isfinite(data).all(), path.name


_OVERFLOWING_SWEEP = "t_f = 0.5\nfamily = antedated\nt_a = 0.25\nsweep_n = 10\nsweep_hi = 1e308\n"


@settings(max_examples=400)
@given(command=st.sampled_from(sorted(cli._COMMANDS)), text=_configs())
# rates of 1e308 units overflow at t_f = 0.5: infeasible points, quietly
@example(command="sweep", text=_OVERFLOWING_SWEEP + "sweep_lo = 4.5\n")
@example(command="sweep", text=_OVERFLOWING_SWEEP + "sweep_lo = 1e307\n")
def test_cli_config_fuzz(command, text):
    # every config text gives a documented exit code, with no traceback or
    # warning, no file from a failed run and no non-finite value from a good one
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        cfg.write_text(text)
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main([command, "--config", str(cfg), "--out", str(out)])
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_INFEASIBLE, cli.EXIT_NUMERICAL)
        assert "Traceback" not in err.getvalue()
        if code == cli.EXIT_OK:
            _assert_finite_outputs(out)
        else:
            assert err.getvalue().startswith("iecpulse: ")
            assert not out.exists() or not any(out.iterdir())


def _parsed(text: str):
    """parse_config's RunConfig for a config text, or its ConfigError message."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(text)
        try:
            return cli.parse_config(path)
        except ConfigError as exc:
            return str(exc)


@settings(max_examples=200)
@given(text=_configs(), data=st.data())
def test_parse_config_does_not_depend_on_line_order(text, data):
    # every value is converted, and every rule applied, in one fixed order
    lines = text.splitlines()
    shuffled = "\n".join(data.draw(st.permutations(lines))) + "\n"
    assert _parsed(shuffled) == _parsed(text)
