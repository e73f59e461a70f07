"""Argument errors: one ConfigError, raised by the library function that uses
the value, and a fuzz of CLI config texts over every subcommand."""

import ast
import contextlib
import io
import math
import re
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import iecpulse
from iecpulse import ConfigError, cli
from iecpulse.analysis import check_sweep, compare_passages, energy_cost, sweep_beta_dot0
from iecpulse import dynamics
from iecpulse.dynamics import Weights, check_steps
from iecpulse.poly import Condition, Polynomial
from iecpulse.pulse import (
    adiabaticity_metric, check_grid, delta_at, lr_phase, omega_r_at, synthesize,
)
from iecpulse.schedule import SchedulePair, antedated_pair, check_rate, check_times
from iecpulse.schedule import fourth_order_pair, third_order_pair

PI = math.pi
W = Weights(0.2, 0.8)
HUGE = 10**5000  # more digits than repr prints by default (sys.get_int_max_str_digits())


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
        # the waveform probes take real s in [0, 1], one or an array of them
        (lambda: omega_r_at(third_order_pair(1.0), np.array([0.2, 1.4])), "not a real number"),
        (lambda: delta_at(third_order_pair(1.0), [0.5, math.nan]), "not a real number"),
        (lambda: omega_r_at(third_order_pair(1.0), math.nan), "not a real number"),
        # lr_phase takes one real t in [0, t_f]
        (lambda: lr_phase(third_order_pair(1.0), np.array([0.2, 0.3]), 1), "not a real number"),
        (lambda: lr_phase(third_order_pair(1.0), [0.5], 1), "not a real number"),
        (lambda: lr_phase(third_order_pair(1.0), "0.5", 1), "not a real number"),
        (lambda: lr_phase(third_order_pair(1.0), math.nan, 1), "not a real number"),
        (lambda: lr_phase(third_order_pair(1.0), -1e-300, 1), "not a real number"),
        (lambda: lr_phase(third_order_pair(2.0), 2.0 * (1 + 1e-11), 1), "not a real number"),
        # schedule arguments are real scalars: no numpy or TypeError escapes
        (lambda: third_order_pair(np.array([1.0, 2.0])), "t_f"),
        (lambda: third_order_pair(1j), "t_f"),
        (lambda: fourth_order_pair(1.0, "x"), "gamma_mid"),
        (lambda: fourth_order_pair(1.0, np.array([1.0, 1.2])), "gamma_mid"),
        (lambda: antedated_pair(1.0, "0.5"), "t_a"),
        # an antedated passage needs its switch time: None is no default
        (lambda: antedated_pair(1.0, None), "t_a"),
        (lambda: sweep_beta_dot0(1.0, None, 4.5, 6.0, 20), "t_a"),
        (lambda: antedated_pair(1.0, 0.5, "x"), "beta_dot0"),
        (lambda: check_times(1.0, np.array([0.5])), "t_a"),
        (lambda: check_rate(np.array([1.0, 2.0])), "beta_dot0"),
        (lambda: check_rate("1.0"), "beta_dot0"),
        # a number is an int or a float that numpy holds: an int past float
        # range, a Fraction and a bool are none
        (lambda: fourth_order_pair(1.0, 10**400), "gamma_mid"),
        (lambda: antedated_pair(1.0, 10**400), "t_a"),
        (lambda: antedated_pair(1.0, 0.5, 10**400), "beta_dot0"),
        (lambda: synthesize(third_order_pair(10**400), 10), "t_f"),
        (lambda: Condition(0.5, 0, 10**400), "condition value"),
        (lambda: sweep_beta_dot0(1.0, 0.5, 1.0, 10**400, 20), "hi"),
        (lambda: energy_cost(antedated_pair(Fraction(1), Fraction(1, 2), 3.0)), "t_f"),
        (lambda: third_order_pair(Fraction(1, 3)), "t_f"),
        (lambda: third_order_pair(True), "t_f"),
        (lambda: antedated_pair(1.0, 0.5, True), "beta_dot0"),
        # an int too long for repr is still a ConfigError, and its message says so
        (lambda: check_grid(HUGE), "grid intervals"),
        (lambda: check_steps(HUGE), "n_steps"),
        (lambda: check_sweep(1.0, 0.1, 8.0, HUGE), "grid points"),
        (lambda: check_sweep(1.0, HUGE, 8.0, 20), "real numbers lo and hi"),
        (lambda: third_order_pair(HUGE), "t_f"),
        (lambda: check_times(1.0, HUGE), "t_a"),
        (lambda: check_rate(HUGE), "beta_dot0"),
        (lambda: fourth_order_pair(1.0, HUGE), "gamma_mid"),
        (lambda: antedated_pair(1.0, 0.5, HUGE), "beta_dot0"),
        (lambda: omega_r_at(third_order_pair(1.0), HUGE), "not a real number"),
        (lambda: lr_phase(third_order_pair(1.0), HUGE, 1), "not a real number"),
        (lambda: Polynomial([1.0, HUGE]), "coefficients.*unprintable list"),
        (lambda: synthesize(third_order_pair(1.0), HUGE), "grid intervals"),
    ],
    ids=[
        "third-t_f-inf", "fourth-gamma_mid-nan", "fourth-gamma_mid-inf", "fourth-t_f-negative",
        "antedated-beta_dot0-inf", "antedated-t_f-inf", "synthesize-n-2.5", "compare-n-0",
        "compare-n-1", "sweep-hi-inf", "pair-t_a-underflow", "antedated-t_a-underflow",
        "sweep-t_a-underflow", "grid-cap", "grid-1e15", "steps-cap", "steps-1e15",
        "sweep-cap", "sweep-1e15", "omega_r_at-array", "delta_at-list", "omega_r_at-nan",
        "lr_phase-array", "lr_phase-list", "lr_phase-str", "lr_phase-nan", "lr_phase-negative",
        "lr_phase-past-t_f", "third-t_f-array", "third-t_f-complex", "fourth-gamma_mid-str",
        "fourth-gamma_mid-array", "antedated-t_a-str", "antedated-t_a-none", "sweep-t_a-none",
        "antedated-beta_dot0-str", "check_times-t_a-array", "check_rate-array", "check_rate-str",
        "fourth-gamma_mid-huge-int", "antedated-t_a-huge-int", "antedated-beta_dot0-huge-int",
        "synthesize-t_f-huge-int", "condition-value-huge-int", "sweep-hi-huge-int",
        "energy_cost-fractions", "third-t_f-fraction", "third-t_f-bool", "antedated-beta_dot0-bool",
        "grid-long-int", "steps-long-int", "sweep-n-long-int", "sweep-lo-long-int",
        "third-t_f-long-int", "check_times-t_a-long-int", "check_rate-long-int",
        "fourth-gamma_mid-long-int", "antedated-beta_dot0-long-int", "omega_r_at-long-int",
        "lr_phase-long-int", "polynomial-long-int", "synthesize-n-long-int",
    ],
)
def test_bad_argument_raises_config_error(call, names):
    with pytest.raises(ConfigError, match=names):
        call()


@pytest.mark.parametrize(
    "lo, hi",
    [("4.5", 6.0), (4.5, "6.0"), (np.array([4.5]), 6.0), (4.5, None), (4.5 + 0j, 6.0)],
    ids=["lo-str", "hi-str", "lo-array", "hi-none", "lo-complex"],
)
def test_sweep_bounds_are_real_numbers(lo, hi):
    # checked before the bounds are scaled or compared
    with pytest.raises(ConfigError, match="real numbers lo and hi"):
        check_sweep(1.0, lo, hi, 20)
    with pytest.raises(ConfigError, match="real numbers lo and hi"):
        sweep_beta_dot0(1.0, 0.5, lo, hi, 20)


def _number_rule_breaches(path):
    """Where a module imports the stdlib numbers module or, unless it is
    errors.py, calls np.asarray inside a try: (line, what) pairs."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names):
            yield node.lineno, "imports numbers"
        if isinstance(node, ast.ImportFrom) and node.module == "numbers" and not node.level:
            yield node.lineno, "imports from numbers"
        if isinstance(node, ast.Try) and path.name != "errors.py":
            for call in (c for statement in node.body for c in ast.walk(statement)):
                if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                        and call.func.attr == "asarray"):
                    yield call.lineno, "parses an argument with its own try: np.asarray"


def test_every_number_check_reads_the_one_parse_in_errors():
    # a number is what errors.as_numbers says it is: no other module keeps
    # its own rule, by isinstance against the numbers ABCs or a private parse
    modules = sorted(Path(iecpulse.__file__).parent.glob("*.py"))
    assert "errors.py" in [m.name for m in modules]
    breaches = [(m.name, *b) for m in modules for b in _number_rule_breaches(m)]
    assert breaches == []


_BRANCH_CALLS = {
    "invariant_eigenstate": lambda branch: dynamics.invariant_eigenstate(
        third_order_pair(1.0), branch, 0.3),
    "evolve_pure": lambda branch: dynamics.evolve_pure(third_order_pair(1.0), branch, 200).psi,
    "lr_phase": lambda branch: lr_phase(third_order_pair(1.0), 0.5, branch),
}


@pytest.mark.parametrize("call", sorted(_BRANCH_CALLS))
@pytest.mark.parametrize(
    "branch", [np.array([1, -1]), np.array([1]), "1", None, [[1], [1, -1]], 2],
    ids=["array", "array-1", "str", "none", "ragged", "two"],
)
def test_branch_is_one_of_plus_and_minus_one(call, branch):
    with pytest.raises(ConfigError, match=r"branch must be \+1 or -1"):
        _BRANCH_CALLS[call](branch)


@pytest.mark.parametrize("call", sorted(_BRANCH_CALLS))
def test_branch_accepts_any_number_equal_to_one(call):
    reference = _BRANCH_CALLS[call](1)
    for branch in (1.0, np.int64(1), np.array(1), True):
        np.testing.assert_array_equal(_BRANCH_CALLS[call](branch), reference)
    assert not np.array_equal(_BRANCH_CALLS[call](-1.0), reference)


@pytest.mark.parametrize("build", [
    third_order_pair, lambda t_f: fourth_order_pair(t_f, 1.2), lambda t_f: antedated_pair(t_f, 1.0),
], ids=["third", "fourth", "antedated"])
def test_t_f_of_any_number_type_gives_the_same_table(build):
    # a pair keeps t_f as a Python float: a numpy float32 computes in double
    # precision like the float it holds
    def table(t_f):
        tab = synthesize(build(t_f), 100)
        return [a.tobytes() for a in (tab.t, tab.s, tab.omega_r, tab.delta)]
    for t_f in (np.float32(2.0), np.int64(2), 2):
        assert table(t_f) == table(2.0)
        assert type(build(t_f).t_f) is float


_PROBES = {
    "hamiltonian_at": lambda pair, s: dynamics.hamiltonian_at(pair, s),
    "invariant_at": lambda pair, s: dynamics.invariant_at(pair, s),
    "invariant_state": lambda pair, s: dynamics.invariant_state(pair, W, s),
    "adiabatic_state": lambda pair, s: dynamics.adiabatic_state(pair, W, s),
    "invariant_residual": lambda pair, s: dynamics.invariant_residual(pair, s),
    "invariant_eigenstate": lambda pair, s: dynamics.invariant_eigenstate(pair, 1, s),
}


_BAD_S = {
    "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "2": 2.0, "-0.1": -0.1,
    "past-1": 1.0 + 1e-11, "complex": 0.5j, "str": "0.5", "none": None,
    "array-nan": np.array([0.2, math.nan]), "array-past-1": np.array([0.2, 1.5]),
    "ragged": [[0.1], [0.2, 0.3]],
}


@pytest.mark.parametrize("probe", sorted(_PROBES))
@pytest.mark.parametrize("s", _BAD_S.values(), ids=_BAD_S.keys())
def test_dynamics_probes_take_s_in_the_unit_interval(probe, s):
    with pytest.raises(ConfigError, match="not a real number"):
        _PROBES[probe](third_order_pair(1.0), s)


def test_s_errors_say_whether_the_probe_takes_arrays():
    # a probe of one s asks for a real number; one that takes arrays names them too
    pair = third_order_pair(1.0)
    with pytest.raises(ConfigError, match=r"is not a real number in \[0, 1\]"):
        dynamics.invariant_eigenstate(pair, 1, 2.0)
    with pytest.raises(ConfigError, match=r"is not a real number or array of them in \[0, 1\]"):
        omega_r_at(pair, 2.0)


@pytest.mark.parametrize(
    "s", [*_BAD_S.values(), 0.5 + 0j, []], ids=[*_BAD_S, "complex-0j", "empty"]
)
def test_adiabaticity_metric_takes_s_in_the_unit_interval(s):
    with pytest.raises(ConfigError):
        adiabaticity_metric(third_order_pair(1.0), s)


@pytest.mark.parametrize("probe", sorted(_PROBES))
def test_dynamics_probes_accept_the_unit_interval_and_its_rounding(probe):
    pair = antedated_pair(1.0, 0.5, 5.0)
    for s in (0, 0.0, 1, 1.0 + 1e-13, -1e-13, np.float64(0.7), np.array(0.3)):
        assert np.isfinite(_PROBES[probe](pair, s)).all()
    if probe != "invariant_eigenstate":  # the one probe that takes one s only
        out = _PROBES[probe](pair, [0.0, 0.25, 0.75, 1.0])
        assert len(out) == 4 and np.isfinite(out).all()


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


@pytest.mark.parametrize("sweep_lo, code", [("4.5", cli.EXIT_OK), ("1e307", cli.EXIT_INFEASIBLE)])
def test_overflowing_sweep_rates_are_infeasible_points(tmp_path, capsys, sweep_lo, code):
    # rates of 1e308 units overflow at t_f = 0.5 (b = inf): those grid points
    # are infeasible, so the sweep still finds the minimum below them or
    # reports that no point is feasible, and no config error is raised
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    cfg.write_text(_OVERFLOWING_SWEEP + f"sweep_lo = {sweep_lo}\n")
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == code
    if code == cli.EXIT_OK:
        _assert_finite_outputs(out)
    else:
        assert "no feasible beta_dot0" in capsys.readouterr().err


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
