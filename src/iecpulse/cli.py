"""Config-driven command line front end.

Usage:
    iecpulse synth  --config run.cfg --out results/
    iecpulse evolve --config run.cfg --out results/
    iecpulse sweep  --config run.cfg --out results/
    iecpulse check  --config run.cfg --out results/

The config is a flat "key = value" text file ('#' starts a comment).
Recognized keys:

    t_f        final time (required, > 0)
    family     third | fourth | antedated (required)
    gamma_mid  midpoint value for family=fourth (radians)
    t_a        antedated switch time for family=antedated (same units as t_f,
               inside (0, t_f))
    beta_dot0  initial beta rate in units of pi / (2 t_f), > 0 (antedated only)
    p_plus     upper-branch weight (default 0.2)
    p_minus    lower-branch weight (default 0.8)
    grid_n     output grid intervals (default 1000, 2 to 10**6)
    rk4_steps  integrator steps (default 10000, 100 to 10**6)
    sweep_lo, sweep_hi, sweep_n   beta_dot0 sweep grid (sweep subcommand,
               family=antedated only; 0 < sweep_lo < sweep_hi, sweep_n
               10 to 10**6)

Unknown keys, values not of their key's type (_KEYS) and non-finite numbers
are an error; every value is converted first. Each other rule above is the
library's, raised as iecpulse.ConfigError where the value is used and
applied to every key present before any work. Frequencies in emitted
CSVs are in units of 1/t_f; t_f itself is echoed in summary.txt. Outputs
contain no timestamps, so identical configs produce byte-identical files.
Exit codes: 0 success, else the code of the error's category in iecpulse.errors:
1 ConfigError (also a usage error or an --out that cannot be written),
2 Infeasible, 3 NumericalFailure. main returns the code for every failure.
A subcommand computes all its outputs before it creates --out, so an error
leaves no file. If a write into --out fails, the run removes the files and
folders it created but no file that existed before, which keeps its new
text if already rewritten or may be left truncated if its own write failed.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import dataclass
from itertools import takewhile
from pathlib import Path

import numpy as np

from . import analysis, dynamics, pulse
from .errors import ConfigError, Infeasible, NumericalFailure
from .schedule import SchedulePair, antedated_pair, beta_dot0_rate, check_rate, check_times
from .schedule import fourth_order_pair, third_order_pair

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3

#: Each config key and the type of its value; values are converted in this order.
_KEYS = {
    "t_f": float, "family": str, "t_a": float, "p_plus": float, "p_minus": float,
    "beta_dot0": float, "sweep_lo": float, "sweep_hi": float, "sweep_n": int,
    "grid_n": int, "rk4_steps": int, "gamma_mid": float,
}


@dataclass
class RunConfig:
    t_f: float
    family: str
    weights: dynamics.Weights
    gamma_mid: float | None
    t_a: float | None
    beta_dot0: float | None
    grid_n: int
    rk4_steps: int
    sweep: tuple[float, float, int] | None

    def build_pair(self) -> SchedulePair:
        if self.family == "third":
            return third_order_pair(self.t_f)
        if self.family == "fourth":
            return fourth_order_pair(self.t_f, self.gamma_mid)
        beta_dot0 = None if self.beta_dot0 is None else beta_dot0_rate(self.beta_dot0, self.t_f)
        return antedated_pair(self.t_f, self.t_a, beta_dot0)


def _value(key: str, text: str):
    """key's value: text converted to its type in _KEYS. ConfigError unless a
    float key's text is a finite number and an int key's an integer."""
    kind = _KEYS[key]
    try:
        value = kind(text)
    except ValueError as exc:
        noun = "a number" if kind is float else "an integer"
        raise ConfigError(f"config key {key!r}: not {noun}: {text!r}") from exc
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"config key {key!r}: not finite: {text!r}")
    return value


def parse_config(path: Path) -> RunConfig:
    raw: dict[str, str] = {}
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value

    for key in ("t_f", "family"):
        if key not in raw:
            raise ConfigError(f"config requires {key}")
    values = {key: _value(key, raw[key]) for key in _KEYS if key in raw}
    if values["family"] not in ("third", "fourth", "antedated"):
        raise ConfigError(f"family must be third|fourth|antedated, got {values['family']!r}")
    check_times(values["t_f"], values.get("t_a"))
    cfg = RunConfig(
        t_f=values["t_f"],
        family=values["family"],
        weights=dynamics.Weights(values.get("p_plus", 0.2), values.get("p_minus", 0.8)),
        gamma_mid=values.get("gamma_mid"),
        t_a=values.get("t_a"),
        beta_dot0=values.get("beta_dot0"),
        grid_n=values.get("grid_n", 1000),
        rk4_steps=values.get("rk4_steps", 10_000),
        sweep=tuple(values[k] for k in ("sweep_lo", "sweep_hi", "sweep_n") if k in values) or None,
    )
    if cfg.beta_dot0 is not None:
        check_rate(beta_dot0_rate(cfg.beta_dot0, cfg.t_f))
    if cfg.sweep is not None:
        if len(cfg.sweep) < 3:
            raise ConfigError("sweep requires all of sweep_lo, sweep_hi, sweep_n")
        analysis.check_sweep(cfg.t_f, *cfg.sweep)
    pulse.check_grid(cfg.grid_n)
    dynamics.check_steps(cfg.rk4_steps)
    return cfg


# ---------------------------------------------------------------------------
# output helpers (full round-trip precision, no timestamps)

def _csv(header: list[str], columns: list[np.ndarray]) -> str:
    # + 0.0 folds -0.0; tolist() gives Python floats (numpy 2 reprs "np.float64(...)").
    # repr runs once per distinct value (every NaN is one), gathered back by the inverse.
    data = np.column_stack(columns) + 0.0
    values, inverse = np.unique(data, return_inverse=True)
    text = np.array(list(map(repr, values.tolist())), dtype=object)[inverse.reshape(data.shape)]
    return "\n".join([",".join(header), *map(",".join, text.tolist())]) + "\n"


def _summary(entries: list[tuple[str, object]]) -> str:
    lines = [f"{key} = {repr(float(v) + 0.0) if isinstance(v, float) else v}" for key, v in entries]
    return "\n".join(lines) + "\n"


def _write(out: Path, files: dict[str, str]) -> None:
    """Create out and write each file of files into it. On an OSError, remove
    every file and folder this call created (none that existed before) and
    raise ConfigError. The folders it may create are out and its ancestors up
    to the first that exists: every ancestor of an existing path exists."""
    made: list[Path] = []
    new: list[Path] = []
    try:
        made = list(takewhile(lambda p: not os.path.lexists(p), (out, *out.parents)))
        out.mkdir(parents=True, exist_ok=True)
        new = [out / name for name in files if not os.path.lexists(out / name)]
        for name, text in files.items():
            (out / name).write_text(text)
    except OSError as exc:
        for undo in [path.unlink for path in new] + [folder.rmdir for folder in made]:
            with contextlib.suppress(OSError):
                undo()
        raise ConfigError(f"cannot write to --out {out}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands: each returns its output files' names and text

def _cmd_synth(cfg: RunConfig) -> dict[str, str]:
    pair = cfg.build_pair()
    table = pulse.synthesize(pair, cfg.grid_n)
    summary = [
        ("t_f", float(cfg.t_f)),
        ("family", cfg.family),
        ("energy_cost", analysis.energy_cost(pair)),
        ("max_adiabaticity_metric", analysis.max_adiabaticity_metric(pair)),
        ("omega_r_max", float(table.omega_r.max())),
    ]
    columns = [table.t, table.omega_r, table.delta, pair.gamma(table.s), pair.beta(table.s)]
    return {
        "pulse.csv": _csv(["t", "omega_r", "delta", "gamma", "beta"], columns),
        "summary.txt": _summary(summary),
    }


def _trajectory_columns(t, rho, target) -> list[np.ndarray]:
    """The columns of a trajectory file: t, populations, the coherence,
    the Bloch vector and the fidelity to target of each state of rho."""
    return [t, rho[:, 0, 0].real, rho[:, 1, 1].real, rho[:, 0, 1].real, rho[:, 0, 1].imag,
            *dynamics.bloch_vector(rho).T, dynamics.fidelity(rho, target)]


def _cmd_evolve(cfg: RunConfig) -> dict[str, str]:
    pair = cfg.build_pair()
    report = analysis.compare_passages(pair, cfg.weights, cfg.grid_n)
    integrated = dynamics.evolve(pair, report.rho[0], cfg.rk4_steps)
    stride = max(1, cfg.rk4_steps // cfg.grid_n)
    analytic = dynamics.invariant_state(pair, cfg.weights, integrated.t[::stride] / cfg.t_f)
    deviation = float(np.abs(integrated.rho[::stride] - analytic).max())
    header = ["t", "rho11", "rho22", "re_rho12", "im_rho12", "bloch_x", "bloch_y", "bloch_z", "fidelity"]
    target = report.rho[-1]
    iec = _trajectory_columns(report.t, report.rho, target)
    return {
        "trajectory_iec.csv": _csv(header, iec),
        "trajectory_adiabatic.csv": _csv(
            header, _trajectory_columns(report.t, report.adiabatic_rho, target)
        ),
        "summary.txt": _summary([
            ("t_f", float(cfg.t_f)),
            ("family", cfg.family),
            ("inversion_time", report.inversion_time if report.inversion_time is not None else "none"),
            ("max_population_gap", report.max_population_gap),
            ("final_fidelity", float(iec[-1][-1])),
            ("max_rk4_deviation", deviation),
        ]),
    }


def _cmd_sweep(cfg: RunConfig) -> dict[str, str]:
    if cfg.sweep is None:
        raise ConfigError("sweep subcommand requires sweep_lo, sweep_hi, sweep_n")
    if cfg.family != "antedated":
        raise ConfigError(f"sweep subcommand requires family = antedated, got {cfg.family!r}")
    lo, hi, n = cfg.sweep
    result = analysis.sweep_beta_dot0(cfg.t_f, cfg.t_a, lo, hi, n)
    return {
        "sweep.csv": _csv(
            ["beta_dot0_units", "cost", "feasible"],
            [result.units, result.cost, result.feasible.astype(float)],
        ),
        "summary.txt": _summary([
            ("t_f", float(cfg.t_f)),
            ("t_a", float(cfg.t_a)),
            ("min_cost", result.minimum[1]),
            ("argmin_beta_dot0", result.minimum[0]),
            ("n_infeasible", str(int((~result.feasible).sum()))),
        ]),
    }


def _cmd_check(cfg: RunConfig) -> dict[str, str]:
    pair = cfg.build_pair()
    report = analysis.validate_schedule(pair)
    grid = np.linspace(0.0, 1.0, 1000)
    residual = float(dynamics.invariant_residual(pair, grid).max())
    metric = analysis.max_adiabaticity_metric(pair)
    lines = [
        f"omega_r_nonnegative: {report.omega_r_nonnegative}",
        f"delta_finite: {report.delta_finite}",
        f"gamma_range_ok: {report.gamma_range_ok}",
        f"max_adiabaticity_metric: {metric!r}",
        f"max_invariant_residual: {residual!r}",
    ] + [f"message: {m}" for m in report.messages]
    return {
        "check_report.txt": "\n".join(lines) + "\n",
        "summary.txt": _summary([
            ("t_f", float(cfg.t_f)),
            ("family", cfg.family),
            ("max_residual", residual),
            ("max_adiabaticity_metric", metric),
            ("schedule_feasible", str(report.feasible).lower()),
        ]),
    }


_COMMANDS = {
    "synth": _cmd_synth,
    "evolve": _cmd_evolve,
    "sweep": _cmd_sweep,
    "check": _cmd_check,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ConfigErrors, not exits."""

    def error(self, message: str):
        raise ConfigError(message)


_PARSER = _Parser(prog="iecpulse", description=__doc__.splitlines()[0])
_PARSER.add_argument("command", choices=_COMMANDS)
_PARSER.add_argument("--config", required=True, type=Path)
_PARSER.add_argument("--out", required=True, type=Path)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        cfg = parse_config(args.config)
        _write(args.out, _COMMANDS[args.command](cfg))
    except ConfigError as exc:
        print(f"iecpulse: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Infeasible as exc:
        print(f"iecpulse: schedule infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NumericalFailure as exc:
        print(f"iecpulse: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
