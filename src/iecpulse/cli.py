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
    t_a        antedated switch time for family=antedated (same units as t_f)
    beta_dot0  initial beta rate in units of pi / (2 t_f) (antedated only)
    p_plus     upper-branch weight (default 0.2)
    p_minus    lower-branch weight (default 0.8)
    grid_n     output grid intervals (default 1000, at least 2)
    rk4_steps  integrator steps (default 10000, at least 100)
    sweep_lo, sweep_hi, sweep_n   beta_dot0 sweep grid (sweep subcommand;
               sweep_n at least 10)

Unknown keys and non-finite numbers are an error. Frequencies in emitted
CSVs are in units of 1/t_f; t_f itself is echoed in summary.txt. Outputs
contain no timestamps, so identical configs produce byte-identical files.
Exit codes: 0 success, 1 config error, 2 infeasible schedule (including
one whose fit is singular), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, dynamics, pulse
from .errors import (
    DegeneratePoint,
    DivergentPulse,
    NoConvergence,
    NoCrossing,
    NoFeasiblePoint,
    SingularSystem,
    StepTooCoarse,
    UnphysicalSchedule,
)
from .schedule import SchedulePair, antedated_pair, fourth_order_pair, third_order_pair

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


_FLOAT_KEYS = {"t_f", "gamma_mid", "t_a", "beta_dot0", "p_plus", "p_minus", "sweep_lo", "sweep_hi"}
_INT_KEYS = {"grid_n", "rk4_steps", "sweep_n"}
_STR_KEYS = {"family"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS


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
            if self.gamma_mid is None:
                raise ConfigError("family=fourth requires gamma_mid")
            return fourth_order_pair(self.t_f, self.gamma_mid)
        if self.family == "antedated":
            if self.t_a is None:
                raise ConfigError("family=antedated requires t_a")
            beta_dot0 = None
            if self.beta_dot0 is not None:
                beta_dot0 = self.beta_dot0 * 0.5 * math.pi / self.t_f
            return antedated_pair(self.t_f, self.t_a, beta_dot0)
        raise ConfigError(f"unknown family {self.family!r}")


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
        if key not in _ALL_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value

    def need_float(key: str) -> float:
        try:
            value = float(raw[key])
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: not a number: {raw[key]!r}") from exc
        if not math.isfinite(value):
            raise ConfigError(f"config key {key!r}: not finite: {raw[key]!r}")
        return value

    def opt_float(key: str, default: float | None = None) -> float | None:
        return need_float(key) if key in raw else default

    def opt_int(key: str, default: int, minimum: int) -> int:
        if key not in raw:
            return default
        try:
            value = int(raw[key])
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: not an integer: {raw[key]!r}") from exc
        if value < minimum:
            raise ConfigError(f"config key {key!r} must be >= {minimum}, got {value}")
        return value

    if "t_f" not in raw:
        raise ConfigError("config requires t_f")
    if "family" not in raw:
        raise ConfigError("config requires family")
    t_f = need_float("t_f")
    if not t_f > 0:
        raise ConfigError("t_f must be positive")
    family = raw["family"]
    if family not in ("third", "fourth", "antedated"):
        raise ConfigError(f"family must be third|fourth|antedated, got {family!r}")
    p_plus = opt_float("p_plus", 0.2)
    p_minus = opt_float("p_minus", 0.8)
    try:
        weights = dynamics.Weights(p_plus, p_minus)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    sweep = None
    if any(k in raw for k in ("sweep_lo", "sweep_hi", "sweep_n")):
        if not all(k in raw for k in ("sweep_lo", "sweep_hi", "sweep_n")):
            raise ConfigError("sweep requires all of sweep_lo, sweep_hi, sweep_n")
        sweep = (need_float("sweep_lo"), need_float("sweep_hi"), opt_int("sweep_n", 0, 10))
    return RunConfig(
        t_f=t_f,
        family=family,
        weights=weights,
        gamma_mid=opt_float("gamma_mid"),
        t_a=opt_float("t_a"),
        beta_dot0=opt_float("beta_dot0"),
        grid_n=opt_int("grid_n", 1000, 2),
        rk4_steps=opt_int("rk4_steps", 10_000, 100),
        sweep=sweep,
    )


# ---------------------------------------------------------------------------
# output helpers (full round-trip precision, no timestamps)

def _fmt(x: float) -> str:
    value = float(x)
    if value == 0.0:
        value = 0.0
    return repr(value)


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_summary(path: Path, entries: list[tuple[str, object]]) -> None:
    lines = [f"{key} = {_fmt(v) if isinstance(v, float) else v}" for key, v in entries]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_synth(cfg: RunConfig, out: Path) -> None:
    pair = cfg.build_pair()
    table = pulse.synthesize(pair, cfg.grid_n)
    s = table.t / cfg.t_f
    _write_csv(
        out / "pulse.csv",
        ["t", "omega_r", "delta", "gamma", "beta"],
        [table.t, table.omega_r * cfg.t_f, table.delta * cfg.t_f, pair.gamma(s), pair.beta(s)],
    )
    _write_summary(
        out / "summary.txt",
        [
            ("t_f", float(cfg.t_f)),
            ("family", cfg.family),
            ("energy_cost", analysis.energy_cost(pair)),
            ("max_adiabaticity_metric", analysis.max_adiabaticity_metric(pair)),
            ("omega_r_max", float((table.omega_r * cfg.t_f).max())),
        ],
    )


def _trajectory_columns(t, rho, bloch, fid):
    return [
        t,
        rho[:, 0, 0].real,
        rho[:, 1, 1].real,
        rho[:, 0, 1].real,
        rho[:, 0, 1].imag,
        bloch[:, 0],
        bloch[:, 1],
        bloch[:, 2],
        fid,
    ]


def _cmd_evolve(cfg: RunConfig, out: Path) -> None:
    pair = cfg.build_pair()
    report = analysis.compare_passages([pair], cfg.weights, cfg.grid_n)[0]
    if math.isnan(report.max_population_gap):
        # the reference passage meets a level crossing: raise its DegeneratePoint
        dynamics.adiabatic_state(pair, cfg.weights, report.t / cfg.t_f)
    target = report.rho[-1]
    integrated = dynamics.evolve(pair, report.rho[0], cfg.rk4_steps, target=target)
    stride = max(1, cfg.rk4_steps // cfg.grid_n)
    analytic = dynamics.invariant_state(pair, cfg.weights, integrated.t[::stride] / cfg.t_f)
    deviation = float(np.abs(integrated.rho[::stride] - analytic).max())
    header = ["t", "rho11", "rho22", "re_rho12", "im_rho12", "bloch_x", "bloch_y", "bloch_z", "fidelity"]
    _write_csv(
        out / "trajectory_iec.csv",
        header,
        _trajectory_columns(report.t, report.rho, report.bloch, report.fidelity_to_target),
    )
    _write_csv(
        out / "trajectory_adiabatic.csv",
        header,
        _trajectory_columns(
            report.t,
            report.adiabatic_rho,
            report.adiabatic_bloch,
            dynamics.fidelity(report.adiabatic_rho, target),
        ),
    )
    _write_summary(
        out / "summary.txt",
        [
            ("t_f", float(cfg.t_f)),
            ("family", cfg.family),
            ("inversion_time", report.inversion_time if report.inversion_time is not None else "none"),
            ("max_population_gap", report.max_population_gap),
            ("final_fidelity", float(report.fidelity_to_target[-1])),
            ("max_rk4_deviation", deviation),
        ],
    )


def _cmd_sweep(cfg: RunConfig, out: Path) -> None:
    if cfg.sweep is None:
        raise ConfigError("sweep subcommand requires sweep_lo, sweep_hi, sweep_n")
    if cfg.t_a is None:
        raise ConfigError("sweep subcommand requires t_a")
    lo, hi, n = cfg.sweep
    result = analysis.sweep_beta_dot0(cfg.t_f, cfg.t_a, lo, hi, n)
    infeasible = set(result.infeasible_points)
    _write_csv(
        out / "sweep.csv",
        ["beta_dot0_units", "cost", "feasible"],
        [
            np.array([u for u, _ in result.grid]),
            np.array([c for _, c in result.grid]),
            np.array([0.0 if u in infeasible else 1.0 for u, _ in result.grid]),
        ],
    )
    _write_summary(
        out / "summary.txt",
        [
            ("t_f", float(cfg.t_f)),
            ("t_a", float(cfg.t_a)),
            ("min_cost", result.minimum[1]),
            ("argmin_beta_dot0", result.minimum[0]),
            ("n_infeasible", str(len(result.infeasible_points))),
        ],
    )


def _cmd_check(cfg: RunConfig, out: Path) -> None:
    pair = cfg.build_pair()
    report = analysis.validate_schedule(pair)
    wave = pulse._waveform(pair)
    wave.check_finite(0.0, pair.switch_fraction or 1.0, wave.omega_divergent | wave.cot_divergent)
    grid = np.linspace(0.0, 1.0, 1000)
    residual = max(dynamics.invariant_residual(pair, float(s)) for s in grid)
    metric = analysis.max_adiabaticity_metric(pair)
    messages = report.messages
    if math.isnan(metric):
        messages = messages + ["adiabaticity metric undefined somewhere (level crossing)"]
    lines = [
        f"omega_r_nonnegative: {report.omega_r_nonnegative}",
        f"delta_finite: {report.delta_finite}",
        f"gamma_range_ok: {report.gamma_range_ok}",
        f"max_adiabaticity_metric: {metric!r}",
        f"max_invariant_residual: {residual!r}",
    ] + [f"message: {m}" for m in messages]
    (out / "check_report.txt").write_text("\n".join(lines) + "\n")
    _write_summary(
        out / "summary.txt",
        [
            ("t_f", float(cfg.t_f)),
            ("family", cfg.family),
            ("max_residual", residual),
            ("max_adiabaticity_metric", metric),
            ("schedule_feasible", str(report.feasible).lower()),
        ],
    )


_COMMANDS = {
    "synth": _cmd_synth,
    "evolve": _cmd_evolve,
    "sweep": _cmd_sweep,
    "check": _cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="iecpulse", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, type=Path)
        p.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        args.out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"iecpulse: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (UnphysicalSchedule, NoCrossing, NoFeasiblePoint, SingularSystem) as exc:
        print(f"iecpulse: schedule infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (DivergentPulse, DegeneratePoint, NoConvergence, StepTooCoarse) as exc:
        print(f"iecpulse: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
