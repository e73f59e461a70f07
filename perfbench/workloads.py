"""Seeded job lists for the three benchmark workloads, their execution
through the public entry points, and the checks on every job's output.

A job list is a pure function of (workload, seed): the same seed
gives byte-identical config files. The program under test only ever sees
those config files (and, for `verify`, the schedule pair they describe).

Continuous parameters are drawn by jittered stratified sampling: the range
is cut into as many equal strata as there are draws, one uniform draw per
stratum, and the draws are shuffled. Every seed then covers the whole range
evenly, so job cost varies little from seed to seed while the inputs differ.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
import resource
import signal
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PI = math.pi

WORKLOADS = ("design", "optimise", "verify")

#: Job-list sizes. `design` needs at least 100 jobs so that ten
#: latency samples lie beyond its 90th percentile.
DESIGN_CONFIGS = 102
OPTIMISE_SEEDED_SWEEPS = 2
VERIFY_CONFIGS_PER_FAMILY = 2

#: Sweep grid of the README example.
SWEEP_LO, SWEEP_HI, SWEEP_N = 0.1, 8.0, 200
#: README result at t_a = t_f / 2, in units of pi / (2 t_f), at its precision.
README_MINIMUM = (5.232, 3.230)
VERIFY_RK4_STEPS = 10_000

#: A subcommand that has not answered after this long counts as a failed
#: job. Jobs take 0.1 s (design) to a few seconds (a sweep on a slow host).
JOB_LIMIT_S = 30.0

RESIDUAL_LIMIT = 1e-8
RK4_LIMIT = 1e-6
SWEEP_CONTRACT = 1e-4


@dataclass
class Job:
    """One unit of user work: a config plus the subcommands run on it."""

    index: int
    workload: str
    family: str
    config: dict[str, float | str]
    commands: tuple[str, ...]
    pure_branches: tuple[int, ...] = ()

    def config_text(self) -> str:
        return "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                       for k, v in self.config.items())


@dataclass
class Outcome:
    """What one job produced: exit code per subcommand plus checked values."""

    exits: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    rejected: int = 0
    values: dict[str, float] = field(default_factory=dict)
    #: wall and CPU seconds of each step: a subcommand, the pair build
    #: before `evolve_pure`, or one `evolve_pure` branch
    step_s: dict[str, float] = field(default_factory=dict)
    step_cpu_s: dict[str, float] = field(default_factory=dict)


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    width = (hi - lo) / n
    draws = [lo + (i + rng.random()) * width for i in range(n)]
    rng.shuffle(draws)
    return draws


def _log_strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    return [10.0 ** x for x in _strata(rng, n, math.log10(lo), math.log10(hi))]


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The seeded job list of one workload."""
    rng = random.Random(f"iecpulse-perfbench/{workload}/{seed}")
    if workload == "design":
        return _design_jobs(rng, DESIGN_CONFIGS)
    if workload == "optimise":
        return _optimise_jobs(rng, OPTIMISE_SEEDED_SWEEPS, SWEEP_N)
    if workload == "verify":
        return _verify_jobs(rng, VERIFY_CONFIGS_PER_FAMILY, VERIFY_RK4_STEPS)
    raise ValueError(f"unknown workload {workload!r}")


def _design_jobs(rng: random.Random, n: int) -> list[Job]:
    per = n // 3
    specs: list[tuple[str, dict]] = []
    for family in ("third", "fourth", "antedated"):
        t_fs = _log_strata(rng, per, 1e-3, 1e3)
        if family == "third":
            specs += [(family, {"t_f": t_f}) for t_f in t_fs]
        elif family == "fourth":
            mids = _strata(rng, per, 5 * PI / 16, PI / 2)
            specs += [(family, {"t_f": t_f, "gamma_mid": g}) for t_f, g in zip(t_fs, mids)]
        else:
            fracs = _strata(rng, per, 0.27, 0.9)
            rates = _strata(rng, per, 0.5, 8.0)
            specs += [
                (family, {"t_f": t_f, "t_a": a * t_f, "beta_dot0": b})
                for t_f, a, b in zip(t_fs, fracs, rates)
            ]
    rng.shuffle(specs)
    return [
        Job(i, "design", fam, {"family": fam, **cfg}, ("synth", "check"))
        for i, (fam, cfg) in enumerate(specs)
    ]


def _optimise_jobs(rng: random.Random, n_seeded: int, sweep_n: int) -> list[Job]:
    fracs = [0.5] + _strata(rng, n_seeded, 0.27, 0.75)
    t_fs = _log_strata(rng, len(fracs), 1e-3, 1e3)
    return [
        Job(
            i,
            "optimise",
            "antedated",
            {
                "family": "antedated",
                "t_f": t_f,
                "t_a": a * t_f,
                "sweep_lo": SWEEP_LO,
                "sweep_hi": SWEEP_HI,
                "sweep_n": sweep_n,
            },
            ("sweep",),
        )
        for i, (t_f, a) in enumerate(zip(t_fs, fracs))
    ]


def _verify_jobs(rng: random.Random, per: int, rk4_steps: int) -> list[Job]:
    specs: list[tuple[str, dict]] = []
    for family in ("third", "fourth", "antedated"):
        t_fs = _log_strata(rng, per, 1e-3, 1e3)
        if family == "third":
            specs += [(family, {"t_f": t_f}) for t_f in t_fs]
        elif family == "fourth":
            mids = _strata(rng, per, 5 * PI / 16, PI / 2)
            specs += [(family, {"t_f": t_f, "gamma_mid": g}) for t_f, g in zip(t_fs, mids)]
        else:
            # Every (t_a, beta_dot0) in this box is feasible, so each job
            # exercises the full evolve path.
            fracs = _strata(rng, per, 0.3, 0.6)
            rates = _strata(rng, per, 1.0, 8.0)
            specs += [
                (family, {"t_f": t_f, "t_a": a * t_f, "beta_dot0": b})
                for t_f, a, b in zip(t_fs, fracs, rates)
            ]
    return [
        Job(
            i,
            "verify",
            fam,
            {"family": fam, **cfg, "grid_n": 1000, "rk4_steps": rk4_steps},
            ("evolve",),
            pure_branches=(+1, -1),
        )
        for i, (fam, cfg) in enumerate(specs)
    ]


def warm_job(workload: str) -> Job:
    """A small fixed job of the workload's kind, run before timing starts.

    Its t_f appears in no generated job, so it leaves no schedule in the
    waveform cache that a timed job could reuse.
    """
    base = {"family": "antedated", "t_f": 7.0, "t_a": 3.5, "beta_dot0": 5.0}
    if workload == "design":
        return Job(-1, workload, "antedated", base, ("synth", "check"))
    if workload == "optimise":
        cfg = {**base, "sweep_lo": 5.0, "sweep_hi": 5.5, "sweep_n": 10}
        return Job(-1, workload, "antedated", cfg, ("sweep",))
    cfg = {**base, "grid_n": 100, "rk4_steps": 1000}
    return Job(-1, workload, "antedated", cfg, ("evolve",), pure_branches=(+1, -1))


# ---------------------------------------------------------------------------
# timing

def cpu_seconds() -> float:
    """CPU time of this process and of its reaped children (the sweep pool)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def reference_s() -> float:
    """Seconds of a fixed pure-Python loop: one sample of the host's speed."""
    t0 = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i
    return time.perf_counter() - t0


@contextlib.contextmanager
def _timed(outcome: Outcome, step: str):
    t0, c0 = time.perf_counter(), cpu_seconds()
    try:
        yield
    finally:
        outcome.step_s[step] = time.perf_counter() - t0
        outcome.step_cpu_s[step] = cpu_seconds() - c0


# ---------------------------------------------------------------------------
# execution

def write_configs(jobs: list[Job], root: Path) -> None:
    for job in jobs:
        d = root / f"job{job.index:03d}"
        d.mkdir(parents=True, exist_ok=True)
        (d / "run.cfg").write_text(job.config_text())


class JobTimeout(Exception):
    """A subcommand gave no answer within JOB_LIMIT_S."""


def _on_alarm(signum, frame):
    raise JobTimeout


def _limited(fn, *args):
    """fn(*args), interrupted with JobTimeout after JOB_LIMIT_S."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_job(job: Job, root: Path, ip, outcome: Outcome) -> None:
    """Run one job through `iecpulse.cli.main` (and `evolve_pure`) in-process.

    Exit codes land in `outcome.exits` ("0".."3", "traceback" when an
    exception escaped, "timeout" after JOB_LIMIT_S). stderr of the CLI is
    kept for the output checks. Each step is timed into `outcome`.
    """
    d = root / f"job{job.index:03d}"
    for cmd in job.commands:
        err = io.StringIO()
        try:
            with _timed(outcome, cmd), contextlib.redirect_stderr(err):
                code = _limited(ip.cli.main,
                                [cmd, "--config", str(d / "run.cfg"), "--out", str(d / cmd)])
        except JobTimeout:
            outcome.exits.append("timeout")
            outcome.failures.append(f"{cmd}: no answer within {JOB_LIMIT_S:g} s")
            continue
        except Exception:  # the benchmark must keep running to count it
            outcome.exits.append("traceback")
            outcome.failures.append(f"{cmd}: traceback\n{traceback.format_exc()}")
            continue
        outcome.exits.append(str(code))
        (d / f"{cmd}.stderr").write_text(err.getvalue())
    if job.pure_branches and outcome.exits == ["0"] * len(job.commands):
        with _timed(outcome, "pair"):
            pair = ip.cli.parse_config(d / "run.cfg").build_pair()
        for branch in job.pure_branches:
            try:
                with _timed(outcome, f"pure{branch:+d}"):
                    states = _limited(ip.dynamics.evolve_pure, pair, branch,
                                      int(job.config["rk4_steps"]))
            except Exception as exc:  # counted as a failed job, like a CLI traceback
                outcome.failures.append(f"evolve_pure({branch}): {type(exc).__name__}\n"
                                        f"{traceback.format_exc()}")
                continue
            outcome.values[f"pure_overlap_{branch:+d}"] = _branch_overlap(ip, pair, branch, states)


def _branch_overlap(ip, pair, branch: int, states) -> float:
    """|<phi_branch(end)|psi(end)>|: 1 when the state rode its invariant branch."""
    s_end = pair.switch_fraction if pair.switch_fraction is not None else 1.0
    phi = ip.dynamics.invariant_eigenstate(pair, branch, s_end)
    return float(abs(np.vdot(phi, states[-1][1])))


# ---------------------------------------------------------------------------
# output checks (no tolerance here is looser than the program's contract)

def _read_summary(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text().splitlines()
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return lines[0].split(","), data


def check_job(job: Job, root: Path, ip, outcome: Outcome) -> None:
    """Verify every output of one job; append a reason per failed check."""
    d = root / f"job{job.index:03d}"
    fail = outcome.failures.append
    for cmd, code in zip(job.commands, outcome.exits):
        if code in ("traceback", "timeout"):
            continue
        if code == "0":
            try:
                {"synth": _check_synth, "check": _check_check, "sweep": _check_sweep,
                 "evolve": _check_evolve}[cmd](job, d / cmd, ip, outcome)
            except (OSError, ValueError, KeyError) as exc:
                fail(f"{cmd}: unreadable output: {exc}")
        elif code == "3" and _divergence_confirmed(job, d / f"{cmd}.stderr", ip):
            outcome.rejected += 1
        else:
            msg = (d / f"{cmd}.stderr").read_text().strip()
            fail(f"{cmd}: exit {code} not confirmed as a genuine rejection: {msg}")
    for branch in job.pure_branches:
        overlap = outcome.values.get(f"pure_overlap_{branch:+d}")
        if overlap is not None and not abs(1.0 - overlap) < RK4_LIMIT:
            fail(f"evolve_pure({branch:+d}) left its invariant branch: overlap {overlap!r}")


def _divergence_confirmed(job: Job, stderr: Path, ip) -> bool:
    """A numerical-failure exit is a correct answer when the waveform really
    diverges at the reported point: the closed-form quotients, evaluated
    directly from the schedule polynomials, grow like 1/(s - s0) there.
    """
    m = re.search(r"waveform diverges at s = ([0-9.eE+-]+)", stderr.read_text())
    if job.workload != "design" or m is None:
        return False
    pair = ip.cli.parse_config(stderr.parent / "run.cfg").build_pair()
    s0 = float(m.group(1))
    g, b, dg = pair.gamma, pair.beta, pair.gamma.derivative()

    def size(s: float) -> float:
        gs, bs = float(g(s)), float(b(s))
        omega = float(dg(s)) / math.sin(bs)
        return max(abs(omega), abs(omega * math.cos(gs) * math.cos(bs) / math.sin(gs)))

    # s0 is printed to 6 significant digits, so probe well outside its
    # rounding: a pole grows tenfold from 1e-3 to 1e-4 away, a removable
    # 0/0 point does not.
    for side in (-1.0, 1.0):
        near, far = s0 + side * 1e-4, s0 + side * 1e-3
        if 0.0 < near < 1.0 and 0.0 < far < 1.0 and size(near) > 5.0 * size(far):
            return True
    return False


def _check_synth(job: Job, out: Path, ip, outcome: Outcome) -> None:
    fail = outcome.failures.append
    header, data = _read_csv(out / "pulse.csv")
    if header != ["t", "omega_r", "delta", "gamma", "beta"] or data.shape != (1001, 5):
        fail(f"synth: pulse.csv has shape {data.shape} and header {header}")
        return
    if not np.isfinite(data).all():
        fail("synth: pulse.csv holds non-finite values")
    pair = ip.cli.parse_config(out.parent / "run.cfg").build_pair()
    s = np.arange(1001) / 1000
    a = pair.switch_fraction if pair.switch_fraction is not None else 1.0
    gam, bet = pair.gamma(s), pair.beta(s)
    # Recompute the closed forms where neither quotient is near 0/0.
    ok = (np.abs(np.sin(bet)) > 0.1) & (np.abs(np.sin(gam)) > 0.1) & (s < a)
    with np.errstate(divide="ignore", invalid="ignore"):
        omega = pair.gamma.derivative()(s) / np.sin(bet)
        delta = omega * np.cos(gam) * np.cos(bet) / np.sin(gam) - pair.beta.derivative()(s)
    scale = 1.0 + np.abs(omega[ok]).max(initial=0.0) + np.abs(delta[ok]).max(initial=0.0)
    err = max(np.abs(data[ok, 1] - omega[ok]).max(initial=0.0),
              np.abs(data[ok, 2] - delta[ok]).max(initial=0.0))
    if not err <= 1e-9 * scale:
        fail(f"synth: waveform differs from the closed form by {err:.3e}")
    cost = float(_read_summary(out / "summary.txt")["energy_cost"])
    if not (math.isfinite(cost) and cost > 0.0):
        fail(f"synth: energy_cost {cost!r}")


def _check_check(job: Job, out: Path, ip, outcome: Outcome) -> None:
    report = dict(
        line.split(": ", 1) for line in (out / "check_report.txt").read_text().splitlines()
        if not line.startswith("message:")
    )
    residual = float(report["max_invariant_residual"])
    outcome.values["max_invariant_residual"] = residual
    if not residual < RESIDUAL_LIMIT:
        outcome.failures.append(f"check: max_invariant_residual {residual!r} >= {RESIDUAL_LIMIT}")


def _check_sweep(job: Job, out: Path, ip, outcome: Outcome) -> None:
    fail = outcome.failures.append
    summary = _read_summary(out / "summary.txt")
    u_min, c_min = float(summary["argmin_beta_dot0"]), float(summary["min_cost"])
    _, data = _read_csv(out / "sweep.csv")
    n = int(job.config["sweep_n"])
    if data.shape != (n, 3):
        fail(f"sweep: sweep.csv has shape {data.shape}")
        return
    feasible = data[data[:, 2] == 1.0, 1]
    if int(summary["n_infeasible"]) != n - len(feasible) or not np.isfinite(feasible).all():
        fail("sweep: feasibility column disagrees with summary or holds non-finite costs")
    if not (math.isfinite(c_min) and c_min >= PI and c_min <= feasible.min() + SWEEP_CONTRACT):
        fail(f"sweep: minimum {c_min!r} is not in [pi, min feasible grid cost]")
    frac = float(job.config["t_a"]) / float(job.config["t_f"])
    if frac == 0.5:
        outcome.values["half_argmin"] = u_min
        outcome.values["half_min_cost"] = c_min
        if (round(u_min, 3), round(c_min, 3)) != README_MINIMUM:
            fail(f"sweep: t_a = t_f/2 minimum ({u_min:.6f}, {c_min:.6f}) "
                 f"!= README {README_MINIMUM}")


def _check_evolve(job: Job, out: Path, ip, outcome: Outcome) -> None:
    fail = outcome.failures.append
    deviation = float(_read_summary(out / "summary.txt")["max_rk4_deviation"])
    outcome.values["max_rk4_deviation"] = deviation
    if not deviation < RK4_LIMIT:
        fail(f"evolve: max_rk4_deviation {deviation!r} >= {RK4_LIMIT}")
    for name in ("trajectory_iec.csv", "trajectory_adiabatic.csv"):
        _, data = _read_csv(out / name)
        if data.shape != (int(job.config["grid_n"]) + 1, 9) or not np.isfinite(data).all():
            fail(f"evolve: {name} has shape {data.shape} or non-finite values")
