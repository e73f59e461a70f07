"""Energy cost, schedule validation, and optimization of antedated passages.

The energy cost of a passage is the dimensionless pulse area
integral of omega_r from 0 to the completion time (t_a for antedated
schedules, else t_f). A resonant pi-pulse has area pi, the lower bound.
validate_schedule decides feasibility only; max_adiabaticity_metric
reports the adiabaticity metric's maximum on the same grid. For a fixed
antedating time the cost is a unimodal function of the initial beta rate;
sweep_beta_dot0 locates its minimum in the calling process by a grid scan
followed by golden-section refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import Weights, adiabatic_state, bloch_vector, fidelity, invariant_state
from .errors import DegeneratePoint, DivergentPulse, NoConvergence, NoCrossing, NoFeasiblePoint
from .errors import SingularSystem
from .pulse import _metric, _waveform, adaptive_simpson
from .schedule import SchedulePair, antedated_pair

__all__ = [
    "SweepResult",
    "ValidationReport",
    "PassageReport",
    "energy_cost",
    "validate_schedule",
    "max_adiabaticity_metric",
    "sweep_beta_dot0",
    "compare_passages",
    "golden_section",
]

#: Frequencies are "finite" when |delta| * t_f stays below this bound on the
#: validation grid; genuine divergences blow past any fixed threshold.
DELTA_FINITE_BOUND = 1e3

#: Samples of the validation grids: midpoints of the driven segment for the
#: waveforms and the adiabaticity metric, GRID_POINTS + 1 nodes of [0, 1]
#: for gamma.
GRID_POINTS = 10_000


def energy_cost(pair: SchedulePair) -> float:
    """Pulse area of omega_r up to the completion time (dimensionless)."""
    s_end = pair.switch_fraction if pair.switch_fraction is not None else 1.0
    wave = _waveform(pair)
    wave.check_finite(0.0, s_end, wave.omega_divergent)
    return adaptive_simpson(wave.omega, 0.0, s_end, 1e-8)


def _driven_grid(pair: SchedulePair) -> np.ndarray:
    """GRID_POINTS midpoints of the driven segment [0, t_end], in s."""
    s_end = pair.switch_fraction if pair.switch_fraction is not None else 1.0
    return (np.arange(GRID_POINTS) + 0.5) * (s_end / GRID_POINTS)


@dataclass
class ValidationReport:
    """Grid-check outcome for one schedule; validation never raises."""

    omega_r_nonnegative: bool
    delta_finite: bool
    gamma_range_ok: bool
    messages: list[str] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return self.omega_r_nonnegative and self.delta_finite and self.gamma_range_ok


def validate_schedule(pair: SchedulePair) -> ValidationReport:
    """Decide whether a schedule's waveforms are physical, on dense grids.

    omega_r must be nonnegative and delta bounded over the driven segment
    [0, t_end]; gamma must stay within [-pi, pi] over the whole design
    window [0, t_f] (dips below -pi signal non-compensable singularities).
    """
    wave = _waveform(pair)
    grid = _driven_grid(pair)
    messages: list[str] = []
    omega_ok = delta_ok = True
    try:
        omega = wave.omega_many(grid)
        delta = wave.delta_many(grid)
    except DivergentPulse as exc:
        messages.append(str(exc))
        omega_ok = delta_ok = False
    else:
        min_omega = float(omega.min())
        if min_omega < -1e-9:
            omega_ok = False
            messages.append(f"omega_r turns negative (min {min_omega:.3e} * 1/t_f)")
        max_delta = float(np.abs(delta).max())
        if not np.isfinite(max_delta) or max_delta > DELTA_FINITE_BOUND:
            delta_ok = False
            messages.append(f"delta exceeds the finiteness bound (max {max_delta:.3e} * 1/t_f)")

    full = np.linspace(0.0, 1.0, GRID_POINTS + 1)
    gamma = np.asarray(pair.gamma(full), dtype=float)
    gamma_ok = bool(gamma.min() >= -math.pi - 1e-9 and gamma.max() <= math.pi + 1e-9)
    if not gamma_ok:
        messages.append(
            f"gamma leaves [-pi, pi] (range [{gamma.min():.4f}, {gamma.max():.4f}] rad)"
        )
    return ValidationReport(
        omega_r_nonnegative=omega_ok,
        delta_finite=delta_ok,
        gamma_range_ok=gamma_ok,
        messages=messages,
    )


def max_adiabaticity_metric(pair: SchedulePair) -> float:
    """Maximum of pulse.adiabaticity_metric over the driven-segment grid of
    validate_schedule; NaN where the metric is undefined somewhere on it
    (a level crossing, or a divergence within its difference step)."""
    try:
        return float(_metric(_waveform(pair), _driven_grid(pair)).max())
    except (DegeneratePoint, DivergentPulse):
        return math.nan


@dataclass
class SweepResult:
    """Energy cost versus initial beta rate for one antedating time.

    beta_dot0 values are in units of pi / (2 t_f). Infeasible grid points
    carry cost NaN and are listed separately.
    """

    t_a: float
    grid: list[tuple[float, float]]
    minimum: tuple[float, float]
    infeasible_points: list[float]


def _sweep_point(t_f: float, t_a: float, units: float) -> tuple[float, bool]:
    """Cost and feasibility at one grid point, beta_dot0 in units of pi / 2 t_f.

    A schedule that cannot be built or costed is an infeasible point.
    """
    try:
        pair = antedated_pair(t_f, t_a, units * 0.5 * math.pi / t_f, enforce_range=False)
        if not validate_schedule(pair).feasible:
            return math.nan, False
        return energy_cost(pair), True
    except (SingularSystem, NoCrossing, NoConvergence, DivergentPulse):
        return math.nan, False


def sweep_beta_dot0(t_f: float, t_a: float, lo: float, hi: float, n: int) -> SweepResult:
    """Sweep the initial beta rate over [lo, hi] (units of pi / 2 t_f).

    Builds the antedated schedule at each of n grid points in the calling
    process, records the energy cost of feasible points, then refines the
    best bracket by golden-section search (well below the 1e-4 contract).
    Raises NoFeasiblePoint when validation fails everywhere.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    if n < 10:
        raise ValueError("need n >= 10 grid points")
    units = np.linspace(lo, hi, n)
    evaluated = [_sweep_point(t_f, t_a, float(u)) for u in units]
    grid = [(float(u), cost) for u, (cost, _) in zip(units, evaluated)]
    infeasible = [float(u) for u, (_, ok) in zip(units, evaluated) if not ok]
    feasible = [(float(u), cost) for u, (cost, ok) in zip(units, evaluated) if ok]
    if not feasible:
        raise NoFeasiblePoint(f"no feasible beta_dot0 in [{lo}, {hi}] for t_a = {t_a}")

    best_idx = min(range(len(feasible)), key=lambda i: feasible[i][1])
    bracket_lo = feasible[max(best_idx - 1, 0)][0]
    bracket_hi = feasible[min(best_idx + 1, len(feasible) - 1)][0]

    def cost_at(u: float) -> float:
        value, ok = _sweep_point(t_f, t_a, u)
        return value if ok else math.inf

    candidates = [feasible[best_idx]]
    if bracket_hi > bracket_lo:
        u_star, c_star = golden_section(cost_at, bracket_lo, bracket_hi, tol=1e-6)
        if math.isfinite(c_star):
            candidates.append((u_star, c_star))
    minimum = min(candidates, key=lambda p: p[1])
    return SweepResult(t_a=t_a, grid=grid, minimum=minimum, infeasible_points=infeasible)


def golden_section(f, lo: float, hi: float, *, tol: float = 1e-6) -> tuple[float, float]:
    """Minimize a unimodal f on [lo, hi]; returns (argmin, min)."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = f(d)
    u = 0.5 * (lo + hi)
    return u, f(u)


@dataclass
class PassageReport:
    """Aligned per-passage tables: states, populations, Bloch trajectories,
    timing. The adiabatic columns are NaN where the reference is undefined."""

    pair: SchedulePair
    t: np.ndarray
    rho: np.ndarray
    adiabatic_rho: np.ndarray
    rho11: np.ndarray
    rho22: np.ndarray
    bloch: np.ndarray
    adiabatic_rho11: np.ndarray
    adiabatic_rho22: np.ndarray
    adiabatic_bloch: np.ndarray
    fidelity_to_target: np.ndarray
    max_population_gap: float
    inversion_time: float | None


def compare_passages(
    pairs: list[SchedulePair],
    w: Weights,
    n_grid: int,
    *,
    population_tol: float = 1e-3,
) -> list[PassageReport]:
    """Tabulate invariant-basis and adiabatic-reference passages side by side.

    For each schedule, on n_grid + 1 uniform samples: the (n_grid + 1, 2, 2)
    state stacks of the designed passage and of the mixing-angle reference
    (NaN throughout when the reference meets a level crossing), their
    diagonal populations and Bloch trajectories, the designed state's
    fidelity to its final state, the largest population gap between the two
    passages, and the first time the populations reach their inverted
    targets within population_tol. Each stack is built in one call, so a
    waveform that diverges on the driven segment raises DivergentPulse.
    """
    reports = []
    for pair in pairs:
        s_grid = np.arange(n_grid + 1) / n_grid
        rho = invariant_state(pair, w, s_grid)
        try:
            ad = adiabatic_state(pair, w, s_grid)
        except DegeneratePoint:
            ad = np.full_like(rho, math.nan)
        target = rho[-1]
        rho11, rho22 = rho[:, 0, 0].real, rho[:, 1, 1].real
        ad11 = ad[:, 0, 0].real
        hit = np.nonzero(
            (np.abs(rho11 - target[0, 0].real) <= population_tol)
            & (np.abs(rho22 - target[1, 1].real) <= population_tol)
        )[0]
        inversion_time = float(s_grid[hit[0]] * pair.t_f) if len(hit) else None
        reports.append(
            PassageReport(
                pair=pair,
                t=s_grid * pair.t_f,
                rho=rho,
                adiabatic_rho=ad,
                rho11=rho11,
                rho22=rho22,
                bloch=bloch_vector(rho),
                adiabatic_rho11=ad11,
                adiabatic_rho22=ad[:, 1, 1].real,
                adiabatic_bloch=bloch_vector(ad),
                fidelity_to_target=fidelity(rho, target),
                max_population_gap=float(np.abs(rho11 - ad11).max()),
                inversion_time=inversion_time,
            )
        )
    return reports


def default_workers() -> int:
    """Processes a sweep uses: sweeps run in the calling process."""
    return 1
