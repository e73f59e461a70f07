"""Energy cost, schedule validation, and optimization of antedated passages.

The energy cost of a passage is the dimensionless pulse area
integral of omega_r from 0 to the completion time (t_a for antedated
schedules, else t_f). A resonant pi-pulse has area pi, the lower bound.
validate_schedule decides feasibility only; max_adiabaticity_metric
reports the adiabaticity metric's maximum on the same grid. Both raise
DivergentPulse where a waveform diverges on the driven segment, and the
metric raises DegeneratePoint at a level crossing there. For a fixed
antedating time the cost is a unimodal function of the initial beta rate;
sweep_beta_dot0 locates its minimum in the calling process by a grid scan
followed by golden-section refinement. Every candidate of a sweep shares
one gamma fit and one pair of beta solves, because beta is affine in the
rate (_Sweep).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import Weights, adiabatic_state, invariant_state
from .errors import ConfigError, DivergentPulse, Infeasible, NoConvergence, NoFeasiblePoint
from .poly import FIT_TOL, Condition, Polynomial, misfit, real_roots, solve, stacked_real_roots
from .pulse import _metric, _waveform, check_grid, gauss_legendre
from .schedule import SchedulePair, _antedated_beta_conditions, _antedated_gamma, antedated_pair
from .schedule import beta_dot0_rate, check_rate, check_times, gamma_dot_zero_crossing
from .schedule import gamma_out_of_range

__all__ = [
    "SweepResult",
    "ValidationReport",
    "PassageReport",
    "energy_cost",
    "validate_schedule",
    "max_adiabaticity_metric",
    "sweep_beta_dot0",
    "check_sweep",
    "compare_passages",
    "golden_section",
]

#: Frequencies are "finite" when |delta| * t_f stays below this bound on the
#: validation grid; genuine divergences blow past any fixed threshold. The
#: sweep applies it to delta = gamma_dot cot(gamma) / tan(beta) - beta_dot.
DELTA_FINITE_BOUND = 1e3

#: Samples of the validation grid: midpoints of the driven segment for the
#: waveforms and the adiabaticity metric.
GRID_POINTS = 10_000

#: Absolute tolerance of the pulse area: successive Gauss-Legendre sums of
#: every piece agree to it.
COST_TOL = 1e-8

#: A passage has inverted once both populations lie this close to their
#: final values.
POPULATION_TOL = 1e-3

#: Sweep candidates evaluated together: 8 rows of the validation grid make
#: 640 kB per array. Costs are summed per block too, and gauss_legendre's
#: sums move in the last ulp with its row count, so sweep.csv's bytes
#: depend on this size.
SWEEP_BLOCK = 8


def energy_cost(pair: SchedulePair) -> float:
    """Pulse area of omega_r up to the completion time (dimensionless).

    The area of the stored double-precision polynomials, by gauss_legendre
    to COST_TOL on [0, t_end] cut at the stations and at beta's stationary
    points. The nodes lie inside the pieces, so no node meets a 0/0 point
    and omega_r is the plain quotient gamma_dot / sin(beta) there. Where
    beta nearly touches a multiple of pi, omega_r peaks as 1 / sin(beta),
    and the area magnifies the rounding of the fit's coefficients: on the
    narrow-peak schedule of the tests (sin(beta) ~ 5e-5) the stored
    polynomials' area lies 2.7e-8 from that of a 30-digit refit. That gap
    is a floor of the formulation, not of the quadrature. A schedule whose
    omega_r diverges on the driven segment raises DivergentPulse when its
    waveform is built.
    """
    wave = _waveform(pair)

    def omega(s, row):
        return wave.dgamma(s) / np.sin(wave.beta(s))

    return float(gauss_legendre(omega, wave.edges(wave.end), COST_TOL)[0])


def _driven_grid(s_end: float) -> np.ndarray:
    """GRID_POINTS midpoints of the driven segment [0, s_end]."""
    return (np.arange(GRID_POINTS) + 0.5) * (s_end / GRID_POINTS)


@dataclass
class ValidationReport:
    """Policy checks of one schedule whose waveforms are finite on its
    driven segment."""

    omega_r_nonnegative: bool
    delta_finite: bool
    gamma_range_ok: bool
    messages: list[str] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return self.omega_r_nonnegative and self.delta_finite and self.gamma_range_ok


def validate_schedule(pair: SchedulePair) -> ValidationReport:
    """Decide whether a schedule's waveforms are physical.

    Raises DivergentPulse, when the waveform is built, where omega_r or
    delta diverges on the driven segment [0, t_end]. Otherwise omega_r must
    be nonnegative there, decided exactly from one sample between
    consecutive zeros of gamma_dot; |delta| must stay within
    DELTA_FINITE_BOUND on the validation grid of that segment; and gamma
    must stay within [-pi, pi] over the whole design window [0, t_f] (dips
    below -pi signal non-compensable singularities), decided exactly from
    its stationary points.
    """
    wave = _waveform(pair)
    # omega_r = gamma_dot / sin(beta) keeps its sign between consecutive
    # zeros of gamma_dot on the driven segment: the waveform built, so every
    # zero of sin(beta) there is one of gamma_dot too.
    cuts = np.array(sorted({0.0, wave.end, *(r for r in wave.rate_zeros if r < wave.end)}))
    messages: list[str] = []
    min_omega = float(wave.omega_many(0.5 * (cuts[1:] + cuts[:-1])).min())
    omega_ok = not min_omega < -1e-9
    if not omega_ok:
        messages.append(f"omega_r turns negative (min {min_omega:.3e} * 1/t_f)")
    max_delta = float(np.abs(wave.delta_many(_driven_grid(wave.end))).max())
    delta_ok = max_delta <= DELTA_FINITE_BOUND
    if not delta_ok:
        messages.append(f"delta exceeds the finiteness bound (max {max_delta:.3e} * 1/t_f)")
    gamma_range = gamma_out_of_range(pair.gamma)
    if gamma_range is not None:
        lo, hi = gamma_range
        messages.append(f"gamma leaves [-pi, pi] (range [{lo:.4f}, {hi:.4f}] rad)")
    return ValidationReport(
        omega_r_nonnegative=omega_ok,
        delta_finite=delta_ok,
        gamma_range_ok=gamma_range is None,
        messages=messages,
    )


def max_adiabaticity_metric(pair: SchedulePair) -> float:
    """Maximum of pulse.adiabaticity_metric over the validation grid.

    Raises DivergentPulse where a waveform diverges on the driven segment
    [0, t_end], and DegeneratePoint at a level crossing there: on the grid
    or at either end of the segment, which the midpoint grid never samples.
    """
    wave = _waveform(pair)
    s = np.concatenate(([0.0], _driven_grid(wave.end), [wave.end]))
    return float(_metric(wave, s)[1:-1].max())


@dataclass
class SweepResult:
    """Energy cost versus initial beta rate for one antedating time.

    units is the grid of beta_dot0 values, in units of pi / (2 t_f); cost
    the pulse area at each, NaN where the boolean array feasible is False;
    minimum the refined (beta_dot0 in units, cost).
    """

    units: np.ndarray
    cost: np.ndarray
    feasible: np.ndarray
    minimum: tuple[float, float]


def _sweep_point(t_f: float, t_a: float, units: float) -> tuple[float, bool]:
    """Cost and feasibility at one grid point, beta_dot0 in units of pi / 2 t_f.

    A schedule that cannot be built or costed is an infeasible point.
    """
    try:
        pair = antedated_pair(t_f, t_a, beta_dot0_rate(units, t_f))
        if not validate_schedule(pair).feasible:
            return math.nan, False
        return energy_cost(pair), True
    except (Infeasible, DivergentPulse, NoConvergence):
        return math.nan, False


class _Sweep:
    """What every beta_dot0 candidate at one (t_f, t_a) shares.

    b = beta_dot0 t_f enters the antedated beta fit only through its
    right-hand side, so beta = B0 + b B1: one gamma fit, t_s and two beta
    solves serve every candidate. evaluate decides each candidate as
    _sweep_point does, from shared parts: the gamma-range verdict, the fit's
    residual check on B0 + b B1, the band of b where -pi < beta < 0 on the
    driven segment (omega_r is then finite and positive, a plain quotient
    with no station), and the detuning policy on the validation grid with
    cot(beta) = 1 / tan(beta) (_detuning_ok). The feasible candidates are
    costed together, SWEEP_BLOCK at a time: one stacked_real_roots call
    finds the cut points of a block, one gauss_legendre call integrates it.
    Raises SingularSystem or NoCrossing when no candidate can be built.
    """

    def __init__(self, t_f: float, t_a: float):
        self.t_f = t_f
        self.s_end = a = t_a / t_f
        self.gamma = _antedated_gamma(a)
        t_s = gamma_dot_zero_crossing(self.gamma)
        at_zero, at_one = (_antedated_beta_conditions(a, t_s, b) for b in (0.0, 1.0))
        slope = [Condition(c.s, c.derivative_order, u.value - c.value)
                 for c, u in zip(at_zero, at_one)]
        self.b0, self.b1 = solve(at_zero, 5), solve(slope, 5)
        self._values = np.array([[c.value for c in at_zero], [c.value for c in slope]])
        self._misfit = np.array([misfit(self.b0, at_zero), misfit(self.b1, slope)])
        self.gamma_ok = gamma_out_of_range(self.gamma) is None
        self.band = _band(self.b0, self.b1, a)
        self.dgamma = self.gamma.derivative()
        self._db0, self._db1 = self.b0.derivative(), self.b1.derivative()
        s = _driven_grid(a)
        self._grid_cot = self.dgamma(s) / np.tan(self.gamma(s))
        self._grid_beta = self.b0(s), self.b1(s)
        self._grid_rate = self._db0(s), self._db1(s)

    def evaluate(self, units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(cost, feasible) at each beta_dot0, in units of pi / (2 t_f); cost
        is NaN where infeasible, as where the rate overflows (b = inf)."""
        lo, hi = self.band
        with np.errstate(over="ignore", invalid="ignore"):
            b = beta_dot0_rate(units, self.t_f) * self.t_f  # rounded as _sweep_point rounds it
            ok = self.gamma_ok & (lo < b) & (b < hi) & self._fit_ok(b)
        cost = np.full(len(b), math.nan)
        rows = np.flatnonzero(ok)
        for i in range(0, len(rows), SWEEP_BLOCK):
            block = rows[i : i + SWEEP_BLOCK]
            ok[block] = self._detuning_ok(b[block])
            block = block[ok[block]]
            if len(block):
                cost[block] = self._cost(b[block])
        return cost, ok

    def _fit_ok(self, b: np.ndarray) -> np.ndarray:
        """fit's residual check on B0 + b B1 against the conditions at b."""
        values = self._values[0] + b[:, None] * self._values[1]
        miss = self._misfit[0] + b[:, None] * self._misfit[1]
        scale = np.maximum(1.0, np.abs(values).max(axis=1))
        return (np.abs(miss) <= FIT_TOL * scale[:, None]).all(axis=1)

    def _detuning_ok(self, b: np.ndarray) -> np.ndarray:
        """|delta| t_f <= DELTA_FINITE_BOUND on the validation grid, where
        delta = gamma_dot cot(gamma) / tan(beta) - beta_dot: one tan per
        sample, vectorised on numpy 2.4 with AVX-512, where sin and cos are
        not. Where tan(beta) is 0, as where sin(beta) is, the check fails."""
        beta = np.multiply.outer(b, self._grid_beta[1])
        beta += self._grid_beta[0]
        delta = np.divide(self._grid_cot, np.tan(beta, out=beta), out=beta)
        rate = np.multiply.outer(b, self._grid_rate[1])
        rate += self._grid_rate[0]
        delta -= rate
        peak = np.abs(delta, out=delta).max(axis=1)
        return np.isfinite(peak) & (peak <= DELTA_FINITE_BOUND)

    def _cost(self, b: np.ndarray) -> np.ndarray:
        """Pulse areas, each on [0, t_a / t_f] cut at its beta's stationary
        points: the roots of B0' + b B1', all found by one stacked call."""
        d = self._db0.coefficients + b[:, None] * self._db1.coefficients
        edges = np.column_stack((np.zeros(len(b)), stacked_real_roots(d, 0.0, self.s_end),
                                 np.full(len(b), self.s_end)))
        edges[np.isnan(edges)] = self.s_end  # a row's padding: empty pieces

        def omega(s, row):
            return self.dgamma(s) / np.sin(self.b0(s) + b[row, None] * self.b1(s))

        return gauss_legendre(omega, edges, COST_TOL)


def _band(b0: Polynomial, b1: Polynomial, s_end: float) -> tuple[float, float]:
    """The open interval (lo, hi) of b where -pi < b0 + b b1 < 0 on (0, s_end);
    empty when lo >= hi.

    Where b1 vanishes inside, b0 alone must lie in (-pi, 0). Elsewhere level
    c (0 or -pi) bounds b by (c - b0) / b1: from above where b1 > 0 and
    c = 0 or b1 < 0 and c = -pi, from below otherwise. At each end of a sign
    piece of b1 that ratio runs off to the infinity that bounds nothing, so
    its binding values lie at its stationary points, the roots of
    b0' b1 - (b0 - c) b1'.

    The band is the waveform build's verdict. With a = s_end the antedated
    gamma is pi (1-s)^2 (1 + 2s + k s^2), k = -(1+2a)/a^2, of rate
    pi s (1-s) (2k (1-2s) - 6) < 0 on (0, t_s), t_s = 1/2 - 3/(2k), and
    t_s - a = (1-a^2)/(2+4a) > 0. So the build rejects a zero of sin(beta) on
    (0, a] as divergent; as beta(0) = beta(a) = -pi/2, a schedule (gamma in
    range) builds exactly for b in the band, where omega_r > 0.
    """
    for s in real_roots(b1, 0.0, s_end):
        if 0.0 < s < s_end and not -math.pi < b0(s) < 0.0:
            return 0.0, 0.0
    lo, hi = -math.inf, math.inf
    d0, d1 = b0.derivative().coefficients, b1.derivative().coefficients
    levels = (0.0, -math.pi)
    q = [np.convolve(d0, b1.coefficients) - np.convolve(b0.shifted(-c).coefficients, d1)
         for c in levels]
    for c, roots in zip(levels, stacked_real_roots(np.array(q), 0.0, s_end)):
        for s in roots[~np.isnan(roots)].tolist():
            w = float(b1(s))
            if w == 0.0:
                continue
            edge = (c - float(b0(s))) / w
            if (w > 0.0) == (c == 0.0):
                hi = min(hi, edge)
            else:
                lo = max(lo, edge)
    return lo, hi


def check_sweep(t_f: float, lo: float, hi: float, n: int) -> None:
    """Raise ConfigError unless n points on [lo, hi] (units of pi / 2 t_f) make a
    sweep grid: check_rate holds at lo, lo < hi < inf and n is an integer in [10, 10**6]."""
    check_rate(beta_dot0_rate(lo, t_f))
    if not lo < hi < math.inf:
        raise ConfigError(f"need lo < hi < inf, got lo = {lo!r}, hi = {hi!r}")
    if not (isinstance(n, (int, np.integer)) and 10 <= n <= 10**6):
        raise ConfigError(f"need an integer 10 <= n <= 10**6 grid points, got {n!r}")


def sweep_beta_dot0(t_f: float, t_a: float, lo: float, hi: float, n: int) -> SweepResult:
    """Sweep the initial beta rate over [lo, hi] (units of pi / 2 t_f).

    check_times and check_sweep apply (ConfigError). Decides and costs all
    n grid points at once from one _Sweep, then refines the best bracket by
    golden-section search on the same _Sweep (well below the 1e-4 contract).
    The reported minimum is evaluated once more through _sweep_point, the
    per-schedule path; raises NoConvergence when the two disagree
    (feasibility, or cost beyond 1e-7 relative), and NoFeasiblePoint when
    every grid point is infeasible.
    """
    check_times(t_f, t_a)
    check_sweep(t_f, lo, hi, n)
    units = np.linspace(lo, hi, n)
    try:
        sweep = _Sweep(t_f, t_a)
    except Infeasible:
        raise NoFeasiblePoint(f"no feasible beta_dot0 in [{lo}, {hi}] for t_a = {t_a}") from None
    cost, feasible = sweep.evaluate(units)
    kept = np.flatnonzero(feasible)
    if not len(kept):
        raise NoFeasiblePoint(f"no feasible beta_dot0 in [{lo}, {hi}] for t_a = {t_a}")

    best = int(np.argmin(cost[kept]))
    bracket_lo = float(units[kept[max(best - 1, 0)]])
    bracket_hi = float(units[kept[min(best + 1, len(kept) - 1)]])

    def cost_at(u: float) -> float:
        value, feasible_u = sweep.evaluate(np.array([u]))
        return float(value[0]) if feasible_u[0] else math.inf

    candidates = [(float(units[kept[best]]), float(cost[kept[best]]))]
    if bracket_hi > bracket_lo:
        u_star, c_star = golden_section(cost_at, bracket_lo, bracket_hi, tol=1e-6)
        if math.isfinite(c_star):
            candidates.append((u_star, c_star))
    minimum = min(candidates, key=lambda p: p[1])
    check, check_ok = _sweep_point(t_f, t_a, minimum[0])
    if not (check_ok and abs(check - minimum[1]) <= 1e-7 * abs(check)):
        raise NoConvergence(
            f"sweep minimum {minimum[1]!r} at beta_dot0 = {minimum[0]!r} disagrees with "
            f"the per-schedule path ({'cost ' + repr(check) if check_ok else 'infeasible'})"
        )
    return SweepResult(units=units, cost=cost, feasible=feasible, minimum=minimum)


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
    """The designed passage beside its adiabatic reference on one time grid.

    t holds the sample times; rho and adiabatic_rho the (len(t), 2, 2) state
    stacks of the two passages. max_population_gap is the largest
    difference of their upper-level populations, and inversion_time the
    first sample time at which both populations of rho lie within
    POPULATION_TOL of their final values (None if none does).
    """

    t: np.ndarray
    rho: np.ndarray
    adiabatic_rho: np.ndarray
    max_population_gap: float
    inversion_time: float | None


def compare_passages(pair: SchedulePair, w: Weights, n_grid: int) -> PassageReport:
    """Tabulate the invariant-basis and adiabatic-reference passages of one
    schedule side by side, on n_grid + 1 uniform samples of [0, t_f].

    Each stack is built in one call, so a waveform that diverges on the
    driven segment raises DivergentPulse, and a level crossing of the
    reference on the samples DegeneratePoint. check_grid applies to n_grid.
    """
    check_grid(n_grid)
    s_grid = np.arange(n_grid + 1) / n_grid
    rho = invariant_state(pair, w, s_grid)
    ad = adiabatic_state(pair, w, s_grid)
    rho11, rho22 = rho[:, 0, 0].real, rho[:, 1, 1].real
    hit = np.nonzero(
        (np.abs(rho11 - rho11[-1]) <= POPULATION_TOL)
        & (np.abs(rho22 - rho22[-1]) <= POPULATION_TOL)
    )[0]
    return PassageReport(
        t=s_grid * pair.t_f,
        rho=rho,
        adiabatic_rho=ad,
        max_population_gap=float(np.abs(rho11 - ad[:, 0, 0].real).max()),
        inversion_time=float(s_grid[hit[0]] * pair.t_f) if len(hit) else None,
    )


def default_workers() -> int:
    """Processes a sweep uses: sweeps run in the calling process."""
    return 1
