"""Energy cost, schedule validation, and optimization of antedated passages.

The energy cost of a passage is the dimensionless pulse area integral of
omega_r from 0 to the completion time (t_a for antedated schedules, else
t_f); a resonant pi-pulse has area pi, the lower bound. validate_schedule
decides feasibility only; max_adiabaticity_metric reports the adiabaticity
metric's maximum on the same grid: both read one complex-step pass over
it per waveform (pulse._Waveform.grid). Both raise DivergentPulse where a
waveform diverges on the driven segment, and the metric raises
DegeneratePoint at a level crossing there. sweep_beta_dot0 minimises the
cost over the initial beta rate, in which it is convex where the waveform
builds: beta is affine in that rate (AntedatedBasis), so _Sweep decides and
costs every candidate from shared parts, by the pairs' own integrand (_areas)
and detuning samples (_Sweep.detuning): a pair is its polynomials and times,
so a sweep row's verdict and cost are its pair's in validate_schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import Weights, adiabatic_state, invariant_state
from .errors import (ConfigError, DivergentPulse, Infeasible, NoConvergence, NoFeasiblePoint,
                     is_number, shown)
from .poly import Polynomial, _derivative, horner, real_roots, stacked_real_roots
from .pulse import (_arguments, _check_gap, _driven_grid, _quotients, _stacked_stations, _waveform,
                    check_grid, gauss_legendre)
from .schedule import AntedatedBasis, SchedulePair, antedated_pair, beta_dot0_rate, check_rate
from .schedule import check_times, gamma_out_of_range

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
]

#: Frequencies are "finite" when |delta| * t_f stays below this bound on the validation
#: grid (pulse._Waveform.grid); genuine divergences blow past any fixed threshold.
DELTA_FINITE_BOUND = 1e3

#: A passage has inverted once both populations lie this close to their
#: final values.
POPULATION_TOL = 1e-3


def energy_cost(pair: SchedulePair) -> float:
    """Pulse area of omega_r up to the completion time (dimensionless): _areas
    on [0, t_end] cut at the stations and beta's stationary points
    (_Waveform.edges), for every pair, so an antedated_pair's is its sweep
    cost. The nodes lie inside the pieces, where omega_r is the plain quotient
    gamma_dot / sin(beta). Where beta nearly touches a multiple of pi, omega_r
    peaks as 1 / sin(beta) and the area magnifies the coefficients' rounding:
    on the narrow-peak schedule of the tests (sin(beta) ~ 5e-5) it lies 2.4e-8
    from that of a 30-digit refit, a floor of the formulation, not of the
    quadrature. A schedule whose omega_r diverges on the driven segment raises
    DivergentPulse when its waveform is built."""
    wave = _waveform(pair)
    return float(_areas(wave.gamma, wave.beta.coefficients[:, None], wave.edges(wave.end))[0])


def _areas(gamma: Polynomial, c: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The energy cost: gamma'(s) / sin(beta(s)) integrated on each row of edges
    by gauss_legendre, the row-th beta's ascending coefficients in column row of c."""

    def omega(s, row):
        return gamma.derivative()(s) / np.sin(horner(c[:, row, None], s))

    return gauss_legendre(omega, edges)


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
    be nonnegative there, decided exactly, with no slack, from its sign at
    one sample between consecutive zeros of gamma_dot: omega_r =
    gamma_dot / sin(beta), and the waveform built, so every zero of
    sin(beta) there is one of gamma_dot too, and omega_r keeps one sign on
    each piece. |delta| must stay within
    DELTA_FINITE_BOUND on the validation grid of that segment, read from
    the waveform's grid pass for every pair; and gamma must stay within [-pi, pi] over
    the whole design window [0, t_f] (dips below -pi signal non-compensable
    singularities), decided exactly from its ends and the same zeros.
    """
    wave = _waveform(pair)
    crit = pair.gamma.stationary_points
    cuts = np.array(sorted({0.0, wave.end, *(r for r in crit if r < wave.end)}))
    messages: list[str] = []
    min_omega = float(wave.omega_many(0.5 * (cuts[1:] + cuts[:-1])).min())
    omega_ok = not min_omega < 0.0
    if not omega_ok:
        messages.append(f"omega_r turns negative (min {min_omega:.3e} * 1/t_f)")
    max_delta = wave.grid.delta_peak
    delta_ok = max_delta <= DELTA_FINITE_BOUND
    if not delta_ok:
        messages.append(f"delta exceeds the finiteness bound (max {max_delta:.3e} * 1/t_f)")
    gamma_range = gamma_out_of_range(pair.gamma)
    if gamma_range is not None:
        lo, hi = gamma_range
        messages.append(f"gamma leaves [-pi, pi] (range [{lo:.4f}, {hi:.4f}] rad)")
    return ValidationReport(omega_r_nonnegative=omega_ok, delta_finite=delta_ok,
                            gamma_range_ok=gamma_range is None, messages=messages)


def max_adiabaticity_metric(pair: SchedulePair) -> float:
    """Maximum of pulse.adiabaticity_metric over the validation grid, from
    the grid pass that validate_schedule shares.

    Raises DivergentPulse where a waveform diverges on the driven segment
    [0, t_end], and DegeneratePoint, on every call, at a level crossing
    there: on the grid or at either end of the segment, which the midpoint grid never samples.
    """
    grid = _waveform(pair).grid
    _check_gap(grid.gen_min, grid.gen_min_at)
    return grid.metric_peak


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

    A schedule that cannot be built or costed is an infeasible point. Kept for
    the benchmark and tests; equals a one-row _Sweep.evaluate where the build agrees
    with _band.
    """
    try:
        pair = antedated_pair(t_f, t_a, beta_dot0_rate(units, t_f))
        if not validate_schedule(pair).feasible:
            return math.nan, False
        return energy_cost(pair), True
    except (Infeasible, DivergentPulse, NoConvergence):
        return math.nan, False


class _Sweep:
    """What every beta_dot0 candidate at one (t_f, t_a) shares: its
    AntedatedBasis beta = B0 + b B1, b = beta_dot0 t_f.

    evaluate decides each candidate by the basis's fit check, the band of b where
    -pi < beta < 0 on the driven segment (omega_r is then finite and positive, a
    plain quotient with no station) and the detuning policy on the validation
    grid (_detuning_in_band, or its proof for b in the open interval self.proved),
    and costs the feasible ones' fitted betas in one call (_cost), whose sums do
    not depend on that grouping. A pair's cost and detuning peak are its row's
    to the bit, so its validate_schedule verdict is the row's.
    """

    def __init__(self, t_f: float, t_a: float):
        self.t_f = t_f
        basis = self.basis = AntedatedBasis(t_f, t_a)
        self.s_end, self.gamma, self.b0, self.b1 = basis.s_end, basis.gamma, basis.b0, basis.b1
        self.band = _band(self.b0, self.b1, self.s_end)
        self.proved = (0.0, 0.0)

    def evaluate(self, units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(cost, feasible) at each beta_dot0, in units of pi / (2 t_f); cost
        is NaN where infeasible, as where the rate overflows (b = inf)."""
        lo, hi = self.band
        with np.errstate(over="ignore", invalid="ignore"):
            b = beta_dot0_rate(units, self.t_f) * self.t_f  # rounded as _sweep_point rounds it
            c, fits = self.basis.fit(b)
            ok = (lo < b) & (b < hi) & fits
        p, q = self.proved
        rows = np.flatnonzero(ok & ~((p < b) & (b < q)))
        rows = rows[np.argsort(b[rows])]
        ok[rows] = self._detuning_in_band(c[:, rows], b[rows])
        rows = np.flatnonzero(ok)
        cost = np.full(len(b), math.nan)
        cost[rows] = self._cost(c[:, rows])
        return cost, ok

    def detuning(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Peaks max |delta| t_f on _driven_grid(t_a / t_f) of fitted betas c (columns), and their
        cot term and beta_dot rows: the band's stations, 0 and t_a / t_f (_band), own half each."""
        s = _driven_grid(self.s_end)
        rate = horner(_derivative(c)[:, :, None], s)
        cot = np.empty(rate.shape)
        a, half = _arguments(self.gamma, c), len(s) // 2
        for x, part in ((0.0, slice(None, half)), (self.s_end, slice(half, None))):
            for row, st in enumerate(_stacked_stations(a, x)):
                cot[row, part] = _quotients(st, s[part] - x)[1]
        return np.abs(cot - rate).max(axis=1), cot, rate

    def _detuning_in_band(self, c: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Whether each fitted beta (a column of c, at b ascending in the band)
        has its peak within DELTA_FINITE_BOUND, by the kernel on the outermost
        undecided row at each end, moving inward one pair at a time, until
        _proved_between passes every b strictly between the pair's. That open
        interval of b goes to self.proved. At worst every row is evaluated."""
        ok = np.empty(c.shape[1], dtype=bool)
        i, j = 0, c.shape[1]  # rows i .. j - 1 are undecided
        while i < j:
            rows = sorted({i, j - 1})
            peak, cot, rate = self.detuning(c[:, rows])
            ok[rows] = peak <= DELTA_FINITE_BOUND
            i, j = i + 1, j - 1
            if i < j and _proved_between(cot, rate):
                ok[i:j] = True
                self.proved = b[i - 1], b[j]
                break
        return ok

    def _edges(self, c: np.ndarray) -> np.ndarray:
        """Each beta's pieces of [0, t_a / t_f] (a column of c), cut at the roots of its
        derivative by one stacked call: in the band, its pair's _Waveform.edges and empty pieces."""
        d = _derivative(c).T
        edges = np.column_stack((np.zeros(len(d)), stacked_real_roots(d, 0.0, self.s_end),
                                 np.full(len(d), self.s_end)))
        edges[np.isnan(edges)] = self.s_end  # a row's padding: empty pieces
        return edges

    def _cost(self, c: np.ndarray) -> np.ndarray:
        """C(b) from AntedatedBasis.fit's columns c: _areas on _edges, energy_cost's to the bit."""
        return _areas(self.gamma, c, self._edges(c))

    def _slopes(self, b: float) -> tuple[float, float]:
        """C'(b) and C''(b), the integrals of -gamma' cos(beta) B1 / sin^2(beta)
        and gamma' B1^2 (1 + cos^2(beta)) / sin^3(beta) on _cost's pieces: rows
        0 and 1 of one gauss_legendre call."""

        def slope(s, row):
            b1 = self.b1(s)
            beta = self.b0(s) + b * b1
            sin, cos = np.sin(beta), np.cos(beta)
            first = self.gamma.derivative()(s) * b1 / (sin * sin)
            return np.where(row[:, None] == 0, -cos * first, first * b1 * (1.0 + cos * cos) / sin)

        d1, d2 = gauss_legendre(slope, np.repeat(self._edges(self.basis.fit(np.array([b]))[0]), 2, 0))
        return float(d1), float(d2)

    def argmin(self, b: float, lo: float, hi: float) -> float:
        """Where C is least on [lo, hi], from the grid's best b and its feasible
        neighbours lo and hi: b itself if it is the end C falls towards. Else
        C' changes sign between b and that end, as C(end) >= C(b) and C'' > 0
        in the band (which holds [lo, hi]), where gamma' < 0 (_band) and
        sin(beta) < 0. Safeguarded Newton on C' (rtsafe): each C' sign shrinks
        the bracket, and a Newton point outside it, C'' <= 0 or a step over half
        the one before last bisects it instead. Stops at a step of 1e-12 relative in b."""
        g, h = self._slopes(b)
        end = hi if g < 0 else lo
        if end == b:
            return b
        lo, hi = min(b, end), max(b, end)
        x, step, prior = b, hi - lo, hi - lo
        while True:
            if h > 0 and lo <= x - g / h <= hi and 2 * abs(g) <= abs(prior * h):
                prior, step = step, -g / h
            else:
                prior, step = step, 0.5 * (lo + hi) - x
            x += step
            if abs(step) <= 1e-12 * max(abs(lo), abs(hi)):
                return x
            g, h = self._slopes(x)
            lo, hi = (x, hi) if g < 0 else (lo, x)


def _proved_between(cot: np.ndarray, rate: np.ndarray) -> bool:
    """Whether every b strictly between two rows of the band passes the
    detuning policy, proved from the rows' cot terms and beta_dots (a row
    each, from _Sweep.detuning) alone.

    In exact arithmetic beta = B0 + b B1 and beta_dot are affine in b, so at
    each sample a b between the rows' gets a beta between theirs in (-pi, 0)
    (_band), where |cot| is quasi-convex: its maximum lies at an end. So each
    sample's |delta| is at most the larger |cot term| of the rows plus their
    larger |beta_dot|. The kernel misses the exact affine beta's values by the
    rounding of the fit and of the factored form, a few ulps of beta over
    |sin(beta)|: at most 1.8e-11 of DELTA_FINITE_BOUND at every sample of 32
    in-band rows against a 30-digit refit, rows within 1e-7 of the bound
    included. The 1e-9 relative margin covers three such errors (the two
    rows' and the one between) 18 times over.
    """
    bound = np.abs(cot).max(axis=0) + np.abs(rate).max(axis=0)
    return bool(bound.max() <= DELTA_FINITE_BOUND * (1 - 1e-9))


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
    sweep grid: lo and hi are real numbers, check_rate holds at lo, lo < hi < inf
    and n is an integer in [10, 10**6]."""
    if not (is_number(lo) and is_number(hi)):
        raise ConfigError(f"need real numbers lo and hi, got lo = {shown(lo)}, hi = {shown(hi)}")
    check_rate(beta_dot0_rate(lo, t_f))
    if not lo < hi < math.inf:
        raise ConfigError(f"need lo < hi < inf, got lo = {shown(lo)}, hi = {shown(hi)}")
    if not (is_number(n, "iu") and 10 <= n <= 10**6):
        raise ConfigError(f"need an integer 10 <= n <= 10**6 grid points, got {shown(n)}")


def sweep_beta_dot0(t_f: float, t_a: float, lo: float, hi: float, n: int) -> SweepResult:
    """Sweep the initial beta rate over [lo, hi] (units of pi / 2 t_f).

    check_times and check_sweep apply (ConfigError). Decides and costs all
    n grid points at once from one _Sweep, then refines the best row between
    its feasible neighbours by _Sweep.argmin (to 1e-12 relative in the rate,
    well below the 1e-4 contract) and decides and costs the result by one
    more evaluate; it replaces the best row only if feasible and no costlier.
    Raises NoFeasiblePoint when every grid point is infeasible.
    """
    t_f, t_a = check_times(t_f, t_a)
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
    near = units[kept[[best, max(best - 1, 0), min(best + 1, len(kept) - 1)]]]
    minimum = float(near[0]), float(cost[kept[best]])
    b = (beta_dot0_rate(near, t_f) * t_f).tolist()
    b_star = sweep.argmin(*b)
    if b_star != b[0]:
        u_star = b_star / (0.5 * math.pi)
        value, ok = sweep.evaluate(np.array([u_star]))
        if ok[0] and value[0] <= minimum[1]:
            minimum = u_star, float(value[0])
    return SweepResult(units=units, cost=cost, feasible=feasible, minimum=minimum)


@dataclass
class PassageReport:
    """The designed passage beside its adiabatic reference on one time grid.

    t holds the sample times; rho and adiabatic_rho the (len(t), 2, 2) state
    stacks of the two passages. max_population_gap is the largest
    difference of their upper-level populations, and inversion_time the
    first sample time at which both populations of rho lie within
    POPULATION_TOL of their final values (the last sample holds them).
    """

    t: np.ndarray
    rho: np.ndarray
    adiabatic_rho: np.ndarray
    max_population_gap: float
    inversion_time: float


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
        inversion_time=float(s_grid[hit[0]] * pair.t_f),
    )


def default_workers() -> int:
    """Processes a sweep uses: sweeps run in the calling process."""
    return 1
