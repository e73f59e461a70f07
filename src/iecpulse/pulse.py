"""Control waveforms derived from a schedule.

The invariant construction fixes the Rabi frequency and detuning as

    omega_r(t) = gamma_dot / sin(beta)
    delta(t)   = omega_r * cot(gamma) * cos(beta) - beta_dot

Both quotients hit 0/0 at schedule-defined points (the passage endpoints,
the antedated zero of gamma, the rate-reversal zero of beta), so they are
evaluated in factored form. A station s0 is a point of [0, 1] where one of
the factors gamma_dot, sin(beta), cos(beta), sin(gamma) vanishes. There a
factor's multiplicity m is the number of leading Taylor coefficients of its
argument (less a multiple k pi for an angle) that lie within the rounding
bound of their evaluation, so zeros that coincide by design share a
station. About s0 each factor is u^m (u = s - s0) times a reduced part:
gamma_dot's Taylor series without its first m terms, and for an angle

    sin(p) = u^m (-1)^k r(s) sinc((p - k pi) / pi),   p - k pi = u^m r(s).

Every sample takes the reduced parts of its nearest station, so one
vectorised pass (_Waveform.quotients) gives both quotients over one
sin(beta) factor at the 0/0 points and all other samples alike. A
quotient's order, numerator minus denominator multiplicities, is negative
exactly where it diverges (DivergentPulse); the cot term's is the one flag.
The build walks the zeros in s order and rejects a divergence on the
driven segment at the first divergent station, before it seeks any later
zero: a schedule that diverges there cannot be probed at any s. The
adiabaticity metric makes the same pass once at complex s + i h
(h = 1e-30): the real parts are omega_r and delta and Im / h their rates,
exact to rounding because nothing is subtracted (complex step).

An antedated passage switches the drive off at t_a: past _Waveform.end
(t_a / t_f, else 1) omega_r = 0, delta holds its t_a value and the
invariant stays frozen (_Waveform.drive, dynamics._angles). H, synthesize's
table, the states, the invariant, its eigenstates and lr_phase follow this
rule; omega_r_at, delta_at and adiabaticity_metric probe the continuation
of the driven formulas.

All internal arithmetic is dimensionless: rates per unit s = t / t_f and
frequencies multiplied by t_f. Public functions convert at the boundary,
so every dimensionless output is exactly independent of t_f.
"""

from __future__ import annotations

import heapq
import math
import numbers
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DegeneratePoint, DivergentPulse, NoConvergence
from .poly import Polynomial, real_roots
from .schedule import SchedulePair

__all__ = [
    "PulseTable",
    "omega_r_at",
    "delta_at",
    "synthesize",
    "check_grid",
    "adiabaticity_metric",
    "lr_phase",
    "gauss_legendre",
]

#: Stations are resolved to this distance in s: a zero candidate this close
#: to one where more factors vanish is a rounding split of it, and a point
#: this close to a divergent station is at it.
ROOT_TOL = 1e-6

#: Gauss-Legendre nodes per piece: the first rule, and the most that
#: doubling may reach before the quadrature gives up.
GAUSS_START = 16
GAUSS_CAP = 1024


# ---------------------------------------------------------------------------
# factored evaluation

def _angle_zeros(p: Polynomial, crit: list[float]):
    """The points of [0, 1] where p crosses or touches a multiple of pi, in
    s order; crit holds the stationary points of p in [0, 1]. Between them p
    is monotone, so it meets its multiples of pi one after another."""
    edges = [0.0, *crit, 1.0]
    values = p(np.array(edges)) / math.pi
    roots: dict[int, list[float]] = {}
    for a, b, va, vb in zip(edges, edges[1:], values, values[1:]):
        lo, hi = math.ceil(min(va, vb) - 1e-9), math.floor(max(va, vb) + 1e-9)
        for k in range(lo, hi + 1) if va <= vb else range(hi, lo - 1, -1):
            if k not in roots:
                roots[k] = real_roots(p.shifted(-k * math.pi), 0.0, 1.0)
            yield from (r for r in roots[k] if a <= r <= b)


def _clusters(points):
    """The points, in s order, in runs whose neighbours lie within ROOT_TOL."""
    run: list[float] = []
    for x in points:
        if run and x > run[-1] + ROOT_TOL:
            yield run
            run = []
        run.append(x)
    yield run


def _taylor(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Taylor coefficients about each x of the polynomials whose ascending
    coefficients run along axis 0 of a, by repeated synthetic division;
    shape a.shape + x.shape."""
    c = np.repeat(a[..., None], len(x), axis=-1)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            c[j] += x * c[j + 1]
    return c


def _horner(c, u):
    """The polynomial with ascending coefficients c at u (a float or an array)."""
    out = 0.0
    for a in reversed(c):
        out = out * u + a
    return out


def _sinc(x):
    """sin(x) / x, 1 at x = 0, for an array. A complex x is a complex step
    a + i b: sinc(a) + i b sinc'(a), with sinc' by its series near 0, where
    cos(a) - sinc(a) cancels."""
    if np.iscomplexobj(x):
        a, a2, value = x.real, x.real**2, np.sinc(x.real / math.pi)
        small = np.abs(a) < 1e-2
        series = a * (a2 * (1.0 / 30.0 - a2 / 840.0) - 1.0 / 3.0)
        rate = np.where(small, series, (np.cos(a) - value) / np.where(small, 1.0, a))
        return value + 1j * (x.imag * rate)
    return np.sinc(x / math.pi)


@dataclass(frozen=True)
class _Station:
    """Factors about s0, indexed gamma_dot, sin(beta), cos(beta), sin(gamma).

    mult holds each factor's multiplicity m at s0 (the coefficient count if
    it vanishes identically), and coef the Taylor coefficients about s0 of
    its argument (gamma_dot, or p - k pi for sin(p), times (-1)^k for the
    beta factors) without the first m.
    """

    s0: float
    mult: tuple[int, ...]
    coef: tuple[list[float], ...]
    omega_order: int
    #: the divergence flag too: negative wherever omega_order is, because
    #: sin(beta) and cos(beta) never vanish together
    cot_order: int


def _angle(st: _Station, f: int, u):
    """Angle factor f at s0 + u divided by u^m, and its argument p - k pi there."""
    r = _horner(st.coef[f], u)
    x = u ** st.mult[f] * r
    return r * _sinc(x), x


def _quotients(st: _Station, u):
    """omega_r and the cot term (delta + beta_dot) at s0 + u, over one sin(beta) factor."""
    rate = _horner(st.coef[0], u)
    sin_b, _ = _angle(st, 1, u)
    cos_b, _ = _angle(st, 2, u)
    # cot(gamma) = cos(x) / sin(x) for x = gamma - k pi, whatever the parity of k
    sin_x, x = _angle(st, 3, u)
    cot = u ** st.cot_order * (rate * np.cos(x) * cos_b) / (sin_b * sin_x)
    return u ** st.omega_order * rate / sin_b, cot


def _candidate_stations(a: np.ndarray, x: np.ndarray) -> list[_Station]:
    """Every candidate of x as a station: each factor's multiplicity there,
    the number of leading Taylor coefficients of its argument (less the
    nearest multiple of pi for an angle) that lie within the rounding bound
    of their evaluation, and its reduced coefficients. a holds the
    arguments' coefficients and their absolute values, one column each."""
    n = len(a)
    c, bound = np.split(_taylor(a, x), 2, axis=1)
    k = np.round(c[0] / math.pi)
    k[0] = 0.0
    c[0] -= k * math.pi
    bound[0] += np.abs(k) * math.pi
    small = np.abs(c) <= 4 * n * np.finfo(float).eps * bound
    mult = np.where(small.all(axis=0), n, np.argmin(small, axis=0))
    c[:, 1:3] *= 1.0 - 2.0 * (k[1:3] % 2)
    out = []
    for j, m in enumerate(map(tuple, mult.T.tolist())):
        cf = tuple(c[mf:, f, j].tolist() for f, mf in enumerate(m))
        out.append(_Station(float(x[j]), m, cf, m[0] - m[1], m[0] + m[2] - m[1] - m[3]))
    return out


def _stations(args: tuple[Polynomial, ...], gamma_crit: list[float], beta_crit: list[float],
              end: float) -> list[_Station]:
    """The stations of the factors gamma_dot, sin(beta), cos(beta) and
    sin(gamma), whose arguments are args, in s order.

    The zeros are walked in s order, and the first station within ROOT_TOL
    of [0, end] where a quotient diverges raises DivergentPulse before any
    later zero is sought, however many multiples of pi the angles cross.
    """
    # Candidates: each factor's zeros, and the angles' stationary points,
    # which locate multiple zeros better than their rounding-split roots.
    candidates = heapq.merge(sorted({0.0, *gamma_crit, *beta_crit}),
                             _angle_zeros(args[1], beta_crit), _angle_zeros(args[2], beta_crit),
                             _angle_zeros(args[3], gamma_crit))
    n = max(len(q.coefficients) for q in args)
    a = np.zeros((n, 4))
    for f, q in enumerate(args):
        a[: len(q.coefficients), f] = q.coefficients
    a = np.hstack([a, np.abs(a)])
    # A station is a candidate where a denominator factor vanishes (elsewhere
    # the reduced parts of any station are exact). Candidates within ROOT_TOL
    # of one where more factors vanish are rounding splits of it, so each
    # run of candidates that close is decided on its own. Without any, the
    # candidate s = 0 serves every sample.
    stations: list[_Station] = []
    origin: list[_Station] = []
    for run in _clusters(candidates):
        found = _candidate_stations(a, np.array(sorted(set(run))))
        origin = origin or found[:1]
        kept: list[_Station] = []
        for st in sorted((st for st in found if st.mult[1] + st.mult[3]),
                         key=lambda st: -sum(st.mult)):
            if all(abs(st.s0 - x.s0) > ROOT_TOL for x in kept):
                kept.append(st)
        for st in sorted(kept, key=lambda st: st.s0):
            if st.s0 <= end + ROOT_TOL and st.cot_order < 0:
                raise DivergentPulse(f"waveform diverges at s = {st.s0:.6g}")
            stations.append(st)
    return stations or origin


class _Waveform:
    """Dimensionless waveform evaluators for one schedule pair."""

    def __init__(self, pair: SchedulePair):
        self.gamma = pair.gamma
        self.beta = pair.beta
        self.dgamma = pair.gamma.derivative()
        self.dbeta = pair.beta.derivative()
        self.switch = pair.switch_fraction
        self.end = self.switch if self.switch is not None else 1.0
        #: gamma_dot's zeros in [0, 1]
        self.rate_zeros = real_roots(self.dgamma, 0.0, 1.0)
        #: beta's stationary points in [0, 1]
        self.beta_crit = real_roots(self.dbeta, 0.0, 1.0)
        args = (self.dgamma, self.beta, self.beta.shifted(0.5 * math.pi), self.gamma)
        self.stations = _stations(args, self.rate_zeros, self.beta_crit, self.end)
        st = self.stations
        self._cuts = [0.5 * (a.s0 + b.s0) for a, b in zip(st, st[1:])]
        self._s0 = np.array([x.s0 for x in st])
        self._divergent = np.array([x.cot_order < 0 for x in st])
        #: detuning (times t_f) held after the antedated switch, None without one
        self.switch_delta = None if self.switch is None else self.delta(self.switch)
        if self.switch_delta is not None and abs(self.switch_delta) < 1e-9:
            warnings.warn("switched detuning is ~0: the post-switch Hamiltonian is degenerate "
                          "and the population inversion is not well defined", stacklevel=3)

    def quotients(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """omega_r and the cot term (delta + beta_dot) times t_f at the samples s,
        real or complex s + i h, each from the station nearest s.real. Raises
        DivergentPulse at the first divergent station near the samples' span."""
        s = np.asarray(s, dtype=complex if np.iscomplexobj(s) else float)
        lo, hi = s.real.min(), s.real.max()
        hit = self._divergent & (self._s0 >= lo - ROOT_TOL) & (self._s0 <= hi + ROOT_TOL)
        if hit.any():
            raise DivergentPulse(f"waveform diverges at s = {self._s0[hit][0]:.6g}")
        j = np.searchsorted(self._cuts, s.real, side="right")
        om, cot = np.empty_like(s), np.empty_like(s)
        for i in np.flatnonzero(np.bincount(j.ravel())):  # the stations owning samples, in O(n)
            st, at = self.stations[i], j == i
            om[at], cot[at] = _quotients(st, s[at] - st.s0)
        return om, cot

    def fields(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """omega_r and delta (the cot term less beta_dot) times t_f at the samples s."""
        om, cot = self.quotients(s)
        return om, cot - self.dbeta(s)

    def edges(self, s_end: float) -> np.ndarray:
        """0, the stations and beta's stationary points inside (0, s_end), and
        s_end: the piece edges for a quadrature of the waveforms."""
        inner = {x for x in (*self._s0.tolist(), *self.beta_crit) if 0.0 < x < s_end}
        return np.array([0.0, *sorted(inner), s_end])

    # -- scalar evaluators: one sample of the vector formulas ---------------

    def omega(self, s: float) -> float:
        """Rabi frequency times t_f."""
        return float(self.omega_many(np.array([s]))[0])

    def cot_term(self, s: float) -> float:
        """omega_r * cot(gamma) * cos(beta) times t_f (= delta + beta_dot)."""
        return float(self.quotients(np.array([s], dtype=float))[1][0])

    def delta(self, s: float) -> float:
        """Detuning times t_f."""
        return float(self.fields(np.array([s], dtype=float))[1][0])

    # -- vectorized evaluators: s real, or complex s + i h (complex step) --

    def omega_many(self, s: np.ndarray) -> np.ndarray:
        return self.quotients(s)[0]

    def delta_many(self, s: np.ndarray) -> np.ndarray:
        return self.fields(s)[1]

    # -- the antedated switch ----------------------------------------------

    def drive(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """omega_r and delta times t_f at the samples s, with the switch
        applied: samples past end see no drive and the held detuning. Only
        the driven samples are evaluated, and the build has rejected any
        divergence among them."""
        driven = s <= self.end if self.switch is not None else np.ones(s.shape, dtype=bool)
        om, dl = np.zeros(s.shape), np.zeros(s.shape)
        if driven.any():
            om[driven], dl[driven] = self.fields(s[driven])
        if not driven.all():
            dl[~driven] = self.switch_delta
        return om, dl


@lru_cache(maxsize=128)
def _waveform(pair: SchedulePair) -> _Waveform:
    return _Waveform(pair)


# ---------------------------------------------------------------------------
# public API

def omega_r_at(pair: SchedulePair, s: float) -> float:
    """Rabi frequency of the design waveform at s, in angular-frequency
    units; past an antedated switch, the driven formula's continuation.
    Raises DivergentPulse at any s if the schedule diverges on its driven
    segment, and past the switch near where omega_r or delta diverges."""
    _check_s(s)
    return _waveform(pair).omega(s) / pair.t_f


def delta_at(pair: SchedulePair, s: float) -> float:
    """Detuning of the design waveform at s, in angular-frequency units;
    past an antedated switch, the driven formula's continuation. Raises
    DivergentPulse as omega_r_at does."""
    _check_s(s)
    return _waveform(pair).delta(s) / pair.t_f


def _check_s(s: float) -> None:
    x = s[()] if isinstance(s, np.ndarray) else s  # a 0-d array is a scalar
    if not (isinstance(x, numbers.Real) and -1e-12 <= x <= 1.0 + 1e-12):
        raise ConfigError(f"s = {s!r} is not a real number in [0, 1]")


@dataclass(frozen=True)
class PulseTable:
    """Uniformly sampled waveforms on [0, t_f].

    s holds the sample points s = t / t_f on [0, 1] and t the sample times;
    omega_r and delta the waveforms there times t_f, that is in units of
    1/t_f, so they are exactly independent of t_f (divide by t_f for
    angular frequencies). For antedated schedules, samples past t_a carry
    omega_r = 0 and the constant switched detuning.
    """

    t: np.ndarray
    s: np.ndarray
    omega_r: np.ndarray
    delta: np.ndarray


def synthesize(pair: SchedulePair, n: int) -> PulseTable:
    """Sample the waveforms, switch applied, at n+1 uniform times on [0, t_f]."""
    check_grid(n)
    s = np.arange(n + 1) / n
    omega, delta = _waveform(pair).drive(s)
    return PulseTable(t=s * pair.t_f, s=s, omega_r=omega, delta=delta)


def check_grid(n: int) -> None:
    """Raise ConfigError unless n, a uniform time grid's intervals, is an integer in [2, 10**6]."""
    if not (isinstance(n, (int, np.integer)) and 2 <= n <= 10**6):
        raise ConfigError(f"need an integer 2 <= n <= 10**6 grid intervals, got {n!r}")


def adiabaticity_metric(pair: SchedulePair, s: float | np.ndarray) -> float | np.ndarray:
    """|omega_r * delta_dot - omega_r_dot * delta| / Omega^3 at 0 < s < 1.

    s is a float or an array; the result has the same form. Dimensionless
    and independent of t_f; past an antedated switch, the metric of the
    driven formulas' continuation. The rates are complex-step derivatives
    of the factored evaluators (exact to rounding). Raises DegeneratePoint
    at a level crossing (Omega * t_f < 1e-12).
    """
    x = np.atleast_1d(np.asarray(s, dtype=float))
    if not (0.0 < x.min() and x.max() < 1.0):
        raise ConfigError("adiabaticity metric is defined at interior points")
    metric = _metric(_waveform(pair), x)
    return float(metric[0]) if np.ndim(s) == 0 else metric


def _metric(wave: _Waveform, s: np.ndarray) -> np.ndarray:
    """The adiabaticity metric at every sample of s. omega_r and delta are
    evaluated once, at s + i h: the real parts are their values and Im / h
    their rates, with no difference to cancel (complex step)."""
    h = 1e-30
    om, dl = wave.fields(s + 1j * h)
    gen = np.hypot(om.real, dl.real)
    if gen.min() < 1e-12:
        raise DegeneratePoint(f"generalized Rabi frequency vanishes at s = {s[gen.argmin()]:.6g}")
    return np.abs((om.real * (dl.imag / h) - (om.imag / h) * dl.real) / gen**3)


def lr_phase(pair: SchedulePair, t: float, branch: int) -> float:
    """Phase accumulated by an invariant eigenstate up to time t (radians).

    branch = +1 for the upper invariant branch, -1 for the lower; the two
    phases are opposite. The rate (delta + beta_dot) cos(gamma) + beta_dot
    + omega_r sin(gamma) cos(beta) comes from the factored formulas and is
    integrated by gauss_legendre to 1e-9, cut at the stations and at beta's
    stationary points, up to where the drive ends; past it the frozen
    eigenstate's rate is the held detuning. Raises DivergentPulse, at any
    t, for a schedule that diverges on its driven segment.
    """
    if branch not in (+1, -1):
        raise ConfigError("branch must be +1 or -1")
    if not 0.0 <= t <= pair.t_f * (1 + 1e-12):
        raise ConfigError("t outside [0, t_f]")
    wave = _waveform(pair)
    s = min(t / pair.t_f, 1.0)
    if s == 0.0:
        return 0.0
    s_end = min(s, wave.end)

    def rate(s, row):
        g = wave.gamma(s)
        om, cot = wave.quotients(s)
        return cot * np.cos(g) + wave.dbeta(s) + om * np.sin(g) * np.cos(wave.beta(s))

    integral = float(gauss_legendre(rate, wave.edges(s_end), 1e-9)[0])
    if s > s_end:
        integral += wave.switch_delta * (s - s_end)
    return -0.5 * branch * integral


@lru_cache(maxsize=None)
def _gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], built on first use."""
    return np.polynomial.legendre.leggauss(n)


def gauss_legendre(f, edges, tol: float) -> np.ndarray:
    """Integral of f from the first to the last edge of each row of edges.

    Consecutive edges of a row bound its pieces (equal edges make an empty
    piece). f(s, row) returns the integrand at the nodes s, an array with
    one line of nodes per piece, whose pieces belong to the rows row. Each
    piece starts with GAUSS_START nodes, and the count doubles until
    successive sums agree to tol (absolute); the finer sum is kept. Raises
    NoConvergence naming the first piece still unsettled beyond GAUSS_CAP
    nodes.
    """
    edges = np.atleast_2d(np.asarray(edges, dtype=float))
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    row = np.repeat(np.arange(len(edges)), edges.shape[1] - 1)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)

    def rule(n: int, idx: np.ndarray) -> np.ndarray:
        x, w = _gauss_rule(n)
        return half[idx] * (f(mid[idx, None] + half[idx, None] * x, row[idx]) @ w)

    total = np.zeros(len(lo))
    todo = np.flatnonzero(hi > lo)
    n = GAUSS_START
    prev, gap = rule(n, todo), np.full(len(todo), math.inf)
    while todo.size:
        if 2 * n > GAUSS_CAP:
            i = todo[0]
            raise NoConvergence(
                f"Gauss-Legendre quadrature did not converge on [{lo[i]:.6g}, {hi[i]:.6g}] "
                f"within {GAUSS_CAP} nodes (successive sums differ by {gap[0]:.3e})"
            )
        n *= 2
        cur = rule(n, todo)
        gap = np.abs(cur - prev)
        done = gap <= tol
        total[todo[done]] = cur[done]
        todo, prev, gap = todo[~done], cur[~done], gap[~done]
    return np.bincount(row, weights=total, minlength=len(edges))
