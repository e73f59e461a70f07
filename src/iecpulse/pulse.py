"""Control waveforms derived from a schedule.

The invariant construction fixes the Rabi frequency and detuning as

    omega_r(t) = gamma_dot / sin(beta)
    delta(t)   = omega_r * cot(gamma) * cos(beta) - beta_dot

Both quotients hit 0/0 at schedule-defined points (the passage endpoints,
the antedated zero of gamma, the rate-reversal zero of beta), so they are
evaluated in factored form. A station s0 is a point of [0, 1] where a
denominator factor, sin(beta) or sin(gamma), vanishes. There each of the
factors gamma_dot, sin(beta), cos(beta), sin(gamma) has a multiplicity m,
the number of leading Taylor coefficients of its argument (less a multiple
k pi for an angle) that are zero to rounding by poly.vanishes, so zeros
that coincide by design share a station. About s0 each factor is
u^m (u = s - s0) times a reduced part: gamma_dot's Taylor series without
its first m terms, and for an angle

    sin(p) = u^m (-1)^k r(s) sinc(x),   x = p - k pi = u^m r(s),

with sinc(x) and cos(x) from one tan(x / 2) (_sinc_cos). Every sample
takes the reduced parts of its nearest station, so one vectorised pass
(_Waveform.quotients) gives both quotients over one sin(beta) factor at
the 0/0 points and all other samples alike. A quotient's order, numerator
minus denominator multiplicities, is negative exactly where it diverges
(DivergentPulse); the cot term's is the one flag. The build walks the
zeros in s order and rejects a divergence on the driven segment at the
first divergent station, before it seeks any later zero: a schedule that
diverges there cannot be probed at any s. It walks beta and gamma over
one list of the points the schedule fixes: 0, the angles' stationary
points (each polynomial finds its own once), the drive's end and 1. Each
angle is monotone between them, so a zero shared by design (an end, the
switch, the rate reversal) is met at an edge, exactly, with no root search
(_angle_zeros). The adiabaticity metric makes the same pass once at
complex s + i h (h = 1e-30): the real parts are omega_r and delta and Im / h
their rates, exact to rounding because nothing is subtracted (complex
step). Each waveform makes it once on its validation grid (_Waveform.grid),
and its scalar results serve both the detuning bound and the metric's maximum.

An antedated passage switches the drive off at t_a: past _Waveform.end
(t_a / t_f, else 1) omega_r = 0, delta holds its t_a value and the
invariant stays frozen (_Waveform.drive, dynamics._angles). H, synthesize's
table, the states, the invariant, its eigenstates and lr_phase follow this
rule; omega_r_at, delta_at and adiabaticity_metric probe the continuation
of the driven formulas.

All internal arithmetic is dimensionless: rates per unit s = t / t_f and
frequencies multiplied by t_f. Public functions convert at the boundary,
so every dimensionless output is exactly independent of t_f. So the
waveform cache (_waveform, one lru_cache of 128) is keyed on the shape a
_Waveform reads, (gamma, beta, t_a / t_f), not on t_f: pairs that differ
in t_f alone share one build and one grid pass, and the "switched detuning
is ~0" warning fires once per shape while it stays cached.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import groupby

import numpy as np

from .errors import (ConfigError, DegeneratePoint, DivergentPulse, NoConvergence, as_numbers,
                     is_number, shown)
from .poly import Polynomial, horner, real_roots, vanishes
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

#: Stations are resolved to this distance in s: a stationary point this
#: close to 0, the drive's end or 1 is a rounding split of it, and a point
#: this close to a divergent station is at it.
ROOT_TOL = 1e-6

#: Gauss-Legendre nodes per piece: the first rule, and the most that
#: doubling may reach before the quadrature gives up; and its one stopping
#: rule: a piece is done when successive sums agree to GAUSS_TOL (absolute).
#: The finer sum is kept, and doubling the nodes about squares an analytic
#: piece's error, so that error lies far inside the gap: at 1e-7 or 1e-9 no
#: output moves by 1e-13 relative.
GAUSS_START = 16
GAUSS_CAP = 1024
GAUSS_TOL = 1e-8

#: Samples of the validation grid: midpoints of the driven segment for the
#: waveforms and the adiabaticity metric.
GRID_POINTS = 10_000


# ---------------------------------------------------------------------------
# factored evaluation

def _angle_zeros(p: Polynomial, edges: np.ndarray, n: int):
    """The points of [0, 1] where p crosses or touches a multiple of pi, in
    s order. p is monotone between consecutive edges, so it meets its
    multiples of pi one after another, and one met at an edge to rounding
    (poly.vanishes) is that edge and has no other zero there."""
    v = p(edges)
    k = np.round(v / math.pi)
    bound = horner(np.abs(p.coefficients), edges) + np.abs(k) * math.pi
    met = np.where(vanishes(v - k * math.pi, bound, n), k, math.nan).tolist()
    edges, values = edges.tolist(), (v / math.pi).tolist()
    roots: dict[int, list[float]] = {}
    for i, (a, b, va, vb) in enumerate(zip(edges, edges[1:], values, values[1:])):
        lo, hi = math.ceil(min(va, vb) - 1e-9), math.floor(max(va, vb) + 1e-9)
        for k in range(lo, hi + 1) if va <= vb else range(hi, lo - 1, -1):
            at_edge = [e for e, m in ((a, met[i]), (b, met[i + 1])) if m == k]
            if not at_edge and k not in roots:
                roots[k] = real_roots(p.shifted(-k * math.pi), 0.0, 1.0)
            yield from at_edge or (r for r in roots[k] if a <= r <= b)


def _taylor(a: np.ndarray, x: float) -> np.ndarray:
    """Taylor coefficients about x of the polynomials whose ascending
    coefficients run along axis 0 of a, by repeated synthetic division."""
    c = a.copy()
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            c[j] += x * c[j + 1]
    return c


def _upow(u, m: int, y):
    """y u^m, with numpy's generic power only for m > 1."""
    return y if m == 0 else u * y if m == 1 else u**m * y


def _sinc_cos(x):
    """sinc(x) = sin(x) / x (1 at 0) and cos(x) for an array, from one
    t = tan(x / 2): sin(x) = 2t w, cos(x) = (1 - t)(1 + t) w, w = 1 / (1 + t^2).
    A complex x is a complex step a + i b: sinc(a) + i b sinc'(a) and cos(a)
    - i b sin(a), sinc' by its series near 0, where cos(a) - sinc(a) cancels.
    Both are filled in place, part by part."""
    a, sinc, cos = x.real, np.ones_like(x), np.empty_like(x)
    h = 0.5 * a
    t = np.tan(h)
    w = 1.0 / (1.0 + t * t)
    np.multiply(np.divide(t, h, out=sinc.real, where=a != 0.0), w, out=sinc.real)
    np.multiply(np.subtract(1.0, t, out=cos.real), 1.0 + t, out=cos.real)
    cos.real *= w
    if np.iscomplexobj(x):
        small = np.abs(a) < 1e-2
        np.divide(np.subtract(cos.real, sinc.real, out=sinc.imag), a, out=sinc.imag, where=~small)
        c = a[small]
        sinc.imag[small] = c * (c * c * (1.0 / 30.0 - c * c / 840.0) - 1.0 / 3.0)
        sinc.imag *= x.imag
        np.multiply(t, w, out=cos.imag)
        cos.imag *= -2.0 * x.imag  # -b sin(a)
    return sinc, cos


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
    """Angle factor f at s0 + u divided by u^m, and the cosine of its argument p - k pi there."""
    r = horner(st.coef[f], u)
    sinc, cos = _sinc_cos(_upow(u, st.mult[f], r))
    return r * sinc, cos


def _quotients(st: _Station, u):
    """omega_r and the cot term (delta + beta_dot) at s0 + u, over one sin(beta) factor."""
    q = horner(st.coef[0], u) / _angle(st, 1, u)[0]
    cos_b = _angle(st, 2, u)[0]
    # cot(gamma) = cos(x) / sin(x) for x = gamma - k pi, whatever the parity of k
    sin_x, cos_x = _angle(st, 3, u)
    # Out of place: numpy's in-place complex product can round differently at
    # some lengths, and a sample's value must not depend on its batch.
    cot = q * cos_x * cos_b / sin_x
    return _upow(u, st.omega_order, q), _upow(u, st.cot_order, cot)


def _station(a: np.ndarray, x: float) -> _Station:
    """The factors about x: each one's multiplicity there, the number of
    leading Taylor coefficients of its argument (less the nearest multiple
    of pi for an angle) that are zero to rounding by poly.vanishes, and its
    reduced coefficients. a holds the arguments'
    coefficients and their absolute values, one column each."""
    n = len(a)
    c, bound = np.split(_taylor(a, x), 2, axis=1)
    k = np.round(c[0] / math.pi)
    k[0] = 0.0
    c[0] -= k * math.pi
    bound[0] += np.abs(k) * math.pi
    small = vanishes(c, bound, n)
    m = tuple(np.where(small.all(axis=0), n, np.argmin(small, axis=0)).tolist())
    c[:, 1:3] *= 1.0 - 2.0 * (k[1:3] % 2)
    coef = tuple(c[mf:, f].tolist() for f, mf in enumerate(m))
    return _Station(x, m, coef, m[0] - m[1], m[0] + m[2] - m[1] - m[3])


def _stations(args: tuple[Polynomial, ...], end: float) -> list[_Station]:
    """The stations of the factors gamma_dot, sin(beta), cos(beta) and
    sin(gamma), whose arguments are args, in s order; end is where the drive ends.

    The denominators' angles, beta and gamma, are walked over one edge
    list: 0, their stationary points, end and 1, with one within ROOT_TOL of 0,
    end or 1 taken as that point. So a zero that two factors share by
    design (the ends, the switch, the rate reversal) is met at an edge,
    exactly and once. cos(beta) never vanishes with sin(beta), so its zeros
    alone are no stations and are not sought. The zeros are taken in s
    order, and the first within ROOT_TOL of [0, end] where a quotient
    diverges raises DivergentPulse before any later zero is sought, however
    many multiples of pi the angles cross.
    """
    fixed = (0.0, end, 1.0)
    crit = (*args[1].stationary_points, *args[3].stationary_points)
    edges = np.array(sorted({*fixed, *(x for x in crit
                                       if min(abs(x - f) for f in fixed) > ROOT_TOL)}))
    n = max(len(q.coefficients) for q in args)
    a = np.zeros((n, 4))
    for f, q in enumerate(args):
        a[: len(q.coefficients), f] = q.coefficients
    a = np.hstack([a, np.abs(a)])
    # A station is a zero where a denominator factor vanishes to rounding
    # (elsewhere the reduced parts of any station are exact). Without any,
    # s = 0 serves every sample.
    stations: list[_Station] = []
    for x, _ in groupby(heapq.merge(*(_angle_zeros(q, edges, n) for q in (args[1], args[3])))):
        st = _station(a, x)
        if st.mult[1] + st.mult[3]:
            if st.s0 <= end + ROOT_TOL and st.cot_order < 0:
                raise DivergentPulse(f"waveform diverges at s = {st.s0:.6g}")
            stations.append(st)
    return stations or [_station(a, 0.0)]


def _driven_grid(s_end: float) -> np.ndarray:
    """GRID_POINTS midpoints of the driven segment [0, s_end]."""
    return (np.arange(GRID_POINTS) + 0.5) * (s_end / GRID_POINTS)


@dataclass(frozen=True)
class _GridPass:
    """_Waveform.grid's floats: peaks on the midpoints, Omega's least value and its s."""

    delta_peak: float
    gen_min: float
    gen_min_at: float
    metric_peak: float


class _Waveform:
    """Dimensionless waveform evaluators for one schedule pair."""

    def __init__(self, pair: SchedulePair):
        self.gamma = pair.gamma
        self.beta = pair.beta
        self.switch = pair.switch_fraction
        self.end = self.switch if self.switch is not None else 1.0
        args = (self.gamma.derivative(), self.beta, self.beta.shifted(0.5 * math.pi), self.gamma)
        self.stations = _stations(args, self.end)
        st = self.stations
        self._cuts = [0.5 * (a.s0 + b.s0) for a, b in zip(st, st[1:])]
        self._s0 = np.array([x.s0 for x in st])
        self._divergent = np.array([x.cot_order < 0 for x in st])
        #: detuning (times t_f) held after the antedated switch, None without one
        self.switch_delta = None if self.switch is None else self.delta(self.switch)
        if self.switch_delta is not None and abs(self.switch_delta) < 1e-9:
            warnings.warn("switched detuning is ~0: the post-switch Hamiltonian is degenerate "
                          "and the population inversion is not well defined", stacklevel=4)

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
        return om, cot - self.beta.derivative()(s)

    def edges(self, s_end: float) -> np.ndarray:
        """0, the stations and beta's stationary points inside (0, s_end), and
        s_end: the piece edges for a quadrature of the waveforms."""
        inner = {x for x in (*self._s0.tolist(), *self.beta.stationary_points) if 0.0 < x < s_end}
        return np.array([0.0, *sorted(inner), s_end])

    @cached_property
    def grid(self) -> _GridPass:
        """One _metric pass over [0, _driven_grid(end), end], made on first use."""
        s = np.concatenate(([0.0], _driven_grid(self.end), [self.end]))
        metric, gen, delta = _metric(self, s)
        return _GridPass(float(np.abs(delta[1:-1]).max()), float(gen.min()),
                         float(s[gen.argmin()]), float(metric[1:-1].max()))

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
def _shape(gamma: Polynomial, beta: Polynomial, switch: float | None) -> _Waveform:
    return _Waveform(SchedulePair(gamma, beta, 1.0, switch))


def _waveform(pair: SchedulePair) -> _Waveform:
    """The waveform of pair's dimensionless shape, (gamma, beta, t_a / t_f):
    what a _Waveform reads, so pairs that differ in t_f alone share one."""
    return _shape(pair.gamma, pair.beta, pair.switch_fraction)


_waveform.cache_clear, _waveform.cache_info = _shape.cache_clear, _shape.cache_info


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


def _is_real_in(x, lo: float, hi: float, scalar: bool) -> bool:
    """Whether x is a number by as_numbers (a 0-d array is one, a bool is not)
    or, unless scalar, an array of them, with every value in [lo, hi]."""
    v = as_numbers(x)
    return v is not None and not (scalar and v.ndim) and bool(((lo <= v) & (v <= hi)).all())


def _check_s(s, scalar: bool = True) -> np.ndarray:
    """s as a float array; ConfigError unless s is a real number in [0, 1] (or,
    unless scalar, an array of them), give or take 1e-12."""
    if not _is_real_in(s, -1e-12, 1.0 + 1e-12, scalar):
        what = "a real number" if scalar else "a real number or array of them"
        raise ConfigError(f"s = {shown(s)} is not {what} in [0, 1]")
    return np.asarray(s, dtype=float)


def _check_branch(branch) -> None:
    """Raise ConfigError unless branch, one number (a bool or a 0-d array too), is +1 or -1."""
    v = as_numbers(branch, "biuf")
    if v is None or v.ndim or branch not in (+1, -1):
        raise ConfigError("branch must be +1 or -1")


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
    if not (is_number(n, "iu") and 2 <= n <= 10**6):
        raise ConfigError(f"need an integer 2 <= n <= 10**6 grid intervals, got {shown(n)}")


def adiabaticity_metric(pair: SchedulePair, s: float | np.ndarray) -> float | np.ndarray:
    """|omega_r * delta_dot - omega_r_dot * delta| / Omega^3 at 0 < s < 1.

    s is a float or an array; the result has the same form. Dimensionless
    and independent of t_f; past an antedated switch, the metric of the
    driven formulas' continuation. The rates are complex-step derivatives
    of the factored evaluators (exact to rounding). Raises DegeneratePoint
    at a level crossing (Omega * t_f < 1e-12).
    """
    x = np.atleast_1d(_check_s(s, scalar=False))
    if not (x.size and 0.0 < x.min() and x.max() < 1.0):
        raise ConfigError("adiabaticity metric is defined at interior points")
    metric, gen, _ = _metric(_waveform(pair), x)
    _check_gap(gen.min(), x[gen.argmin()])
    return float(metric[0]) if np.ndim(s) == 0 else metric


def _metric(wave: _Waveform, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The metric, the generalized Rabi frequency Omega (floored at 1e-12 in the
    metric: _check_gap raises below it) and delta at every sample of s, from
    s + i h: real parts are values and Im / h rates, with no difference to cancel."""
    h = 1e-30
    om, dl = wave.fields(s + 1j * h)
    gen = np.hypot(om.real, dl.real)
    metric = np.abs((om.real * (dl.imag / h) - (om.imag / h) * dl.real) / np.maximum(gen, 1e-12)**3)
    return metric, gen, dl.real


def _check_gap(gen_min: float, at: float) -> None:
    """Raise DegeneratePoint if Omega's least value, at s = at, marks a level crossing."""
    if gen_min < 1e-12:
        raise DegeneratePoint(f"generalized Rabi frequency vanishes at s = {at:.6g}")


def lr_phase(pair: SchedulePair, t: float, branch: int) -> float:
    """Phase accumulated by an invariant eigenstate up to time t (radians).

    branch = +1 for the upper invariant branch, -1 for the lower; the two
    phases are opposite. The rate (delta + beta_dot) cos(gamma) + beta_dot
    + omega_r sin(gamma) cos(beta) comes from the factored formulas and is
    integrated by gauss_legendre (to GAUSS_TOL), cut at the stations and at beta's
    stationary points, up to where the drive ends; past it the frozen
    eigenstate's rate is the held detuning. Raises ConfigError unless t is
    a real number in [0, t_f (1 + 1e-12)], and DivergentPulse, at any t,
    for a schedule that diverges on its driven segment.
    """
    _check_branch(branch)
    if not _is_real_in(t, 0.0, pair.t_f * (1 + 1e-12), scalar=True):
        raise ConfigError(f"t = {shown(t)} is not a real number in [0, t_f]")
    wave = _waveform(pair)
    s = min(t / pair.t_f, 1.0)
    if s == 0.0:
        return 0.0
    s_end = min(s, wave.end)

    def rate(s, row):
        g = wave.gamma(s)
        om, cot = wave.quotients(s)
        return cot * np.cos(g) + wave.beta.derivative()(s) + om * np.sin(g) * np.cos(wave.beta(s))

    integral = float(gauss_legendre(rate, wave.edges(s_end))[0])
    if s > s_end:
        integral += wave.switch_delta * (s - s_end)
    return -0.5 * branch * integral


@lru_cache(maxsize=None)
def _gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], built on first use."""
    return np.polynomial.legendre.leggauss(n)


def gauss_legendre(f, edges) -> np.ndarray:
    """Integral of f from the first to the last edge of each row of edges.

    Consecutive edges of a row bound its pieces (equal edges make an empty
    piece). f(s, row) returns the integrand at the nodes s, an array with
    one line of nodes per piece, whose pieces belong to the rows row. Each
    piece starts with GAUSS_START nodes, and the count doubles until
    successive sums agree to GAUSS_TOL (absolute); the finer sum is kept. Each
    piece's sum depends only on its own line of f, so where f evaluates
    each node on its own, a row's integral is the same to the bit however
    rows are grouped into calls. Raises
    NoConvergence naming the first piece still unsettled beyond GAUSS_CAP
    nodes.
    """
    edges = np.atleast_2d(np.asarray(edges, dtype=float))
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    row = np.repeat(np.arange(len(edges)), edges.shape[1] - 1)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)

    def rule(n: int, idx: np.ndarray) -> np.ndarray:
        x, w = _gauss_rule(n)
        values = f(mid[idx, None] + half[idx, None] * x, row[idx])
        return half[idx] * np.einsum("ij,j->i", values, w)

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
        done = gap <= GAUSS_TOL
        total[todo[done]] = cur[done]
        todo, prev, gap = todo[~done], cur[~done], gap[~done]
    return np.bincount(row, weights=total, minlength=len(edges))
