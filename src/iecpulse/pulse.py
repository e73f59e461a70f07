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
vectorised formula serves the 0/0 points and all other samples alike. A
station's order, numerator minus denominator multiplicities, is negative
exactly where a quotient diverges (DivergentPulse).

All internal arithmetic is dimensionless: rates per unit s = t / t_f and
frequencies multiplied by t_f. Public functions convert at the boundary,
so every dimensionless output is exactly independent of t_f.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegeneratePoint, DivergentPulse, NoConvergence
from .poly import Polynomial, real_roots
from .schedule import SchedulePair

__all__ = [
    "PulseTable",
    "omega_r_at",
    "delta_at",
    "synthesize",
    "adiabaticity_metric",
    "lr_phase",
    "adaptive_simpson",
]

#: Stations are resolved to this distance in s: a zero candidate this close
#: to one where more factors vanish is a rounding split of it, and a point
#: this close to a divergent station is at it.
ROOT_TOL = 1e-6

#: Integrand evaluations adaptive_simpson may spend before giving up.
SIMPSON_BUDGET = 100_000

#: Step in s of the central differences in adiabaticity_metric.
METRIC_STEP = 1e-6


# ---------------------------------------------------------------------------
# factored evaluation

def _angle_zeros(p: Polynomial, crit: list[float]) -> list[float]:
    """Points in [0, 1] where p crosses or touches a multiple of pi; crit
    holds the stationary points of p in [0, 1]."""
    values = p(np.array([0.0, 1.0] + crit))
    k_lo = math.ceil(values.min() / math.pi - 1e-9)
    k_hi = math.floor(values.max() / math.pi + 1e-9)
    return [r for k in range(k_lo, k_hi + 1) for r in real_roots(p.shifted(-k * math.pi), 0.0, 1.0)]


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
    """sin(x) / x, 1 at x = 0, for a float or an array."""
    if isinstance(x, float):
        return math.sin(x) / x if x else 1.0
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
    cot_order: int


def _angle(st: _Station, f: int, u):
    """Angle factor f at s0 + u divided by u^m, and its argument p - k pi there."""
    r = _horner(st.coef[f], u)
    x = u ** st.mult[f] * r
    return r * _sinc(x), x


def _omega(st: _Station, u):
    sin_b, _ = _angle(st, 1, u)
    return u ** st.omega_order * _horner(st.coef[0], u) / sin_b


def _cot(st: _Station, u):
    sin_b, _ = _angle(st, 1, u)
    cos_b, _ = _angle(st, 2, u)
    # cot(gamma) = cos(x) / sin(x) for x = gamma - k pi, whatever the parity of k
    sin_x, x = _angle(st, 3, u)
    num = _horner(st.coef[0], u) * np.cos(x) * cos_b
    return u ** st.cot_order * num / (sin_b * sin_x)


def _stations(gamma: Polynomial, dgamma: Polynomial, beta: Polynomial,
              dbeta: Polynomial) -> list[_Station]:
    args = (dgamma, beta, beta.shifted(0.5 * math.pi), gamma)
    # Candidates: each factor's zeros, and the angles' stationary points,
    # which locate multiple zeros better than their rounding-split roots.
    gamma_crit = real_roots(dgamma, 0.0, 1.0)
    beta_crit = real_roots(dbeta, 0.0, 1.0)
    x = np.array(sorted({0.0, *gamma_crit, *beta_crit, *_angle_zeros(args[1], beta_crit),
                         *_angle_zeros(args[2], beta_crit), *_angle_zeros(args[3], gamma_crit)}))
    # Multiplicity of each factor at each candidate: the number of leading
    # Taylor coefficients of its argument (less the nearest multiple of pi
    # for an angle) that lie within the rounding bound of their evaluation.
    n = max(len(q.coefficients) for q in args)
    a = np.zeros((n, 4))
    for f, q in enumerate(args):
        a[: len(q.coefficients), f] = q.coefficients
    c, bound = np.split(_taylor(np.hstack([a, np.abs(a)]), x), 2, axis=1)
    k = np.round(c[0] / math.pi)
    k[0] = 0.0
    c[0] -= k * math.pi
    bound[0] += np.abs(k) * math.pi
    small = np.abs(c) <= 4 * n * np.finfo(float).eps * bound
    mult = np.where(small.all(axis=0), n, np.argmin(small, axis=0))
    c[:, 1:3] *= 1.0 - 2.0 * (k[1:3] % 2)
    # A station is a candidate where a denominator factor vanishes (elsewhere
    # the reduced parts of any station are exact). Candidates within ROOT_TOL
    # of one where more factors vanish are rounding splits of it. Without
    # any, the candidate s = 0 serves every sample.
    total = mult.sum(axis=0)
    kept: list[int] = []
    for j in sorted(np.nonzero(mult[1] + mult[3])[0], key=lambda j: -total[j]):
        if all(abs(x[j] - x[i]) > ROOT_TOL for i in kept):
            kept.append(j)
    stations = []
    for j in sorted(kept) or [0]:
        m = tuple(mult[:, j].tolist())
        cf = tuple(c[mf:, f, j].tolist() for f, mf in enumerate(m))
        stations.append(_Station(float(x[j]), m, cf, m[0] - m[1], m[0] + m[2] - m[1] - m[3]))
    return stations


class _Waveform:
    """Dimensionless waveform evaluators for one schedule pair."""

    def __init__(self, pair: SchedulePair):
        self.gamma = pair.gamma
        self.beta = pair.beta
        self.dgamma = pair.gamma.derivative()
        self.dbeta = pair.beta.derivative()
        self.switch = pair.switch_fraction
        self.stations = _stations(self.gamma, self.dgamma, self.beta, self.dbeta)
        st = self.stations
        self._cuts = [0.5 * (a.s0 + b.s0) for a, b in zip(st, st[1:])]
        self._s0 = np.array([x.s0 for x in st])
        self.omega_divergent = np.array([x.omega_order < 0 for x in st])
        self.cot_divergent = np.array([x.cot_order < 0 for x in st])
        self._switch_delta: float | None = None

    def _station(self, s: float) -> _Station:
        return self.stations[bisect.bisect(self._cuts, s)]

    def _each(self, formula, s: np.ndarray) -> np.ndarray:
        """formula(station, s - s0) at every sample, from the sample's nearest station."""
        j = np.searchsorted(self._cuts, s, side="right")
        out = np.empty_like(s)
        for i, st in enumerate(self.stations):
            at = j == i
            out[at] = formula(st, s[at] - st.s0)
        return out

    def check_finite(self, lo: float, hi: float, divergent: np.ndarray) -> None:
        """Raise DivergentPulse at the first station in [lo, hi] flagged in divergent."""
        hit = divergent & (self._s0 >= lo - ROOT_TOL) & (self._s0 <= hi + ROOT_TOL)
        if hit.any():
            raise DivergentPulse(f"waveform diverges at s = {self._s0[hit][0]:.6g}")

    # -- scalar evaluators (design waveform, no switch applied) ----------

    def omega(self, s: float) -> float:
        """Rabi frequency times t_f."""
        st = self._station(s)
        if st.omega_order < 0:
            self.check_finite(s, s, self.omega_divergent)
        return float(_omega(st, s - st.s0))

    def cot_term(self, s: float) -> float:
        """omega_r * cot(gamma) * cos(beta) times t_f (= delta + beta_dot)."""
        st = self._station(s)
        if st.cot_order < 0:
            self.check_finite(s, s, self.cot_divergent)
        return float(_cot(st, s - st.s0))

    def delta(self, s: float) -> float:
        """Detuning times t_f."""
        return self.cot_term(s) - float(self.dbeta(s))

    def omega_tilde(self, s: float) -> float:
        """Phase-accumulation rate times t_f:
        (delta + beta_dot) cos(gamma) + beta_dot + omega_r sin(gamma) cos(beta).
        """
        g = float(self.gamma(s))
        b = float(self.beta(s))
        return (
            self.cot_term(s) * math.cos(g)
            + float(self.dbeta(s))
            + self.omega(s) * math.sin(g) * math.cos(b)
        )

    # -- vectorized grid evaluators ---------------------------------------

    def omega_many(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        self.check_finite(s.min(), s.max(), self.omega_divergent)
        return self._each(_omega, s)

    def delta_many(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        self.check_finite(s.min(), s.max(), self.cot_divergent)
        return self._each(_cot, s) - self.dbeta(s)

    # -- switch handling ---------------------------------------------------

    def switch_delta(self) -> float:
        """Detuning (times t_f) held after the antedated switch."""
        if self.switch is None:
            raise ValueError("schedule has no antedated switch")
        if self._switch_delta is None:
            value = self.delta(self.switch)
            if abs(value) < 1e-9:
                warnings.warn(
                    "switched detuning is ~0: the post-switch Hamiltonian is degenerate "
                    "and the population inversion is not well defined",
                    stacklevel=3,
                )
            self._switch_delta = value
        return self._switch_delta


@lru_cache(maxsize=128)
def _waveform(pair: SchedulePair) -> _Waveform:
    return _Waveform(pair)


# ---------------------------------------------------------------------------
# public API

def omega_r_at(pair: SchedulePair, s: float) -> float:
    """Rabi frequency of the design waveform at s, in angular-frequency units."""
    _check_s(s)
    return _waveform(pair).omega(s) / pair.t_f


def delta_at(pair: SchedulePair, s: float) -> float:
    """Detuning of the design waveform at s, in angular-frequency units."""
    _check_s(s)
    return _waveform(pair).delta(s) / pair.t_f


def _check_s(s: float) -> None:
    if not -1e-12 <= s <= 1.0 + 1e-12:
        raise ValueError(f"s = {s!r} outside [0, 1]")


@dataclass(frozen=True)
class PulseTable:
    """Uniformly sampled waveforms on [0, t_f].

    omega_r and delta are in angular-frequency units (1/t_f scale). For
    antedated schedules, samples past t_a carry omega_r = 0 and the
    constant switched detuning.
    """

    t_f: float
    t: np.ndarray
    omega_r: np.ndarray
    delta: np.ndarray
    t_a: float | None = None

    def __len__(self) -> int:
        return len(self.t)

    def rows(self):
        """Iterate (t, omega_r, delta) samples."""
        return zip(self.t, self.omega_r, self.delta)


def synthesize(pair: SchedulePair, n: int) -> PulseTable:
    """Sample the physical waveforms at n+1 uniform times on [0, t_f]."""
    if n < 2:
        raise ValueError("need n >= 2 grid intervals")
    wave = _waveform(pair)
    s = np.arange(n + 1) / n
    omega = wave.omega_many(s)
    delta = wave.delta_many(s)
    a = pair.switch_fraction
    if a is not None:
        after = s > a
        omega[after] = 0.0
        delta[after] = wave.switch_delta()
    return PulseTable(
        t_f=pair.t_f,
        t=s * pair.t_f,
        omega_r=omega / pair.t_f,
        delta=delta / pair.t_f,
        t_a=pair.t_a,
    )


def adiabaticity_metric(pair: SchedulePair, s: float | np.ndarray) -> float | np.ndarray:
    """|omega_r * delta_dot - omega_r_dot * delta| / Omega^3 at interior s.

    s is a float or an array; the result has the same form. Dimensionless
    and independent of t_f. Rates are central finite differences of the
    closed-form evaluators at step METRIC_STEP in s. Raises DegeneratePoint
    at a level crossing (Omega * t_f < 1e-12).
    """
    x = np.atleast_1d(np.asarray(s, dtype=float))
    if not (METRIC_STEP < x.min() and x.max() < 1.0 - METRIC_STEP):
        raise ValueError("adiabaticity metric is defined at interior points")
    metric = _metric(_waveform(pair), x)
    return float(metric[0]) if np.ndim(s) == 0 else metric


def _metric(wave: _Waveform, s: np.ndarray) -> np.ndarray:
    """The adiabaticity metric at every sample of s."""
    om = wave.omega_many(s)
    dl = wave.delta_many(s)
    gen = np.hypot(om, dl)
    if gen.min() < 1e-12:
        raise DegeneratePoint(f"generalized Rabi frequency vanishes at s = {s[gen.argmin()]:.6g}")
    h = METRIC_STEP
    dom = (wave.omega_many(s + h) - wave.omega_many(s - h)) / (2.0 * h)
    ddl = (wave.delta_many(s + h) - wave.delta_many(s - h)) / (2.0 * h)
    return np.abs((om * ddl - dom * dl) / gen**3)


def lr_phase(pair: SchedulePair, t: float, branch: int) -> float:
    """Phase accumulated by an invariant eigenstate up to time t (radians).

    branch = +1 for the upper invariant branch, -1 for the lower; the two
    phases are opposite. Quadrature is adaptive Simpson to 1e-9 absolute.
    """
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    if not 0.0 <= t <= pair.t_f * (1 + 1e-12):
        raise ValueError("t outside [0, t_f]")
    wave = _waveform(pair)
    s_end = t / pair.t_f
    if s_end == 0.0:
        return 0.0
    wave.check_finite(0.0, s_end, wave.omega_divergent | wave.cot_divergent)
    integral = adaptive_simpson(wave.omega_tilde, 0.0, s_end, 1e-9)
    return -0.5 * branch * integral


def adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    """Adaptive Simpson quadrature of f on [a, b] to absolute tolerance tol.

    Raises NoConvergence when the tolerance is not met within SIMPSON_BUDGET
    evaluations of f.
    """
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_step(f, a, b, fa, fb, fm, whole, tol, [SIMPSON_BUDGET - 3])


def _simpson_step(f, a, b, fa, fb, fm, whole, tol, budget):
    budget[0] -= 2
    if budget[0] < 0:
        raise NoConvergence(
            f"adaptive Simpson did not reach its tolerance within {SIMPSON_BUDGET} "
            f"evaluations (still refining [{a:.6g}, {b:.6g}])"
        )
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    half = 0.5 * tol
    return _simpson_step(f, a, m, fa, fm, flm, left, half, budget) + _simpson_step(
        f, m, b, fm, fb, frm, right, half, budget
    )
