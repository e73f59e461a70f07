"""Invariant-parameter schedules for two-level population inversion.

A schedule is a pair of polynomial angles (gamma, beta) in normalized time
s = t / t_f. gamma steers the populations from pi (all in the lower
invariant branch) to 0; beta is the azimuthal phase that shapes the
waveforms. Three families are provided:

* third_order_pair   -- cubic gamma and beta; the baseline passage that
  completes the inversion at t_f.
* fourth_order_pair  -- quartic gamma with a prescribed midpoint value,
  which speeds up the passage; beta as in the cubic family.
* antedated_pair     -- quartic gamma forced to zero at an early time t_a,
  plus a quintic beta whose sign change compensates the gamma-rate
  reversal; the drive is switched off at t_a.

All boundary conditions are stated per unit t and converted to per unit s
(multiply rates by t_f), so coefficients are independent of t_f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NoCrossing, SingularSystem, UnphysicalSchedule, is_number, shown
from .poly import Condition, Polynomial, fit, residual_ok, solve

__all__ = [
    "SchedulePair",
    "third_order_pair",
    "fourth_order_pair",
    "antedated_pair",
    "beta_dot0_rate",
    "check_times",
    "check_rate",
    "gamma_out_of_range",
    "gamma_dot_zero_crossing",
    "critical_gamma_mid",
    "critical_t_a",
]

PI = math.pi


@dataclass(frozen=True)
class SchedulePair:
    """A designed (gamma, beta) schedule with its physical time scale.

    gamma, beta are polynomials in s = t / t_f (radians). t_a, when set, is the
    antedated switch time (same units as t_f); both are kept as check_times' floats.
    antedated_pair alone sets antedated = (AntedatedBasis, b): beta = B0 + b B1.
    """

    gamma: Polynomial
    beta: Polynomial
    t_f: float
    t_a: float | None
    antedated: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name, value in zip(("t_f", "t_a"), check_times(self.t_f, self.t_a)):
            object.__setattr__(self, name, value)

    @property
    def switch_fraction(self) -> float | None:
        """t_a / t_f, or None for passages that run to t_f."""
        return None if self.t_a is None else self.t_a / self.t_f


def check_times(t_f: float, t_a: float | None = None) -> tuple[float, float | None]:
    """t_f and t_a as Python floats, so a numpy float32 computes in double precision too;
    ConfigError unless t_f is a number (errors.is_number: an int or a float, no bool,
    Fraction or array), 0 < t_f < inf, and, for a given t_a, t_a is one and the switch
    fraction of those floats, which the fits and the switch rule use, lies in (0, 1)."""
    if not (is_number(t_f) and 0.0 < t_f < math.inf):
        raise ConfigError(f"t_f must be positive and finite, got {shown(t_f)}")
    if t_a is not None and not (is_number(t_a) and 0.0 < float(t_a) / float(t_f) < 1.0):
        raise ConfigError(f"t_a must lie strictly inside (0, t_f), got {shown(t_a)}")
    return float(t_f), None if t_a is None else float(t_a)


def check_rate(beta_dot0: float) -> None:
    """Raise ConfigError unless the initial beta rate (rad per unit t) is a
    positive real number."""
    if not (is_number(beta_dot0) and beta_dot0 > 0):
        raise ConfigError(f"beta_dot0 must be a positive rate, got {shown(beta_dot0)} rad per unit t")


def _gamma_conditions() -> list[Condition]:
    # Inversion endpoints plus zero rate where the drive turns on/off.
    return [
        Condition(0.0, 0, PI),
        Condition(0.0, 1, 0.0),
        Condition(1.0, 0, 0.0),
        Condition(1.0, 1, 0.0),
    ]


def _cubic_beta() -> Polynomial:
    # beta(0) = beta(1) = -pi/2 keeps the detuning finite at both ends and
    # the Rabi frequency nonnegative; the rates -/+ 1.5 pi fix the detuning
    # endpoint values -/+ 9 pi / (2 t_f).
    return fit(
        [
            Condition(0.0, 0, -PI / 2),
            Condition(1.0, 0, -PI / 2),
            Condition(0.0, 1, 1.5 * PI),
            Condition(1.0, 1, -1.5 * PI),
        ],
        3,
    )


#: The cubic family's angles, and the quartic family's beta: fitted once.
_CUBIC_GAMMA, _CUBIC_BETA = fit(_gamma_conditions(), 3), _cubic_beta()


def third_order_pair(t_f: float) -> SchedulePair:
    """Cubic gamma/beta passage completing the inversion at t_f."""
    return SchedulePair(_CUBIC_GAMMA, _CUBIC_BETA, t_f, None)


def fourth_order_pair(t_f: float, gamma_mid: float) -> SchedulePair:
    """Quartic gamma with gamma(t_f/2) = gamma_mid; beta as in the cubic family.

    check_times applies to t_f and gamma_mid must be a finite real number
    (ConfigError).
    Below critical_gamma_mid() gamma_mid makes gamma dip negative near t_f,
    which no beta can compensate; such requests raise UnphysicalSchedule.
    """
    check_times(t_f)
    if not (is_number(gamma_mid) and math.isfinite(gamma_mid)):
        raise ConfigError(f"gamma_mid must be finite, got {shown(gamma_mid)}")
    if gamma_mid < critical_gamma_mid():
        raise UnphysicalSchedule(
            f"gamma_mid={gamma_mid:.6f} is below the nonnegativity limit "
            f"{critical_gamma_mid():.6f}"
        )
    gamma = fit(_gamma_conditions() + [Condition(0.5, 0, gamma_mid)], 4)
    return SchedulePair(gamma, _CUBIC_BETA, t_f, None)


def antedated_pair(t_f: float, t_a: float, beta_dot0: float | None = None) -> SchedulePair:
    """Passage whose gamma reaches 0 at t_a < t_f; the drive is cut there.

    gamma is the quartic through the usual endpoint conditions plus
    gamma(t_a) = 0; it dips negative on (t_a, t_f) and its rate changes
    sign at some t_s in (t_a, t_f). beta is the quintic satisfying

        beta(0) = -pi/2, beta(t_f) = +pi/2, beta(t_a) = -pi/2,
        beta(t_s) = 0,   beta'(0) = beta_dot0, beta'(t_f) = -beta_dot0,

    so that both the detuning at gamma = 0 and the Rabi frequency at the
    rate reversal stay finite and nonnegative. beta_dot0 defaults to
    pi / (2 t_f) and is tunable (it controls the energy cost); a given one
    must be finite, and check_times and check_rate apply (ConfigError).
    beta is B0 + b B1 of the AntedatedBasis at t_a, which the pair carries.

    Schedules whose gamma leaves [-pi, pi] raise UnphysicalSchedule; t_a
    below critical_t_a() * t_f trips this. t_a is required: None is a
    ConfigError too.
    """
    t_f, t_a = check_times(t_f, t_a)
    if beta_dot0 is None:
        beta_dot0 = 0.5 * PI / t_f
    elif not (is_number(beta_dot0) and math.isfinite(beta_dot0)):
        raise ConfigError(f"beta_dot0 must be a finite rate, got {shown(beta_dot0)} rad per unit t")
    check_rate(beta_dot0)
    basis, b = AntedatedBasis(t_f, t_a), float(beta_dot0) * t_f
    beta, ok = basis.fit(np.array([b]))
    if not ok[0]:
        raise SingularSystem("ill-conditioned interpolation system (residual check failed)")
    pair = SchedulePair(basis.gamma, Polynomial(beta[:, 0]), t_f, t_a)
    object.__setattr__(pair, "antedated", (basis, b))
    return pair


class AntedatedBasis:
    """beta = B0 + b B1 of every antedated pair at s_end = t_a / t_f: b =
    beta_dot0 t_f enters beta's conditions only on their right-hand side, so
    one gamma fit and two unchecked solves serve every b; raises as antedated_pair does,
    and ConfigError for t_a = None, which check_times lets through."""

    def __init__(self, t_f: float, t_a: float):
        if t_a is None:
            raise ConfigError("an antedated passage needs t_a, got None")
        self.s_end = a = t_a / t_f
        self.gamma = _antedated_gamma(a)
        if gamma_out_of_range(self.gamma) is not None:
            raise UnphysicalSchedule(f"gamma dips below -pi for t_a = {t_a!r} (antedating "
                                     f"earlier than {critical_t_a():.6f} t_f)")
        t_s = gamma_dot_zero_crossing(self.gamma)
        at_zero = _antedated_beta_conditions(a, t_s, 0.0)  # b: beta'(0) = b, beta'(1) = -b
        slope = [Condition(c.s, c.derivative_order, v) for c, v in zip(at_zero, (0, 0, 0, 0, 1, -1))]
        self.b0, self.b1 = solve(at_zero, 5), solve(slope, 5)
        self._at_zero, self._slope = at_zero, slope

    def fit(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """B0 + b B1 for each b (a column of coefficients), and whether it passes
        fit's residual check (poly.residual_ok) on its conditions at b."""
        with np.errstate(over="ignore", invalid="ignore"):
            c = self.b0.coefficients[:, None] + self.b1.coefficients[:, None] * b
            values = [x.value + y.value * b for x, y in zip(self._at_zero, self._slope)]
            return c, residual_ok(c, self._at_zero, values)


def gamma_out_of_range(gamma: Polynomial) -> tuple[float, float] | None:
    """gamma's range on [0, 1], exact from its ends and stationary points, if it
    leaves [-pi, pi], else None; a dip below -pi is a singularity no beta compensates."""
    v = gamma(np.array([0.0, 1.0, *gamma.stationary_points]))
    lo, hi = float(v.min()), float(v.max())
    return None if lo >= -PI - 1e-9 and hi <= PI + 1e-9 else (lo, hi)


def beta_dot0_rate(units, t_f: float):
    """beta_dot0 in radians per unit t from units of pi / (2 t_f); units is a
    float or an array."""
    return units * 0.5 * PI / t_f


def _antedated_gamma(a: float) -> Polynomial:
    """The antedated quartic gamma, zero at s = a."""
    return fit(_gamma_conditions() + [Condition(a, 0, 0.0)], 4)


def _antedated_beta_conditions(a: float, t_s: float, b: float) -> list[Condition]:
    """The antedated quintic beta's conditions; b = beta_dot0 * t_f enters
    only their values."""
    return [Condition(0.0, 0, -PI / 2), Condition(1.0, 0, PI / 2), Condition(a, 0, -PI / 2),
            Condition(t_s, 0, 0.0), Condition(0.0, 1, b), Condition(1.0, 1, -b)]


def gamma_dot_zero_crossing(gamma: Polynomial) -> float:
    """The unique interior stationary point where d(gamma)/ds changes sign.

    Only roots of odd multiplicity change sign; tangencies and roots within
    1e-9 of 0 or 1 are ignored. Raises NoCrossing when no unique interior
    sign change exists, e.g. for the monotone cubic gamma.
    """
    roots = [r for r in gamma.stationary_points if 1e-9 <= r <= 1.0 - 1e-9]
    crossings = sorted(r for r in set(roots) if roots.count(r) % 2)
    if len(crossings) != 1:
        raise NoCrossing(
            f"expected exactly one interior sign change of gamma-dot, found {len(crossings)}"
        )
    return crossings[0]


def critical_gamma_mid() -> float:
    """Smallest midpoint value keeping the quartic gamma nonnegative on [0, t_f].

    Below this threshold the quartic develops a negative dip just before
    t_f; the dip hugs the structural double root at t_f, so right at the
    threshold it degenerates into a triple root there, where the terminal
    curvature vanishes: gamma = pi (1 - s)^3 (1 + 3 s), 5 pi / 16 at s = 1/2.
    """
    return 5 * PI / 16


def critical_t_a() -> float:
    """Earliest antedating time, as a fraction of t_f, keeping gamma >= -pi.

    With gamma(a) = 0 the antedated quartic is gamma = pi g(s), where
    g = (1 - s)^2 (1 + 2 s + k s^2), k = -(1 + 2a) / a^2, and
    g' = 2 s (1 - s) (k (1 - 2s) - 3). At the limit gamma's interior minimum
    touches -pi: g' = 0 gives k = 3 / (1 - 2s), and g = -1 then reads
    u^4 - 2u^3 - 2u + 1 = 0 in u = 1 - s, palindromic: u + 1/u = 1 + sqrt(3).
    So r = 2s - 1 = sqrt(2 sqrt(3)) - sqrt(3) (s = 0.5645794553), k = -3 / r,
    and a = (1 + sqrt(1 - k)) / -k, the root in (0, 1) of k a^2 + 2a + 1 = 0.
    """
    r = math.sqrt(2.0 * math.sqrt(3.0)) - math.sqrt(3.0)
    return (1.0 + math.sqrt(1.0 + 3.0 / r)) * r / 3.0
