"""Waveforms against an independent 50-digit rebuild of the same designs.

The reference refits every schedule with mpmath from the design conditions
that the schedule module states, takes the rate-reversal point t_s from
gamma_dot = c s (s - 1)(s - t_s), and evaluates the closed-form quotients
directly. It steps around their 0/0 points by averaging the quotient at
s - h and s + h (h = 1e-15), which is exact to O(h^2) because the
quotients are analytic there. The adiabaticity metric is checked against
the same rebuild, differentiated by mpmath, at 50 digits.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from iecpulse.pulse import adiabaticity_metric, delta_at, omega_r_at
from iecpulse.schedule import antedated_pair, fourth_order_pair, third_order_pair

OFFSETS = (1e-9, 1e-7, 1e-5, 1e-4, 9.9e-4, 1.01e-3, 1e-2)
GRID = np.linspace(0.0, 1.0, 2001)
REL = 1e-10


def _fit(conditions, degree):
    """Ascending coefficients meeting (s, derivative order, value) conditions."""
    rows = [
        [mp.ff(j, order) * s ** (j - order) if j >= order else 0 for j in range(degree + 1)]
        for s, order, _ in conditions
    ]
    return list(mp.lu_solve(mp.matrix(rows), mp.matrix([v for _, _, v in conditions])))


def _gamma(extra):
    pi = mp.pi
    return _fit([(0, 0, pi), (0, 1, 0), (1, 0, 0), (1, 1, 0)] + extra, 3 + len(extra))


def _cubic_beta():
    b = 1.5 * mp.pi
    return _fit([(0, 0, -mp.pi / 2), (1, 0, -mp.pi / 2), (0, 1, b), (1, 1, -b)], 3)


def _reference(name, *args):
    """(gamma, beta) coefficients and the 0/0 points of one design."""
    if name == "third":
        return _gamma([]), _cubic_beta(), [mp.mpf(0), mp.mpf(1)]
    if name == "fourth":
        mid = mp.mpf(args[0])
        return _gamma([(mp.mpf(0.5), 0, mid)]), _cubic_beta(), [mp.mpf(0), mp.mpf(1)]
    a, units = mp.mpf(args[0]), mp.mpf(args[1])
    gamma = _gamma([(a, 0, 0)])
    t_s = gamma[2] / (2 * gamma[4])
    b = units * mp.pi / 2
    pi = mp.pi
    beta = _fit(
        [(0, 0, -pi / 2), (1, 0, pi / 2), (a, 0, -pi / 2), (t_s, 0, 0), (0, 1, b), (1, 1, -b)], 5
    )
    return gamma, beta, [mp.mpf(0), a, t_s, mp.mpf(1)]


def _waveforms(gamma, beta, s):
    dgamma = [j * c for j, c in enumerate(gamma)][1:]
    dbeta = [j * c for j, c in enumerate(beta)][1:]

    def at(x):
        g, b = mp.polyval(gamma[::-1], x), mp.polyval(beta[::-1], x)
        omega = mp.polyval(dgamma[::-1], x) / mp.sin(b)
        return omega, omega * mp.cos(g) * mp.cos(b) / mp.sin(g) - mp.polyval(dbeta[::-1], x)

    h = mp.mpf("1e-15")
    (om_lo, dl_lo), (om_hi, dl_hi) = at(s - h), at(s + h)
    return (om_lo + om_hi) / 2, (dl_lo + dl_hi) / 2


CASES = [
    ("third", lambda: third_order_pair(1.0), ()),
    ("fourth", lambda: fourth_order_pair(1.0, 2 * math.pi / 5), (2 * math.pi / 5,)),
] + [
    (
        "antedated",
        lambda a=a, u=u: antedated_pair(1.0, a, u * 0.5 * math.pi),
        (a, u),
    )
    for a, u in [(a, u) for a in (0.3, 0.4, 0.5) for u in (1.0, 3.0, 5.232)]
    # drawn with seed 28 at t_a / t_f in (0.5, 0.77), the rate inside
    # _Sweep(1.0, a).band there, and rounded to 4 decimals: the part of the
    # design space the sweep explores that the cases above do not reach
    + [(0.73, 7.0464), (0.7067, 4.0681), (0.5136, 4.9544)]
]


@pytest.mark.parametrize(
    "name, build, args", CASES, ids=[f"{c[0]}{list(c[2])}" for c in CASES]
)
def test_waveforms_match_50_digit_reference(name, build, args):
    pair = build()
    with mp.workdps(50):
        gamma, beta, points = _reference(name, *args)
        near = {
            float(p + side * d)
            for p in points
            for d in OFFSETS
            for side in (-1, 1)
            if 0 <= p + side * d <= 1
        }
        s = np.array(sorted(set(GRID.tolist()) | near))
        worst, where = 0.0, None
        for x, values in zip(s.tolist(), zip(omega_r_at(pair, s), delta_at(pair, s))):
            for value, ref in zip(values, _waveforms(gamma, beta, mp.mpf(x))):
                err = float(abs(value - ref) / max(1, abs(ref)))
                if err > worst:
                    worst, where = err, x
    assert worst <= REL, f"relative error {worst:.3e} at s = {where!r}"


def _metric(gamma, beta, s):
    """|omega_r delta' - omega_r' delta| / Omega^3 at an s off the 0/0 points."""
    dgamma = [j * c for j, c in enumerate(gamma)][1:]
    dbeta = [j * c for j, c in enumerate(beta)][1:]

    def omega(x):
        return mp.polyval(dgamma[::-1], x) / mp.sin(mp.polyval(beta[::-1], x))

    def delta(x):
        g, b = mp.polyval(gamma[::-1], x), mp.polyval(beta[::-1], x)
        return omega(x) * mp.cos(g) * mp.cos(b) / mp.sin(g) - mp.polyval(dbeta[::-1], x)

    om, dl = omega(s), delta(s)
    return abs(om * mp.diff(delta, s) - mp.diff(omega, s) * dl) / mp.hypot(om, dl) ** 3


@pytest.mark.parametrize(
    "name, build, args", CASES, ids=[f"{c[0]}{list(c[2])}" for c in CASES]
)
def test_adiabaticity_metric_matches_50_digit_reference(name, build, args):
    # down to 1e-9 from each 0/0 point, where a rate taken by differences
    # (or a complex step through sin(x) / x) loses digits to cancellation
    pair = build()
    s_end = pair.switch_fraction or 1.0
    with mp.workdps(50):
        gamma, beta, points = _reference(name, *args)
        near = {
            float(p + side * d)
            for p in points
            for d in OFFSETS
            for side in (-1, 1)
            if 0 < p + side * d < s_end
        }
        worst, where = 0.0, None
        for s in sorted(set(np.linspace(0.0, s_end, 41)[1:-1].tolist()) | near):
            ref = _metric(gamma, beta, mp.mpf(s))
            err = float(abs(adiabaticity_metric(pair, s) - ref) / ref)
            if err > worst:
                worst, where = err, s
    assert worst <= 1e-11, f"relative error {worst:.3e} at s = {where!r}"
