import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from iecpulse import schedule
from iecpulse.analysis import validate_schedule
from iecpulse.errors import Infeasible, NoCrossing, SingularSystem, UnphysicalSchedule
from iecpulse.poly import FIT_TOL, Condition, Polynomial, fit, misfit
from iecpulse.schedule import (
    SchedulePair,
    antedated_pair,
    critical_gamma_mid,
    critical_t_a,
    fourth_order_pair,
    gamma_dot_zero_crossing,
    third_order_pair,
)

PI = math.pi


def _fourth_unchecked(gamma_mid):
    """fourth_order_pair(1.0, gamma_mid) built from its fits, past the range rule."""
    gamma = fit(schedule._gamma_conditions() + [Condition(0.5, 0, gamma_mid)], 4)
    return SchedulePair(gamma, schedule._cubic_beta(), 1.0, None)


def _antedated_unchecked(t_a):
    """antedated_pair(1.0, t_a) built from its fits, past the range rule."""
    gamma = schedule._antedated_gamma(t_a)
    t_s = gamma_dot_zero_crossing(gamma)
    beta = fit(schedule._antedated_beta_conditions(t_a, t_s, 0.5 * PI), 5)
    return SchedulePair(gamma, beta, 1.0, t_a)


def _assert_endpoint_conditions(pair):
    g, b = pair.gamma, pair.beta
    dg = g.derivative()
    assert abs(g(0.0) - PI) < 1e-9
    assert abs(dg(0.0)) < 1e-9
    assert abs(dg(1.0)) < 1e-9
    assert abs(b(0.0) + PI / 2) < 1e-9
    end = pair.switch_fraction if pair.switch_fraction is not None else 1.0
    assert abs(g(end)) < 1e-9


@pytest.mark.parametrize(
    "pair_factory",
    [
        lambda: third_order_pair(1.0),
        lambda: fourth_order_pair(1.0, 2 * PI / 5),
        lambda: fourth_order_pair(1.0, 2 * PI / 6),
        lambda: antedated_pair(1.0, 0.5),
        lambda: antedated_pair(1.0, 1.0 / 3.0),
    ],
)
def test_defining_conditions(pair_factory):
    _assert_endpoint_conditions(pair_factory())


def test_third_order_coefficients():
    pair = third_order_pair(1.0)
    np.testing.assert_allclose(pair.gamma.coefficients, [PI, 0, -3 * PI, 2 * PI], atol=1e-12)
    np.testing.assert_allclose(
        pair.beta.coefficients, [-PI / 2, 1.5 * PI, -1.5 * PI, 0.0], atol=1e-12
    )


def test_third_order_beta_midpoint():
    # beta(s) = -pi/2 + (3pi/2) s (1-s), so beta(1/2) = -pi/8
    pair = third_order_pair(1.0)
    assert pair.beta(0.5) == pytest.approx(-PI / 8, abs=1e-12)


def test_third_order_gamma_strictly_decreasing():
    pair = third_order_pair(1.0)
    dg = pair.gamma.derivative()
    s = np.linspace(1e-4, 1 - 1e-4, 1001)
    assert np.all(dg(s) < 0.0)


def test_fourth_order_monotone_above_threshold():
    pair = fourth_order_pair(1.0, 2 * PI / 5)
    dg = pair.gamma.derivative()
    s = np.linspace(1e-4, 1 - 1e-4, 1001)
    assert np.all(dg(s) < 0.0)
    # decreases from pi to 0 through the imposed midpoint
    assert pair.gamma(0.5) == pytest.approx(2 * PI / 5, abs=1e-12)


def test_fourth_order_reproduces_own_midpoint_condition():
    pair = fourth_order_pair(1.0, PI / 2)
    assert pair.gamma(0.5) == pytest.approx(PI / 2, abs=1e-12)


def test_fourth_order_near_limit_accepted():
    fourth_order_pair(1.0, 2 * PI / 6)  # just above the limit 2 pi / 6.4


def test_fourth_order_below_limit_rejected():
    with pytest.raises(UnphysicalSchedule):
        fourth_order_pair(1.0, critical_gamma_mid() - 0.01)


def test_fourth_order_limit_is_exact():
    # at the limit gamma's dip is a triple root at t_f and omega_r stays
    # nonnegative; below it gamma dips negative near t_f and omega_r turns
    # negative there (by about 1.7e-12 at 0.5e-6 below), which the exact sign
    # test of validate_schedule sees, so the constructor admits no slack either
    crit = critical_gamma_mid()
    assert validate_schedule(fourth_order_pair(1.0, crit)).feasible
    for gamma_mid in (math.nextafter(crit, 0.0), crit - 0.5e-6):
        with pytest.raises(UnphysicalSchedule, match="nonnegativity limit"):
            fourth_order_pair(1.0, gamma_mid)
    assert not validate_schedule(_fourth_unchecked(crit - 0.5e-6)).omega_r_nonnegative


def test_fourth_order_diagnostic_construction():
    pair = _fourth_unchecked(2 * PI / 7)
    assert pair.gamma(0.5) == pytest.approx(2 * PI / 7, abs=1e-12)


def test_antedated_half_gamma_coefficients():
    pair = antedated_pair(1.0, 0.5)
    np.testing.assert_allclose(
        pair.gamma.coefficients, [PI, 0, -11 * PI, 18 * PI, -8 * PI], atol=1e-10
    )


def test_antedated_half_beta_conditions():
    # the quintic beta for t_a = t_f/2: values at 0, t_a, 11/16, t_f and
    # rates at 0, t_f
    pair = antedated_pair(1.0, 0.5)
    b, db = pair.beta, pair.beta.derivative()
    assert b(0.0) == pytest.approx(-PI / 2, abs=1e-9)
    assert b(0.5) == pytest.approx(-PI / 2, abs=1e-9)
    assert abs(b(11.0 / 16.0)) < 1e-9
    assert b(1.0) == pytest.approx(PI / 2, abs=1e-9)
    assert db(0.0) == pytest.approx(PI / 2, abs=1e-9)
    assert db(1.0) == pytest.approx(-PI / 2, abs=1e-9)


def test_antedated_gamma_negative_dip():
    # evaluating the t_a = t_f/2 quartic at the rate-reversal point:
    # gamma(11/16) = pi (1 - 11 (11/16)^2 + 18 (11/16)^3 - 8 (11/16)^4)
    pair = antedated_pair(1.0, 0.5)
    s = 11.0 / 16.0
    expected = PI * (1 - 11 * s**2 + 18 * s**3 - 8 * s**4)
    assert expected == pytest.approx(-0.1373 * PI, abs=1e-3)
    assert pair.gamma(s) == pytest.approx(expected, abs=1e-9)


def test_antedated_third_ta_crossing_interval():
    pair = antedated_pair(1.0, 1.0 / 3.0)
    t_s = gamma_dot_zero_crossing(pair.gamma)
    assert 1.0 / 3.0 < t_s < 1.0
    # independent check: the rate changes sign across t_s
    dg = pair.gamma.derivative()
    assert dg(t_s - 1e-4) * dg(t_s + 1e-4) < 0


def test_gamma_dot_zero_crossing_at_11_16():
    pair = antedated_pair(1.0, 0.5)
    assert gamma_dot_zero_crossing(pair.gamma) == pytest.approx(11.0 / 16.0, abs=1e-9)


def test_gamma_dot_zero_crossing_monotone_cubic():
    with pytest.raises(NoCrossing):
        gamma_dot_zero_crossing(Polynomial([PI, 0, -3 * PI, 2 * PI]))


def test_gamma_dot_zero_crossing_skips_tangency():
    # gamma-dot = (s - 0.3)^2 (s - 0.7) touches zero at 0.3 and crosses at 0.7
    rate = npoly.polyfromroots([0.3, 0.3, 0.7])
    assert gamma_dot_zero_crossing(Polynomial(npoly.polyint(rate))) == pytest.approx(0.7, abs=1e-12)


@pytest.mark.parametrize("near, counted", [(0.5e-9, False), (2e-9, True)])
def test_gamma_dot_zero_crossing_ignores_roots_within_1e_9_of_the_ends(near, counted):
    # gamma-dot = (s - r)(s - 0.6) with r near 0 or near 1 crosses zero twice
    for r in (near, 1.0 - near):
        gamma = Polynomial(npoly.polyint(npoly.polyfromroots([r, 0.6])))
        if counted:
            with pytest.raises(NoCrossing, match="found 2"):
                gamma_dot_zero_crossing(gamma)
        else:
            assert gamma_dot_zero_crossing(gamma) == pytest.approx(0.6, abs=1e-12)


def test_antedated_default_beta_dot0():
    pair = antedated_pair(2.0, 1.0)
    # pi / (2 t_f) per unit t, with t_f = 2: pi / 2 per unit s
    assert pair.beta.derivative()(0.0) == pytest.approx(PI / 2)


def test_antedated_too_early_rejected():
    with pytest.raises(UnphysicalSchedule):
        antedated_pair(1.0, 0.25)


def test_antedated_too_early_diagnostic_construction():
    pair = _antedated_unchecked(0.25)
    s = np.linspace(0, 1, 4001)
    assert pair.gamma(s).min() < -PI  # the pathology the range check guards


def test_antedated_invalid_t_a():
    with pytest.raises(ValueError):
        antedated_pair(1.0, 1.5)


def test_antedated_overflowing_rate_fails_the_fit_check():
    # b = beta_dot0 t_f overflows to inf: the basis's residual check fails
    # there, as it does for any b the fit cannot meet
    with pytest.raises(SingularSystem, match="residual check"):
        antedated_pair(2.0, 1.0, 1.7e308)
    basis = schedule.AntedatedBasis(2.0, 1.0)
    assert basis.fit(np.array([math.inf, -math.inf, math.nan, 1.0]))[1].tolist() == [
        False, False, False, True]


def test_critical_gamma_mid_value():
    # reported as 2 pi / 6.40175. The threshold is where the quartic's
    # curvature at t_f vanishes; it is affine in gamma_mid (which enters the
    # fit only on the right-hand side), so two fits locate its zero.
    def curvature_end(mid):
        gamma = fit(schedule._gamma_conditions() + [Condition(0.5, 0, mid)], 4)
        return gamma.derivative().derivative()(1.0)

    at_zero, at_one = curvature_end(0.0), curvature_end(1.0)
    value = critical_gamma_mid()
    assert value == pytest.approx(2 * PI / 6.40175, rel=1e-3)
    assert value == pytest.approx(at_zero / (at_zero - at_one), abs=1e-14)


def test_critical_t_a_matches_mpmath():
    # an independent 40-digit solve of gamma(s) = -pi, gamma'(s) = 0 for
    # (s, a), gamma fitted through the antedated conditions at a
    import mpmath as mp

    def gamma(s, a):
        rows = [[s0**j for j in range(5)] for s0 in (0, 1, a)]
        rows += [[j * s0 ** (j - 1) if j else 0 for j in range(5)] for s0 in (0, 1)]
        c = mp.lu_solve(mp.matrix(rows), mp.matrix([mp.pi, 0, 0, 0, 0]))
        return lambda x, d=0: mp.polyval([c[j] * mp.ff(j, d) for j in range(4, d - 1, -1)], x)

    with mp.workdps(40):
        s, a = mp.findroot(lambda s, a: [gamma(s, a)(s) + mp.pi, gamma(s, a)(s, 1)], (0.56, 0.25))
    assert critical_t_a() == pytest.approx(float(a), abs=1e-12)
    assert 1.0 / critical_t_a() == pytest.approx(3.92211, abs=1e-5)


def test_critical_t_a_is_range_threshold():
    antedated_pair(1.0, critical_t_a() + 1e-6)
    with pytest.raises(UnphysicalSchedule, match=r"earlier than 0\.254965 t_f"):
        antedated_pair(1.0, critical_t_a() - 1e-6)


@pytest.mark.parametrize("over, inside", [(0.5e-9, True), (2e-9, False)])
def test_gamma_range_admits_rounding_of_1e_9_past_pi(over, inside):
    # each gamma reaches pi + over (or -pi - over) at s = 0, its one stationary point
    for gamma in (Polynomial([PI + over, 0.0, -1.0]), Polynomial([-PI - over, 0.0, 1.0])):
        assert (schedule.gamma_out_of_range(gamma) is None) == inside


def test_critical_gamma_mid_is_positivity_threshold():
    s = np.linspace(0.0, 1.0, 20001)
    above = fourth_order_pair(1.0, critical_gamma_mid() + 0.01)
    assert above.gamma(s).min() >= -1e-12
    below = _fourth_unchecked(critical_gamma_mid() - 0.01)
    assert below.gamma(s).min() < 0.0


@pytest.mark.parametrize("factory, kwargs", [
    (third_order_pair, {}),
    (fourth_order_pair, {"gamma_mid": 2 * PI / 5}),
    (antedated_pair, {"t_a_frac": 0.5}),
])
def test_coefficients_independent_of_t_f(factory, kwargs):
    def build(t_f):
        if "t_a_frac" in kwargs:
            return antedated_pair(t_f, kwargs["t_a_frac"] * t_f, 0.5 * PI / t_f)
        return factory(t_f, **kwargs)

    small, large = build(1.0), build(1000.0)
    np.testing.assert_allclose(small.gamma.coefficients, large.gamma.coefficients, atol=1e-12)
    np.testing.assert_allclose(small.beta.coefficients, large.beta.coefficients, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(frac=st.floats(0.2, 0.999), units=st.floats(0.01, 20.0),
       t_f=st.floats(-3.0, 3.0).map(lambda e: 10.0**e))
def test_antedated_beta_meets_its_conditions(frac, units, t_f):
    """Wherever antedated_pair builds, its beta = B0 + b B1 misses none of its
    six conditions by more than fit's bound: FIT_TOL times the largest
    condition value (at least 1). The basis it carries takes no part in
    comparing or hashing pairs."""
    try:
        pair = antedated_pair(t_f, frac * t_f, units * 0.5 * PI / t_f)
    except Infeasible:
        return
    basis, b = pair.antedated
    assert pair.gamma is basis.gamma
    t_s = gamma_dot_zero_crossing(pair.gamma)
    conditions = schedule._antedated_beta_conditions(pair.switch_fraction, t_s, b)
    scale = max(1.0, max(abs(c.value) for c in conditions))
    values = [c.value for c in conditions]
    assert np.abs(misfit(pair.beta.coefficients, conditions, values)).max() <= FIT_TOL * scale
    plain = SchedulePair(pair.gamma, pair.beta, pair.t_f, pair.t_a)
    assert plain.antedated is None
    assert plain == pair and hash(plain) == hash(pair)
