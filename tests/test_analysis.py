import dataclasses
import math
import time
import types

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iecpulse import analysis, errors, poly, pulse, schedule
from iecpulse.analysis import (
    DELTA_FINITE_BOUND,
    _Sweep,
    _sweep_point,
    compare_passages,
    energy_cost,
    max_adiabaticity_metric,
    sweep_beta_dot0,
    validate_schedule,
)
from iecpulse.dynamics import (Weights, adiabatic_state, bloch_vector, evolve, fidelity,
                               invariant_residual, invariant_state)
from iecpulse.errors import DegeneratePoint, DivergentPulse, NoFeasiblePoint, StepTooCoarse
from iecpulse.pulse import adiabaticity_metric
from iecpulse.poly import Condition, Polynomial, fit, real_roots
from iecpulse.schedule import SchedulePair, antedated_pair, fourth_order_pair, third_order_pair
from iecpulse.schedule import gamma_dot_zero_crossing
from test_poly import reference_real_roots

PI = math.pi
W = Weights(0.2, 0.8)


def _trapezoid_cost(pair, s_end=1.0, n=1 << 19):
    """Independent pulse-area oracle: direct formula, explicit trapezoid sum."""
    s = np.linspace(0.0, s_end, n + 1)
    dg = pair.gamma.derivative()(s)
    omega = dg / np.sin(pair.beta(s))
    # both factors vanish at isolated points; patch by one-sided neighbors
    bad = ~np.isfinite(omega)
    if bad.any():
        omega[bad] = 0.5 * (np.roll(omega, 1)[bad] + np.roll(omega, -1)[bad])
    return float(np.sum(0.5 * (omega[1:] + omega[:-1])) * (s_end / n))


def test_energy_cost_third_order_matches_oracle():
    pair = third_order_pair(1.0)
    assert energy_cost(pair) == pytest.approx(_trapezoid_cost(pair), abs=1e-6)


def test_energy_cost_equal_across_usual_passages():
    costs = [
        energy_cost(third_order_pair(1.0)),
        energy_cost(fourth_order_pair(1.0, 2 * PI / 5)),
        energy_cost(fourth_order_pair(1.0, 2 * PI / 6)),
    ]
    assert max(costs) - min(costs) < 1e-9


def test_energy_cost_antedated_matches_oracle():
    pair = antedated_pair(1.0, 0.5)
    assert energy_cost(pair) == pytest.approx(_trapezoid_cost(pair, s_end=0.5), abs=1e-5)


def test_energy_cost_at_reported_optimum():
    pair = antedated_pair(1.0, 0.5, 5.232 * 0.5 * PI)
    assert energy_cost(pair) == pytest.approx(3.230, abs=0.01)


def test_energy_cost_scale_invariant():
    for t_f in (1.0, 1000.0):
        pair = antedated_pair(t_f, 0.5 * t_f, 0.5 * PI / t_f)
        assert energy_cost(pair) == pytest.approx(3.5509, abs=1e-3)


def _stored_area(pair, dps=30):
    """mpmath integral of the stored polynomials' gamma_dot / sin(beta) over
    the driven segment, cut at beta's stationary points."""
    s_end = pair.switch_fraction or 1.0
    cuts = {0.0, s_end, *real_roots(pair.beta.derivative(), 0.0, s_end)}
    with mp.workdps(dps):
        dg = [mp.mpf(float(c)) for c in pair.gamma.derivative().coefficients[::-1]]
        b = [mp.mpf(float(c)) for c in pair.beta.coefficients[::-1]]
        return float(mp.quad(lambda s: mp.polyval(dg, s) / mp.sin(mp.polyval(b, s)),
                             [mp.mpf(c) for c in sorted(cuts)]))


@pytest.mark.parametrize("t_f, frac, units", [
    (780.7678273465917, 0.3576194965344188, 2.997989949748744),
    (1.0, 0.4628053505924294, 1.727638190954774),
    (1.0, 0.3936363636363637, 1.0),
])
def test_energy_cost_matches_stored_polynomial_integral(t_f, frac, units):
    # adaptive Simpson stopped early on these (its first halves agreed by
    # accident): 6.5e-6, 2.4e-7 and 3.0e-7 off
    pair = antedated_pair(t_f, frac * t_f, units * 0.5 * PI / t_f)
    assert energy_cost(pair) == pytest.approx(_stored_area(pair), abs=1e-8)


def test_energy_cost_resolves_narrow_peak():
    # beta passes within 5.4e-5 of -pi near s = 0.3711 (beta + pi has a
    # complex root pair there), so omega peaks at 1.2e5 over a width of
    # ~1e-3; a 30-digit mpmath rebuild of this design integrates to
    # 552.2669488295. The stored double-precision polynomials integrate to
    # 552.26694880185: the 2.7e-8 between the two is the rounding of the
    # fit's coefficients, magnified by 1 / sin(beta)
    t_f = 158.03918506664547
    pair = antedated_pair(t_f, 99.11881451794792, 0.8179669548296351 * 0.5 * PI / t_f)
    start = time.perf_counter()
    cost = energy_cost(pair)
    assert time.perf_counter() - start < 10.0
    assert cost == pytest.approx(552.2669488295, abs=1e-7)
    assert cost == pytest.approx(_stored_area(pair, dps=40), abs=1e-8)


def test_validate_third_order_all_clear():
    pair = third_order_pair(1.0)
    report = validate_schedule(pair)
    assert report.feasible
    assert report.omega_r_nonnegative and report.delta_finite and report.gamma_range_ok
    assert report.messages == []
    assert 0.0 < max_adiabaticity_metric(pair) < 1.0


#: Pairs of every family for the grid-pass tests, with their ids.
GRID_PAIRS = {
    "third": lambda: third_order_pair(1.0),
    "third-37": lambda: third_order_pair(37.0),
    "fourth-1.2": lambda: fourth_order_pair(1.0, 1.2),
    "fourth-2.0": lambda: fourth_order_pair(3.0, 2.0),
    "fourth-critical": lambda: fourth_order_pair(1.0, schedule.critical_gamma_mid() + 1e-3),
    "antedated": lambda: antedated_pair(1.0, 0.5),
    "antedated-0.65": lambda: antedated_pair(2.0, 1.3, 1.7),
}


@pytest.mark.parametrize("build", GRID_PAIRS.values(), ids=GRID_PAIRS.keys())
def test_one_grid_pass_gives_the_metric_maximum_and_the_detuning_peak(build):
    """The grid pass's metric peak is the metric on the midpoints, bit for
    bit, and its detuning peak the real waveform's there: the complex pass's
    real parts are the samples _Waveform.fields makes."""
    pair = build()
    wave = pulse._waveform(pair)
    s = pulse._driven_grid(wave.end)
    assert max_adiabaticity_metric(pair) == adiabaticity_metric(pair, s).max()
    assert wave.grid.delta_peak == np.abs(wave.delta_many(s)).max()
    assert all(type(v) is float for v in dataclasses.astuple(wave.grid))


@pytest.mark.parametrize("build", GRID_PAIRS.values(), ids=GRID_PAIRS.keys())
def test_a_grid_pass_evaluates_each_sample_once(build, monkeypatch):
    """The metric, Omega's least value and the detuning peak come from one
    pass: GRID_POINTS + 2 samples through _quotients, the ends included."""
    wave = pulse._Waveform(build())
    samples = []
    quotients = pulse._quotients
    monkeypatch.setattr(pulse, "_quotients", lambda st, u: samples.append(len(u)) or quotients(st, u))
    assert wave.grid.delta_peak > 0.0
    assert sum(samples) == pulse.GRID_POINTS + 2


@pytest.mark.parametrize("build", [
    *GRID_PAIRS.values(),
    lambda: fourth_order_pair(1.0, schedule.critical_gamma_mid()),  # sin(gamma) of order 3 at 1
    # driven samples past s = 0.25 take the order -1 of the divergence at 0.500002
    lambda: SchedulePair(third_order_pair(1.0).gamma, Polynomial([-PI / 2, PI / 1.000004]), 1.0, 0.5),
], ids=[*GRID_PAIRS.keys(), "fourth-at-critical", "divergent-past-switch"])
def test_the_metric_pass_real_parts_are_the_real_fields(build):
    """At the metric's complex step the real parts of omega_r and delta are
    the real pass's byte for byte, on the grid pass's samples."""
    wave = pulse._Waveform(build())
    s = np.concatenate(([0.0], pulse._driven_grid(wave.end), [wave.end]))
    _, gen, delta = pulse._metric(wave, s)
    om, dl = wave.fields(s)
    assert delta.tobytes() == dl.tobytes()
    assert gen.tobytes() == np.hypot(om, dl).tobytes()


def test_validate_flags_early_antedating():
    # antedated_pair(1.0, 0.25) built from its fits, past the range rule
    gamma = schedule._antedated_gamma(0.25)
    t_s = gamma_dot_zero_crossing(gamma)
    beta = fit(schedule._antedated_beta_conditions(0.25, t_s, 0.5 * PI), 5)
    pair = SchedulePair(gamma, beta, 1.0, 0.25)
    report = validate_schedule(pair)
    assert not report.gamma_range_ok
    assert not report.feasible


def test_validate_flags_subcritical_fourth_order():
    # fourth_order_pair(1.0, 2 pi / 7) built from its fits, past the range rule
    gamma = fit(schedule._gamma_conditions() + [Condition(0.5, 0, 2 * PI / 7)], 4)
    pair = SchedulePair(gamma, schedule._cubic_beta(), 1.0, None)
    with pytest.raises(DivergentPulse, match=r"waveform diverges at s = 0\.905455"):
        validate_schedule(pair)


def test_validate_raises_where_the_design_diverges():
    # beyond the feasible band at t_a = 0.71: the message check and evolve print
    pair = antedated_pair(1.0, 0.71, 8.17 * 0.5 * PI)
    with pytest.raises(DivergentPulse, match=r"waveform diverges at s = 0\.195259"):
        validate_schedule(pair)
    with pytest.raises(DivergentPulse, match=r"waveform diverges at s = 0\.195259"):
        max_adiabaticity_metric(pair)


def test_level_crossing_is_a_gap_below_1e_12():
    # both sides of the 1e-12 floor of Omega t_f, the metric's (_check_gap) and
    # the mixing angle's (adiabatic_state): gamma = 1 + gap s and beta = -pi/2
    # give Omega t_f = |omega_r| t_f = gap at every s
    above, below = (SchedulePair(Polynomial([1.0, gap]), Polynomial([-PI / 2]), 1.0, None)
                    for gap in (1e-11, 1e-13))
    s = np.linspace(0.0, 1.0, 11)
    assert max_adiabaticity_metric(above) == 0.0
    assert adiabaticity_metric(above, 0.4) == 0.0
    assert np.isfinite(adiabatic_state(above, W, s)).all()
    for call in (lambda: max_adiabaticity_metric(below), lambda: adiabaticity_metric(below, 0.4),
                 lambda: adiabatic_state(below, W, s)):
        with pytest.raises(DegeneratePoint):
            call()


def _cubic_rate_pair(gap):
    """gamma_dot = -((s - 1/2)^2 - gap) and beta = -0.001: omega_r is about
    1000 ((s - 1/2)^2 - gap), and gamma stays near pi/2."""
    gamma = Polynomial([PI / 2, -(0.25 - gap), 0.5, -1.0 / 3.0])
    return SchedulePair(gamma, Polynomial([-0.001]), 1.0, None)


def test_omega_r_sign_is_decided_between_rate_zeros(monkeypatch):
    # omega_r dips to -1e-7 only on |s - 1/2| < 1e-5, between two samples of
    # a 10 000-point midpoint grid; a double zero of gamma_dot only touches 0
    dip, touch = _cubic_rate_pair(1e-10), _cubic_rate_pair(0.0)
    samples = []
    omega_many = pulse._Waveform.omega_many
    monkeypatch.setattr(pulse._Waveform, "omega_many",
                        lambda self, s: samples.append(len(s)) or omega_many(self, s))
    report = validate_schedule(dip)
    assert not report.omega_r_nonnegative and not report.feasible
    assert report.messages == ["omega_r turns negative (min -1.000e-07 * 1/t_f)"]
    assert validate_schedule(touch).omega_r_nonnegative
    # one sample between consecutive zeros of gamma_dot: 3 intervals, then 2
    assert samples == [3, 2]


def test_omega_r_identically_zero_is_nonnegative():
    # a constant gamma makes omega_r = 0 / sin(beta) = -0.0 everywhere: the
    # sign test has no slack, and zero is no negative value
    static = SchedulePair(Polynomial([2.0]), Polynomial([-1.2, 0.3]), 1.0, None)
    assert pulse._waveform(static).omega(0.5) == 0.0
    report = validate_schedule(static)
    assert report.omega_r_nonnegative and report.messages == []


def test_sweep_reproduces_half_switch_minimum():
    result = sweep_beta_dot0(1.0, 0.5, 4.0, 6.5, 26)
    u_star, cost_star = result.minimum
    # the area floor holds on every row; all of them are feasible here
    _assert_area_floor(_Sweep(1.0, 0.5).gamma, 0.5, [*result.cost, cost_star])
    assert u_star == pytest.approx(5.232, abs=0.05)
    assert cost_star == pytest.approx(3.230, abs=0.01)
    assert cost_star >= PI - 1e-6
    assert result.feasible.all()
    assert cost_star <= result.cost[result.feasible].min() + 1e-12


def test_sweep_grid_contents():
    result = sweep_beta_dot0(1.0, 0.5, 1.0, 2.0, 11)
    assert len(result.units) == len(result.cost) == len(result.feasible) == 11
    assert list(result.units) == pytest.approx(list(np.linspace(1, 2, 11)))


def test_sweep_no_feasible_point():
    with pytest.raises(NoFeasiblePoint):
        sweep_beta_dot0(1.0, 0.5, 400.0, 500.0, 10)


def test_sweep_counts_unbuildable_schedules_as_infeasible():
    # at t_a = 0.999 t_f every antedated fit fails its residual check
    with pytest.raises(NoFeasiblePoint):
        sweep_beta_dot0(1.0, 0.999, 4.0, 6.0, 10)


def test_sweep_decides_and_costs_as_per_schedule_path():
    for frac in (0.25, 0.2551, 0.3, 0.45, 0.6, 0.71, 0.77, 0.85):  # 0.25: gamma below -pi
        units = np.linspace(0.25, 10.0, 40)
        try:
            cost, ok = _Sweep(1.0, frac).evaluate(units)
        except errors.Infeasible:
            cost, ok = np.full(len(units), math.nan), np.zeros(len(units), dtype=bool)
        for u, c, f in zip(units, cost, ok):
            ref, ref_ok = _sweep_point(1.0, frac, float(u))
            assert f == ref_ok, (frac, u)
            assert c == ref or math.isnan(c) and math.isnan(ref) and not f


def _per_candidate_cost(self, c):
    """_Sweep._cost with one reference root call per candidate, on the
    derivative of its fitted beta (a column of c), and the _areas integrand."""
    cuts = [reference_real_roots(d, 0.0, self.s_end) for d in poly._derivative(c).T]
    width = max(map(len, cuts)) + 1
    edges = [[0.0, *r] + [self.s_end] * (width - len(r)) for r in cuts]
    return analysis._areas(self.gamma, c, np.array(edges))


def _floats_near(x, n=8):
    """x, then the n floats on each side of it, nearest first."""
    up = down = x
    yield x
    for _ in range(n):
        up, down = np.nextafter(up, math.inf), np.nextafter(down, -math.inf)
        yield from (up, down)


def _degree_drop(sweep):
    """The units of a b whose fitted beta, and so its derivative, has degree
    4: b0_5 + b b1_5 is exactly 0. Such a b is sought among the floats next
    to -b0_5 / b1_5, and its units among those next to b / (pi / 2)."""
    b05, b15 = sweep.b0.coefficients[-1], sweep.b1.coefficients[-1]
    for b in _floats_near(-b05 / b15):
        if sweep.basis.fit(np.array([b]))[0][-1, 0] == 0.0:
            for u in _floats_near(b * 2.0 / PI):
                if schedule.beta_dot0_rate(u, 1.0) * 1.0 == b:  # as evaluate rounds it
                    return float(u)
    pytest.fail("no float b zeroes the fitted quintic coefficient")


@pytest.mark.parametrize("frac, units, drop_feasible", [
    (0.5, np.linspace(0.1, 8.0, 200), True),  # the README sweep
    # where the band narrows to (5.51, 5.75) units, before it empties
    (0.77, np.concatenate([np.linspace(0.05, 10.0, 200), np.linspace(5.5, 5.76, 40)]), False),
])
def test_sweep_costs_match_per_candidate_roots(monkeypatch, frac, units, drop_feasible):
    sweep = _Sweep(1.0, frac)
    units = np.append(units, _degree_drop(sweep))
    cost, ok = sweep.evaluate(units)
    assert ok[-1] == drop_feasible and ok.sum() >= 10
    monkeypatch.setattr(_Sweep, "_cost", _per_candidate_cost)
    ref_cost, ref_ok = sweep.evaluate(units)
    assert np.array_equal(ok, ref_ok)
    assert np.array_equal(cost, ref_cost, equal_nan=True)


def _sweep_decision(t_f, t_a, units):
    """(cost, feasible) of one beta_dot0 by _Sweep; a _Sweep that cannot be
    built makes every candidate infeasible, as in sweep_beta_dot0."""
    try:
        sweep = _Sweep(t_f, t_a)
    except errors.Infeasible:
        return math.nan, False
    cost, ok = sweep.evaluate(np.array([units]))
    return float(cost[0]), bool(ok[0])


def _evenly(lo, hi):
    """A float on [lo, hi] whose 256th part is drawn evenly (Hypothesis's
    floats and long ranges favour their ends; sampled_from draws a short
    list's index evenly), and its place in that part by st.floats."""
    return st.tuples(st.sampled_from(range(256)), st.floats(0.0, 1.0)).map(
        lambda kx: lo + (hi - lo) * (kx[0] + kx[1]) / 256)


@settings(max_examples=100)
@given(frac=_evenly(0.2, 0.99), units=_evenly(0.05, 10.0),
       t_f=_evenly(-3.0, 3.0).map(lambda e: 10.0**e))
@example(frac=schedule.critical_t_a() * (1 + 1e-9), units=4.0, t_f=1.0)  # a*
@example(frac=0.77376, units=5.0, t_f=37.0)  # where the band empties
def test_sweep_agrees_with_per_schedule_path_over_the_design_space(frac, units, t_f):
    try:
        cost, ok = _sweep_decision(t_f, frac * t_f, units)
        ref, ref_ok = _sweep_point(t_f, frac * t_f, units)
        unit_cost, unit_ok = _sweep_decision(1.0, frac, units)
    except Exception as exc:  # only the package's typed errors may escape
        assert type(exc).__module__ == errors.__name__, repr(exc)
        return
    assert ok == ref_ok == unit_ok
    if ok:
        assert cost == ref  # one definition: the pair is costed by the sweep's _cost
        assert cost == pytest.approx(unit_cost, rel=1e-9)  # dimensionless: no t_f
    else:
        assert math.isnan(cost)
    # the waveform builds exactly in the band, and omega_r > 0 there (_band)
    in_band, omega_r = _band_and_drive(t_f, frac * t_f, units)
    assert in_band == (omega_r is not None)
    assert omega_r is None or (omega_r > 0).all()


@settings(max_examples=300)
@given(family=st.sampled_from(["third", "fourth", "antedated"]), mid=_evenly(0.3, 3.1),
       frac=_evenly(0.01, 0.999), units=_evenly(0.01, 20.0),
       t_f=_evenly(-6.0, 6.0).map(lambda e: 10.0**e))
def test_every_schedule_gives_results_or_typed_errors(family, mid, frac, units, t_f):
    # one schedule through the library in the CLI's order: only the
    # package's typed errors may escape, and a feasible schedule's waveforms
    # satisfy the invariant equation. The same draw at t_f = 1 raises the
    # same error, or gives the same dimensionless results to 1e-9 of their peaks.
    # A feasible draw's RK4 run from the invariant-basis state stays on it to
    # the RK4 agreement bound, 1e-6, or raises StepTooCoarse.
    out, unit = (_library_run(family, mid, frac, units, x) for x in (t_f, 1.0))
    if isinstance(out, type) or isinstance(unit, type):
        assert out is unit
        return
    pair, table, report, cost, metric, residual = out
    assert math.isfinite(cost) and math.isfinite(metric)
    assert not report.feasible or residual.max() < 1e-8
    if report.feasible:
        _assert_area_floor(pair.gamma, pair.switch_fraction or 1.0, [cost])
    _, unit_table, _, unit_cost, unit_metric, _ = unit
    for x, ref in ((table.omega_r, unit_table.omega_r), (table.delta, unit_table.delta),
                   (cost, unit_cost), (metric, unit_metric)):
        assert np.abs(x - ref).max() <= 1e-9 * np.abs(ref).max()
    if report.feasible:
        try:
            run = evolve(pair, invariant_state(pair, W, 0.0), 2000)
        except StepTooCoarse:
            return
        assert np.abs(run.rho - invariant_state(pair, W, run.t / pair.t_f)).max() <= 1e-6


def _assert_area_floor(gamma, s_end, costs):
    """Each cost is at least gamma's total variation on [0, s_end], and that
    is at least pi to rounding: omega_r = gamma_dot / sin(beta), so a
    feasible design's |omega_r| >= |gamma_dot|, and gamma runs from pi to 0
    there. The variation is exact from gamma's stationary points."""
    x = np.array([0.0, *(r for r in gamma.stationary_points if 0.0 < r < s_end), s_end])
    variation = float(np.abs(np.diff(gamma(x))).sum())
    assert variation >= PI - 1e-12
    assert all(c >= variation for c in costs), (min(costs), variation)


def _library_run(family, mid, frac, units, t_f):
    """The pair, synthesize table, validation report, cost, metric and residual
    of one drawn schedule at t_f, or the type of the package's error it raised."""
    try:
        pair = (third_order_pair(t_f) if family == "third" else
                fourth_order_pair(t_f, mid) if family == "fourth" else
                antedated_pair(t_f, frac * t_f, schedule.beta_dot0_rate(units, t_f)))
        table = pulse.synthesize(pair, 200)
        report = validate_schedule(pair)
        cost = energy_cost(pair)
        metric = max_adiabaticity_metric(pair)
        residual = invariant_residual(pair, np.linspace(0.0, 1.0, 201))
    except Exception as exc:
        assert type(exc).__module__ == errors.__name__, repr(exc)
        return type(exc)
    return pair, table, report, cost, metric, residual


def _assert_as_its_factored_waveform(pair, beta_dot0):
    """A sweep decides the row of an antedated_pair at b = beta_dot0 t_f,
    rounded as antedated_pair rounds it, by the detuning kernel on the
    stations 0 and t_a / t_f alone; the waveform of the same polynomials,
    which a plain SchedulePair takes, finds its own stations. The row's
    delta is the waveform's at every sample of the grid, and its peak the
    one validate_schedule reads, bit for bit. Costs and reports are equal:
    the pulse area and the verdict have one definition each, whoever built
    the pair."""
    sweep, b = _Sweep(pair.t_f, pair.t_a), np.array([float(beta_dot0) * pair.t_f])
    wave = pulse._waveform(pair)
    reference = wave.delta_many(pulse._driven_grid(wave.end))
    peak, cot, rate = sweep.detuning(sweep.basis.fit(b)[0])
    assert np.array_equal(cot[0] - rate[0], reference)
    assert peak[0] == np.abs(reference).max() == wave.grid.delta_peak
    plain = SchedulePair(pair.gamma, pair.beta, pair.t_f, pair.t_a)
    assert energy_cost(pair) == energy_cost(plain)
    assert validate_schedule(pair) == validate_schedule(plain)


@settings(max_examples=60, deadline=None)
@given(frac=_evenly(schedule.critical_t_a() * (1 + 1e-9), 0.7737),
       where=_evenly(1e-3, 1.0 - 1e-3), t_f=_evenly(-3.0, 3.0).map(lambda e: 10.0**e))
def test_antedated_pair_is_decided_and_costed_as_its_factored_waveform(frac, where, t_f):
    """where places beta_dot0 t_f across the positive part of the band."""
    lo, hi = _Sweep(t_f, frac * t_f).band
    lo = max(lo, 0.0)
    beta_dot0 = (lo + (hi - lo) * where) / t_f
    _assert_as_its_factored_waveform(antedated_pair(t_f, frac * t_f, beta_dot0), beta_dot0)


def test_narrow_peak_is_costed_as_its_factored_waveform():
    t_f = 158.03918506664547
    beta_dot0 = 0.8179669548296351 * 0.5 * PI / t_f
    _assert_as_its_factored_waveform(antedated_pair(t_f, 99.11881451794792, beta_dot0), beta_dot0)


def test_energy_cost_of_an_antedated_pair_is_its_waveform_area(monkeypatch):
    # one definition of the area: once synthesize has built the pair's waveform,
    # energy_cost builds no _Sweep and seeks no root, and it is the sweep's cost
    pair = antedated_pair(1.0, 0.5, schedule.beta_dot0_rate(5.0, 1.0))
    pulse.synthesize(pair, 100)
    calls = []
    init, roots = _Sweep.__init__, poly.stacked_real_roots

    def counted(*args):
        calls.append("roots")
        return roots(*args)

    monkeypatch.setattr(_Sweep, "__init__",
                        lambda self, *args: calls.append("_Sweep") or init(self, *args))
    monkeypatch.setattr(poly, "stacked_real_roots", counted)
    monkeypatch.setattr(analysis, "stacked_real_roots", counted)
    cost = energy_cost(pair)
    assert calls == []
    monkeypatch.undo()
    assert cost == _Sweep(1.0, 0.5).evaluate(np.array([5.0]))[0][0]


def _band_and_drive(t_f, t_a, units):
    """Whether beta_dot0 lies in _Sweep's band with gamma in range, and
    omega_r on the driven grid if the waveform builds, else None."""
    b = schedule.beta_dot0_rate(units, t_f) * t_f
    try:
        sweep = _Sweep(t_f, t_a)
        in_band = sweep.band[0] < b < sweep.band[1]
    except errors.Infeasible:
        in_band = False
    try:
        wave = pulse._waveform(antedated_pair(t_f, t_a, schedule.beta_dot0_rate(units, t_f)))
    except (errors.Infeasible, DivergentPulse):
        return in_band, None
    return in_band, wave.omega_many(pulse._driven_grid(wave.end))


@pytest.mark.parametrize("frac", [0.3, 0.5, 0.77])
def test_sweep_costs_do_not_depend_on_how_rows_are_grouped(frac):
    # gauss_legendre sums each piece from its own nodes only, so evaluate can
    # cost every feasible row in one call
    sweep = _Sweep(1.0, frac)
    lo, hi = sweep.band
    units = np.linspace(lo, hi, 202)[1:-1] * 2.0 / PI
    cost, ok = sweep.evaluate(units)
    c = sweep.basis.fit(schedule.beta_dot0_rate(units[ok], 1.0))[0]
    assert c.shape[1] >= 150
    whole = sweep._cost(c)
    assert np.array_equal(cost[ok], whole)
    for block in (1, 8):
        parts = [sweep._cost(c[:, i : i + block]) for i in range(0, c.shape[1], block)]
        assert np.array_equal(np.concatenate(parts), whole), block


def _kernel_verdicts(sweep, b):
    """The detuning kernel's verdict on every candidate that passes the band
    and fit checks, 16 rows at a time (a row's peak does not depend on the
    rows beside it); False elsewhere."""
    lo, hi = sweep.band
    c, fits = sweep.basis.fit(b)
    rows = np.flatnonzero((lo < b) & (b < hi) & fits)
    ok = np.zeros(len(b), dtype=bool)
    for i in range(0, len(rows), 16):
        block = rows[i : i + 16]
        ok[block] = sweep.detuning(c[:, block])[0] <= analysis.DELTA_FINITE_BOUND
    return ok


@settings(max_examples=60, deadline=None)
@given(frac=_evenly(schedule.critical_t_a() * (1 + 1e-9), 0.7737),
       t_f=_evenly(-3.0, 3.0).map(lambda e: 10.0**e),
       ends=st.tuples(_evenly(-0.3, 0.6), _evenly(-0.3, 0.6)),
       n=st.integers(10, 400), shuffle=st.randoms(use_true_random=False))
@example(frac=0.77, t_f=1.0, ends=(0.0, 0.0), n=400, shuffle=None)  # ~35 fail at each end
@example(frac=0.71, t_f=1.0, ends=(-0.99, 0.0), n=400, shuffle=None)  # 8.154 units fails
def test_sweep_verdicts_are_the_grid_verdicts(frac, t_f, ends, n, shuffle):
    """evaluate proves most band rows from the kernel rows near the band's
    ends; its verdicts are the kernel's on every band row. The candidates
    run from ends[0] band widths below the band's low edge to ends[1] above
    its high edge (negative: inside), in order or shuffled."""
    sweep = _Sweep(t_f, frac * t_f)
    lo, hi = sweep.band
    units = np.linspace(lo - ends[0] * (hi - lo), hi + ends[1] * (hi - lo), n) * 2.0 / PI
    if shuffle is not None:
        shuffle.shuffle(units)
    cost, ok = sweep.evaluate(units)
    b = schedule.beta_dot0_rate(units, t_f) * t_f
    assert np.array_equal(ok, _kernel_verdicts(sweep, b))
    assert np.array_equal(np.isnan(cost), ~ok)


def _kernel_rows(monkeypatch):
    """Wrap _Sweep.detuning to record each call's fitted betas and peaks."""
    calls = []
    detuning = _Sweep.detuning

    def recorded(self, c):
        out = detuning(self, c)
        calls.append((c, out[0]))
        return out

    monkeypatch.setattr(_Sweep, "detuning", recorded)
    return calls


def _assert_grid_rows(monkeypatch, frac, lo, hi, n):
    """The sizes of the kernel calls of one sweep at t_f = 1. Each row's peak
    is its pair's grid-pass peak, the one validate_schedule reads."""
    calls = _kernel_rows(monkeypatch)
    result = sweep_beta_dot0(1.0, frac, lo, hi, n)
    assert result.feasible.sum() > 100
    gamma = _Sweep(1.0, frac).gamma
    for c, peak in calls:
        for column, p in zip(c.T, peak):
            assert p == pulse._waveform(SchedulePair(gamma, Polynomial(column), 1.0, frac)).grid.delta_peak
    return [len(peak) for _, peak in calls]


def test_sweep_grid_rows_stay_near_the_band_ends(monkeypatch):
    # the README sweep: the two band-end rows reach the grid and the bound
    # proves the other 198 candidates, and the refined minimum between them
    assert _assert_grid_rows(monkeypatch, 0.5, 0.1, 8.0, 200) == [2]


def test_sweep_grid_rows_move_inward_while_the_band_ends_fail(monkeypatch):
    # inside the band (5.511, 5.750) at t_a = 0.77 t_f rows fail near both
    # ends: one row from each end per call until the bound proves the rest,
    # the refined minimum among them
    assert _assert_grid_rows(monkeypatch, 0.77, 5.52, 5.74, 400) == [2] * 48


@pytest.mark.parametrize("frac", [0.3, 0.5, 0.7, 0.77])
def test_proved_interval_decides_off_grid_rows_as_the_kernel(monkeypatch, frac):
    """After a grid, evaluate decides b strictly inside sweep.proved without
    the kernel; the proof covers every b between its two rows, not only grid
    rows, so each verdict and cost is a fresh _Sweep's kernel verdict and
    _cost at that b. At 0.77 rows fail near both band ends, and the proof
    passes only on a later pair."""
    sweep = _Sweep(1.0, frac)
    lo, hi = sweep.band
    calls = _kernel_rows(monkeypatch)
    sweep.evaluate(np.linspace(lo, hi, 202)[1:-1] * 2.0 / PI)
    p, q = sweep.proved
    assert lo < p < q < hi
    # the interval ends at the last kernel pair's rows, no further
    assert np.array_equal(calls[-1][0], sweep.basis.fit(np.array([p, q]))[0])
    units = np.random.default_rng(0).uniform(p, q, 50) * 2.0 / PI
    b = schedule.beta_dot0_rate(units, 1.0)
    assert ((p < b) & (b < q)).all()
    calls.clear()
    cost, ok = sweep.evaluate(units)
    assert calls == []
    fresh = _Sweep(1.0, frac)
    assert ok.all() and np.array_equal(ok, _kernel_verdicts(fresh, b))
    assert np.array_equal(cost, fresh._cost(fresh.basis.fit(b)[0]))


def test_band_rows_no_pair_proves_are_each_evaluated_once(monkeypatch):
    # at t_a = 0.7737 t_f no row of the band passes, so no proof does:
    # 11 band rows take five pairs from the ends inward and the lone middle row
    calls = _kernel_rows(monkeypatch)
    sweep = _Sweep(1.0, 0.7737)
    lo, hi = sweep.band
    assert not sweep.evaluate(np.linspace(lo, hi, 13)[1:-1] * 2.0 / PI)[1].any()
    assert [len(peak) for _, peak in calls] == [2] * 5 + [1]
    assert sweep.proved == (0.0, 0.0)


def test_proof_between_rows_keeps_its_margin(monkeypatch):
    # the bound B of two in-band rows as _proved_between's docstring states it:
    # per sample, the larger |cot term| of the two plus their larger
    # |beta_dot|. The proof holds only below DELTA_FINITE_BOUND (1 - 1e-9).
    sweep = _Sweep(1.0, 0.5)
    lo, hi = sweep.band
    _, cot, rate = sweep.detuning(sweep.basis.fit(np.array([lo + 0.3 * (hi - lo),
                                                           lo + 0.6 * (hi - lo)]))[0])
    bound = (np.abs(cot).max(axis=0) + np.abs(rate).max(axis=0)).max()
    assert bound == pytest.approx(30.48, abs=5e-3)
    for slack, proved in ((-1e-7, False), (5e-10, False), (2e-9, True)):
        monkeypatch.setattr(analysis, "DELTA_FINITE_BOUND", bound / (1 - slack))
        assert analysis._proved_between(cot, rate) is proved, slack
    # at a tie, bound = DELTA_FINITE_BOUND (1 - 1e-9) exactly, the proof holds
    tie = next(x for x in _floats_near(bound / (1 - 1e-9), 64) if x * (1 - 1e-9) == bound)
    monkeypatch.setattr(analysis, "DELTA_FINITE_BOUND", tie)
    assert analysis._proved_between(cot, rate) is True


@pytest.mark.parametrize("frac", [0.3, 0.5, 0.7])
def test_cost_slopes_are_the_cost_derivatives(frac):
    # C' and C'' by quadrature against five-point central differences of _cost
    sweep = _Sweep(1.0, frac)
    lo, hi = sweep.band
    h = 1e-3 * (hi - lo)
    for where in (0.2, 0.5, 0.8):
        b = lo + (hi - lo) * where
        c = sweep._cost(sweep.basis.fit(b + h * np.arange(-2, 3))[0])
        d1 = (c[0] - 8 * c[1] + 8 * c[3] - c[4]) / (12 * h)
        d2 = (-c[0] + 16 * c[1] - 30 * c[2] + 16 * c[3] - c[4]) / (12 * h * h)
        assert sweep._slopes(b) == pytest.approx((d1, d2), rel=1e-6), where


def _grid_bracket(result):
    """The feasible grid rows next to the best one (the best one itself where
    it has no feasible neighbour on that side), in units."""
    kept = np.flatnonzero(result.feasible)
    best = int(np.argmin(result.cost[kept]))
    return result.units[kept[max(best - 1, 0)]], result.units[kept[min(best + 1, len(kept) - 1)]]


@settings(max_examples=60, deadline=None)
@given(frac=_evenly(schedule.critical_t_a() + 1e-3, 0.7737),
       t_f=_evenly(-3.0, 3.0).map(lambda e: 10.0**e),
       ends=st.tuples(_evenly(-0.3, 0.6), _evenly(-0.3, 0.6)), n=st.integers(10, 400))
@example(frac=0.5, t_f=1.0, ends=(0.0, 0.0), n=200)
@example(frac=0.7736, t_f=1.0, ends=(0.0, 0.0), n=10)  # the band nearly empty
def test_sweep_minimum_is_a_feasible_local_minimum(frac, t_f, ends, n):
    """The grid runs from ends[0] band widths below the band's low edge
    (from 0.05 units at least) to ends[1] above its high edge."""
    sweep = _Sweep(t_f, frac * t_f)
    lo, hi = np.array(sweep.band) * 2.0 / PI
    lo, hi = max(lo - ends[0] * (hi - lo), 0.05), hi + ends[1] * (hi - lo)
    try:
        result = sweep_beta_dot0(t_f, frac * t_f, lo, hi, n)
    except NoFeasiblePoint:
        assert not sweep.evaluate(np.linspace(lo, hi, n))[1].any()
        return
    u_star, c_star = result.minimum
    assert type(u_star) is float and type(c_star) is float
    check, ok = _sweep_point(t_f, frac * t_f, u_star)
    assert ok and check == c_star
    assert c_star >= PI
    assert c_star <= result.cost[result.feasible].min()
    _assert_area_floor(sweep.gamma, frac, [*result.cost[result.feasible], c_star])
    # local minimality, inside the grid bracket the minimum was sought in
    left, right = _grid_bracket(result)
    near = np.array([u for u in (u_star - 1e-5, u_star + 1e-5) if left <= u <= right])
    if len(near):
        cost, ok = sweep.evaluate(near)
        assert (c_star <= cost[ok] * (1 + 1e-12)).all()


@settings(max_examples=60, deadline=None)
@given(frac=_evenly(schedule.critical_t_a() + 1e-3, 0.7737),
       t_f=_evenly(-3.0, 3.0).map(lambda e: 10.0**e),
       ends=st.tuples(_evenly(-0.3, 0.6), _evenly(-0.3, 0.6)), n=st.integers(10, 400))
@example(frac=0.5, t_f=1.0, ends=(0.0, 0.0), n=200)
def test_cost_slope_changes_sign_between_the_best_row_and_its_neighbour(frac, t_f, ends, n):
    """_Sweep.argmin's premise: on the grid of
    test_sweep_minimum_is_a_feasible_local_minimum, C' at the best feasible
    row and at the feasible neighbour C falls towards have opposite signs,
    as C is convex on the band and costs no less at the neighbour."""
    sweep = _Sweep(t_f, frac * t_f)
    lo, hi = np.array(sweep.band) * 2.0 / PI
    lo, hi = max(lo - ends[0] * (hi - lo), 0.05), hi + ends[1] * (hi - lo)
    units = np.linspace(lo, hi, n)
    cost, ok = sweep.evaluate(units)
    kept = np.flatnonzero(ok)
    if not len(kept):
        return
    best = int(np.argmin(cost[kept]))
    near = units[kept[[best, max(best - 1, 0), min(best + 1, len(kept) - 1)]]]
    b, left, right = (schedule.beta_dot0_rate(near, t_f) * t_f).tolist()
    g = sweep._slopes(b)[0]
    end = right if g < 0 else left
    if end != b:
        assert (sweep._slopes(end)[0] < 0) != (g < 0), (b, end)


def _evaluate_calls(monkeypatch):
    """Wrap _Sweep.evaluate to record each call's candidate count."""
    calls = []
    evaluate = _Sweep.evaluate

    def counted(self, units):
        calls.append(len(units))
        return evaluate(self, units)

    monkeypatch.setattr(_Sweep, "evaluate", counted)
    return calls


def test_sweep_minimum_takes_one_evaluation_past_the_grid(monkeypatch):
    # the README sweep: the grid, then the verdict and cost at the minimum;
    # Newton settles in a few slope calls where bisection alone takes ~35
    calls = _evaluate_calls(monkeypatch)
    slopes = []
    slope = _Sweep._slopes
    monkeypatch.setattr(_Sweep, "_slopes", lambda self, b: slopes.append(b) or slope(self, b))
    result = sweep_beta_dot0(1.0, 0.5, 0.1, 8.0, 200)
    assert calls == [200, 1]
    assert len(slopes) == 3
    assert result.minimum[1] < result.cost.min()


def test_sweep_minimum_past_the_grid_end_is_the_end_row(monkeypatch):
    # C' < 0 over all of 4..5 units (the minimum lies near 5.23)
    calls = _evaluate_calls(monkeypatch)
    result = sweep_beta_dot0(1.0, 0.5, 4.0, 5.0, 20)
    sweep = _Sweep(1.0, 0.5)
    assert sweep._slopes(schedule.beta_dot0_rate(5.0, 1.0))[0] < 0
    assert result.feasible.all()
    assert result.minimum == (5.0, result.cost[-1])
    assert calls == [20]


def test_sweep_minimum_of_a_grid_with_one_feasible_row():
    # the band at t_a = 0.7649 t_f spans 5.43 to 5.96 units: one row of ten
    result = sweep_beta_dot0(1.0, 0.7649, 0.05, 10.0, 10)
    assert result.feasible.sum() == 1
    row = int(np.flatnonzero(result.feasible)[0])
    assert result.minimum == (result.units[row], result.cost[row])


@pytest.mark.parametrize("slopes, most", [
    (lambda x: (x - 5.3, 1.0), 3),  # C quadratic: one bisection, then Newton lands on 5.3
    (lambda x: (x - 5.3, 0.0), 41),  # C'' = 0: plain bisection, 8 halved to 8e-12
    (lambda x: (math.atan(x - 5.3), 1 / (1 + (x - 5.3) ** 2)), 82),  # Newton leaves [0, 8]
    (lambda x: ((x - 5.3) ** 5, 5 * (x - 5.3) ** 4), 82),  # Newton shrinks too slowly
], ids=["quadratic", "flat", "atan", "quintic"])
def test_argmin_safeguards_keep_newton_in_its_bracket(slopes, most):
    """argmin on a stand-in C' with its one sign change at 5.3 in the bracket
    [0, 8]: every slope is read inside the bracket, the steps shrink at
    least as fast as bisection's every second step, so at most twice its
    41 calls, and the last step, at most 1e-12 of 8, bounds the error."""
    xs = []
    fake = types.SimpleNamespace(_slopes=lambda x: xs.append(x) or slopes(x))
    assert _Sweep.argmin(fake, 0.0, 0.0, 8.0) == pytest.approx(5.3, abs=8e-12)
    assert all(0.0 <= x <= 8.0 for x in xs)
    assert len(xs) <= most


@pytest.mark.parametrize("pocket, refined", [
    ((5.15, 5.35), False),  # the minimum, near 5.23, is infeasible: the grid row stays
    ((5.25, 5.45), True),  # rows past the best (5.2) are infeasible; the minimum is not
])
def test_sweep_minimum_when_the_bracket_straddles_infeasible_rows(monkeypatch, pocket, refined):
    """Rows with beta_dot0 in pocket (units) fail the detuning verdict, so
    the best grid row's feasible neighbour lies across them."""
    verdict = _Sweep._detuning_in_band
    lo, hi = schedule.beta_dot0_rate(np.array(pocket), 1.0)

    def holed(self, c, b):
        ok = verdict(self, c, b) & ~((lo < b) & (b < hi))
        self.proved = (0.0, 0.0)  # no proof covers the pocket: every later b reaches holed
        return ok

    monkeypatch.setattr(_Sweep, "_detuning_in_band", holed)
    result = sweep_beta_dot0(1.0, 0.5, 4.0, 6.5, 26)
    units = result.units[result.feasible]
    assert not ((pocket[0] < units) & (units < pocket[1])).any()
    left, right = _grid_bracket(result)
    assert left < pocket[0] < pocket[1] < right
    u_star, c_star = result.minimum
    assert c_star <= result.cost[result.feasible].min()
    assert _sweep_point(1.0, 0.5, u_star)[1]
    assert (u_star not in result.units) == refined
    assert (u_star == pytest.approx(5.2318, abs=1e-4)) == refined


def test_detuning_policy_decides_pinned_point():
    # beta stays inside (-pi, 0) (max -0.0045), but |delta| t_f reaches 1470.6
    sweep = _Sweep(1.0, 0.71)
    b = 8.154 * 0.5 * PI
    assert sweep.band[0] < b < sweep.band[1]
    c, fits = sweep.basis.fit(np.array([b]))
    assert fits[0]
    assert sweep.detuning(c)[0][0] == pytest.approx(1470.64, abs=0.01)
    assert not sweep.evaluate(np.array([8.154]))[1][0]
    assert _sweep_point(1.0, 0.71, 8.154) == (pytest.approx(math.nan, nan_ok=True), False)
    assert "delta exceeds" in validate_schedule(antedated_pair(1.0, 0.71, b)).messages[0]


def _assert_row_is_its_pair(frac, b):
    """The sweep row at b = beta_dot0 t_f (t_f = 1) and its pair's
    validate_schedule: the same detuning peak, bit for bit, and the same
    verdict. Returns the peak and the verdict."""
    sweep = _Sweep(1.0, frac)
    c = sweep.basis.fit(np.array([b]))[0]
    peak, verdict = sweep.detuning(c)[0][0], sweep._detuning_in_band(c, np.array([b]))[0]
    pair = antedated_pair(1.0, frac, b)
    report = validate_schedule(pair)
    assert peak == pulse._waveform(pair).grid.delta_peak
    assert verdict == report.feasible == report.delta_finite == (peak <= DELTA_FINITE_BOUND)
    return peak, verdict


def test_equal_pairs_get_equal_reports():
    # the detuning peak of this pair lies within rounding of DELTA_FINITE_BOUND
    # (999.9999999995392; gamma' cot(gamma) / tan(beta) - beta' reads
    # 1000.000000000032), so a pair decided by how it was built would differ
    # from its plain twin; a pair is its value, and a sweep row its pair
    pair = antedated_pair(1.0, 0.71, 6.356476554588351)
    plain = SchedulePair(pair.gamma, pair.beta, 1.0, 0.71)
    assert pair == plain and hash(pair) == hash(plain)
    assert validate_schedule(pair) == validate_schedule(plain)
    assert _assert_row_is_its_pair(0.71, 6.356476554588351) == (999.9999999995392, True)


@settings(max_examples=12, deadline=None)
@given(frac=_evenly(schedule.critical_t_a() * (1 + 1e-9), 0.7737))
def test_rows_at_the_detuning_bound_get_their_pairs_verdicts(frac):
    """From the least-peak row of 32 across the band, bisect units towards the
    high edge, where |delta| grows without bound, until the peak lies within
    1e-9 relative of DELTA_FINITE_BOUND; there the sweep row and
    validate_schedule read one peak and give one verdict, evaluate's."""
    sweep = _Sweep(1.0, frac)
    lo, hi = np.array(sweep.band) * 2.0 / PI
    units = np.linspace(lo, hi, 34)[1:-1]
    peaks = sweep.detuning(sweep.basis.fit(schedule.beta_dot0_rate(units, 1.0))[0])[0]
    bound = analysis.DELTA_FINITE_BOUND
    if peaks.min() > bound:
        return  # no row of the band is feasible
    a, c = float(units[peaks.argmin()]), float(hi)
    for _ in range(200):
        m = 0.5 * (a + c)
        b = schedule.beta_dot0_rate(m, 1.0) * 1.0
        peak = sweep.detuning(sweep.basis.fit(np.array([b]))[0])[0][0]
        if abs(peak - bound) <= 1e-9 * bound:
            break
        a, c = (m, c) if peak < bound else (a, m)
    assert _assert_row_is_its_pair(frac, b) == (peak, peak <= bound)
    assert peak == pytest.approx(bound, rel=1e-9)
    assert sweep.evaluate(np.array([m]))[1][0] == (peak <= bound)


def reference_detuning_peak(sweep, b):
    """The detuning peak by an independent formula, cot(gamma) and cot(beta)
    each from cos, sin and a divide, with no station: max |delta| t_f on the
    validation grid, where delta = gamma_dot cot(gamma) cot(beta) - beta_dot,
    beta = B0 + b B1, and cot(gamma) is taken at gamma - pi = s^2 q(s), which
    vanishes at s = 0 by design."""
    s = pulse._driven_grid(sweep.s_end)
    g = s * s * Polynomial(sweep.gamma.coefficients[2:])(s)
    grid_cot = sweep.gamma.derivative()(s) * np.cos(g) / np.sin(g)
    beta = np.multiply.outer(b, sweep.b1(s)) + sweep.b0(s)
    rate = np.multiply.outer(b, sweep.b1.derivative()(s)) + sweep.b0.derivative()(s)
    return np.abs(grid_cot * np.cos(beta) / np.sin(beta) - rate).max(axis=1)


@settings(max_examples=150)
@given(frac=_evenly(schedule.critical_t_a() + 1e-6, 0.7737), where=_evenly(0.0, 1.0),
       edge=st.floats(6.0, 12.0).map(lambda e: 10.0**-e))
def test_detuning_verdict_matches_the_cos_sin_formula(frac, where, edge):
    """The kernel's verdict is the cos/sin one outside a tie zone at the bound.

    Three candidates per draw: one across the band (lo, hi) and one within
    edge of each end, where beta nears 0 or -pi and |delta| grows large.
    Inside the band beta stays in (-pi, 0), so both peaks are finite. Where
    the reference peak is at most ten times DELTA_FINITE_BOUND, the kernel's
    agrees with it to 1e-10 relative (measured <= 3.7e-11 over 300 draws:
    the reference has no station at t_a / t_f, where cot(gamma) diverges and
    cos(beta) vanishes). Nearer the band's ends both lose digits to beta's
    rounding, up to 2e-4 relative at peaks of 1e12. So the verdicts can
    differ only inside a 1e-10 tie zone at the bound."""
    sweep = _Sweep(1.0, frac)
    lo, hi = sweep.band
    b = np.array([lo + (hi - lo) * where, lo + edge, hi - edge])
    b = b[(lo < b) & (b < hi)]  # where = 0 or 1 puts the first on an edge
    ref = reference_detuning_peak(sweep, b)
    assert len(b) >= 2 and np.isfinite(ref).all()
    peak = sweep.detuning(sweep.basis.fit(b)[0])[0]
    bound = analysis.DELTA_FINITE_BOUND
    near = ref <= 10 * bound
    assert (np.abs(peak - ref)[near] <= 1e-10 * ref[near]).all()
    outside = np.abs(ref - bound) > 1e-10 * bound
    assert np.array_equal((peak <= bound)[outside], (ref <= bound)[outside])


@pytest.mark.parametrize("frac", [0.27, 0.5, 0.71, 0.8])
def test_band_edges_are_where_beta_touches_its_bounds(frac):
    # each finite edge puts an extremum of beta on the driven segment at 0 or -pi
    sweep = _Sweep(1.0, frac)
    for edge in sweep.band:
        beta = sweep.b0.coefficients + edge * sweep.b1.coefficients
        crit = np.polynomial.polynomial.polyroots(np.polynomial.polynomial.polyder(beta))
        crit = crit.real[(np.abs(crit.imag) < 1e-9) & (crit.real > 0) & (crit.real < frac)]
        values = np.polynomial.polynomial.polyval(crit, beta)
        assert min(abs(values.max()), abs(values.min() + PI)) < 1e-9


def test_sweep_input_validation():
    with pytest.raises(ValueError):
        sweep_beta_dot0(1.0, 0.5, 2.0, 1.0, 20)
    with pytest.raises(ValueError):
        sweep_beta_dot0(1.0, 0.5, 1.0, 2.0, 5)


def test_compare_passages_third_order():
    report = compare_passages(third_order_pair(1.0), W, 800)
    assert report.max_population_gap < 0.05  # usual passage shadows the adiabatic one
    rho11 = report.rho[:, 0, 0].real
    assert rho11[0] == pytest.approx(0.8, abs=1e-12)
    assert rho11[-1] == pytest.approx(0.2, abs=1e-12)
    assert np.all(bloch_vector(report.adiabatic_rho)[:, 1] == 0.0)
    assert np.abs(bloch_vector(report.rho)[:, 1]).max() > 0.1
    assert type(report.inversion_time) is float


def test_compare_passages_antedated_inversion_at_switch():
    pair = antedated_pair(1.0, 0.5)
    report = compare_passages(pair, W, 1000)
    idx = np.searchsorted(report.t, 0.5)
    rho11, rho22 = report.rho[:, 0, 0].real, report.rho[:, 1, 1].real
    assert rho11[idx] == pytest.approx(0.2, abs=1e-6)
    assert rho22[idx] == pytest.approx(0.8, abs=1e-6)
    np.testing.assert_allclose(rho11[idx:], 0.2, atol=1e-9)
    assert type(report.inversion_time) is float and report.inversion_time <= 0.5


@pytest.mark.parametrize("pair, expected", [
    (third_order_pair(1.0), 0.904),
    (fourth_order_pair(1.0, 1.2), 0.86),
    (antedated_pair(1.0, 0.5, schedule.beta_dot0_rate(5.232, 1.0)), 0.484),
], ids=["third", "fourth", "antedated"])
def test_inversion_time_is_the_first_sample_within_1e_3_of_the_end(pair, expected):
    # the docstring's bound, 1e-3, as a literal: a looser POPULATION_TOL
    # (1e-2) moves each time earlier, to a sample more than 1e-3 away
    report = compare_passages(pair, W, 1000)
    k = int(np.flatnonzero(report.t == report.inversion_time)[0])
    gap = np.abs(report.rho - report.rho[-1])
    populations = np.stack([gap[:, 0, 0], gap[:, 1, 1]], axis=1)
    assert (populations[k] <= 1e-3).all()
    assert (populations[k - 1] > 1e-3).any()
    assert report.inversion_time == pytest.approx(expected, abs=1e-12)


def test_compare_passages_fidelity_column():
    report = compare_passages(third_order_pair(1.0), W, 200)
    fid = fidelity(report.rho, report.rho[-1])
    assert fid[-1] == pytest.approx(1.0, abs=1e-9)
    assert np.all(fid <= 1.0 + 1e-12)
