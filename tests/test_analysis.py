import dataclasses
import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iecpulse import analysis, errors, poly, pulse, schedule
from iecpulse.analysis import (
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


@pytest.mark.parametrize(
    "build",
    [lambda: third_order_pair(1.0), lambda: third_order_pair(37.0),
     lambda: fourth_order_pair(1.0, 1.2), lambda: fourth_order_pair(3.0, 2.0),
     lambda: fourth_order_pair(1.0, schedule.critical_gamma_mid() + 1e-3),
     lambda: antedated_pair(1.0, 0.5), lambda: antedated_pair(2.0, 1.3, 1.7)],
    ids=["third", "third-37", "fourth-1.2", "fourth-2.0", "fourth-critical", "antedated",
         "antedated-0.65"],
)
def test_one_grid_pass_gives_the_metric_maximum_and_the_detuning_peak(build):
    """The grid pass's metric peak is the metric on the midpoints, bit for
    bit. Its detuning peak comes from the complex pass's real parts, which
    may differ from a real pass at the ulp level (<= 1.26e-16 relative on
    the 204 third- and fourth-order design pairs of benchmark seeds 1-3),
    so delta_finite can move only that close to DELTA_FINITE_BOUND."""
    pair = build()
    wave = pulse._waveform(pair)
    s = analysis._driven_grid(wave.end)
    assert max_adiabaticity_metric(pair) == adiabaticity_metric(pair, s).max()
    real = np.abs(wave.delta_many(s)).max()
    assert abs(wave.grid.delta_peak - real) <= 1e-14 * real
    assert all(type(v) is float for v in dataclasses.astuple(wave.grid))


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
    rounded as antedated_pair rounds it; the factored waveform of the same
    polynomials, which a plain SchedulePair takes, is the independent
    reference. The sweep grid's delta lies within 1e-9 of the reference's
    peak at every sample, and so does the peak (measured <= 5.5e-11;
    tan(gamma) in place of tan(s^2 q(s)) misses by 1.6e-8, at the first
    sample). Costs and reports are equal: the pulse area and the verdict
    have one definition each, whoever built the pair."""
    sweep, b = _Sweep(pair.t_f, pair.t_a), np.array([float(beta_dot0) * pair.t_f])
    wave = pulse._waveform(pair)
    reference = wave.delta_many(analysis._driven_grid(wave.end))
    cot, b0, b1, db0, db1 = sweep._grid
    delta = cot / np.tan(b0 + b * b1) - (db0 + b * db1)
    peak = np.abs(reference).max()
    assert np.abs(delta - reference).max() <= 1e-9 * peak
    assert sweep._detuning_ok(b)[1][0] == pytest.approx(peak, rel=1e-9)
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
    return in_band, wave.omega_many(analysis._driven_grid(wave.end))


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


def _grid_verdicts(sweep, b):
    """_detuning_ok on every candidate that passes the band and fit checks,
    SWEEP_BLOCK rows at a time; False elsewhere."""
    lo, hi = sweep.band
    rows = np.flatnonzero((lo < b) & (b < hi) & sweep.basis.fit(b)[1])
    ok = np.zeros(len(b), dtype=bool)
    for i in range(0, len(rows), analysis.SWEEP_BLOCK):
        block = rows[i : i + analysis.SWEEP_BLOCK]
        ok[block] = sweep._detuning_ok(b[block])[0]
    return ok


@settings(max_examples=60, deadline=None)
@given(frac=_evenly(schedule.critical_t_a() * (1 + 1e-9), 0.7737),
       t_f=_evenly(-3.0, 3.0).map(lambda e: 10.0**e),
       ends=st.tuples(_evenly(-0.3, 0.6), _evenly(-0.3, 0.6)),
       n=st.integers(10, 400), shuffle=st.randoms(use_true_random=False))
@example(frac=0.77, t_f=1.0, ends=(0.0, 0.0), n=400, shuffle=None)  # ~35 fail at each end
@example(frac=0.71, t_f=1.0, ends=(-0.99, 0.0), n=400, shuffle=None)  # 8.154 units fails
def test_sweep_verdicts_are_the_grid_verdicts(frac, t_f, ends, n, shuffle):
    """evaluate proves most band rows from the grid rows near the band's
    ends; its verdicts are _detuning_ok's on every band row. The candidates
    run from ends[0] band widths below the band's low edge to ends[1] above
    its high edge (negative: inside), in order or shuffled."""
    sweep = _Sweep(t_f, frac * t_f)
    lo, hi = sweep.band
    units = np.linspace(lo - ends[0] * (hi - lo), hi + ends[1] * (hi - lo), n) * 2.0 / PI
    if shuffle is not None:
        shuffle.shuffle(units)
    cost, ok = sweep.evaluate(units)
    b = schedule.beta_dot0_rate(units, t_f) * t_f
    assert np.array_equal(ok, _grid_verdicts(sweep, b))
    assert np.array_equal(np.isnan(cost), ~ok)


def test_sweep_grid_rows_stay_near_the_band_ends(monkeypatch):
    # the README sweep: two blocks reach the grid and the bound proves the
    # other 184 candidates
    rows = []
    grid = _Sweep._detuning_ok

    def counted(self, b):
        rows.append(len(b))
        return grid(self, b)

    sweep = _Sweep(1.0, 0.5)
    monkeypatch.setattr(_Sweep, "_detuning_ok", counted)
    cost, ok = sweep.evaluate(np.linspace(0.1, 8.0, 200))
    assert ok.all()
    assert sum(rows) <= 2 * analysis.SWEEP_BLOCK


def test_proof_between_rows_keeps_its_margin(monkeypatch):
    # the bound B of two in-band rows as _proved_between's docstring states it:
    # per sample, the larger |gamma_dot cot(gamma) / tan(beta)| of the two plus
    # their larger |beta_dot|. The proof holds only below DELTA_FINITE_BOUND (1 - 1e-9).
    sweep = _Sweep(1.0, 0.5)
    lo, hi = sweep.band
    a, c = lo + 0.3 * (hi - lo), lo + 0.6 * (hi - lo)
    cot, b0, b1, db0, db1 = sweep._grid
    ends = np.array([a, c])[:, None]
    bound = (np.abs(cot / np.tan(b0 + ends * b1)).max(axis=0)
             + np.abs(db0 + ends * db1).max(axis=0)).max()
    assert bound == pytest.approx(30.48, abs=5e-3)
    monkeypatch.setattr(analysis, "DELTA_FINITE_BOUND", bound / (1 + 1e-7))
    assert sweep._proved_between(a, c) is False
    monkeypatch.setattr(analysis, "DELTA_FINITE_BOUND", bound / (1 - 2e-9))
    assert sweep._proved_between(a, c) is True


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
    assert len(slopes) <= 6
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


@pytest.mark.parametrize("pocket, refined", [
    ((5.15, 5.35), False),  # the minimum, near 5.23, is infeasible: the grid row stays
    ((5.25, 5.45), True),  # rows past the best (5.2) are infeasible; the minimum is not
])
def test_sweep_minimum_when_the_bracket_straddles_infeasible_rows(monkeypatch, pocket, refined):
    """Rows with beta_dot0 in pocket (units) fail the detuning verdict, so
    the best grid row's feasible neighbour lies across them."""
    verdict = _Sweep._detuning_in_band
    lo, hi = schedule.beta_dot0_rate(np.array(pocket), 1.0)

    def holed(self, b):
        return verdict(self, b) & ~((lo < b) & (b < hi))

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
    # beta stays inside (-pi, 0) (max -0.0045), but |delta| t_f reaches 1502
    sweep = _Sweep(1.0, 0.71)
    b = 8.154 * 0.5 * PI
    assert sweep.band[0] < b < sweep.band[1]
    assert sweep.basis.fit(np.array([b]))[1][0]
    assert not sweep._detuning_ok(np.array([b]))[0][0]
    assert not sweep.evaluate(np.array([8.154]))[1][0]
    assert _sweep_point(1.0, 0.71, 8.154) == (pytest.approx(math.nan, nan_ok=True), False)
    assert "delta exceeds" in validate_schedule(antedated_pair(1.0, 0.71, b)).messages[0]


def test_equal_pairs_get_equal_reports():
    # the detuning peak of this pair lies within rounding of DELTA_FINITE_BOUND:
    # the grid pass reads 999.9999999995396 and the sweep's one-tan formula
    # 1000.000000000032, so a pair decided by how it was built would differ
    # from its plain twin; a pair is its value, and both read the grid pass
    pair = antedated_pair(1.0, 0.71, 6.356476554588351)
    plain = SchedulePair(pair.gamma, pair.beta, 1.0, 0.71)
    assert pair == plain and hash(pair) == hash(plain)
    assert validate_schedule(pair) == validate_schedule(plain)


def reference_detuning_peak(sweep, b):
    """The peak behind _Sweep._detuning_ok's verdict by the formula it
    replaced, cot(gamma) and cot(beta) each from cos, sin and a divide:
    max |delta| t_f on the validation grid, where
    delta = gamma_dot cot(gamma) cot(beta) - beta_dot, and cot(gamma) is
    taken at gamma - pi = s^2 q(s), as the grid takes it."""
    s = analysis._driven_grid(sweep.s_end)
    g = s * s * Polynomial(sweep.gamma.coefficients[2:])(s)
    _, b0, b1, db0, db1 = sweep._grid
    grid_cot = sweep.gamma.derivative()(s) * np.cos(g) / np.sin(g)
    beta = np.multiply.outer(b, b1)
    beta += b0
    delta = np.cos(beta)
    delta /= np.sin(beta, out=beta)
    delta *= grid_cot
    rate = np.multiply.outer(b, db1, out=beta)
    rate += db0
    delta -= rate
    return np.abs(delta, out=delta).max(axis=1)


@settings(max_examples=150)
@given(frac=_evenly(schedule.critical_t_a() + 1e-6, 0.7737), where=_evenly(0.0, 1.0),
       edge=st.floats(6.0, 12.0).map(lambda e: 10.0**-e))
def test_detuning_verdict_matches_the_cos_sin_formula(frac, where, edge):
    """The tan verdict is the cos/sin one outside a tie zone at the bound.

    Three candidates per draw: one across the band (lo, hi) and one within
    edge of each end, where beta nears 0 or -pi and |delta| grows large.
    Inside the band beta stays in (-pi, 0), so both peaks are finite. The
    verdict's own peak is read through the verdict, with the bound set per
    candidate just above and just below the reference peak: it agrees with
    the reference to 1e-14 relative. Both verdicts compare their peak with
    the same bound, so they can differ only where the reference peak lies
    within 1e-14 relative of it, inside the 1e-12 tie zone.
    """
    sweep = _Sweep(1.0, frac)
    lo, hi = sweep.band
    b = np.array([lo + (hi - lo) * where, lo + edge, hi - edge])
    b = b[(lo < b) & (b < hi)]  # where = 0 or 1 puts the first on an edge
    ref = reference_detuning_peak(sweep, b)
    assert len(b) >= 2 and np.isfinite(ref).all()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "DELTA_FINITE_BOUND", ref * (1 + 1e-14))
        assert sweep._detuning_ok(b)[0].all()
        patch.setattr(analysis, "DELTA_FINITE_BOUND", ref * (1 - 1e-14))
        assert not sweep._detuning_ok(b)[0].any()
    bound = analysis.DELTA_FINITE_BOUND
    outside = np.abs(ref - bound) > 1e-12 * bound
    assert np.array_equal(sweep._detuning_ok(b)[0][outside], (ref <= bound)[outside])


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
    assert report.inversion_time is not None


def test_compare_passages_antedated_inversion_at_switch():
    pair = antedated_pair(1.0, 0.5)
    report = compare_passages(pair, W, 1000)
    idx = np.searchsorted(report.t, 0.5)
    rho11, rho22 = report.rho[:, 0, 0].real, report.rho[:, 1, 1].real
    assert rho11[idx] == pytest.approx(0.2, abs=1e-6)
    assert rho22[idx] == pytest.approx(0.8, abs=1e-6)
    np.testing.assert_allclose(rho11[idx:], 0.2, atol=1e-9)
    assert report.inversion_time is not None and report.inversion_time <= 0.5


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
