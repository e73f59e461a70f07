import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iecpulse import analysis, errors, pulse, schedule
from iecpulse.analysis import (
    _Sweep,
    _sweep_point,
    compare_passages,
    energy_cost,
    golden_section,
    max_adiabaticity_metric,
    sweep_beta_dot0,
    validate_schedule,
)
from iecpulse.dynamics import Weights, bloch_vector, fidelity
from iecpulse.errors import DivergentPulse, NoConvergence, NoCrossing, NoFeasiblePoint
from iecpulse.errors import SingularSystem
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


def test_sweep_reproduces_half_switch_minimum():
    result = sweep_beta_dot0(1.0, 0.5, 4.0, 6.5, 26)
    u_star, cost_star = result.minimum
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
        sweep = _Sweep(1.0, frac)
        units = np.linspace(0.25, 10.0, 40)
        cost, ok = sweep.evaluate(units)
        for u, c, f in zip(units, cost, ok):
            ref, ref_ok = _sweep_point(1.0, frac, float(u))
            assert f == ref_ok, (frac, u)
            if f:
                assert c == pytest.approx(ref, rel=1e-7)
            else:
                assert math.isnan(c)


def _per_candidate_cost(self, b):
    """_Sweep._cost with one reference root call per candidate."""
    d0, d1 = self._db0.coefficients, self._db1.coefficients
    cuts = [reference_real_roots(d0 + x * d1, 0.0, self.s_end) for x in b]
    width = max(map(len, cuts)) + 1
    edges = [[0.0, *c] + [self.s_end] * (width - len(c)) for c in cuts]

    def omega(s, row):
        return self.dgamma(s) / np.sin(self.b0(s) + b[row, None] * self.b1(s))

    return pulse.gauss_legendre(omega, edges, analysis.COST_TOL)


@pytest.mark.parametrize("frac, units, drop_feasible", [
    (0.5, np.linspace(0.1, 8.0, 200), True),  # the README sweep
    # where the band narrows to (5.51, 5.75) units, before it empties
    (0.77, np.concatenate([np.linspace(0.05, 10.0, 200), np.linspace(5.5, 5.76, 40)]), False),
])
def test_sweep_costs_match_per_candidate_roots(monkeypatch, frac, units, drop_feasible):
    sweep = _Sweep(1.0, frac)
    d0, d1 = sweep._db0.coefficients, sweep._db1.coefficients
    drop = -d0[-1] / d1[-1] * 2.0 / PI  # there B0' + b B1' has degree 3
    assert d0[-1] + schedule.beta_dot0_rate(drop, 1.0) * d1[-1] == 0.0
    units = np.append(units, drop)
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
    except (SingularSystem, NoCrossing):
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
        assert cost == pytest.approx(ref, rel=1e-7)
        assert cost == pytest.approx(unit_cost, rel=1e-9)  # dimensionless: no t_f
    else:
        assert math.isnan(cost)
    # the waveform builds exactly in the band, and omega_r > 0 there (_band)
    in_band, omega_r = _band_and_drive(t_f, frac * t_f, units)
    assert in_band == (omega_r is not None)
    assert omega_r is None or (omega_r > 0).all()


def _band_and_drive(t_f, t_a, units):
    """Whether beta_dot0 lies in _Sweep's band with gamma in range, and
    omega_r on the driven grid if the waveform builds, else None."""
    b = schedule.beta_dot0_rate(units, t_f) * t_f
    try:
        sweep = _Sweep(t_f, t_a)
        in_band = sweep.gamma_ok and sweep.band[0] < b < sweep.band[1]
    except (SingularSystem, NoCrossing):
        in_band = False
    try:
        wave = pulse._waveform(antedated_pair(t_f, t_a, schedule.beta_dot0_rate(units, t_f)))
    except (errors.Infeasible, DivergentPulse):
        return in_band, None
    return in_band, wave.omega_many(analysis._driven_grid(wave.end))


def test_detuning_policy_decides_pinned_point():
    # beta stays inside (-pi, 0) (max -0.0045), but |delta| t_f reaches 1502
    sweep = _Sweep(1.0, 0.71)
    b = 8.154 * 0.5 * PI
    assert sweep.band[0] < b < sweep.band[1]
    assert sweep.gamma_ok and sweep._fit_ok(np.array([b]))[0]
    assert not sweep._detuning_ok(np.array([b]))[0]
    assert not sweep.evaluate(np.array([8.154]))[1][0]
    assert _sweep_point(1.0, 0.71, 8.154) == (pytest.approx(math.nan, nan_ok=True), False)
    assert "delta exceeds" in validate_schedule(antedated_pair(1.0, 0.71, b)).messages[0]


def reference_detuning_peak(sweep, b):
    """The peak behind _Sweep._detuning_ok's verdict by the formula it
    replaced, cot(gamma) and cot(beta) each from cos, sin and a divide:
    max |delta| t_f on the validation grid, where
    delta = gamma_dot cot(gamma) cot(beta) - beta_dot."""
    s = analysis._driven_grid(sweep.s_end)
    g = sweep.gamma(s)
    grid_cot = sweep.dgamma(s) * np.cos(g) / np.sin(g)
    beta = np.multiply.outer(b, sweep._grid_beta[1])
    beta += sweep._grid_beta[0]
    delta = np.cos(beta)
    delta /= np.sin(beta, out=beta)
    delta *= grid_cot
    rate = np.multiply.outer(b, sweep._grid_rate[1], out=beta)
    rate += sweep._grid_rate[0]
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
        assert sweep._detuning_ok(b).all()
        patch.setattr(analysis, "DELTA_FINITE_BOUND", ref * (1 - 1e-14))
        assert not sweep._detuning_ok(b).any()
    bound = analysis.DELTA_FINITE_BOUND
    outside = np.abs(ref - bound) > 1e-12 * bound
    assert np.array_equal(sweep._detuning_ok(b)[outside], (ref <= bound)[outside])


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


def test_sweep_rejects_a_minimum_the_per_schedule_path_disagrees_with(monkeypatch):
    monkeypatch.setattr(analysis, "_sweep_point", lambda t_f, t_a, u: (3.3, True))
    with pytest.raises(NoConvergence, match="disagrees with the per-schedule path"):
        sweep_beta_dot0(1.0, 0.5, 4.0, 6.5, 26)


def test_sweep_input_validation():
    with pytest.raises(ValueError):
        sweep_beta_dot0(1.0, 0.5, 2.0, 1.0, 20)
    with pytest.raises(ValueError):
        sweep_beta_dot0(1.0, 0.5, 1.0, 2.0, 5)


def test_golden_section_quadratic():
    u, val = golden_section(lambda x: (x - 1.3) ** 2 + 0.25, 0.0, 3.0, tol=1e-8)
    assert u == pytest.approx(1.3, abs=1e-6)
    assert val == pytest.approx(0.25, abs=1e-9)


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


def test_compare_passages_fidelity_column():
    report = compare_passages(third_order_pair(1.0), W, 200)
    fid = fidelity(report.rho, report.rho[-1])
    assert fid[-1] == pytest.approx(1.0, abs=1e-9)
    assert np.all(fid <= 1.0 + 1e-12)
