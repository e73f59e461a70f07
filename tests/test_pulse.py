import math

import numpy as np
import pytest

from iecpulse import pulse
from iecpulse.analysis import compare_passages, max_adiabaticity_metric
from iecpulse.dynamics import Weights, hamiltonian_at
from iecpulse.errors import DegeneratePoint, DivergentPulse, NoConvergence
from iecpulse.poly import Polynomial
from iecpulse.pulse import (
    _angle,
    _horner,
    _waveform,
    adiabaticity_metric,
    delta_at,
    gauss_legendre,
    lr_phase,
    omega_r_at,
    synthesize,
)
from iecpulse.schedule import SchedulePair, antedated_pair, beta_dot0_rate, fourth_order_pair
from iecpulse.schedule import third_order_pair

PI = math.pi


@pytest.fixture(scope="module")
def third():
    return third_order_pair(1.0)


@pytest.fixture(scope="module")
def ante():
    return antedated_pair(1.0, 0.5)


def test_omega_r_turn_on(third):
    assert abs(omega_r_at(third, 0.0)) < 1e-9
    assert abs(omega_r_at(third, 1.0)) < 1e-9


def test_omega_r_midpoint(third):
    # gamma'(1/2) = -3pi/2 per unit s, beta(1/2) = -pi/8
    expected = 1.5 * PI / math.sin(PI / 8)
    assert omega_r_at(third, 0.5) == pytest.approx(expected, rel=1e-12)
    assert omega_r_at(third, np.array(0.5)) == omega_r_at(third, 0.5)  # a 0-d array is a scalar


def test_omega_r_compensated_limit(ante):
    # at s = 11/16 both gamma-rate and sin(beta) vanish; the limit is the
    # ratio of their first derivatives there
    s0 = 11.0 / 16.0
    value = omega_r_at(ante, s0)
    d2g = ante.gamma.derivative().derivative()
    db = ante.beta.derivative()
    expected = d2g(s0) / (db(s0) * math.cos(ante.beta(s0)))
    assert value == pytest.approx(expected, rel=1e-9)
    # continuity: direct evaluation 2e-3 away agrees
    probe = ante.gamma.derivative()(s0 + 2e-3) / math.sin(ante.beta(s0 + 2e-3))
    assert value == pytest.approx(probe, rel=1e-2)


def test_delta_endpoints(third):
    assert delta_at(third, 0.0) == pytest.approx(-4.5 * PI, abs=1e-9)
    assert delta_at(third, 1.0) == pytest.approx(4.5 * PI, abs=1e-9)


def test_delta_midpoint_zero(third):
    # cot(gamma(1/2)) = cot(pi/2) = 0 and beta'(1/2) = 0
    assert abs(delta_at(third, 0.5)) < 1e-12


def test_delta_continuous_across_series_window(third):
    # the factored evaluation about an endpoint must join the direct formula
    for s0 in (0.0, 1.0):
        inner = delta_at(third, s0 + (9e-4 if s0 == 0.0 else -9e-4))
        outer = delta_at(third, s0 + (2e-3 if s0 == 0.0 else -2e-3))
        assert inner == pytest.approx(outer, rel=5e-2)


def test_scalar_evaluators_are_vector_elements(third, ante):
    # one evaluator per quantity: a scalar call is a one-sample vector call
    s = np.linspace(0.0, 1.0, 1001)
    for pair in (third, ante):
        wave = _waveform(pair)
        assert [wave.omega(x) for x in s.tolist()] == wave.omega_many(s).tolist()
        assert [wave.cot_term(x) for x in s.tolist()] == wave.quotients(s)[1].tolist()
        assert [wave.delta(x) for x in s.tolist()] == wave.delta_many(s).tolist()


def _reference_omega(st, u):
    """omega_r at s0 + u: the station formula that _quotients replaced."""
    sin_b, _ = _angle(st, 1, u)
    return u ** st.omega_order * _horner(st.coef[0], u) / sin_b


def _reference_cot(st, u):
    """The cot term at s0 + u: the station formula that _quotients replaced."""
    sin_b, _ = _angle(st, 1, u)
    cos_b, _ = _angle(st, 2, u)
    sin_x, x = _angle(st, 3, u)
    num = _horner(st.coef[0], u) * np.cos(x) * cos_b
    return u ** st.cot_order * num / (sin_b * sin_x)


def _reference_rows(wave, s):
    """Both reference formulas at every sample, from the station nearest s.real."""
    s0 = np.array([st.s0 for st in wave.stations])
    j = np.searchsorted(0.5 * (s0[1:] + s0[:-1]), s.real, side="right")
    om, cot = np.empty_like(s), np.empty_like(s)
    for i, st in enumerate(wave.stations):
        at = j == i
        om[at], cot[at] = _reference_omega(st, s[at] - st.s0), _reference_cot(st, s[at] - st.s0)
    return om, cot


@pytest.mark.parametrize("pair", [
    third_order_pair(1.0),
    fourth_order_pair(1.0, 1.2),
    antedated_pair(1.0, 0.5),
    antedated_pair(1.0, 0.77, beta_dot0_rate(5.62, 1.0)),  # near the band edge 0.77376
], ids=["third", "fourth", "antedated", "antedated-edge"])
def test_quotients_match_the_two_station_formulas_bit_for_bit(pair):
    wave = _waveform(pair)
    s0 = np.array([st.s0 for st in wave.stations])
    near = (s0[:, None] + np.array([-1e-3, -1e-6, -1e-9, 1e-9, 1e-6, 1e-3])).ravel()
    s = np.concatenate([np.linspace(0.0, 1.0, 1001), near[(near >= 0.0) & (near <= 1.0)]])
    for x in (s, s + 1e-30j):
        rows, reference = wave.quotients(x), _reference_rows(wave, x)
        for row, ref in zip(rows, reference):
            assert row.dtype == ref.dtype and row.tobytes() == ref.tobytes()


def test_quotients_visit_only_the_stations_that_own_samples(monkeypatch, ante):
    wave = _waveform(ante)
    visited = []
    station_formula = pulse._quotients
    monkeypatch.setattr(pulse, "_quotients",
                        lambda st, u: visited.append(st.s0) or station_formula(st, u))
    wave.quotients(np.array([0.3]))
    assert len(visited) == 1
    # a driven-segment call skips the stations past the switch
    visited.clear()
    s = np.linspace(0.0, wave.end, 1001)
    wave.quotients(s)
    s0 = np.array([st.s0 for st in wave.stations])
    owners = set(s0[np.abs(s[:, None] - s0).argmin(axis=1)].tolist())
    assert sorted(visited) == sorted(owners) and len(visited) == 2
    assert sorted(set(s0.tolist()) - owners) == pytest.approx([0.6875, 1.0])


def test_frequencies_scale_as_inverse_t_f():
    small = third_order_pair(1.0)
    large = third_order_pair(1000.0)
    for s in (0.0, 0.2, 0.5, 0.9, 1.0):
        assert omega_r_at(small, s) == pytest.approx(1000.0 * omega_r_at(large, s), abs=1e-12)
        assert delta_at(small, s) == pytest.approx(1000.0 * delta_at(large, s), abs=1e-12)


def test_synthesize_minimal_grid(third):
    table = synthesize(third, 2)
    np.testing.assert_allclose(table.t, [0.0, 0.5, 1.0])


def test_synthesize_third_profile(third):
    table = synthesize(third, 1000)
    assert np.all(table.omega_r >= -1e-9)
    assert abs(table.omega_r[0]) < 1e-9 and abs(table.omega_r[-1]) < 1e-9
    assert np.all(np.isfinite(table.omega_r)) and np.all(np.isfinite(table.delta))
    peak = table.omega_r.max()
    assert peak == pytest.approx(1.5 * PI / math.sin(PI / 8), rel=1e-4)
    assert table.t[np.argmax(table.omega_r)] == pytest.approx(0.5, abs=1e-3)


def test_synthesize_antedated_switch(ante):
    table = synthesize(ante, 1000)
    after = table.t > 0.5
    assert np.all(table.omega_r[after] == 0.0)
    held = table.delta[after]
    assert np.all(held == held[0])
    assert held[0] != 0.0
    # nonnegative everywhere despite the gamma-rate sign flip at 11/16
    assert np.all(table.omega_r >= -1e-9)


def test_synthesize_rejects_tiny_grid(third):
    with pytest.raises(ValueError):
        synthesize(third, 1)


def test_divergent_pulse_on_uncompensated_schedule():
    # beta crosses zero at s = 0.3 where the gamma rate does not vanish
    broken = SchedulePair(
        Polynomial([PI, 0, -3 * PI, 2 * PI]), Polynomial([-0.3, 1.0]), 1.0, None
    )
    with pytest.raises(DivergentPulse):
        omega_r_at(broken, 0.3)


def test_runtime_divergence_check_names_the_station():
    # the antedated angles with beta bent by 2 s^2 (s - 1/2)^2, past the
    # switch: sin(beta) vanishes at 0.683992, where gamma_dot does not, and
    # at s = 1 (a double zero of gamma, a simple one of gamma_dot) beta no
    # longer sits at pi/2, so there the cot term diverges but omega_r does not
    ante = antedated_pair(1.0, 0.5)
    bend = np.zeros(len(ante.beta.coefficients))
    bend[2:5] = [0.5, -2.0, 2.0]
    pair = SchedulePair(ante.gamma, Polynomial(ante.beta.coefficients + bend), 1.0, 0.5)
    wave = _waveform(pair)
    assert [round(st.s0, 6) for st in wave.stations] == [0.0, 0.5, 0.683992, 1.0]
    assert [st.omega_order < 0 for st in wave.stations] == [False, False, True, False]
    assert [st.cot_order < 0 for st in wave.stations] == [False, False, True, True]
    s_div = wave.stations[2].s0
    for probe in (lambda: adiabaticity_metric(pair, np.array([0.6, 0.7])),
                  lambda: omega_r_at(pair, s_div), lambda: delta_at(pair, s_div)):
        with pytest.raises(DivergentPulse, match="diverges at s = 0.683992"):
            probe()
    # the driven segment [0, 1/2] is finite, so the switched drive is too
    assert np.all(np.isfinite(synthesize(pair, 1000).omega_r))
    assert np.all(np.isfinite(hamiltonian_at(pair, np.linspace(0.0, 1.0, 101))))
    # one flag: omega_r's continuation raises where only delta's diverges
    with pytest.raises(DivergentPulse, match="diverges at s = 1"):
        omega_r_at(pair, 1.0)


def test_degenerate_switch_warns():
    # linear gamma through zero at t_a with beta pinned at -pi/2 gives an
    # identically zero detuning, so the switched Hamiltonian is degenerate
    degenerate = SchedulePair(
        Polynomial([PI, -2 * PI]), Polynomial([-PI / 2]), 1.0, 0.5
    )
    with pytest.warns(UserWarning, match="degenerate"):
        synthesize(degenerate, 100)


def test_adiabaticity_metric_static_pulse():
    static = SchedulePair(Polynomial([2.0]), Polynomial([-1.2, 0.3]), 1.0, None)
    assert adiabaticity_metric(static, 0.4) == pytest.approx(0.0, abs=1e-9)


def test_adiabaticity_metric_usual_vs_antedated(third, ante):
    s = np.linspace(1e-3, 1 - 1e-3, 501)
    usual = max(adiabaticity_metric(third, float(x)) for x in s)
    pre_switch = np.linspace(1e-3, 0.5 - 1e-3, 251)
    antedated = max(adiabaticity_metric(ante, float(x)) for x in pre_switch)
    assert usual < 1.0  # the baseline waveforms happen to respect adiabaticity
    assert antedated > usual  # the antedated passage is the non-adiabatic one


def test_adiabaticity_metric_array_matches_scalar(third, ante):
    fourth = fourth_order_pair(1.0, 1.2)
    for pair, s_end in ((third, 1.0), (fourth, 1.0), (ante, 0.5)):
        s = np.linspace(1e-3, s_end - 1e-3, 101)
        metric = adiabaticity_metric(pair, s)
        assert metric.shape == s.shape
        assert metric.tolist() == [adiabaticity_metric(pair, float(x)) for x in s]


def _metric_central_difference(pair, s, h=1e-6):
    """The metric adiabaticity_metric replaced: rates by central differences
    of the vector evaluators at step h in s."""
    wave = _waveform(pair)
    om, dl = wave.omega_many(s), wave.delta_many(s)
    dom = (wave.omega_many(s + h) - wave.omega_many(s - h)) / (2.0 * h)
    ddl = (wave.delta_many(s + h) - wave.delta_many(s - h)) / (2.0 * h)
    return np.abs((om * ddl - dom * dl) / np.hypot(om, dl) ** 3)


def test_adiabaticity_metric_matches_central_difference(third, ante):
    for pair in (third, fourth_order_pair(1.0, 1.2), ante):
        s_end = pair.switch_fraction or 1.0
        s = np.linspace(0.0, s_end, 2001)[1:-1]
        stations = np.array([st.s0 for st in _waveform(pair).stations])
        s = s[np.abs(s[:, None] - stations).min(axis=1) > 1e-3]
        metric = adiabaticity_metric(pair, s)
        reference = _metric_central_difference(pair, s)
        assert np.abs(metric - reference).max() <= 1e-6 * reference.max()
        assert np.all(np.abs(metric - reference) <= 1e-6 * reference)


def test_adiabaticity_metric_domain(third):
    for s in (0.0, 1.0, np.array([0.0, 0.5])):
        with pytest.raises(ValueError):
            adiabaticity_metric(third, s)
    # the complex step has no difference step to keep inside [0, 1]
    assert math.isfinite(adiabaticity_metric(third, 1e-9))


def test_adiabaticity_metric_level_crossing():
    # constant angles: omega_r = delta = 0 everywhere, so Omega vanishes
    crossing = SchedulePair(Polynomial([1.0]), Polynomial([-1.2]), 1.0, None)
    with pytest.raises(DegeneratePoint):
        adiabaticity_metric(crossing, 0.4)
    with pytest.raises(DegeneratePoint):
        adiabaticity_metric(crossing, np.array([0.2, 0.4]))
    with pytest.raises(DegeneratePoint):
        max_adiabaticity_metric(crossing)
    with pytest.raises(DegeneratePoint, match="level crossing"):
        compare_passages(crossing, Weights(0.2, 0.8), 100)


def test_adiabaticity_metric_scale_invariant():
    small, large = third_order_pair(1.0), third_order_pair(1000.0)
    for s in (0.1, 0.37, 0.81):
        assert adiabaticity_metric(small, s) == pytest.approx(
            adiabaticity_metric(large, s), rel=1e-9
        )


def test_lr_phase_zero_at_start(third):
    assert lr_phase(third, 0.0, +1) == 0.0


def test_lr_phase_branches_opposite(third):
    for t in (0.2, 0.5, 1.0):
        assert lr_phase(third, t, +1) == pytest.approx(-lr_phase(third, t, -1), abs=1e-12)


def test_lr_phase_finite_total(third):
    alpha = lr_phase(third, 1.0, +1)
    assert math.isfinite(alpha)
    assert abs(alpha) > 1.0  # a nontrivial accumulated phase


def test_lr_phase_dimensionless(third):
    large = third_order_pair(1000.0)
    assert lr_phase(third, 0.7, +1) == pytest.approx(lr_phase(large, 700.0, +1), abs=1e-9)


def test_lr_phase_just_past_t_f_is_the_total(third):
    # accepted up to t_f (1 + 1e-12), and read at t_f: an unswitched pair has no held detuning
    assert lr_phase(third, 1.0 + 1e-13, +1) == lr_phase(third, 1.0, +1)


def test_lr_phase_invalid_branch(third):
    with pytest.raises(ValueError):
        lr_phase(third, 0.5, 2)


def test_gauss_legendre_known_integrals():
    pieces = np.array([[0.0, 0.5 * PI, PI], [0.0, 1.0, 1.0]])
    rows = np.array([0.0, 1.0])
    values = gauss_legendre(lambda s, row: np.where(rows[row, None] == 0, np.sin(s), s**3),
                            pieces, 1e-12)
    assert values == pytest.approx([2.0, 0.25], abs=1e-12)


def test_gauss_legendre_stops_at_node_cap():
    # 1.6 million oscillations cannot be resolved by 1024 nodes per piece
    with pytest.raises(NoConvergence, match=r"did not converge on \[0, 0.5\]"):
        gauss_legendre(lambda s, row: np.sin(1e7 * s), [0.0, 0.5, 1.0], 1e-10)


def test_pulse_values_match_on_fourth_order_families():
    # same beta as the cubic family, so the endpoint detuning is unchanged
    for mid in (2 * PI / 5, 2 * PI / 6):
        pair = fourth_order_pair(1.0, mid)
        assert delta_at(pair, 0.0) == pytest.approx(-4.5 * PI, abs=1e-9)
        assert abs(omega_r_at(pair, 0.0)) < 1e-9
