import math

import numpy as np
import pytest

from iecpulse.analysis import max_adiabaticity_metric
from iecpulse.errors import DegeneratePoint, DivergentPulse, NoConvergence
from iecpulse.poly import Polynomial
from iecpulse.pulse import adaptive_simpson, adiabaticity_metric, delta_at, lr_phase, omega_r_at, synthesize
from iecpulse.schedule import SchedulePair, antedated_pair, fourth_order_pair, third_order_pair

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
        Polynomial([PI, 0, -3 * PI, 2 * PI]), Polynomial([-0.3, 1.0]), 1.0, None, 1.0
    )
    with pytest.raises(DivergentPulse):
        omega_r_at(broken, 0.3)


def test_degenerate_switch_warns():
    # linear gamma through zero at t_a with beta pinned at -pi/2 gives an
    # identically zero detuning, so the switched Hamiltonian is degenerate
    degenerate = SchedulePair(
        Polynomial([PI, -2 * PI]), Polynomial([-PI / 2]), 1.0, 0.5, 0.1
    )
    with pytest.warns(UserWarning, match="degenerate"):
        synthesize(degenerate, 100)


def test_adiabaticity_metric_static_pulse():
    static = SchedulePair(Polynomial([2.0]), Polynomial([-1.2, 0.3]), 1.0, None, 0.3)
    assert adiabaticity_metric(static, 0.4) == pytest.approx(0.0, abs=1e-9)


def test_adiabaticity_metric_usual_vs_antedated(third, ante):
    s = np.linspace(1e-3, 1 - 1e-3, 501)
    usual = max(adiabaticity_metric(third, float(x)) for x in s)
    pre_switch = np.linspace(1e-3, 0.5 - 1e-3, 251)
    antedated = max(adiabaticity_metric(ante, float(x)) for x in pre_switch)
    assert usual < 1.0  # the baseline waveforms happen to respect adiabaticity
    assert antedated > usual  # the antedated passage is the non-adiabatic one


def test_adiabaticity_metric_array_matches_scalar(third, ante):
    for pair, s_end in ((third, 1.0), (ante, 0.5)):
        s = np.linspace(1e-3, s_end - 1e-3, 101)
        metric = adiabaticity_metric(pair, s)
        assert metric.shape == s.shape
        assert metric.tolist() == [adiabaticity_metric(pair, float(x)) for x in s]


def test_adiabaticity_metric_level_crossing():
    # constant angles: omega_r = delta = 0 everywhere, so Omega vanishes
    crossing = SchedulePair(Polynomial([1.0]), Polynomial([-1.2]), 1.0, None, 0.3)
    with pytest.raises(DegeneratePoint):
        adiabaticity_metric(crossing, 0.4)
    with pytest.raises(DegeneratePoint):
        adiabaticity_metric(crossing, np.array([0.2, 0.4]))
    assert math.isnan(max_adiabaticity_metric(crossing))


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


def test_lr_phase_invalid_branch(third):
    with pytest.raises(ValueError):
        lr_phase(third, 0.5, 2)


def test_adaptive_simpson_known_integrals():
    assert adaptive_simpson(math.sin, 0.0, PI, 1e-10) == pytest.approx(2.0, abs=1e-9)
    assert adaptive_simpson(lambda x: x**3, 0.0, 1.0, 1e-12) == pytest.approx(0.25, abs=1e-12)


def test_adaptive_simpson_stops_at_evaluation_budget():
    # 1.6 million oscillations cannot be resolved to 1e-10 in 1e5 evaluations
    with pytest.raises(NoConvergence, match="did not reach its tolerance"):
        adaptive_simpson(lambda x: math.sin(1e7 * x), 0.0, 1.0, 1e-10)


def test_pulse_values_match_on_fourth_order_families():
    # same beta as the cubic family, so the endpoint detuning is unchanged
    for mid in (2 * PI / 5, 2 * PI / 6):
        pair = fourth_order_pair(1.0, mid)
        assert delta_at(pair, 0.0) == pytest.approx(-4.5 * PI, abs=1e-9)
        assert abs(omega_r_at(pair, 0.0)) < 1e-9
