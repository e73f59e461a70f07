import math
import time

import numpy as np
import pytest

from iecpulse.analysis import (
    compare_passages,
    energy_cost,
    golden_section,
    max_adiabaticity_metric,
    sweep_beta_dot0,
    validate_schedule,
)
from iecpulse.dynamics import Weights
from iecpulse.errors import NoFeasiblePoint
from iecpulse.schedule import antedated_pair, fourth_order_pair, third_order_pair

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


def test_energy_cost_resolves_narrow_peak():
    # beta passes within 5.4e-5 of -pi near s = 0.3711 (beta + pi has a
    # complex root pair there), so omega peaks at 1.2e5 over a width of
    # ~1e-3; a 30-digit mpmath rebuild of this design integrates to
    # 552.2669488295
    t_f = 158.03918506664547
    pair = antedated_pair(t_f, 99.11881451794792, 0.8179669548296351 * 0.5 * PI / t_f)
    start = time.perf_counter()
    assert energy_cost(pair) == pytest.approx(552.2669488295, abs=1e-7)
    assert time.perf_counter() - start < 10.0


def test_validate_third_order_all_clear():
    pair = third_order_pair(1.0)
    report = validate_schedule(pair)
    assert report.feasible
    assert report.omega_r_nonnegative and report.delta_finite and report.gamma_range_ok
    assert report.messages == []
    assert 0.0 < max_adiabaticity_metric(pair) < 1.0


def test_validate_flags_early_antedating():
    pair = antedated_pair(1.0, 0.25, enforce_range=False)
    report = validate_schedule(pair)
    assert not report.gamma_range_ok
    assert not report.feasible


def test_validate_flags_subcritical_fourth_order():
    pair = fourth_order_pair(1.0, 2 * PI / 7, enforce_range=False)
    report = validate_schedule(pair)
    assert not report.feasible
    assert report.messages


def test_sweep_reproduces_half_switch_minimum():
    result = sweep_beta_dot0(1.0, 0.5, 4.0, 6.5, 26)
    u_star, cost_star = result.minimum
    assert u_star == pytest.approx(5.232, abs=0.05)
    assert cost_star == pytest.approx(3.230, abs=0.01)
    assert cost_star >= PI - 1e-6
    assert result.infeasible_points == []
    feasible_costs = [c for _, c in result.grid if math.isfinite(c)]
    assert cost_star <= min(feasible_costs) + 1e-12


def test_sweep_grid_contents():
    result = sweep_beta_dot0(1.0, 0.5, 1.0, 2.0, 11)
    assert len(result.grid) == 11
    assert [u for u, _ in result.grid] == pytest.approx(list(np.linspace(1, 2, 11)))


def test_sweep_no_feasible_point():
    with pytest.raises(NoFeasiblePoint):
        sweep_beta_dot0(1.0, 0.5, 400.0, 500.0, 10)


def test_sweep_counts_unbuildable_schedules_as_infeasible():
    # at t_a = 0.999 t_f every antedated fit fails its residual check
    with pytest.raises(NoFeasiblePoint):
        sweep_beta_dot0(1.0, 0.999, 4.0, 6.0, 10)


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
    report = compare_passages([third_order_pair(1.0)], W, 800)[0]
    assert report.max_population_gap < 0.05  # usual passage shadows the adiabatic one
    assert report.rho11[0] == pytest.approx(0.8, abs=1e-12)
    assert report.rho11[-1] == pytest.approx(0.2, abs=1e-12)
    assert np.all(report.adiabatic_bloch[:, 1] == 0.0)
    assert np.abs(report.bloch[:, 1]).max() > 0.1
    assert report.inversion_time is not None


def test_compare_passages_antedated_inversion_at_switch():
    pair = antedated_pair(1.0, 0.5)
    report = compare_passages([pair], W, 1000)[0]
    idx = np.searchsorted(report.t, 0.5)
    assert report.rho11[idx] == pytest.approx(0.2, abs=1e-6)
    assert report.rho22[idx] == pytest.approx(0.8, abs=1e-6)
    np.testing.assert_allclose(report.rho11[idx:], 0.2, atol=1e-9)
    assert report.inversion_time is not None and report.inversion_time <= 0.5


def test_compare_passages_fidelity_column():
    report = compare_passages([third_order_pair(1.0)], W, 200)[0]
    assert report.fidelity_to_target[-1] == pytest.approx(1.0, abs=1e-9)
    assert np.all(report.fidelity_to_target <= 1.0 + 1e-12)
