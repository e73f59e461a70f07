import math
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iecpulse.dynamics import (
    PureTrajectory,
    Trajectory,
    Weights,
    adiabatic_state,
    bloch_vector,
    check_density_matrix,
    evolve,
    evolve_pure,
    fidelity,
    hamiltonian_at,
    invariant_at,
    invariant_eigenstate,
    invariant_residual,
    invariant_state,
)
from iecpulse import dynamics
from iecpulse.errors import ConfigError, DegeneratePoint, DivergentPulse, StepTooCoarse
from iecpulse.poly import Polynomial
from iecpulse.pulse import _waveform, lr_phase
from iecpulse.schedule import SchedulePair, antedated_pair, beta_dot0_rate, fourth_order_pair
from iecpulse.schedule import third_order_pair

PI = math.pi
W = Weights(0.2, 0.8)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@pytest.fixture(scope="module")
def third():
    return third_order_pair(1.0)


@pytest.fixture(scope="module")
def ante():
    return antedated_pair(1.0, 0.5)


@pytest.fixture
def cold_scan():
    """The propagator scan evolve and evolve_pure share, cleared before and
    after the test: a test that patches the integrator must run it cold, and
    must leave no scan made under its patch for a later test to read."""
    dynamics._propagator.cache_clear()
    yield
    dynamics._propagator.cache_clear()


def test_weights_validation():
    with pytest.raises(ValueError):
        Weights(0.3, 0.8)
    with pytest.raises(ValueError):
        Weights(-0.1, 1.1)
    for args in (("0.2", 0.8), (0.2, "0.8"), (0.2 + 0j, 0.8), (None, 1.0)):
        with pytest.raises(ConfigError, match="weights"):
            Weights(*args)
    assert Weights(0.2, 0.8).difference == pytest.approx(-0.6)


def test_hamiltonian_start_is_diagonal(third):
    h = hamiltonian_at(third, 0.0)
    np.testing.assert_allclose(h, np.diag([-2.25 * PI, 2.25 * PI]), atol=1e-9)


def test_hamiltonian_midpoint_is_transverse(third):
    h = hamiltonian_at(third, 0.5)
    assert abs(h[0, 0]) < 1e-12 and abs(h[1, 1]) < 1e-12
    expected = 0.5 * 1.5 * PI / math.sin(PI / 8)
    assert h[0, 1].real == pytest.approx(expected, rel=1e-12)


def test_hamiltonian_mirror_symmetry(third):
    np.testing.assert_allclose(hamiltonian_at(third, 1.0), -hamiltonian_at(third, 0.0), atol=1e-9)


def test_hamiltonian_after_switch(ante):
    h = hamiltonian_at(ante, 0.75)
    assert h[0, 1] == 0 and h[1, 0] == 0
    held = hamiltonian_at(ante, 0.9)
    np.testing.assert_allclose(h, held, atol=1e-15)


def test_invariant_endpoints(third):
    np.testing.assert_allclose(invariant_at(third, 0.0), np.diag([-0.5, 0.5]), atol=1e-12)
    np.testing.assert_allclose(invariant_at(third, 1.0), np.diag([0.5, -0.5]), atol=1e-12)


def test_invariant_midpoint(third):
    inv = invariant_at(third, 0.5)
    # gamma = pi/2, beta = -pi/8: off-diagonal phase e^{-i pi/8}
    assert inv[0, 1] == pytest.approx(0.5 * np.exp(-1j * PI / 8), abs=1e-12)
    assert abs(inv[0, 0]) < 1e-12


def test_invariant_commutes_with_hamiltonian_at_endpoints(third):
    for s in (0.0, 1.0):
        h = hamiltonian_at(third, s)
        inv = invariant_at(third, s)
        assert np.linalg.norm(h @ inv - inv @ h) < 1e-9


def test_antedated_commutators(ante):
    inv = invariant_at(ante, 0.5)
    h_before = hamiltonian_at(ante, 0.5)
    assert np.linalg.norm(h_before @ inv - inv @ h_before) > 1e-2
    h_after = hamiltonian_at(ante, 0.5 + 1e-9)
    assert np.linalg.norm(h_after @ inv - inv @ h_after) < 1e-10


def test_invariant_residual_vanishes(third):
    worst = invariant_residual(third, np.linspace(0, 1, 500)).max()
    assert worst < 1e-8


def _residual_reference(pair, s, beta_offset=0.0):
    """The per-sample residual invariant_residual replaced: 2x2 matrices
    built with math and Python complex arithmetic. H takes omega_r and delta
    from the vector evaluators, as invariant_residual does: the scalar ones
    differ from them by an ulp at some samples (math.sin(x) / x against
    np.sinc), which moves these ~1e-14 residuals by up to ~1.4e-15. A
    beta_offset shifts the invariant's beta, not the drive's."""
    wave = _waveform(pair)

    def invariant(x):
        g, b = float(pair.gamma(x)), float(pair.beta(x)) + beta_offset
        off = 0.5 * math.sin(g) * complex(math.cos(b), math.sin(b))
        return np.array([[0.5 * math.cos(g), off], [off.conjugate(), -0.5 * math.cos(g)]])

    a = pair.switch_fraction
    if a is not None and s > a:
        d = wave.switch_delta
        h = np.array([[0.5 * d, 0.0], [0.0, -0.5 * d]], dtype=complex)
        inv = invariant(a)
        return float(np.linalg.norm(h @ inv - inv @ h))
    om, dl = float(wave.omega_many(np.array([s]))[0]), float(wave.delta_many(np.array([s]))[0])
    h = np.array([[0.5 * dl, 0.5 * om], [0.5 * om, -0.5 * dl]], dtype=complex)
    g, b = float(pair.gamma(s)), float(pair.beta(s)) + beta_offset
    dg, db = float(wave.gamma.derivative()(s)), float(wave.beta.derivative()(s))
    d_off = 0.5 * complex(math.cos(b), math.sin(b)) * complex(dg * math.cos(g), db * math.sin(g))
    d_inv = np.array(
        [[-0.5 * dg * math.sin(g), d_off], [d_off.conjugate(), 0.5 * dg * math.sin(g)]]
    )
    inv = invariant(s)
    return float(np.linalg.norm(1j * d_inv - (h @ inv - inv @ h)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: third_order_pair(1.0),
        lambda: fourth_order_pair(1.0, 1.2),
        lambda: antedated_pair(1.0, 0.5),
    ],
    ids=["third", "fourth-1.2", "antedated-0.5"],
)
def test_invariant_residual_array_matches_scalar_formula(build, monkeypatch):
    pair = build()
    s = np.linspace(0.0, 1.0, 401)  # holds s = 0.5 = t_a / t_f and 200 samples past it
    residual = invariant_residual(pair, s)
    assert residual.shape == s.shape
    assert residual.tolist() == [invariant_residual(pair, float(x)) for x in s]
    square = invariant_residual(pair, s[:400].reshape(20, 20))
    assert np.array_equal(square, residual[:400].reshape(20, 20))
    # on the designed invariant both forms are rounding noise, ~1e-14
    reference = np.array([_residual_reference(pair, float(x)) for x in s])
    assert residual.max() <= 1e-13 and reference.max() <= 1e-13
    # tracking an invariant whose beta is offset by 0.1 rad from the drive's
    # makes the residual O(1), where the two forms must agree to rounding
    angles = dynamics._angles

    def offset(pair, s):
        g, b, dg, db = angles(pair, s)
        return g, b + 0.1, dg, db

    monkeypatch.setattr(dynamics, "_angles", offset)
    mismatched = invariant_residual(pair, s)
    reference = np.array([_residual_reference(pair, float(x), 0.1) for x in s])
    assert reference.max() > 0.1
    assert np.abs(mismatched - reference).max() <= 1e-12 * reference.max()


def test_invariant_residual_is_self_consistent_for_any_smooth_pair(third):
    # the waveforms are re-derived from whatever angles the pair carries, so
    # even a reshaped beta yields a consistent (if different) passage
    import dataclasses

    s = np.linspace(0.05, 0.95, 200)
    bump = Polynomial(third.beta.coefficients + np.array([0.0, 0.4, -0.4, 0.0]))
    reshaped = dataclasses.replace(third, beta=bump)
    assert invariant_residual(reshaped, s).max() < 1e-8
    # a uniform shift leaves cos(beta(0)) nonzero, so delta diverges at s = 0
    # on the driven segment, and the waveform is rejected when it is built
    shifted = dataclasses.replace(third, beta=third.beta.shifted(0.1))
    with pytest.raises(DivergentPulse, match=r"waveform diverges at s = 0\b(?!\.)"):
        invariant_residual(shifted, s)


def test_invariant_residual_detects_mismatched_invariant(third):
    # driving with the original waveforms while tracking an invariant whose
    # beta is offset by 0.1 rad must violate the defining equation
    import dataclasses

    broken = dataclasses.replace(third, beta=third.beta.shifted(0.1))
    h_step = 1e-6

    def mismatch(s):
        h = hamiltonian_at(third, s)
        inv = invariant_at(broken, s)
        dinv = (invariant_at(broken, s + h_step) - invariant_at(broken, s - h_step)) / (
            2.0 * h_step
        )
        return np.linalg.norm(1j * dinv - (h @ inv - inv @ h))

    worst = max(mismatch(float(s)) for s in np.linspace(0.05, 0.95, 200))
    assert worst > 1e-3


def test_invariant_residual_after_switch(ante):
    s_grid = np.array([0.6, 0.8, 1.0])
    assert invariant_residual(ante, s_grid).max() < 1e-10
    # the public invariant and Hamiltonian (t_f = 1) obey the same rule: the
    # invariant stays frozen at its t_a value under the held detuning
    h_step = 1e-6
    for s in s_grid:
        h = hamiltonian_at(ante, s)
        inv = invariant_at(ante, s)
        lo, hi = s - h_step, min(s + h_step, 1.0)  # the probes take s in [0, 1]
        dinv = (invariant_at(ante, hi) - invariant_at(ante, lo)) / (hi - lo)
        assert np.linalg.norm(1j * dinv - (h @ inv - inv @ h)) < 1e-8


def test_invariant_state_endpoints(third):
    np.testing.assert_allclose(invariant_state(third, W, 0.0), np.diag([0.8, 0.2]), atol=1e-12)
    np.testing.assert_allclose(invariant_state(third, W, 1.0), np.diag([0.2, 0.8]), atol=1e-12)


def test_invariant_state_midpoint_bloch(third):
    rho = invariant_state(third, W, 0.5)
    expected = np.array([-0.6 * math.cos(PI / 8), -0.6 * math.sin(PI / 8), 0.0])
    np.testing.assert_allclose(bloch_vector(rho), expected, atol=1e-12)


def test_invariant_state_bloch_norm_and_diagonality(third, ante):
    # ante switches at s = 0.5: about half the samples lie past t_a, where
    # the state and the eigenstates are both frozen at their t_a values
    rng = np.random.default_rng(5)
    for pair in (third, ante):
        for s in rng.uniform(0, 1, 50):
            rho = invariant_state(pair, W, float(s))
            check_density_matrix(rho)
            assert np.linalg.norm(bloch_vector(rho)) == pytest.approx(0.6, abs=1e-12)
            plus = invariant_eigenstate(pair, +1, float(s))
            minus = invariant_eigenstate(pair, -1, float(s))
            assert abs(np.vdot(plus, rho @ minus)) < 1e-12
            mixture = W.p_plus * np.outer(plus, plus.conj())
            mixture += W.p_minus * np.outer(minus, minus.conj())
            assert np.abs(mixture - rho).max() < 1e-12


def test_adiabatic_state_start(third):
    np.testing.assert_allclose(adiabatic_state(third, W, 0.0), np.diag([0.8, 0.2]), atol=1e-12)


def test_adiabatic_state_in_xz_plane(third):
    s_grid = np.linspace(0.0, 1.0, 101)
    for s in s_grid:
        assert bloch_vector(adiabatic_state(third, W, float(s)))[1] == 0.0
    assert np.all(bloch_vector(adiabatic_state(third, W, s_grid))[:, 1] == 0.0)


@pytest.mark.parametrize(
    "state",
    [
        invariant_state,
        adiabatic_state,
        lambda pair, w, s: hamiltonian_at(pair, s),
        lambda pair, w, s: invariant_at(pair, s),
    ],
    ids=["invariant_state", "adiabatic_state", "hamiltonian_at", "invariant_at"],
)
@pytest.mark.parametrize("name", ["third", "ante"])
def test_state_arrays_match_scalar_calls(request, name, state):
    # ante switches at s = 0.5, so half the samples lie past t_a; the
    # Hamiltonian and the invariant go through the same stack code
    pair = request.getfixturevalue(name)
    s_grid = np.concatenate([np.linspace(0.0, 1.0, 201), np.random.default_rng(7).uniform(0, 1, 50)])
    stack = state(pair, W, s_grid)
    assert stack.shape == (len(s_grid), 2, 2)
    scalar = np.array([state(pair, W, float(s)) for s in s_grid])
    assert np.abs(stack - scalar).max() <= 1e-15
    bloch = bloch_vector(stack)
    assert bloch.shape == (len(s_grid), 3)
    assert np.abs(bloch - np.array([bloch_vector(r) for r in scalar])).max() <= 1e-15


def test_adiabatic_state_array_at_level_crossing():
    # constant angles: omega_r = delta = 0 everywhere
    crossing = SchedulePair(Polynomial([1.0]), Polynomial([-1.2]), 1.0, None)
    with pytest.raises(DegeneratePoint):
        adiabatic_state(crossing, W, np.linspace(0.0, 1.0, 11))


def test_adiabatic_state_midpoint(third):
    # delta(1/2) = 0 so the mixing angle is pi/2
    rho = adiabatic_state(third, W, 0.5)
    np.testing.assert_allclose(bloch_vector(rho), [-0.6, 0.0, 0.0], atol=1e-12)


def test_eigenstate_endpoint_values(third):
    np.testing.assert_allclose(invariant_eigenstate(third, -1, 0.0), [1.0, 0.0], atol=1e-12)
    plus = invariant_eigenstate(third, +1, 0.0)
    np.testing.assert_allclose(np.abs(plus), [0.0, 1.0], atol=1e-12)


def test_evolve_matches_analytic_passage(third):
    rho0 = invariant_state(third, W, 0.0)
    traj = evolve(third, rho0, 10_000)
    worst = max(
        np.abs(traj.rho[i] - invariant_state(third, W, float(traj.t[i]))).max()
        for i in range(0, len(traj.t), 100)
    )
    assert worst < 1e-6


def test_evolve_is_fourth_order(third):
    rho0 = invariant_state(third, W, 0.0)

    def err(n):
        traj = evolve(third, rho0, n)
        return max(
            np.abs(traj.rho[i] - invariant_state(third, W, float(traj.t[i]))).max()
            for i in range(0, n + 1, n // 50)
        )

    ratio = err(100) / err(200)
    assert 10.0 < ratio < 24.0


def test_evolve_maximally_mixed_is_stationary(third):
    traj = evolve(third, 0.5 * np.eye(2, dtype=complex), 500)
    assert np.abs(traj.rho - 0.5 * np.eye(2)).max() < 1e-12


def test_evolve_antedated_freezes_after_switch(ante):
    rho0 = invariant_state(ante, W, 0.0)
    traj = evolve(ante, rho0, 2000)
    after = traj.rho[traj.t > 0.5 + 1e-12]
    assert np.abs(after - np.diag([0.2, 0.8])).max() < 1e-8


def test_evolve_preserves_purity_and_trace(third):
    rho0 = invariant_state(third, W, 0.0)
    traj = evolve(third, rho0, 1000)
    purity0 = np.trace(rho0 @ rho0).real
    for rho in traj.rho[::50]:
        check_density_matrix(rho, herm_tol=1e-10, trace_tol=1e-10, eig_tol=1e-8)
        assert np.trace(rho @ rho).real == pytest.approx(purity0, abs=1e-8)


def test_evolve_fidelity_reaches_target(third):
    rho0 = invariant_state(third, W, 0.0)
    traj = evolve(third, rho0, 1000)
    target = SIGMA_X @ rho0 @ SIGMA_X
    np.testing.assert_allclose(target, np.diag([0.2, 0.8]), atol=1e-12)
    assert fidelity(traj.rho, target)[-1] == pytest.approx(1.0, abs=1e-9)
    assert isinstance(traj, Trajectory)


def test_evolve_rejects_blown_up_run():
    # unstable at 100 steps: trace and Hermiticity hold while the scanned
    # quaternion grows to |q| ~ 1.2e11 and the eigenvalues to +-4.3e21, so
    # only the purity shows it
    pair = antedated_pair(1.0, 0.71, 8.164 * 0.5 * PI)
    rho0 = invariant_state(pair, W, 0.0)
    with pytest.raises(StepTooCoarse, match="purity"):
        evolve(pair, rho0, 100)


@pytest.mark.parametrize("run", ["evolve", "evolve_pure"])
def test_drift_checks_reject_nan(third, monkeypatch, cold_scan, run):
    real_h_grid = dynamics._h_grid

    def poisoned(*args):
        om, dl = real_h_grid(*args)
        om[len(om) // 2] = dl[len(dl) // 2] = np.nan
        return om, dl

    monkeypatch.setattr(dynamics, "_h_grid", poisoned)
    with pytest.raises(StepTooCoarse):
        if run == "evolve":
            evolve(third, invariant_state(third, W, 0.0), 200)
        else:
            evolve_pure(third, +1, 200)


def _propagator_reference(pair, n_steps):
    """A per-step RK4 loop on the 2x2 propagator, dU/ds = -i H U from U = E:
    four rate calls per step on U itself, the propagators appended to a
    list. RK4 on U has the truncation error of RK4 on q, not that of RK4 on
    rho or psi, so the scan's states are compared with U rho0 U^H and
    U psi0 of these."""
    times = [0.0]
    states = [np.eye(2, dtype=complex)]
    u = states[0]
    for s_lo, s_hi, n in dynamics._legs(pair, n_steps):
        om, dl = dynamics._h_grid(pair, s_lo, s_hi, n)
        h_grid = 0.5 * (om[:, None, None] * SIGMA_X + dl[:, None, None] * np.diag([1.0, -1.0]))
        step = (s_hi - s_lo) / n
        for k in range(n):
            h0, hm, h1 = h_grid[2 * k], h_grid[2 * k + 1], h_grid[2 * k + 2]
            k1 = -1j * (h0 @ u)
            k2 = -1j * (hm @ (u + 0.5 * step * k1))
            k3 = -1j * (hm @ (u + 0.5 * step * k2))
            k4 = -1j * (h1 @ (u + step * k3))
            u = u + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            times.append(s_lo + (k + 1) * step)
            states.append(u)
    return times, states


_PARITY_CASES = [
    pytest.param(lambda: third_order_pair(1.0), 3001, id="third-3001"),
    pytest.param(lambda: fourth_order_pair(1.0, 1.2), 3001, id="fourth-1.2-3001"),
] + [
    pytest.param(
        lambda a=a, u=u: antedated_pair(1.0, a, beta_dot0_rate(u, 1.0)),
        n,
        id=f"antedated-{a}-{u:g}u-{n}",
    )
    for a in (0.3, 0.45, 0.6)
    for u in (1.0, 4.0, 8.0)
    for n in ((3001, 10_001) if (a, u) == (0.45, 8.0) else (3001,))
]


def _assert_matches_reference_loop(
    pair, rho0, n_steps, branches=(+1, -1), reference=_propagator_reference
):
    # the maps and their lane scan reassociate RK4's sums, so the
    # states agree to rounding, not bit for bit: rho within 2.5e-13, psi
    # within 1e-12 (their phase error builds up over the post-switch leg);
    # the step times are the same
    traj = evolve(pair, rho0, n_steps)
    times, states = reference(pair, n_steps)
    u = np.array(states)
    assert traj.t.tolist() == [s * pair.t_f for s in times]
    assert np.abs(traj.rho - u @ rho0 @ u.conj().transpose(0, 2, 1)).max() <= 2.5e-13
    for branch in branches:
        samples = evolve_pure(pair, branch, n_steps)
        psi = u @ invariant_eigenstate(pair, branch, 0.0)
        assert [t for t, _ in samples] == traj.t.tolist()
        assert np.abs(np.array([psi for _, psi in samples]) - psi).max() <= 1e-12


@pytest.mark.parametrize("build, n_steps", _PARITY_CASES)
def test_step_maps_match_reference_loop(build, n_steps):
    pair = build()
    assert all(n % dynamics._BLOCK for _, _, n in dynamics._legs(pair, n_steps))
    _assert_matches_reference_loop(pair, invariant_state(pair, W, 0.0), n_steps)


@pytest.fixture(scope="module")
def ante_8u():
    return antedated_pair(1.0, 0.45, beta_dot0_rate(8.0, 1.0))


@pytest.fixture(scope="module")
def reference_once():
    """_propagator_reference, run once per input for the whole module: its
    states depend on no constant of _rk4, so the cases that vary those share it."""
    runs = {}

    def reference(pair, n_steps):
        if (pair, n_steps) not in runs:
            runs[pair, n_steps] = _propagator_reference(pair, n_steps)
        return runs[pair, n_steps]

    return reference


@pytest.mark.parametrize("block", [1, 2, 3, 5, 4096])
def test_prefix_products_match_reference_loop_at_any_block(
    monkeypatch, ante_8u, reference_once, cold_scan, block
):
    # each block with lanes of one step (the scan is all doubling), 2, 3
    # and 16: blocks of one step (no scan), blocks shorter than a lane (one
    # padded lane), blocks that are not multiples of the lane, and one block
    # per leg (the legs have 1350 and 1651 steps, neither a multiple of 16
    # or 3); a rho0 with an anti-Hermitian part is integrated as its
    # Hermitian part
    monkeypatch.setattr(dynamics, "_BLOCK", block)
    rho0 = invariant_state(ante_8u, W, 0.0)
    for lane in (1, 2, 3, 16):
        monkeypatch.setattr(dynamics, "_LANE", lane)
        dynamics._propagator.cache_clear()
        _assert_matches_reference_loop(ante_8u, rho0, 3001, reference=reference_once)
        rho = evolve(ante_8u, rho0 + 3e-10j * SIGMA_X, 3001).rho
        assert np.abs(rho - rho.conj().transpose(0, 2, 1)).max() == 0.0
        assert np.abs(rho - evolve(ante_8u, rho0, 3001).rho).max() <= 1e-15


@pytest.mark.parametrize(
    "build",
    [lambda: third_order_pair(1.0), lambda: antedated_pair(1.0, 0.5)],
    ids=["third", "antedated-0.5"],
)
def test_evolve_keeps_trace_and_hermiticity_exactly(build):
    # every step keeps the trace, so evolve carries it beside the Bloch
    # coordinates, exactly; real maps on real coordinates keep the
    # off-diagonal entries exact conjugates
    pair = build()
    rho = evolve(pair, invariant_state(pair, W, 0.0), 10_000).rho
    assert np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0).max() == 0.0
    assert np.abs(rho - rho.conj().transpose(0, 2, 1)).max() == 0.0


def _family_pair(family, t_f, frac, units):
    if family == "third":
        return third_order_pair(t_f)
    if family == "fourth":
        return fourth_order_pair(t_f, 1.2)
    return antedated_pair(t_f, frac * t_f, beta_dot0_rate(units, t_f))


@settings(max_examples=13)
@given(
    t_f=st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
    family=st.sampled_from(["third", "fourth", "antedated"]),
    frac=st.floats(0.3, 0.6),
    units=st.floats(1.0, 8.0),
)
@example(t_f=1e-6, family="antedated", frac=0.3, units=8.0)
@example(t_f=1e6, family="antedated", frac=0.6, units=8.0)
def test_dynamics_do_not_depend_on_t_f(t_f, family, frac, units):
    # the oracles integrate in s = t / t_f on the waveforms times t_f, so
    # their states are those of t_f = 1: exactly for the polynomial
    # families, and to rounding for the antedated one, whose beta_dot0
    # round-trips through t_f
    pair, unit = _family_pair(family, t_f, frac, units), _family_pair(family, 1.0, frac, units)
    tol = 1e-12 if family == "antedated" else 0.0
    traj, unit_traj = (evolve(p, invariant_state(p, W, 0.0), 2000) for p in (pair, unit))
    assert np.abs(traj.rho - unit_traj.rho).max() <= tol
    psi, unit_psi = (np.array([x for _, x in evolve_pure(p, +1, 2000)]) for p in (pair, unit))
    assert np.abs(psi - unit_psi).max() <= tol
    traj = evolve(pair, invariant_state(pair, W, 0.0), 10_000)
    exact = invariant_state(pair, W, traj.t / pair.t_f)
    assert np.abs(traj.rho - exact).max() <= 1e-6


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("run", ["evolve", "evolve_pure"])
def test_step_maps_use_no_more_memory_than_reference_loop(ante, cold_scan, run):
    # building the maps in blocks keeps the peak below the loop's: a map
    # stack for all 1e4 steps would not be; each traced run is a cold scan
    n_steps = 10_000
    rho0 = invariant_state(ante, W, 0.0)

    def integrate():
        dynamics._propagator.cache_clear()
        if run == "evolve":
            evolve(ante, rho0, n_steps)
        else:
            evolve_pure(ante, +1, n_steps)

    integrate()  # builds the cached waveform outside the traced runs
    reference = _traced_peak(lambda: np.array(_propagator_reference(ante, n_steps)[1]))
    assert _traced_peak(integrate) <= reference


@pytest.mark.parametrize(
    "build",
    [
        lambda: third_order_pair(1.0),
        lambda: fourth_order_pair(1.0, 1.2),
        lambda: antedated_pair(1.0, 0.5),
    ],
    ids=["third", "fourth-1.2", "antedated-0.5"],
)
def test_evolve_pure_step_floor_is_only_an_argument_check(build):
    pair = build()
    with pytest.raises(StepTooCoarse, match="norm"):
        evolve_pure(pair, +1, 100)
    assert len(evolve_pure(pair, +1, 150)) == 151


def test_evolve_requires_enough_steps(third):
    with pytest.raises(ValueError):
        evolve(third, np.diag([0.8, 0.2]).astype(complex), 50)


def test_evolve_pure_stays_on_branch(third):
    states = evolve_pure(third, +1, 2000)
    for t, psi in states[::100]:
        phi = invariant_eigenstate(third, +1, t)
        assert abs(np.vdot(phi, psi)) > 1.0 - 1e-6


def test_evolve_pure_phase_matches_quadrature(third, ante):
    # ante switches at s = 0.5 (t_f = 1): the samples past it check the held
    # detuning's phase on the frozen eigenstate
    for pair in (third, ante):
        for branch in (+1, -1):
            states = evolve_pure(pair, branch, 4000)
            for t, psi in states[::200]:
                phi = invariant_eigenstate(pair, branch, t)
                overlap = np.vdot(phi, psi)
                alpha = lr_phase(pair, t, branch)
                assert abs(np.angle(overlap * np.exp(-1j * alpha))) < 1e-5


@pytest.mark.parametrize(
    "build",
    [lambda: third_order_pair(1.0), lambda: fourth_order_pair(1.0, 2 * PI / 5),
     lambda: antedated_pair(1.0, 0.5, beta_dot0_rate(5.232, 1.0))],
    ids=["third", "fourth", "antedated"],
)
def test_lr_phase_is_the_oracle_phase(build):
    # at 20 000 steps the RK4 state is the invariant eigenstate times
    # e^{i alpha_n}, alpha_n = lr_phase, to 1e-10 in phase and in modulus
    # (measured: 5.6e-14 and 3.5e-13 on the three families)
    pair = build()
    for branch in (+1, -1):
        run = evolve_pure(pair, branch, 20_000)
        for s in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            t, psi = run[round(s * 20_000)]
            assert t == pytest.approx(s * pair.t_f, abs=1e-12)
            overlap = np.vdot(invariant_eigenstate(pair, branch, t / pair.t_f), psi)
            assert abs(np.angle(overlap * np.exp(-1j * lr_phase(pair, t, branch)))) <= 1e-10
            assert abs(abs(overlap) - 1.0) <= 1e-10


def test_evolve_pure_minus_branch_initial_state(third):
    states = evolve_pure(third, -1, 200)
    np.testing.assert_allclose(states[0][1], [1.0, 0.0], atol=1e-12)


def test_evolve_pure_checks_its_arguments_before_the_scan(third):
    before = dynamics._propagator.cache_info()
    for branch, n_steps, message in [
        (+1, [100], "n_steps"),  # unhashable: the checks run before any cache lookup
        (+1, 100.0, "n_steps"),
        (-1, 99, "n_steps"),
        (2, 100, "branch"),
        (2, [100], "branch"),
        ("+1", 100, "branch"),
        (np.array([1, -1]), [100], "branch"),
    ]:
        with pytest.raises(ConfigError, match=message):
            evolve_pure(third, branch, n_steps)
    assert dynamics._propagator.cache_info() == before


def test_evolve_checks_its_arguments_before_the_scan(third):
    before = dynamics._propagator.cache_info()
    rho0 = invariant_state(third, W, 0.0)
    for state, n_steps, message in [
        (rho0, [100], "n_steps"),  # unhashable: the checks run before any cache lookup
        (rho0, 100.0, "n_steps"),
        (rho0, 99, "n_steps"),
        (2.0 * rho0, [100], "trace"),
    ]:
        with pytest.raises(ConfigError, match=message):
            evolve(third, state, n_steps)
    assert dynamics._propagator.cache_info() == before


@pytest.mark.parametrize(
    "build, n_steps",
    [
        pytest.param(lambda: third_order_pair(1.0), 3001, id="third-3001"),
        pytest.param(lambda: fourth_order_pair(1.0, 1.2), 20_000, id="fourth-1.2-20000"),
        pytest.param(lambda: antedated_pair(1.0, 0.45, beta_dot0_rate(8.0, 1.0)), 10_001,
                     id="antedated-0.45-8u-10001"),
    ],
)
def test_evolve_pure_branches_share_one_scan(monkeypatch, cold_scan, build, n_steps):
    # evolve, for any rho0, and both evolve_pure branches read one propagator
    # scan of (pair, n_steps): whichever is asked for first makes the one
    # _rk4 call, the others are served from the one entry the cache holds,
    # and each result equals a cold call's bit for bit
    pair = build()
    rho_a, rho_b = invariant_state(pair, W, 0.0), np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    runs = {
        "evolve-a": lambda: evolve(pair, rho_a, n_steps),
        "pure+1": lambda: evolve_pure(pair, +1, n_steps),
        "pure-1": lambda: evolve_pure(pair, -1, n_steps),
        "evolve-b": lambda: evolve(pair, rho_b, n_steps),
    }
    scans = []
    rk4 = dynamics._rk4
    monkeypatch.setattr(dynamics, "_rk4", lambda *args: scans.append(args) or rk4(*args))
    cold = {}
    for name, run in runs.items():
        dynamics._propagator.cache_clear()
        result = run()
        cold[name] = result.t.tobytes(), (result.rho if "evolve" in name else result.psi).tobytes()
    assert len(scans) == len(runs) and len(set(t for t, _ in cold.values())) == 1
    for order in (list(runs), list(reversed(runs))):
        dynamics._propagator.cache_clear()
        scans.clear()
        for k, name in enumerate(order):
            result = runs[name]()
            states = result.rho if "evolve" in name else result.psi
            assert (result.t.tobytes(), states.tobytes()) == cold[name]
            info = dynamics._propagator.cache_info()
            assert (info.hits, info.misses, info.currsize, info.maxsize) == (k, 1, 1, 1)
        assert scans == [(pair, n_steps)]
    evolve_pure(pair, +1, n_steps + 1)
    assert dynamics._propagator.cache_info().currsize == 1


@pytest.mark.parametrize(
    "build",
    [lambda: third_order_pair(1.0), lambda: antedated_pair(1.0, 0.45, beta_dot0_rate(8.0, 1.0))],
    ids=["third", "antedated-0.45-8u"],
)
def test_oracles_apply_the_scanned_propagator(cold_scan, build):
    # evolve's rotation of rho0's Bloch vector by q and evolve_pure's
    # U psi0 are, to rounding, the matrix products with U built from the
    # same quaternions; rho0 has a complex coherence. U rho0 U^H has
    # |q|^2 times rho0's trace, which evolve carries exactly instead
    pair, n_steps = build(), 3001
    rho0 = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    traj = evolve(pair, rho0, n_steps)
    t, q = dynamics._propagator(pair, n_steps)
    q0, q1, q2, q3 = q.T
    u = np.empty((len(q), 2, 2), dtype=complex)
    u[:, 0, 0], u[:, 0, 1], u[:, 1, 0], u[:, 1, 1] = q0 - 1j * q3, -q2 - 1j * q1, q2 - 1j * q1, q0 + 1j * q3
    assert traj.t is t
    rotated = u @ rho0 @ u.conj().transpose(0, 2, 1)
    assert np.abs(bloch_vector(traj.rho) - bloch_vector(rotated)).max() <= 1e-15
    assert np.array_equal(np.trace(traj.rho, axis1=1, axis2=2), np.full(len(q), 1.0 + 0j))
    for branch in (+1, -1):
        psi = evolve_pure(pair, branch, n_steps).psi
        assert np.abs(psi - u @ invariant_eigenstate(pair, branch, 0.0)).max() <= 1e-15


def test_evolve_pure_record_is_a_read_only_sequence_of_samples(third, cold_scan):
    record = evolve_pure(third, -1, 200)
    assert isinstance(record, PureTrajectory) and isinstance(record, Sequence)
    assert record.t.shape == (201,) and record.psi.shape == (201, 2)
    assert record.t.dtype == float and record.psi.dtype == complex
    assert len(record) == 201
    t, psi = record[-1]
    assert type(t) is float and t == record.t[-1] and psi.tobytes() == record.psi[-1].tobytes()
    assert [t for t, _ in record] == record.t.tolist()
    part = record[10:50:7]
    assert isinstance(part, PureTrajectory) and part.t.tolist() == record.t[10:50:7].tolist()
    assert len(part) == 6 and part[0][1].tobytes() == record.psi[10].tobytes()
    # the arrays are views of the shared scan: nothing written through them reaches it
    kept = record.psi.copy()
    for a in (record.t, record.psi, part.psi, record[3][1]):
        with pytest.raises(ValueError):
            a[0] = 0.0
        with pytest.raises(ValueError):
            a.setflags(write=True)
    assert evolve_pure(third, -1, 200).psi.tobytes() == kept.tobytes()


def _fidelity_reference(rho, sigma):
    """The per-state fidelity fidelity() replaced, with np.linalg.det."""
    overlap = float(np.trace(rho @ sigma).real)
    det_r = max(float(np.linalg.det(rho).real), 0.0)
    det_s = max(float(np.linalg.det(sigma).real), 0.0)
    return min(max(overlap + 2.0 * math.sqrt(det_r * det_s), 0.0), 1.0)


def test_fidelity_stack_matches_det_loop(third, ante):
    # Each target shares its stack's spectrum, as in the trajectory files
    # of the evolve subcommand. Against a state of another spectrum, a pure state's
    # det ~ 1e-17 of round-off in either form becomes ~1e-9 under the sqrt.
    s_grid = np.linspace(0.0, 1.0, 301)
    mixed = np.concatenate(
        [
            invariant_state(third, W, s_grid),
            adiabatic_state(ante, W, s_grid),
            evolve(ante, invariant_state(ante, W, 0.0), 300).rho,
        ]
    )
    pure = invariant_state(third, Weights(1.0, 0.0), s_grid)
    for stack in (mixed, pure):
        for target in (stack[0], stack[len(stack) // 2], stack[-1]):
            fid = fidelity(stack, target)
            assert fid.shape == (len(stack),)
            expected = np.array([_fidelity_reference(r, target) for r in stack])
            assert np.abs(fid - expected).max() <= 1e-15
            assert np.array_equal(fid, [fidelity(r, target) for r in stack])


def test_fidelity_identity():
    rho = np.diag([0.7, 0.3]).astype(complex)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_population_swap():
    a = np.diag([0.8, 0.2]).astype(complex)
    b = np.diag([0.2, 0.8]).astype(complex)
    # tr(ab) = 2 * 0.16, det a = det b = 0.16
    assert fidelity(a, b) == pytest.approx(0.64, abs=1e-12)


def test_fidelity_orthogonal_pure_states():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert fidelity(a, b) == 0.0


@pytest.mark.parametrize("rho, sigma", [
    (np.eye(2) / 2, np.eye(3)),  # used to read 1.0
    (np.eye(3) / 3, np.diag([1.0, 0.0, 0.0])),  # used to read 0.333
    (np.ones(2), np.eye(2) / 2),
    (np.eye(2) / 2, [["a", "b"], ["c", "d"]]),
    (np.eye(2) / 2, [[1], [0, 0]]),
    (np.eye(2) / 2, None),
], ids=["3x3-target", "3x3-pair", "vector", "strings", "ragged", "none"])
def test_fidelity_and_bloch_vector_need_2x2_numeric_arrays(rho, sigma):
    with pytest.raises(ConfigError, match="2x2 array of numbers"):
        fidelity(rho, sigma)
    with pytest.raises(ConfigError, match="2x2 array of numbers"):
        fidelity(sigma, rho)
    bad = rho if np.shape(rho)[-2:] != (2, 2) else sigma
    with pytest.raises(ConfigError, match="2x2 array of numbers"):
        bloch_vector(bad)


def test_fidelity_takes_nested_lists_and_stacks():
    assert fidelity([[1, 0], [0, 0]], [[0.5, 0.5], [0.5, 0.5]]) == pytest.approx(0.5, abs=1e-15)
    assert fidelity(np.stack([np.eye(2) / 2] * 3), np.eye(2) / 2).shape == (3,)
    assert bloch_vector([[1, 0], [0, 0]]).tolist() == [0.0, 0.0, 1.0]


def test_bloch_vector_roundtrip():
    rng = np.random.default_rng(2)
    x, y, z = rng.uniform(-0.5, 0.5, 3)
    rho = 0.5 * (np.eye(2) + x * SIGMA_X + y * np.array([[0, -1j], [1j, 0]]) + z * np.diag([1, -1]))
    np.testing.assert_allclose(bloch_vector(rho), [x, y, z], atol=1e-14)


@pytest.mark.parametrize(
    "rho0",
    ["x", [[1], [0, 0]], [[1, 0], [0, "0"]], np.eye(3) / 3, [0.5, 0.5], np.zeros((1, 2, 2)), None],
    ids=["string", "ragged", "string-entry", "3x3", "vector", "stack", "none"],
)
def test_malformed_density_matrix_is_a_config_error(third, rho0):
    with pytest.raises(ConfigError, match="density matrix must be"):
        check_density_matrix(rho0)
    with pytest.raises(ConfigError, match="density matrix must be"):
        evolve(third, rho0, 100)


def test_density_matrix_may_be_a_nested_list(third):
    check_density_matrix([[0.5, 0], [0, 0.5]])
    rho0 = [[0.8, 0.0], [0.0, 0.2]]
    traj = evolve(third, rho0, 100)
    assert traj.rho.tobytes() == evolve(third, np.array(rho0, dtype=complex), 100).rho.tobytes()


def test_check_density_matrix_rejects_bad_inputs(third):
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([0.9, 0.2]).astype(complex))
    with pytest.raises(ValueError):
        check_density_matrix(np.array([[0.5, 0.4], [0.1, 0.5]], dtype=complex))
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([1.5, -0.5]).astype(complex))
    # non-finite entries, which no tolerance test may let through or warn on
    for bad in (np.nan, np.inf, -np.inf, complex(0.5, np.nan)):
        for at in ((0, 0), (0, 1)):
            rho = np.diag([0.5, 0.5]).astype(complex)
            rho[at] = bad
            with pytest.raises(ConfigError, match="non-finite"):
                check_density_matrix(rho)
    with pytest.raises(ConfigError, match="non-finite"):
        evolve(third, np.full((2, 2), np.nan, dtype=complex), 100)
