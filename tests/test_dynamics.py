import math
import tracemalloc

import numpy as np
import pytest

from iecpulse.dynamics import (
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
from iecpulse.errors import DegeneratePoint, DivergentPulse, StepTooCoarse
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


def test_weights_validation():
    with pytest.raises(ValueError):
        Weights(0.3, 0.8)
    with pytest.raises(ValueError):
        Weights(-0.1, 1.1)
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


def _residual_reference(pair, s):
    """The per-sample residual invariant_residual replaced: 2x2 matrices
    built with math and Python complex arithmetic. H takes omega_r and delta
    from the vector evaluators, as invariant_residual does: the scalar ones
    differ from them by an ulp at some samples (math.sin(x) / x against
    np.sinc), which moves these ~1e-14 residuals by up to ~1.4e-15."""
    wave = _waveform(pair)

    def invariant(x):
        g, b = float(pair.gamma(x)), float(pair.beta(x))
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
    g, b = float(pair.gamma(s)), float(pair.beta(s))
    dg, db = float(wave.dgamma(s)), float(wave.dbeta(s))
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
def test_invariant_residual_array_matches_scalar_formula(build):
    pair = build()
    s = np.linspace(0.0, 1.0, 401)  # holds s = 0.5 = t_a / t_f and 200 samples past it
    residual = invariant_residual(pair, s)
    assert residual.shape == s.shape
    assert residual.tolist() == [invariant_residual(pair, float(x)) for x in s]
    square = invariant_residual(pair, s[:400].reshape(20, 20))
    assert np.array_equal(square, residual[:400].reshape(20, 20))
    reference = np.array([_residual_reference(pair, float(x)) for x in s])
    assert np.abs(residual - reference).max() <= 1e-15


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
        dinv = (invariant_at(ante, s + h_step) - invariant_at(ante, s - h_step)) / (2.0 * h_step)
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
    # unstable at 100 steps: trace and Hermiticity hold while the
    # eigenvalues grow to +-3e13, so only the purity shows it
    pair = antedated_pair(1.0, 0.71, 8.164 * 0.5 * PI)
    rho0 = invariant_state(pair, W, 0.0)
    with pytest.raises(StepTooCoarse, match="purity"):
        evolve(pair, rho0, 100)


@pytest.mark.parametrize("run", ["evolve", "evolve_pure"])
def test_drift_checks_reject_nan(third, monkeypatch, run):
    real_h_grid = dynamics._h_grid

    def poisoned(*args):
        h = real_h_grid(*args)
        h[len(h) // 2] = np.nan
        return h

    monkeypatch.setattr(dynamics, "_h_grid", poisoned)
    with pytest.raises(StepTooCoarse):
        if run == "evolve":
            evolve(third, invariant_state(third, W, 0.0), 200)
        else:
            evolve_pure(third, +1, 200)


def _rk4_reference(pair, y0, n_steps, rate):
    """The per-step RK4 loop the batched step maps replaced: four rate
    calls per step on the state itself, the states appended to a list."""
    times = [0.0]
    states = [y0]
    y = y0
    for s_lo, s_hi, n in dynamics._legs(pair, n_steps):
        h_grid = dynamics._h_grid(pair, s_lo, s_hi, n)
        step = (s_hi - s_lo) / n
        for k in range(n):
            h0, hm, h1 = h_grid[2 * k], h_grid[2 * k + 1], h_grid[2 * k + 2]
            k1 = rate(h0, y)
            k2 = rate(hm, y + 0.5 * step * k1)
            k3 = rate(hm, y + 0.5 * step * k2)
            k4 = rate(h1, y + step * k3)
            y = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            times.append(s_lo + (k + 1) * step)
            states.append(y)
    return times, states


def _von_neumann(h, rho):
    return -1j * (h @ rho - rho @ h)


def _schroedinger(h, psi):
    return -1j * (h @ psi)


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


@pytest.mark.parametrize("build, n_steps", _PARITY_CASES)
def test_step_maps_match_reference_loop(build, n_steps):
    # the maps reassociate RK4's sums, so the states agree to rounding, not
    # bit for bit: rho within 1e-13, psi within 1e-12 (its phase error
    # builds up over the post-switch leg); the step times are the same
    pair = build()
    assert all(n % dynamics._BLOCK for _, _, n in dynamics._legs(pair, n_steps))
    rho0 = invariant_state(pair, W, 0.0)
    traj = evolve(pair, rho0, n_steps)
    times, states = _rk4_reference(pair, rho0, n_steps, _von_neumann)
    assert traj.t.tolist() == [s * pair.t_f for s in times]
    assert np.abs(traj.rho - np.array(states)).max() <= 1e-13
    for branch in (+1, -1):
        samples = evolve_pure(pair, branch, n_steps)
        psi0 = invariant_eigenstate(pair, branch, 0.0)
        times, states = _rk4_reference(pair, psi0, n_steps, _schroedinger)
        assert [t for t, _ in samples] == [s * pair.t_f for s in times]
        assert np.abs(np.array([psi for _, psi in samples]) - np.array(states)).max() <= 1e-12


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("run", ["evolve", "evolve_pure"])
def test_step_maps_use_no_more_memory_than_reference_loop(ante, run):
    # building the maps in blocks keeps the peak below the loop's: a map
    # stack for all 1e4 steps would not be
    n_steps = 10_000
    if run == "evolve":
        y0, rate = invariant_state(ante, W, 0.0), _von_neumann
        integrate = lambda: evolve(ante, y0, n_steps)  # noqa: E731
    else:
        y0, rate = invariant_eigenstate(ante, +1, 0.0), _schroedinger
        integrate = lambda: evolve_pure(ante, +1, n_steps)  # noqa: E731
    integrate()  # builds the cached waveform outside the traced runs
    reference = _traced_peak(lambda: np.array(_rk4_reference(ante, y0, n_steps, rate)[1]))
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


def test_evolve_pure_minus_branch_initial_state(third):
    states = evolve_pure(third, -1, 200)
    np.testing.assert_allclose(states[0][1], [1.0, 0.0], atol=1e-12)


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


def test_bloch_vector_roundtrip():
    rng = np.random.default_rng(2)
    x, y, z = rng.uniform(-0.5, 0.5, 3)
    rho = 0.5 * (np.eye(2) + x * SIGMA_X + y * np.array([[0, -1j], [1j, 0]]) + z * np.diag([1, -1]))
    np.testing.assert_allclose(bloch_vector(rho), [x, y, z], atol=1e-14)


def test_check_density_matrix_rejects_bad_inputs():
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([0.9, 0.2]).astype(complex))
    with pytest.raises(ValueError):
        check_density_matrix(np.array([[0.5, 0.4], [0.1, 0.5]], dtype=complex))
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([1.5, -0.5]).astype(complex))
