"""Two-level mixed-state dynamics along a designed passage.

States are plain 2x2 complex numpy arrays (density matrices) or length-2
complex vectors. The state builders take a float s or an array of s and
return a 2x2 state or an (n, 2, 2) stack; bloch_vector and fidelity take a
state or a stack. The invariant-basis mixed state

    rho(t) = p_plus |phi_plus(t)><phi_plus(t)| + p_minus |phi_minus(t)><phi_minus(t)|

is the exact solution of the von Neumann equation under the engineered
Hamiltonian, so a fixed-step RK4 integration of i drho/dt = [H, rho]
serves as an independent oracle for the whole construction. RK4 on that
equation keeps trace and Hermiticity even when it is unstable, so evolve
also checks the purity tr(rho^2), which fixes a qubit state's spectrum.
The mixing-angle (instantaneous-eigenbasis) state provides the adiabatic
reference passage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePoint, StepTooCoarse
from .pulse import _Waveform, _waveform
from .schedule import SchedulePair

__all__ = [
    "Weights",
    "Trajectory",
    "bloch_vector",
    "check_density_matrix",
    "hamiltonian_at",
    "invariant_at",
    "invariant_eigenstate",
    "invariant_residual",
    "invariant_state",
    "adiabatic_state",
    "evolve",
    "evolve_pure",
    "fidelity",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

#: Largest drift of tr(rho^2) from its initial value that evolve accepts:
#: the RK4 agreement bound.
PURITY_DRIFT_BOUND = 1e-6


@dataclass(frozen=True)
class Weights:
    """Populations of the two invariant branches; they must sum to one."""

    p_plus: float
    p_minus: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_plus <= 1.0 and 0.0 <= self.p_minus <= 1.0):
            raise ValueError("branch weights must lie in [0, 1]")
        if abs(self.p_plus + self.p_minus - 1.0) > 1e-12:
            raise ValueError("branch weights must sum to 1")

    @property
    def difference(self) -> float:
        return self.p_plus - self.p_minus


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: times, states, Bloch vectors, fidelity to target."""

    t: np.ndarray
    rho: np.ndarray
    bloch: np.ndarray
    fidelity_to_target: np.ndarray
    target: np.ndarray


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """(x, y, z) with rho = (I + x sx + y sy + z sz) / 2, for a state or an
    (n, 2, 2) stack (then shape (n, 3))."""
    rho = np.asarray(rho)
    return np.stack(
        [
            2.0 * rho[..., 0, 1].real,
            -2.0 * rho[..., 0, 1].imag,
            (rho[..., 0, 0] - rho[..., 1, 1]).real,
        ],
        axis=-1,
    )


def check_density_matrix(
    rho: np.ndarray, *, herm_tol: float = 1e-12, trace_tol: float = 1e-12, eig_tol: float = 1e-10
) -> None:
    """Raise ValueError unless rho is Hermitian, unit-trace, and PSD."""
    if rho.shape != (2, 2):
        raise ValueError("density matrix must be 2x2")
    if np.abs(rho - rho.conj().T).max() > herm_tol:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > trace_tol or abs(np.trace(rho).imag) > trace_tol:
        raise ValueError("density matrix trace is not 1")
    if np.linalg.eigvalsh(rho).min() < -eig_tol:
        raise ValueError("density matrix has a negative eigenvalue")


# ---------------------------------------------------------------------------
# operators along the passage

def _h_dimless(wave: _Waveform, s: float) -> np.ndarray:
    """H * t_f at s, honoring the antedated switch for s > t_a / t_f."""
    a = wave.switch
    if a is not None and s > a:
        d = wave.switch_delta()
        return np.array([[0.5 * d, 0.0], [0.0, -0.5 * d]], dtype=complex)
    om = wave.omega(s)
    dl = wave.delta(s)
    return np.array([[0.5 * dl, 0.5 * om], [0.5 * om, -0.5 * dl]], dtype=complex)


def hamiltonian_at(pair: SchedulePair, s: float) -> np.ndarray:
    """The 2x2 control Hamiltonian at s, in angular-frequency units."""
    return _h_dimless(_waveform(pair), s) / pair.t_f


def invariant_at(pair: SchedulePair, s: float) -> np.ndarray:
    """The dynamical invariant (unit scale constant) of the design at s."""
    g = float(pair.gamma(s))
    b = float(pair.beta(s))
    off = 0.5 * math.sin(g) * complex(math.cos(b), math.sin(b))
    return np.array(
        [[0.5 * math.cos(g), off], [off.conjugate(), -0.5 * math.cos(g)]], dtype=complex
    )


def invariant_eigenstate(pair: SchedulePair, branch: int, s: float) -> np.ndarray:
    """Instantaneous eigenstate of the invariant, branch = +1 or -1."""
    g = float(pair.gamma(s))
    b = float(pair.beta(s))
    if branch == +1:
        return np.array(
            [math.cos(0.5 * g) * complex(math.cos(b), math.sin(b)), math.sin(0.5 * g)],
            dtype=complex,
        )
    if branch == -1:
        return np.array(
            [math.sin(0.5 * g), -math.cos(0.5 * g) * complex(math.cos(b), -math.sin(b))],
            dtype=complex,
        )
    raise ValueError("branch must be +1 or -1")


def invariant_residual(pair: SchedulePair, s: float) -> float:
    """Frobenius norm of i dI/dt - [H, I], times t_f (dimensionless).

    This is the self-consistency check of the whole inverse construction:
    the waveforms are derived exactly from the invariant equation, so the
    residual must vanish to floating-point accuracy. Past the antedated
    switch the invariant is frozen at its t_a value and checked against
    the switched (diagonal) Hamiltonian.
    """
    wave = _waveform(pair)
    a = pair.switch_fraction
    if a is not None and s > a:
        inv = invariant_at(pair, a)
        h = _h_dimless(wave, s)
        return float(np.linalg.norm(h @ inv - inv @ h))
    g = float(pair.gamma(s))
    b = float(pair.beta(s))
    dg = float(wave.dgamma(s))
    db = float(wave.dbeta(s))
    phase = complex(math.cos(b), math.sin(b))
    d_off = 0.5 * phase * complex(dg * math.cos(g), db * math.sin(g))
    d_inv = np.array(
        [[-0.5 * dg * math.sin(g), d_off], [d_off.conjugate(), 0.5 * dg * math.sin(g)]],
        dtype=complex,
    )
    inv = invariant_at(pair, s)
    h = _h_dimless(wave, s)
    return float(np.linalg.norm(1j * d_inv - (h @ inv - inv @ h)))


# ---------------------------------------------------------------------------
# states

def _states(rho11, rho22, rho12) -> np.ndarray:
    """Hermitian 2x2 states from their diagonal and upper off-diagonal
    entries, stacked over the entries' shape."""
    rho = np.empty(np.shape(rho11) + (2, 2), dtype=complex)
    rho[..., 0, 0] = rho11
    rho[..., 0, 1] = rho12
    rho[..., 1, 0] = np.conj(rho12)
    rho[..., 1, 1] = rho22
    return rho


def invariant_state(pair: SchedulePair, w: Weights, s: float | np.ndarray) -> np.ndarray:
    """Mixed state carried by the invariant branches at s.

    s is a float (a 2x2 state) or an array (a stack of states, shape
    s.shape + (2, 2)). For antedated schedules the state is frozen from t_a
    on (diagonal state under a diagonal Hamiltonian).
    """
    s = np.asarray(s, dtype=float)
    a = pair.switch_fraction
    if a is not None:
        s = np.minimum(s, a)
    g = pair.gamma(s)
    b = pair.beta(s)
    dp = w.difference
    off = 0.5 * dp * np.sin(g) * (np.cos(b) + 1j * np.sin(b))
    return _states(0.5 * (1.0 + dp * np.cos(g)), 0.5 * (1.0 - dp * np.cos(g)), off)


def adiabatic_state(pair: SchedulePair, w: Weights, s: float | np.ndarray) -> np.ndarray:
    """Reference state that adiabatically follows the Hamiltonian eigenbasis.

    s is a float or an array, as for invariant_state. Mixing angle
    theta = arccos(delta / Omega); the Bloch vector stays in the xz-plane.
    Samples past an antedated switch see the held detuning and no drive.
    Raises DegeneratePoint at a level crossing, and DivergentPulse when a
    waveform diverges within the span of the driven samples.
    """
    wave = _waveform(pair)
    s = np.asarray(s, dtype=float)
    a = pair.switch_fraction
    driven = s <= a if a is not None else np.ones(s.shape, dtype=bool)
    om = np.zeros(s.shape)
    dl = np.zeros(s.shape)
    if driven.any():
        om[driven] = wave.omega_many(s[driven])
        dl[driven] = wave.delta_many(s[driven])
    if not driven.all():
        dl[~driven] = wave.switch_delta()
    crossing = np.hypot(om, dl) < 1e-12
    if crossing.any():
        at = s[crossing][0]
        raise DegeneratePoint(f"level crossing at s = {at:.6g}: mixing angle undefined")
    theta = np.arctan2(om, dl)
    half = 0.5 * w.difference
    return _states(0.5 + half * np.cos(theta), 0.5 - half * np.cos(theta), half * np.sin(theta))


def _overlap(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Re tr(rho sigma) over the trailing 2x2 axes."""
    return (
        (rho[..., 0, 0] * sigma[..., 0, 0] + rho[..., 0, 1] * sigma[..., 1, 0])
        + (rho[..., 1, 0] * sigma[..., 0, 1] + rho[..., 1, 1] * sigma[..., 1, 1])
    ).real


def _det(rho: np.ndarray) -> np.ndarray:
    """Re det(rho) over the trailing 2x2 axes."""
    return (rho[..., 0, 0] * rho[..., 1, 1] - rho[..., 0, 1] * rho[..., 1, 0]).real


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float | np.ndarray:
    """Uhlmann fidelity of two qubit states: tr(rho sigma) + 2 sqrt(det rho det sigma).

    rho and sigma are states or (n, 2, 2) stacks, broadcast against each
    other; two states give a float, a stack an array.
    """
    rho, sigma = np.asarray(rho), np.asarray(sigma)
    dets = np.maximum(_det(rho), 0.0) * np.maximum(_det(sigma), 0.0)
    fid = np.clip(_overlap(rho, sigma) + 2.0 * np.sqrt(dets), 0.0, 1.0)
    return float(fid) if fid.ndim == 0 else fid


# ---------------------------------------------------------------------------
# numerical integration (independent oracle)

def _legs(pair: SchedulePair, n_steps: int) -> list[tuple[float, float, int]]:
    a = pair.switch_fraction
    if a is None:
        return [(0.0, 1.0, n_steps)]
    n1 = min(max(int(round(n_steps * a)), 1), n_steps - 1)
    return [(0.0, a, n1), (a, 1.0, n_steps - n1)]


def _h_grid(pair: SchedulePair, s_lo: float, s_hi: float, n: int) -> np.ndarray:
    """H * t_f at the 2n+1 half-step grid points of [s_lo, s_hi]."""
    wave = _waveform(pair)
    s = s_lo + (s_hi - s_lo) * np.arange(2 * n + 1) / (2 * n)
    a = pair.switch_fraction
    h = np.zeros((2 * n + 1, 2, 2), dtype=complex)
    if a is not None and s_lo >= a - 1e-15 and s_lo > 0.0:
        d = wave.switch_delta()
        h[:, 0, 0] = 0.5 * d
        h[:, 1, 1] = -0.5 * d
        return h
    om = wave.omega_many(s)
    dl = wave.delta_many(s)
    h[:, 0, 0] = 0.5 * dl
    h[:, 1, 1] = -0.5 * dl
    h[:, 0, 1] = 0.5 * om
    h[:, 1, 0] = 0.5 * om
    return h


def _rk4(pair: SchedulePair, y0: np.ndarray, n_steps: int, rate):
    """Fixed-step RK4 of dy/ds = rate(H * t_f, y) from y0 over the legs of
    the step grid; returns the s values and the states, y0 first."""
    times = [0.0]
    states = [y0]
    y = y0
    for s_lo, s_hi, n in _legs(pair, n_steps):
        h_grid = _h_grid(pair, s_lo, s_hi, n)
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


def evolve(
    pair: SchedulePair,
    rho0: np.ndarray,
    n_steps: int,
    *,
    target: np.ndarray | None = None,
) -> Trajectory:
    """Fixed-step RK4 integration of i drho/dt = [H(t), rho] over [0, t_f].

    The step grid honors the antedated switch exactly (separate legs before
    and after t_a). Global error is O(n_steps**-4). Raises StepTooCoarse if
    trace or Hermiticity drift exceeds 1e-8, or if the purity tr(rho^2) of
    any state drifts from rho0's by more than PURITY_DRIFT_BOUND: trace and
    Hermiticity survive an unstable run, the spectrum does not.
    """
    if n_steps < 100:
        raise ValueError("need n_steps >= 100")
    rho0 = np.asarray(rho0, dtype=complex)
    check_density_matrix(rho0, herm_tol=1e-9, trace_tol=1e-9)
    if target is None:
        target = SIGMA_X @ rho0 @ SIGMA_X
    times, states = _rk4(pair, rho0, n_steps, lambda h, r: -1j * (h @ r - r @ h))
    rho_arr = np.array(states)
    trace_drift = np.abs(np.trace(rho_arr, axis1=1, axis2=2) - 1.0).max()
    herm_drift = np.abs(rho_arr - rho_arr.conj().transpose(0, 2, 1)).max()
    if not (trace_drift <= 1e-8 and herm_drift <= 1e-8):
        raise StepTooCoarse(
            f"integration drift (trace {trace_drift:.2e}, hermiticity {herm_drift:.2e}) "
            "exceeds 1e-8; increase n_steps"
        )
    purity_drift = np.abs(_overlap(rho_arr, rho_arr) - _overlap(rho0, rho0)).max()
    if not purity_drift <= PURITY_DRIFT_BOUND:
        raise StepTooCoarse(
            f"integration purity drift {purity_drift:.2e} exceeds {PURITY_DRIFT_BOUND:g}; "
            "increase n_steps"
        )
    bloch = bloch_vector(rho_arr)
    fid = fidelity(rho_arr, target)
    return Trajectory(
        t=np.array(times) * pair.t_f,
        rho=rho_arr,
        bloch=bloch,
        fidelity_to_target=fid,
        target=target,
    )


def evolve_pure(
    pair: SchedulePair, branch: int, n_steps: int
) -> list[tuple[float, np.ndarray]]:
    """RK4 integration of the Schroedinger equation from an invariant eigenstate.

    Returns (t, state vector) samples. Along the exact dynamics the state
    stays on its invariant branch up to the accumulated phase, which is
    what the phase oracle tests verify.
    """
    if n_steps < 100:
        raise ValueError("need n_steps >= 100")
    psi0 = invariant_eigenstate(pair, branch, 0.0)
    times, states = _rk4(pair, psi0, n_steps, lambda h, psi: -1j * (h @ psi))
    norm_drift = np.abs(np.linalg.norm(np.array(states), axis=1) - 1.0).max()
    if not norm_drift <= 1e-8:
        raise StepTooCoarse(f"state norm drift {norm_drift:.2e} exceeds 1e-8; increase n_steps")
    return [(s * pair.t_f, psi) for s, psi in zip(times, states)]
