"""Two-level mixed-state dynamics along a designed passage.

States are plain 2x2 complex numpy arrays (density matrices) or length-2
complex vectors. The operator and state builders take a float s or an
array of s, each real and in [0, 1] (else ConfigError, pulse._check_s),
and return a 2x2 matrix or an (n, 2, 2) stack, and
invariant_residual a float or an array, from one pass over the samples;
bloch_vector and fidelity take a state or a stack. The invariant-basis
mixed state

    rho(t) = p_plus |phi_plus(t)><phi_plus(t)| + p_minus |phi_minus(t)><phi_minus(t)|

is the exact solution of the von Neumann equation under the engineered
Hamiltonian, so a fixed-step RK4 integration of i drho/dt = [H, rho]
serves as an independent oracle for the whole construction. It runs as
per-step linear maps built from the real samples of omega_r and delta,
applied to the initial state through their prefix products, which a scan
over lanes of consecutive steps forms (_rk4). evolve scans the real Bloch
coordinates of rho0's Hermitian part and carries the trace beside them, so
its states keep trace and Hermiticity even when the run is unstable; its one
drift check is the purity tr(rho^2), which fixes a qubit state's spectrum.
The mixing-angle (instantaneous-eigenbasis) state provides the adiabatic
reference passage.
Everything here follows the antedated switch rule stated in pulse: past
t_a the drive is off (_Waveform.drive) and the invariant frozen (_angles).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from numbers import Real

import numpy as np

from .errors import ConfigError, DegeneratePoint, StepTooCoarse
from .pulse import _check_branch, _check_s, _waveform
from .schedule import SchedulePair

__all__ = [
    "Weights",
    "Trajectory",
    "PureTrajectory",
    "bloch_vector",
    "check_density_matrix",
    "check_steps",
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

#: Largest drift of tr(rho^2) from its initial value that evolve accepts:
#: the RK4 agreement bound.
PURITY_DRIFT_BOUND = 1e-6

#: Steps whose RK4 maps _rk4 builds and scans in one array pass, and the
#: steps of one lane of that scan. At 1e4 steps, blocks of 512-2048 and
#: lanes of 8-32 ran within noise of one another, blocks of 256 or 4096
#: ~20% slower. Larger blocks hold more maps at once: at 1e4 steps on the
#: antedated t_a = t_f / 2 passage, evolve_pure's scan of both branches
#: peaks at 1.76 MB of allocations with blocks of 512, 2.22 MB at 1024 and
#: 3.56 MB at 2048, past the one-branch per-step loop's 2.68 MB.
_BLOCK = 1024
_LANE = 16


@dataclass(frozen=True)
class Weights:
    """Populations of the two invariant branches; they must sum to one."""

    p_plus: float
    p_minus: float

    def __post_init__(self) -> None:
        if not all(isinstance(p, Real) and 0.0 <= p <= 1.0 for p in (self.p_plus, self.p_minus)):
            raise ConfigError("branch weights must lie in [0, 1]")
        if abs(self.p_plus + self.p_minus - 1.0) > 1e-12:
            raise ConfigError("branch weights must sum to 1")

    @property
    def difference(self) -> float:
        return self.p_plus - self.p_minus


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: the times t of the step grid, t = 0 first, and the
    (len(t), 2, 2) stack rho of the states there."""

    t: np.ndarray
    rho: np.ndarray


@dataclass(frozen=True)
class PureTrajectory(Sequence):
    """Pure-state evolution: the times t of the step grid, t = 0 first, and
    the (len(t), 2) states psi there, both read-only. It is also the
    sequence of its (t, psi) samples: item i is (float(t[i]), psi[i]), and
    a slice is the PureTrajectory of those samples."""

    t: np.ndarray
    psi: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i: int | slice) -> tuple[float, np.ndarray] | PureTrajectory:
        if isinstance(i, slice):
            return PureTrajectory(self.t[i], self.psi[i])
        return float(self.t[i]), self.psi[i]


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
    """Raise ConfigError unless rho (an array or nested sequence) is a 2x2
    matrix that is finite, Hermitian, unit-trace, and PSD."""
    try:
        numeric = np.asarray(rho).dtype.kind in "iufc"
    except ValueError:  # a ragged nest of sequences
        numeric = False
    if not numeric:
        raise ConfigError("density matrix must be a 2x2 array of numbers")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ConfigError("density matrix must be 2x2")
    if not np.isfinite(rho).all():
        raise ConfigError("density matrix has a non-finite entry")
    if not np.abs(rho - rho.conj().T).max() <= herm_tol:
        raise ConfigError("density matrix is not Hermitian")
    if not (abs(np.trace(rho).real - 1.0) <= trace_tol and abs(np.trace(rho).imag) <= trace_tol):
        raise ConfigError("density matrix trace is not 1")
    if not np.linalg.eigvalsh(rho).min() >= -eig_tol:
        raise ConfigError("density matrix has a negative eigenvalue")


# ---------------------------------------------------------------------------
# operators along the passage

def _states(rho11, rho22, rho12) -> np.ndarray:
    """Hermitian 2x2 states from their diagonal and upper off-diagonal
    entries, stacked over the entries' shape."""
    rho = np.empty(np.shape(rho11) + (2, 2), dtype=complex)
    rho[..., 0, 0] = rho11
    rho[..., 0, 1] = rho12
    rho[..., 1, 0] = np.conj(rho12)
    rho[..., 1, 1] = rho22
    return rho


def _hamiltonian(om: np.ndarray, dl: np.ndarray) -> np.ndarray:
    """H * t_f from omega_r and delta times t_f (wave.drive), stacked over their shape."""
    return _states(0.5 * dl, -0.5 * dl, 0.5 * om)


def _angles(pair: SchedulePair, s):
    """gamma, beta and their rates per unit s at the samples s, with the
    invariant frozen from t_a on: the values at t_a, the rates 0."""
    a = pair.switch_fraction
    x = np.asarray(s, dtype=float) if a is None else np.minimum(s, a)
    rates = (np.where(x == s, p.derivative()(x), 0.0) for p in (pair.gamma, pair.beta))
    return (pair.gamma(x), pair.beta(x), *rates)


def hamiltonian_at(pair: SchedulePair, s: float | np.ndarray) -> np.ndarray:
    """The control Hamiltonian at s, in angular-frequency units (a stack for an s array)."""
    _check_s(s, scalar=False)
    return _hamiltonian(*_waveform(pair).drive(np.asarray(s, dtype=float))) / pair.t_f


def invariant_at(pair: SchedulePair, s: float | np.ndarray) -> np.ndarray:
    """The dynamical invariant (unit scale constant) of the design at s (a
    stack for an s array), frozen at its t_a value past an antedated switch."""
    _check_s(s, scalar=False)
    g, b, _, _ = _angles(pair, s)
    off = 0.5 * np.sin(g) * (np.cos(b) + 1j * np.sin(b))
    return _states(0.5 * np.cos(g), -0.5 * np.cos(g), off)


def invariant_eigenstate(pair: SchedulePair, branch: int, s: float) -> np.ndarray:
    """Instantaneous eigenstate of the invariant, branch = +1 or -1, frozen
    at its t_a value past an antedated switch."""
    _check_s(s)
    _check_branch(branch)
    g, b, _, _ = map(float, _angles(pair, s))
    if branch == +1:
        return np.array(
            [math.cos(0.5 * g) * complex(math.cos(b), math.sin(b)), math.sin(0.5 * g)],
            dtype=complex,
        )
    return np.array(
        [math.sin(0.5 * g), -math.cos(0.5 * g) * complex(math.cos(b), -math.sin(b))],
        dtype=complex,
    )


def invariant_residual(pair: SchedulePair, s: float | np.ndarray) -> float | np.ndarray:
    """Frobenius norm of i dI/dt - [H, I], times t_f (dimensionless).

    This is the self-consistency check of the whole inverse construction:
    the waveforms are derived exactly from the invariant equation, so the
    residual must vanish to floating-point accuracy. s is a float (a float
    result) or an array (an array of the same shape). Past the antedated
    switch the frozen invariant is checked against the held Hamiltonian.
    """
    _check_s(s, scalar=False)
    x = np.atleast_1d(np.asarray(s, dtype=float))
    g, b, dg, db = _angles(pair, x)
    sin_g, cos_g, phase = np.sin(g), np.cos(g), np.cos(b) + 1j * np.sin(b)
    inv = _states(0.5 * cos_g, -0.5 * cos_g, 0.5 * sin_g * phase)
    d_off = 0.5 * phase * (dg * cos_g + 1j * (db * sin_g))
    d_inv = _states(-0.5 * dg * sin_g, 0.5 * dg * sin_g, d_off)
    h = _hamiltonian(*_waveform(pair).drive(x))
    residual = np.linalg.norm(1j * d_inv - (h @ inv - inv @ h), axis=(-2, -1))
    return float(residual[0]) if np.ndim(s) == 0 else residual


# ---------------------------------------------------------------------------
# states

def invariant_state(pair: SchedulePair, w: Weights, s: float | np.ndarray) -> np.ndarray:
    """Mixed state carried by the invariant branches at s.

    s is a float (a 2x2 state) or an array (a stack of states, shape
    s.shape + (2, 2)). Frozen from t_a on, like the invariant.
    """
    _check_s(s, scalar=False)
    g, b, _, _ = _angles(pair, s)
    dp = w.difference
    off = 0.5 * dp * np.sin(g) * (np.cos(b) + 1j * np.sin(b))
    return _states(0.5 * (1.0 + dp * np.cos(g)), 0.5 * (1.0 - dp * np.cos(g)), off)


def adiabatic_state(pair: SchedulePair, w: Weights, s: float | np.ndarray) -> np.ndarray:
    """Reference state that adiabatically follows the Hamiltonian eigenbasis.

    s is a float or an array, as for invariant_state. Mixing angle
    theta = arccos(delta / Omega) of the switched drive; the Bloch vector
    stays in the xz-plane. Raises DegeneratePoint at a level crossing, and
    DivergentPulse when a waveform diverges within the driven samples' span.
    """
    _check_s(s, scalar=False)
    s = np.asarray(s, dtype=float)
    om, dl = _waveform(pair).drive(s)
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
    other; two states give a float, a stack an array. A (near-)pure state
    against a mixed target carries ~1e-9 of round-off: its det is ~1e-17 of
    rounding in any form, and enters under the square root beside the
    target's.
    """
    rho, sigma = np.asarray(rho), np.asarray(sigma)
    dets = np.maximum(_det(rho), 0.0) * np.maximum(_det(sigma), 0.0)
    fid = np.clip(_overlap(rho, sigma) + 2.0 * np.sqrt(dets), 0.0, 1.0)
    return float(fid) if fid.ndim == 0 else fid


# ---------------------------------------------------------------------------
# numerical integration (independent oracle)

def check_steps(n_steps: int) -> None:
    """Raise ConfigError unless n_steps, the RK4 step count, is an integer in [100, 10**6]."""
    if not (isinstance(n_steps, (int, np.integer)) and 100 <= n_steps <= 10**6):
        raise ConfigError(f"need an integer 100 <= n_steps <= 10**6, got {n_steps!r}")


def _legs(pair: SchedulePair, n_steps: int) -> list[tuple[float, float, int]]:
    a = pair.switch_fraction
    if a is None:
        return [(0.0, 1.0, n_steps)]
    n1 = min(max(int(round(n_steps * a)), 1), n_steps - 1)
    return [(0.0, a, n1), (a, 1.0, n_steps - n1)]


def _h_grid(pair: SchedulePair, s_lo: float, s_hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """omega_r and delta times t_f at the 2n+1 half-step grid points of the
    leg [s_lo, s_hi]: the real samples of H * t_f = [[delta, omega_r],
    [omega_r, -delta]] / 2 (_hamiltonian), which the generators read.

    The leg picks the side of the switch: the leg after it (s_lo > 0) holds
    the switched drive from t_a on, the driven leg takes the driven
    formulas at every point, also one that rounds an ulp past t_a.
    """
    wave = _waveform(pair)
    if s_lo > 0.0:
        return wave.drive(np.full(2 * n + 1, s_hi))
    return wave.fields(s_lo + (s_hi - s_lo) * np.arange(2 * n + 1) / (2 * n))


def _bloch_generator(om: np.ndarray, dl: np.ndarray) -> np.ndarray:
    """-i [H, .] on rho's Bloch coordinates (x, y, z), from the samples of
    H * t_f: the (n, 3, 3) real matrices of d(x, y, z)/ds = b x (x, y, z),
    b = (omega_r, 0, delta) being H's Bloch vector. The trace, which
    -i [H, .] keeps, is not among the coordinates."""
    gen = np.zeros((len(om), 3, 3))
    gen[:, 0, 1], gen[:, 1, 0] = -dl, dl
    gen[:, 1, 2], gen[:, 2, 1] = -om, om
    return gen


def _schroedinger_generator(om: np.ndarray, dl: np.ndarray) -> np.ndarray:
    """-i H as (n, 4, 4) real matrices on psi.view(float), from the samples
    of H * t_f: H is real, so each entry H_jk becomes the block
    [[0, H_jk], [-H_jk, 0]]."""
    gen = np.zeros((len(om), 4, 4))
    gen[:, 0, 1] = gen[:, 3, 2] = 0.5 * dl
    gen[:, 1, 0] = gen[:, 2, 3] = -0.5 * dl
    gen[:, 0, 3] = gen[:, 2, 1] = 0.5 * om
    gen[:, 1, 2] = gen[:, 3, 0] = -0.5 * om
    return gen


def _rk4(pair: SchedulePair, y0: np.ndarray, n_steps: int, generator):
    """Fixed-step RK4 of dy/ds = L y from y0 over the legs of the step grid,
    where generator maps the samples (omega_r, delta) times t_f to the
    stack of L.

    RK4 on a linear equation is one linear map per step of size h,
    S = E + h/6 (L0 + 2 K2 + 2 K3 + K4) with K2 = Lm (E + h/2 L0),
    K3 = Lm (E + h/2 K2) and K4 = L1 (E + h K3), from L at the step's
    start, middle and end. The maps are built _BLOCK steps at a time in one
    array pass and scanned in lanes of _LANE consecutive steps, the last
    padded with E. _LANE - 1 batched products P[:, j] = S[:, j] P[:, j-1]
    give the prefix products inside each lane; doubling over the lane totals
    alone (T[o:] = T[o:] @ T[:-o], o = 1, 2, 4, ...) the products up to each
    lane's end; one batched product each lane's start state z from y, the
    state before the block; and one more, P @ z, the block's states: about
    two matrix products per step. y0 is one real state, or a (k, dim) stack
    of them as rows: the rows share the maps and their products, and only
    the last two products run per row, so each row's states are bit for bit
    those of a scan from that row alone (one batched product over the rows
    would round differently). Returns the n_steps + 1 s values and the
    (n_steps + 1, *y0.shape) real states, y0 first: step, then row, then
    coordinate. check_steps applies to n_steps.
    """
    check_steps(n_steps)
    rows, dim = np.atleast_2d(y0).shape
    s, y = np.empty(n_steps + 1), np.empty((n_steps + 1, *y0.shape))
    s[0], y[0] = 0.0, y0
    y_rows = y.reshape(n_steps + 1, rows, dim)
    eyes = np.tile(np.eye(dim), (_BLOCK, 1, 1))
    done = 0
    for s_lo, s_hi, n in _legs(pair, n_steps):
        om, dl = _h_grid(pair, s_lo, s_hi, n)
        step = (s_hi - s_lo) / n
        s[done + 1 : done + n + 1] = s_lo + np.arange(1, n + 1) * step
        for k in range(0, n, _BLOCK):
            m = min(_BLOCK, n - k)
            gen = generator(om[2 * k : 2 * (k + m) + 1], dl[2 * k : 2 * (k + m) + 1])
            l0, lm, l1, eye = gen[:-1:2], gen[1::2], gen[2::2], eyes[:m]
            # S by its formula, each sum and product in its order, made in place on
            # a contiguous E: fresh or broadcast operands cost as much as the products
            a = np.multiply(l0, 0.5 * step)
            k2 = lm @ np.add(a, eye, out=a)
            k3 = lm @ np.add(np.multiply(k2, 0.5 * step, out=a), eye, out=a)
            k4 = l1 @ np.add(np.multiply(k3, step, out=a), eye, out=a)
            k2 = np.add(l0, np.multiply(k2, 2.0, out=k2), out=k2)
            k2 += np.multiply(k3, 2.0, out=k3)
            k2 += k4
            k2 *= step / 6.0
            lanes = -(-m // _LANE)
            p = np.empty((lanes * _LANE, dim, dim))
            np.add(eye, k2, out=p[:m])
            p[m:] = eyes[0]
            p = p.reshape(lanes, _LANE, dim, dim)
            for j in range(1, _LANE):
                p[:, j] = p[:, j] @ p[:, j - 1]
            tot, o = p[:, -1].copy(), 1
            while o < lanes:
                tot[o:] = tot[o:] @ tot[:-o]
                o *= 2
            z, block = np.empty((lanes, dim)), y_rows[done + 1 : done + m + 1]
            for row in range(rows):
                z[0], z[1:] = y_rows[done, row], tot[:-1] @ y_rows[done, row]
                block[:, row] = np.einsum("lsij,lj->lsi", p, z).reshape(-1, dim)[:m]
            done += m
    return s, y


def evolve(pair: SchedulePair, rho0: np.ndarray, n_steps: int) -> Trajectory:
    """Fixed-step RK4 integration of i drho/dt = [H(t), rho] over [0, t_f].

    Returns the n_steps + 1 states from rho0 on. The step grid honors the
    antedated switch exactly (separate legs before and after t_a). Global
    error is O(n_steps**-4). The steps act on the three real Bloch
    coordinates of rho0's Hermitian part (_bloch_generator), and the trace,
    which every step keeps, is carried beside them exactly, so every state is
    Hermitian with rho0's trace. Raises StepTooCoarse if the purity
    tr(rho^2) of any state drifts from rho0's by more than
    PURITY_DRIFT_BOUND: trace and Hermiticity survive an unstable run, the
    spectrum does not, and NaN or inf fail the bound too.
    """
    check_density_matrix(rho0, herm_tol=1e-9, trace_tol=1e-9)
    (a, b), (c, d) = rho0 = np.asarray(rho0, dtype=complex)
    s, states = _rk4(pair, np.real([b + c, 1j * (b - c), a - d]), n_steps, _bloch_generator)
    x, y, z = states.T
    tr = (a + d).real
    rho_arr = _states(0.5 * (tr + z), 0.5 * (tr - z), 0.5 * (x - 1j * y))
    purity_drift = np.abs(_overlap(rho_arr, rho_arr) - _overlap(rho0, rho0)).max()
    if not purity_drift <= PURITY_DRIFT_BOUND:
        raise StepTooCoarse(
            f"integration purity drift {purity_drift:.2e} exceeds {PURITY_DRIFT_BOUND:g}; "
            "increase n_steps"
        )
    return Trajectory(t=s * pair.t_f, rho=rho_arr)


@lru_cache(maxsize=1)
def _pure_scan(pair: SchedulePair, n_steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both invariant branches from one RK4 scan: the read-only step times,
    the read-only (n_steps + 1, 2, 2) states (axis 1: branch +1, then -1)
    and each branch's largest norm drift from 1."""
    psi0 = np.stack([invariant_eigenstate(pair, branch, 0.0) for branch in (+1, -1)])
    s, y = _rk4(pair, psi0.view(float), n_steps, _schroedinger_generator)
    drift = np.abs(np.linalg.norm(y, axis=2) - 1.0).max(axis=0)
    t = s * pair.t_f
    t.flags.writeable = y.flags.writeable = False  # and no view of them can be made writeable
    return t[:], y.view(complex), drift


def evolve_pure(pair: SchedulePair, branch: int, n_steps: int) -> PureTrajectory:
    """RK4 integration of the Schroedinger equation from an invariant eigenstate.

    Returns the PureTrajectory of the n_steps + 1 samples on the step grid
    of evolve. Along the exact dynamics the state stays on its invariant
    branch up to the accumulated phase, which is what the phase oracle
    tests verify. The steps act on psi's real coordinates through the real
    form of -i H (_schroedinger_generator). Both branches evolve under the
    same H, so they share every step map: a call scans both eigenstates at
    once (_pure_scan), and a call for the other branch of the same
    (pair, n_steps) reads that scan; only the last scan is kept. Raises
    StepTooCoarse if the norm of any state of this branch drifts from 1 by
    more than 1e-8. n_steps >= 100 is an argument check, not a guarantee:
    the cubic, the quartic at gamma_mid = 1.2 and the antedated passage at
    t_a = t_f / 2 all drift past that bound at 100 steps and pass at 150.
    """
    _check_branch(branch)
    check_steps(n_steps)
    t, psi, drift = _pure_scan(pair, n_steps)
    j = 0 if branch == +1 else 1
    if not drift[j] <= 1e-8:
        raise StepTooCoarse(f"state norm drift {drift[j]:.2e} exceeds 1e-8; increase n_steps")
    return PureTrajectory(t, psi[:, j])
