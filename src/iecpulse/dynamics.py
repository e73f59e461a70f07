"""Two-level mixed-state dynamics along a designed passage.

States are plain 2x2 complex numpy arrays (density matrices) or length-2
complex vectors. The operator and state builders take a float s or an
array of s, each real and in [0, 1] (else ConfigError, pulse._check_s), and
return a 2x2 matrix or an (n, 2, 2) stack, and invariant_residual a float
or an array, from one pass over the samples; bloch_vector and fidelity take
a state or a stack. The invariant-basis mixed state

    rho(t) = p_plus |phi_plus(t)><phi_plus(t)| + p_minus |phi_minus(t)><phi_minus(t)|

is the exact solution of the von Neumann equation under the engineered
Hamiltonian, so a fixed-step RK4 integration serves as an independent
oracle for the whole construction. H * t_f = (omega_r sx + delta sz) / 2 is
real and traceless, so the propagator is a unit quaternion q, U = q0 I -
i (q1 sx + q2 sy + q3 sz), and one real RK4 scan of q (_rk4) serves both
oracles: evolve rotates rho0's Bloch vector by q and carries the trace
beside it (its one drift check is the purity, which fixes a qubit state's
spectrum), evolve_pure applies U to an eigenstate. Inside, states are real
Bloch vectors: _states builds every matrix from its trace and Bloch vector,
rho = (tr + r.s) / 2; H's is (omega_r, 0, delta) and the invariant's
(sin g cos b, -sin g sin b, cos g). The residual and the fidelity are
computed on them. The mixing-angle state is the adiabatic reference.
Everything here follows the antedated switch rule stated in pulse: past
t_a the drive is off (_Waveform.drive) and the invariant frozen (_angles).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DegeneratePoint, StepTooCoarse, as_numbers, is_number, shown
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
#: steps of one lane of that scan. At 1e4 steps on the antedated t_a = t_f / 2
#: passage, blocks of 1024 with lanes of 8 or 16 scanned fastest in two
#: interleaved timings (medians of 25); 512 and 2048 were 10-65% slower, 256 and
#: 4096 more. A cold evolve_pure there peaks at 1.33 MB of allocations with
#: blocks of 512, 1.67 MB at 1024 and 2.78 MB at 2048; a per-step loop on U,
#: 3.14 MB. They only group the scan's products, so outputs move by rounding.
_BLOCK = 1024
_LANE = 16


@dataclass(frozen=True)
class Weights:
    """Populations of the two invariant branches; they must sum to one."""

    p_plus: float
    p_minus: float

    def __post_init__(self) -> None:
        if not all(is_number(p) and 0.0 <= p <= 1.0 for p in (self.p_plus, self.p_minus)):
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


def _qubit_array(x) -> np.ndarray:
    """x as an array; ConfigError unless it holds numbers and its trailing axes are (2, 2)."""
    x = as_numbers(x, "iufc")
    if x is None or x.shape[-2:] != (2, 2):
        raise ConfigError("a state must be a 2x2 array of numbers, or a stack of them")
    return x


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """(x, y, z) with rho = (I + x sx + y sy + z sz) / 2, for a state or an
    (n, 2, 2) stack (then shape (n, 3)); _qubit_array applies."""
    rho = _qubit_array(rho)
    return np.stack(
        [
            2.0 * rho[..., 0, 1].real,
            -2.0 * rho[..., 0, 1].imag,
            (rho[..., 0, 0] - rho[..., 1, 1]).real,
        ],
        axis=-1,
    )


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u . v over the trailing axis, broadcast over the others."""
    return np.einsum("...i,...i->...", u, v)


def check_density_matrix(rho: np.ndarray) -> None:
    """Raise ConfigError unless rho (an array or nested sequence) is a finite
    2x2 matrix, Hermitian to 1e-9 per entry (so its trace's imaginary part is
    within 1e-9), of trace 1 to 1e-9 and PSD to 1e-10 in its least eigenvalue."""
    if as_numbers(rho, "iufc") is None:
        raise ConfigError("density matrix must be a 2x2 array of numbers")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ConfigError("density matrix must be 2x2")
    if not np.isfinite(rho).all():
        raise ConfigError("density matrix has a non-finite entry")
    if not np.abs(rho - rho.conj().T).max() <= 1e-9:
        raise ConfigError("density matrix is not Hermitian")
    if not abs(np.trace(rho).real - 1.0) <= 1e-9:
        raise ConfigError("density matrix trace is not 1")
    if not np.linalg.eigvalsh(rho).min() >= -1e-10:
        raise ConfigError("density matrix has a negative eigenvalue")


# ---------------------------------------------------------------------------
# operators along the passage

def _states(tr, x, y, z) -> np.ndarray:
    """(tr I + x sx + y sy + z sz) / 2, stacked over the broadcast shape of its
    real arguments: every matrix here is built from its trace and Bloch vector."""
    rho = np.empty(np.broadcast(tr, x, y, z).shape + (2, 2), dtype=complex)
    rho[..., 0, 0] = 0.5 * (tr + z)
    rho[..., 0, 1] = 0.5 * (x - 1j * y)
    rho[..., 1, 0] = np.conj(rho[..., 0, 1])
    rho[..., 1, 1] = 0.5 * (tr - z)
    return rho


def _angles(pair: SchedulePair, s):
    """gamma, beta and their rates per unit s at the samples s, with the
    invariant frozen from t_a on: the values at t_a, the rates 0."""
    a = pair.switch_fraction
    x = np.asarray(s, dtype=float) if a is None else np.minimum(s, a)
    rates = (np.where(x == s, p.derivative()(x), 0.0) for p in (pair.gamma, pair.beta))
    return (pair.gamma(x), pair.beta(x), *rates)


def hamiltonian_at(pair: SchedulePair, s: float | np.ndarray) -> np.ndarray:
    """The control Hamiltonian at s, in angular-frequency units (a stack for an s array)."""
    om, dl = _waveform(pair).drive(_check_s(s, scalar=False))
    return _states(0.0, om, 0.0, dl) / pair.t_f


def _invariant_vector(pair: SchedulePair, s, scale: float) -> tuple[np.ndarray, ...]:
    """scale (sin g cos b, -sin g sin b, cos g), the invariant's Bloch vector, at s (_angles)."""
    g, b, _, _ = _angles(pair, _check_s(s, scalar=False))
    r = scale * np.sin(g)
    return r * np.cos(b), -r * np.sin(b), scale * np.cos(g)


def invariant_at(pair: SchedulePair, s: float | np.ndarray) -> np.ndarray:
    """The dynamical invariant (unit scale constant) of the design at s (a
    stack for an s array), frozen at its t_a value past an antedated switch."""
    return _states(0.0, *_invariant_vector(pair, s, 1.0))


def invariant_eigenstate(pair: SchedulePair, branch: int, s: float) -> np.ndarray:
    """Instantaneous eigenstate of the invariant, branch = +1 or -1, frozen
    at its t_a value past an antedated switch."""
    _check_s(s)
    _check_branch(branch)
    g, b, _, _ = map(float, _angles(pair, s))
    up, down = math.cos(0.5 * g) * complex(math.cos(b), math.sin(b)), math.sin(0.5 * g)
    return np.array([up, down] if branch == +1 else [down, -up.conjugate()], dtype=complex)


def invariant_residual(pair: SchedulePair, s: float | np.ndarray) -> float | np.ndarray:
    """Frobenius norm of i dI/dt - [H, I], times t_f (dimensionless).

    This is the self-consistency check of the whole inverse construction:
    the waveforms are derived exactly from the invariant equation, so the
    residual must vanish to floating-point accuracy. s is a float (a float
    result) or an array (an array of the same shape). Past the antedated
    switch the frozen invariant is checked against the held Hamiltonian.
    With I = v.s / 2, v = (sin g cos b, -sin g sin b, cos g), and H's Bloch
    vector (omega_r, 0, delta), it is |dv/ds - (omega_r, 0, delta) x v| / sqrt(2).
    """
    x = np.atleast_1d(_check_s(s, scalar=False))
    g, b, dg, db = _angles(pair, x)
    om, dl = _waveform(pair).drive(x)
    sin_g, cos_g, sin_b, cos_b = np.sin(g), np.cos(g), np.sin(b), np.cos(b)
    # dv/ds - (omega_r, 0, delta) x v by components; beta's rate and delta both turn v about z
    vx, vy, turn = sin_g * cos_b, -sin_g * sin_b, db + dl
    ex = dg * cos_g * cos_b + turn * vy
    ey = om * cos_g - dg * cos_g * sin_b - turn * vx
    ez = -dg * sin_g - om * vy
    residual = np.sqrt(0.5 * (ex * ex + ey * ey + ez * ez))
    return float(residual[0]) if np.ndim(s) == 0 else residual


# ---------------------------------------------------------------------------
# states

def invariant_state(pair: SchedulePair, w: Weights, s: float | np.ndarray) -> np.ndarray:
    """Mixed state carried by the invariant branches at s.

    s is a float (a 2x2 state) or an array (a stack of states, shape
    s.shape + (2, 2)). Frozen from t_a on, like the invariant.
    """
    return _states(1.0, *_invariant_vector(pair, s, w.difference))


def adiabatic_state(pair: SchedulePair, w: Weights, s: float | np.ndarray) -> np.ndarray:
    """Reference state that adiabatically follows the Hamiltonian eigenbasis.

    s is a float or an array, as for invariant_state. Mixing angle
    theta = arccos(delta / Omega) of the switched drive; the Bloch vector
    stays in the xz-plane. Raises DegeneratePoint at a level crossing, and
    DivergentPulse when a waveform diverges within the driven samples' span.
    """
    s = _check_s(s, scalar=False)
    om, dl = _waveform(pair).drive(s)
    crossing = np.hypot(om, dl) < 1e-12
    if crossing.any():
        at = s[crossing][0]
        raise DegeneratePoint(f"level crossing at s = {at:.6g}: mixing angle undefined")
    theta = np.arctan2(om, dl)
    return _states(1.0, w.difference * np.sin(theta), 0.0, w.difference * np.cos(theta))


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float | np.ndarray:
    """Uhlmann fidelity of two qubit states: tr(rho sigma) + 2 sqrt(det rho det sigma).

    rho and sigma are states or (n, 2, 2) stacks (_qubit_array applies),
    broadcast against each other; two states give a float, a stack an array.
    It is computed from the traces a, b and Bloch vectors r, s as (ab + r.s +
    sqrt((a^2 - |r|^2) (b^2 - |s|^2))) / 2, each factor floored at 0, clipped to [0, 1]. A
    (near-)pure state against a mixed target carries up to ~1e-8 of round-off
    (8.4e-9 measured on the three families): its a^2 - |r|^2 is ~1e-16 of
    rounding, and enters under the square root beside the target's.
    """
    rho, sigma = _qubit_array(rho), _qubit_array(sigma)
    (a, r), (b, s) = (((x[..., 0, 0] + x[..., 1, 1]).real, bloch_vector(x)) for x in (rho, sigma))
    dets = np.maximum(a * a - _dot(r, r), 0.0) * np.maximum(b * b - _dot(s, s), 0.0)
    fid = np.clip(0.5 * (a * b + _dot(r, s) + np.sqrt(dets)), 0.0, 1.0)
    return float(fid) if fid.ndim == 0 else fid


# ---------------------------------------------------------------------------
# numerical integration (independent oracle)

def check_steps(n_steps: int) -> None:
    """Raise ConfigError unless n_steps, the RK4 step count, is an integer in [100, 10**6]."""
    if not (is_number(n_steps, "iu") and 100 <= n_steps <= 10**6):
        raise ConfigError(f"need an integer 100 <= n_steps <= 10**6, got {shown(n_steps)}")


def _legs(pair: SchedulePair, n_steps: int) -> list[tuple[float, float, int]]:
    a = pair.switch_fraction
    if a is None:
        return [(0.0, 1.0, n_steps)]
    n1 = min(max(int(round(n_steps * a)), 1), n_steps - 1)
    return [(0.0, a, n1), (a, 1.0, n_steps - n1)]


def _h_grid(pair: SchedulePair, s_lo: float, s_hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """omega_r and delta times t_f at the 2n+1 half-step grid points of the
    leg [s_lo, s_hi]: the real samples of H * t_f = [[delta, omega_r],
    [omega_r, -delta]] / 2, which _rk4's generator reads.

    The leg picks the side of the switch: the leg after it (s_lo > 0) holds
    the switched drive from t_a on, the driven leg takes the driven
    formulas at every point, also one that rounds an ulp past t_a.
    """
    wave = _waveform(pair)
    if s_lo > 0.0:
        return wave.drive(np.full(2 * n + 1, s_hi))
    return wave.fields(s_lo + (s_hi - s_lo) * np.arange(2 * n + 1) / (2 * n))


def _rk4(pair: SchedulePair, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 of the propagator's quaternion over the legs of the
    step grid: dq/ds = G q from q = (1, 0, 0, 0), where G, the real form of
    -i H * t_f on q, has the rows (0, -w, 0, -d), (w, 0, -d, 0),
    (0, d, 0, -w) and (d, 0, w, 0), w = omega_r / 2 and d = delta / 2.

    RK4 on a linear equation is one linear map per step of size h,
    S = E + h/6 (G0 + 2 K2 + 2 K3 + K4) with K2 = Gm (E + h/2 G0),
    K3 = Gm (E + h/2 K2) and K4 = G1 (E + h K3), from G at the step's
    start, middle and end. The maps are built _BLOCK steps at a time in one
    array pass and scanned in lanes of _LANE consecutive steps, the last
    padded with E. _LANE - 1 batched products P[:, j] = S[:, j] P[:, j-1]
    give the prefix products inside each lane; doubling over the lane totals
    alone (T[o:] = T[o:] @ T[:-o], o = 1, 2, 4, ...) the products up to each
    lane's end; one batched product each lane's start state z from q, the
    state before the block; and one more, P @ z, the block's states: about
    two matrix products per step. Returns the n_steps + 1 s values and the
    (n_steps + 1, 4) quaternions, q(0) first.
    """
    s, q = np.empty(n_steps + 1), np.empty((n_steps + 1, 4))
    s[0], q[0] = 0.0, (1.0, 0.0, 0.0, 0.0)
    eyes = np.tile(np.eye(4), (_BLOCK, 1, 1))
    done = 0
    for s_lo, s_hi, n in _legs(pair, n_steps):
        om, dl = _h_grid(pair, s_lo, s_hi, n)
        step = (s_hi - s_lo) / n
        s[done + 1 : done + n + 1] = s_lo + np.arange(1, n + 1) * step
        for k in range(0, n, _BLOCK):
            m = min(_BLOCK, n - k)
            w, d = 0.5 * om[2 * k : 2 * (k + m) + 1], 0.5 * dl[2 * k : 2 * (k + m) + 1]
            gen = np.zeros((2 * m + 1, 4, 4))
            gen[:, 1, 0] = gen[:, 3, 2] = w
            gen[:, 2, 1] = gen[:, 3, 0] = d
            gen[:, 0, 1] = gen[:, 2, 3] = -w
            gen[:, 0, 3] = gen[:, 1, 2] = -d
            l0, lm, l1, eye = gen[:-1:2], gen[1::2], gen[2::2], eyes[:m]
            # S by its formula, each sum and product in its order, made in place on
            # a contiguous E: fresh or broadcast operands cost as much as the products;
            # the operand a is made in p, where S goes, and K4 in K3's place
            lanes = -(-m // _LANE)
            p = np.empty((lanes * _LANE, 4, 4))
            a = np.multiply(l0, 0.5 * step, out=p[:m])
            k2 = lm @ np.add(a, eye, out=a)
            k3 = lm @ np.add(np.multiply(k2, 0.5 * step, out=a), eye, out=a)
            np.add(np.multiply(k3, step, out=a), eye, out=a)
            k2 = np.add(l0, np.multiply(k2, 2.0, out=k2), out=k2)
            k2 += np.multiply(k3, 2.0, out=k3)
            k2 += np.matmul(l1, a, out=k3)
            k2 *= step / 6.0
            np.add(eye, k2, out=p[:m])
            p[m:] = eyes[0]
            p = p.reshape(lanes, _LANE, 4, 4)
            for j in range(1, _LANE):
                p[:, j] = p[:, j] @ p[:, j - 1]
            tot, o = p[:, -1].copy(), 1
            while o < lanes:
                tot[o:] = tot[o:] @ tot[:-o]
                o *= 2
            z = np.empty((lanes, 4))
            z[0], z[1:] = q[done], tot[:-1] @ q[done]
            q[done + 1 : done + m + 1] = np.einsum("lsij,lj->lsi", p, z).reshape(-1, 4)[:m]
            done += m
    return s, q


@lru_cache(maxsize=1)
def _propagator(pair: SchedulePair, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only step times and (n_steps + 1, 4) quaternions of U from one
    RK4 scan (_rk4). U does not depend on the initial state: evolve, for any
    rho0, and both evolve_pure branches read the scan of the last (pair, n_steps)."""
    s, q = _rk4(pair, n_steps)
    t = s * pair.t_f
    t.flags.writeable = q.flags.writeable = False  # and no view of them can be made writeable
    return t[:], q[:]


def evolve(pair: SchedulePair, rho0: np.ndarray, n_steps: int) -> Trajectory:
    """Fixed-step RK4 integration of i drho/dt = [H(t), rho] over [0, t_f].

    Returns the n_steps + 1 states from rho0 on, at the read-only step times
    evolve_pure shares. The step grid honors the antedated switch exactly
    (separate legs before and after t_a). Global error is O(n_steps**-4).
    The Bloch vector r0 of rho0's Hermitian part is rotated by the scanned
    q = (q0, v) (_propagator) to (q0^2 - |v|^2) r0 + 2 (v.r0) v + 2 q0 (v x r0),
    which is U rho0 U^H, and the trace is carried beside it exactly, so every
    state is Hermitian with rho0's trace. Raises StepTooCoarse if the purity
    (tr^2 + |r|^2) / 2 of any state drifts from rho0's by more than
    PURITY_DRIFT_BOUND: trace and Hermiticity survive an unstable run, the
    spectrum does not, and NaN or inf fail the bound too.
    """
    check_density_matrix(rho0)
    check_steps(n_steps)
    (a, b), (c, d) = np.asarray(rho0, dtype=complex)
    r0 = np.real([b + c, 1j * (b - c), a - d])
    t, q = _propagator(pair, n_steps)
    q0, v = q[:, :1], q[:, 1:]
    r = np.cross(v, r0)
    r *= 2.0 * q0
    r += (q0 * q0 - _dot(v, v)[:, None]) * r0
    r += 2.0 * _dot(v, r0)[:, None] * v
    purity_drift = 0.5 * np.abs(_dot(r, r) - r0 @ r0).max()
    if not purity_drift <= PURITY_DRIFT_BOUND:
        raise StepTooCoarse(
            f"integration purity drift {purity_drift:.2e} exceeds {PURITY_DRIFT_BOUND:g}; "
            "increase n_steps"
        )
    return Trajectory(t=t, rho=_states((a + d).real, *r.T))


def evolve_pure(pair: SchedulePair, branch: int, n_steps: int) -> PureTrajectory:
    """RK4 integration of the Schroedinger equation from an invariant eigenstate.

    Returns the PureTrajectory of the n_steps + 1 samples on the step grid
    of evolve. Along the exact dynamics the state stays on its invariant
    branch up to the accumulated phase, which is what the phase oracle
    tests verify. psi = U psi(0), U = [[q0 - i q3, -q2 - i q1], [q2 - i q1,
    q0 + i q3]], from the scan that evolve and the other branch of the same
    (pair, n_steps) read (_propagator). Raises StepTooCoarse if the norm of
    any state drifts from 1 by more than 1e-8. n_steps >= 100 is an
    argument check, not a guarantee: the cubic, the quartic at gamma_mid =
    1.2 and the antedated passage at t_a = t_f / 2 all drift past that
    bound at 100 steps and pass at 150.
    """
    _check_branch(branch)
    check_steps(n_steps)
    a, b = invariant_eigenstate(pair, branch, 0.0)
    t, q = _propagator(pair, n_steps)
    q0, q1, q2, q3 = q.T
    psi = np.empty((len(q), 2), dtype=complex)
    psi[:, 0] = (q0 - 1j * q3) * a - (q2 + 1j * q1) * b
    psi[:, 1] = (q2 - 1j * q1) * a + (q0 + 1j * q3) * b
    drift = np.abs(np.linalg.norm(psi, axis=1) - 1.0).max()
    if not drift <= 1e-8:
        raise StepTooCoarse(f"state norm drift {drift:.2e} exceeds 1e-8; increase n_steps")
    psi.flags.writeable = False
    return PureTrajectory(t, psi[:])
