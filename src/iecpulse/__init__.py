"""Invariant-based inverse engineering of fast control pulses for qubits.

Design a dynamical invariant trajectory (polynomial angles gamma, beta),
derive the Rabi frequency and detuning that realize it exactly, verify the
resulting mixed-state passage against numerical integration, and optimize
the pulse area over the antedating time and the initial beta rate.
"""

from .analysis import (
    PassageReport,
    SweepResult,
    ValidationReport,
    compare_passages,
    energy_cost,
    sweep_beta_dot0,
    validate_schedule,
)
from .dynamics import (
    PureTrajectory,
    Trajectory,
    Weights,
    adiabatic_state,
    bloch_vector,
    evolve,
    evolve_pure,
    fidelity,
    hamiltonian_at,
    invariant_at,
    invariant_eigenstate,
    invariant_residual,
    invariant_state,
)
from .errors import (
    ConfigError,
    DegeneratePoint,
    DivergentPulse,
    NoConvergence,
    NoCrossing,
    NoFeasiblePoint,
    SingularSystem,
    StepTooCoarse,
    UnphysicalSchedule,
)
from .poly import Condition, Polynomial, fit, real_roots
from .pulse import PulseTable, adiabaticity_metric, delta_at, lr_phase, omega_r_at, synthesize
from .schedule import (
    SchedulePair,
    antedated_pair,
    critical_gamma_mid,
    critical_t_a,
    fourth_order_pair,
    gamma_dot_zero_crossing,
    third_order_pair,
)

__version__ = "0.1.0"

__all__ = [
    "Condition",
    "ConfigError",
    "DegeneratePoint",
    "DivergentPulse",
    "NoConvergence",
    "NoCrossing",
    "NoFeasiblePoint",
    "PassageReport",
    "Polynomial",
    "PulseTable",
    "PureTrajectory",
    "SchedulePair",
    "SingularSystem",
    "StepTooCoarse",
    "SweepResult",
    "Trajectory",
    "UnphysicalSchedule",
    "ValidationReport",
    "Weights",
    "adiabatic_state",
    "adiabaticity_metric",
    "antedated_pair",
    "bloch_vector",
    "compare_passages",
    "critical_gamma_mid",
    "critical_t_a",
    "delta_at",
    "energy_cost",
    "evolve",
    "evolve_pure",
    "fidelity",
    "fit",
    "fourth_order_pair",
    "gamma_dot_zero_crossing",
    "hamiltonian_at",
    "invariant_at",
    "invariant_eigenstate",
    "invariant_residual",
    "invariant_state",
    "lr_phase",
    "omega_r_at",
    "real_roots",
    "synthesize",
    "sweep_beta_dot0",
    "third_order_pair",
    "validate_schedule",
]
