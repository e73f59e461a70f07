"""Exception types shared across the package. Each is a ConfigError, an Infeasible or a
NumericalFailure (CLI exit 1, 2, 3), and a ValueError, ArithmeticError or RuntimeError."""


class ConfigError(ValueError):
    """An argument lies outside the domain of the function that uses it."""


class Infeasible(Exception):
    """The requested schedule, or every schedule of a sweep, cannot be realized."""


class NumericalFailure(Exception):
    """A computation on a realizable schedule broke down."""


class SingularSystem(Infeasible, ValueError):
    """Constraint matrix of a polynomial fit is rank-deficient."""


class UnphysicalSchedule(Infeasible, ValueError):
    """Requested schedule parameters produce non-realizable waveforms."""


class NoCrossing(Infeasible, ValueError):
    """No interior sign change of the requested derivative exists."""


class NoFeasiblePoint(Infeasible, RuntimeError):
    """Every grid point of a parameter sweep failed schedule validation."""


class DivergentPulse(NumericalFailure, ArithmeticError):
    """A waveform genuinely diverges at some time (uncompensated singularity)."""


class DegeneratePoint(NumericalFailure, ArithmeticError):
    """Quantity undefined at a level crossing (generalized Rabi frequency ~ 0)."""


class StepTooCoarse(NumericalFailure, RuntimeError):
    """Integrator drift exceeded tolerance; increase the step count."""


class NoConvergence(NumericalFailure, ArithmeticError):
    """An adaptive quadrature spent its evaluation budget without meeting its tolerance."""
