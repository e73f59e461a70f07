"""Exception types shared across the package."""


class ConfigError(ValueError):
    """An argument lies outside the domain of the function that uses it."""


class SingularSystem(ValueError):
    """Constraint matrix of a polynomial fit is rank-deficient."""


class UnphysicalSchedule(ValueError):
    """Requested schedule parameters produce non-realizable waveforms."""


class NoCrossing(ValueError):
    """No interior sign change of the requested derivative exists."""


class DivergentPulse(ArithmeticError):
    """A waveform genuinely diverges at some time (uncompensated singularity)."""


class DegeneratePoint(ArithmeticError):
    """Quantity undefined at a level crossing (generalized Rabi frequency ~ 0)."""


class StepTooCoarse(RuntimeError):
    """Integrator drift exceeded tolerance; increase the step count."""


class NoFeasiblePoint(RuntimeError):
    """Every grid point of a parameter sweep failed schedule validation."""


class NoConvergence(ArithmeticError):
    """An adaptive quadrature spent its evaluation budget without meeting its tolerance."""
