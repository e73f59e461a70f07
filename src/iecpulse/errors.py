"""Exception types shared across the package, each a ConfigError, an Infeasible or a
NumericalFailure (CLI exit 1, 2, 3) and a ValueError, ArithmeticError or RuntimeError; as_numbers,
the one parse of a number argument; and shown, the one rendering of an argument in a message."""

import numpy as np


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


def as_numbers(x, kinds: str = "iuf") -> np.ndarray | None:
    """np.asarray(x) if its dtype kind is in kinds (b bool, i u integer, f float, c complex);
    else None: a ragged nest, a string, an object dtype (an int no float holds, a Fraction)."""
    try:
        v = np.asarray(x)
    except ValueError:  # a ragged nest of sequences
        return None
    return v if v.dtype.kind in kinds else None


def is_number(x, kinds: str = "iuf") -> bool:
    """Whether x is one number by as_numbers and no array: a stored number stays hashable."""
    return not isinstance(x, np.ndarray) and getattr(as_numbers(x, kinds), "ndim", 1) == 0


def shown(x) -> str:
    """repr(x), or a stand-in where repr raises: an int past sys.get_int_max_str_digits() digits."""
    try:
        return repr(x)
    except ValueError:
        return f"<unprintable {type(x).__name__}>"
