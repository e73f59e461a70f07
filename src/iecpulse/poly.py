"""Polynomial algebra and constrained (value/derivative) interpolation.

All schedules in this package are real polynomials in the normalized time
s = t / t_f on [0, 1]. Fitting solves a dense Vandermonde-with-derivatives
system; real roots, with their multiplicities, come from the eigenvalues of
the companion matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConfigError, SingularSystem

__all__ = ["Polynomial", "Condition", "fit", "solve", "misfit", "real_roots", "value_range"]


class Polynomial:
    """Immutable real polynomial, coefficients in ascending power."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Sequence[float]) -> None:
        c = np.array(coefficients, dtype=float).reshape(-1)
        c.setflags(write=False)
        self._coeffs = c

    @property
    def coefficients(self) -> np.ndarray:
        return self._coeffs

    @property
    def degree(self) -> int:
        """len(coefficients) - 1; the empty (zero) polynomial has degree -1."""
        return len(self._coeffs) - 1

    def __call__(self, s):
        if len(self._coeffs) == 0:
            s = np.asarray(s)
            return np.zeros(s.shape, dtype=np.result_type(s, float))[()]
        return npoly.polyval(s, self._coeffs)

    def derivative(self) -> "Polynomial":
        if len(self._coeffs) <= 1:
            return Polynomial([])
        return Polynomial(self._coeffs[1:] * np.arange(1, len(self._coeffs)))

    def shifted(self, offset: float) -> "Polynomial":
        """p + offset (constant term shifted)."""
        if len(self._coeffs) == 0:
            return Polynomial([offset])
        c = self._coeffs.copy()
        c[0] += offset
        return Polynomial(c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return np.array_equal(self._coeffs, other._coeffs)

    def __hash__(self) -> int:
        return hash(self._coeffs.tobytes())

    def __repr__(self) -> str:
        return f"Polynomial({self._coeffs.tolist()})"


@dataclass(frozen=True)
class Condition:
    """One interpolation constraint: the derivative_order-th derivative at s equals value."""

    s: float
    derivative_order: int
    value: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.s <= 1.0:
            raise ConfigError("condition abscissa must lie in [0, 1]")
        if self.derivative_order < 0:
            raise ConfigError("derivative order must be nonnegative")


def _condition_row(s: float, order: int, degree: int) -> np.ndarray:
    row = np.zeros(degree + 1)
    for j in range(order, degree + 1):
        row[j] = math.perm(j, order) * s ** (j - order)
    return row


#: fit rejects a solution that misses a condition by more than this, relative
#: to the largest condition value (at least 1).
FIT_TOL = 1e-9


def solve(conditions: Sequence[Condition], degree: int) -> Polynomial:
    """The degree-`degree` polynomial through the given conditions, unchecked.

    Requires exactly degree + 1 conditions. Raises SingularSystem when the
    constraint matrix is rank-deficient (duplicate or conflicting conditions)
    or the solution overflows.
    """
    if len(conditions) != degree + 1:
        raise ConfigError(
            f"need exactly {degree + 1} conditions for degree {degree}, got {len(conditions)}"
        )
    a = np.array([_condition_row(c.s, c.derivative_order, degree) for c in conditions])
    b = np.array([c.value for c in conditions])
    try:
        c = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"rank-deficient interpolation system: {exc}") from exc
    if not np.isfinite(c).all():
        raise SingularSystem("interpolation solution overflows")
    return Polynomial(c)


def misfit(p: Polynomial, conditions: Sequence[Condition]) -> np.ndarray:
    """Signed amount by which p misses each condition."""
    out = np.empty(len(conditions))
    for i, c in enumerate(conditions):
        q = p
        for _ in range(c.derivative_order):
            q = q.derivative()
        out[i] = q(c.s) - c.value
    return out


def fit(conditions: Sequence[Condition], degree: int) -> Polynomial:
    """Fit the unique degree-`degree` polynomial through the given conditions.

    Requires exactly degree + 1 conditions. Raises SingularSystem when the
    constraint matrix is rank-deficient, or when the solution misses a
    condition by more than FIT_TOL relative to the largest value
    (ill-conditioned).
    """
    p = solve(conditions, degree)
    scale = max(1.0, max(abs(c.value) for c in conditions))
    if np.abs(misfit(p, conditions)).max() > FIT_TOL * scale:
        raise SingularSystem("ill-conditioned interpolation system (residual check failed)")
    return p


def value_range(p: Polynomial, lo: float, hi: float) -> tuple[float, float]:
    """(min, max) of p on [lo, hi]: taken at an endpoint or a stationary point."""
    v = p(np.array([lo, hi] + real_roots(p.derivative(), lo, hi)))
    return float(v.min()), float(v.max())


def real_roots(p: Polynomial, lo: float, hi: float) -> list[float]:
    """All real roots of p in [lo, hi], sorted ascending, each repeated by its multiplicity.

    Candidates are the companion-matrix eigenvalues. Rounding splits a root of
    multiplicity m into m nearby, possibly complex, values, between which p
    cannot be told from zero: an eigenvalue counts as real, and neighbours as
    one root at their mean, where |p| is within its rounding bound. Simple
    roots get one Newton step.
    """
    if not lo < hi:
        raise ConfigError("real_roots requires lo < hi")
    nonzero = np.flatnonzero(p.coefficients)
    if len(nonzero) == 0 or nonzero[-1] == 0:
        return []
    c = p.coefficients[: nonzero[-1] + 1]

    def negligible(x: np.ndarray) -> np.ndarray:
        bound = 8 * len(c) * np.finfo(float).eps * npoly.polyval(np.abs(x), np.abs(c))
        return np.abs(npoly.polyval(x, c)) <= bound

    z = npoly.polyroots(c)
    x = np.sort(z.real[(z.imag == 0) | negligible(z.real)])
    roots: list[float] = []
    for group in np.split(x, np.nonzero(~negligible(0.5 * (x[1:] + x[:-1])))[0] + 1):
        r = float(group.sum()) / len(group) if len(group) else math.nan
        if len(group) == 1:
            r -= float(npoly.polyval(r, c) / npoly.polyval(r, c[1:] * np.arange(1, len(c))))
        if lo - 1e-12 <= r <= hi + 1e-12:
            roots += [min(max(r, lo), hi)] * len(group)
    return roots
