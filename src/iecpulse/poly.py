"""Polynomial algebra and constrained (value/derivative) interpolation.

All schedules in this package are real polynomials in the normalized time
s = t / t_f on [0, 1]. Fitting solves a dense Vandermonde-with-derivatives
system; real roots, with their multiplicities, come from the eigenvalues of
the companion matrix. The roots of a stack of polynomials come from one
eigvals call per degree (stacked_real_roots); real_roots is its one-row case.
All polynomial arithmetic of the package is here: one Horner rule (horner),
one zero-to-rounding rule (vanishes) and one fit residual check (residual_ok).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, SingularSystem, as_numbers, is_number, shown

__all__ = ["Polynomial", "Condition", "fit", "solve", "misfit", "residual_ok", "real_roots",
           "stacked_real_roots", "horner", "vanishes"]


def horner(c, x):
    """The polynomials with ascending coefficients c (along axis 0, further axes
    broadcast against x; a list or tuple x is an array) at x: v = a + v x from
    v = 0, highest a first, numpy's polyval bit for bit; zeros for no coefficients."""
    x = np.asarray(x) if isinstance(x, (list, tuple)) else x
    v = np.zeros(np.shape(x), np.result_type(x, float))[()]
    for a in reversed(c):
        v = a + v * x
    return v


def vanishes(v, bound, terms: int):
    """Whether v, a sum of `terms` terms whose absolute values sum to bound
    (a polynomial at x, with its absolute coefficients at |x|), is zero to rounding."""
    return np.abs(v) <= 8 * terms * np.finfo(float).eps * bound


def _derivative(c: np.ndarray, order: int = 1) -> np.ndarray:
    """Ascending coefficients (along axis 0) of the order-th derivative: j c[j] per order."""
    for _ in range(order):
        c = c[1:] * np.arange(1, len(c)).reshape((-1,) + (1,) * (c.ndim - 1))
    return c


class Polynomial:
    """Immutable real polynomial, coefficients in ascending power: a number or
    a 1-D sequence of integers or floats (ConfigError otherwise)."""

    __slots__ = ("_coeffs", "_stationary", "_derivative")

    def __init__(self, coefficients: Sequence[float]) -> None:
        c = as_numbers(coefficients)
        if c is None or c.ndim > 1:
            raise ConfigError(f"coefficients must be real numbers in 1-D, got {shown(coefficients)}")
        c = c.astype(float).reshape(-1)
        c.setflags(write=False)
        self._coeffs, self._stationary, self._derivative = c, None, None

    @property
    def coefficients(self) -> np.ndarray:
        return self._coeffs

    @property
    def stationary_points(self) -> tuple[float, ...]:
        """real_roots of p' on [0, 1], found on first use and kept: p is read-only."""
        if self._stationary is None:
            self._stationary = tuple(real_roots(self.derivative(), 0.0, 1.0))
        return self._stationary

    @property
    def degree(self) -> int:
        """len(coefficients) - 1; the empty (zero) polynomial has degree -1."""
        return len(self._coeffs) - 1

    def __call__(self, s):
        return horner(self._coeffs, s)

    def derivative(self) -> "Polynomial":
        """p', made on first use and kept: p is read-only."""
        if self._derivative is None:
            self._derivative = Polynomial(_derivative(self._coeffs))
        return self._derivative

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
        return hash((self._coeffs + 0.0).tobytes())  # -0.0 as 0.0, which __eq__ equates

    def __repr__(self) -> str:
        return f"Polynomial({self._coeffs.tolist()})"


@dataclass(frozen=True)
class Condition:
    """One interpolation constraint: the derivative_order-th derivative at s equals value."""

    s: float
    derivative_order: int
    value: float

    def __post_init__(self) -> None:
        if not (is_number(self.s) and 0.0 <= self.s <= 1.0):
            raise ConfigError("condition abscissa must lie in [0, 1]")
        if not (is_number(self.derivative_order, "iu") and self.derivative_order >= 0):
            raise ConfigError("derivative order must be a nonnegative integer")
        if not (is_number(self.value) and math.isfinite(self.value)):
            raise ConfigError("condition value must be finite")


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


def misfit(c: np.ndarray, conditions: Sequence[Condition], values) -> np.ndarray:
    """Signed amount by which the polynomials with ascending coefficients c
    (along axis 0, a column each) miss each condition: row i is the
    derivative_order-th derivative at s less values[i]."""
    return np.array([horner(_derivative(c, x.derivative_order), x.s) - v
                     for x, v in zip(conditions, values)])


def residual_ok(c: np.ndarray, conditions: Sequence[Condition], values) -> np.ndarray:
    """fit's residual check on each column of c, as misfit takes its arguments:
    every miss within FIT_TOL times the largest |value|, at least 1."""
    tol = FIT_TOL * np.maximum(1.0, np.abs(values).max(axis=0))
    return (np.abs(misfit(c, conditions, values)) <= tol).all(axis=0)


def fit(conditions: Sequence[Condition], degree: int) -> Polynomial:
    """Fit the unique degree-`degree` polynomial through the given conditions.

    Requires exactly degree + 1 conditions. Raises SingularSystem when the
    constraint matrix is rank-deficient, or when the solution fails
    residual_ok (ill-conditioned).
    """
    p = solve(conditions, degree)
    if not residual_ok(p.coefficients, conditions, [x.value for x in conditions]):
        raise SingularSystem("ill-conditioned interpolation system (residual check failed)")
    return p


def real_roots(p: Polynomial, lo: float, hi: float) -> list[float]:
    """All real roots of p in [lo, hi], sorted ascending, each repeated by its
    multiplicity: stacked_real_roots of the one row p."""
    return stacked_real_roots(p.coefficients[None], lo, hi)[0].tolist()


def stacked_real_roots(coefficients: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The real roots in [lo, hi] of each row of an (n, d + 1) stack of
    coefficients (ascending power), sorted, each repeated by its multiplicity,
    NaN-padded to the most roots of any row.

    Candidates are the companion-matrix eigenvalues, one eigvals call per
    degree (trailing zeros trimmed). Rounding splits a root of multiplicity m
    into m nearby, possibly complex, values, between which p cannot be told
    from zero: an eigenvalue counts as real, and neighbours as one root at
    their mean, where p vanishes to rounding (vanishes). Simple roots get one
    Newton step. A root within 1e-12 of [lo, hi] is clipped into it.
    The domain is rows of finite coefficients whose companion matrix is
    finite and whose Horner sums, of |p| and of p', are finite at every
    eigenvalue. A row of degree d >= 1 outside it raises ConfigError: a NaN
    or infinite coefficient, a leading one so small that a ratio to it
    overflows, or a root so large that |x|^d overflows (as for [1, 1e300, 1]).
    """
    if not lo < hi:
        raise ConfigError("real_roots requires lo < hi")
    c = np.asarray(coefficients, dtype=float)
    degree = ((c != 0) * np.arange(c.shape[1])).max(axis=1, initial=0)
    roots = np.full((len(c), max(c.shape[1] - 1, 0)), math.nan)
    for d in set(degree.tolist()) - {0}:
        roots[degree == d, :d] = _roots_of_degree(c[degree == d, : d + 1], lo, hi)
    roots.sort(axis=1)
    return roots[:, : (roots == roots).sum(axis=1).max(initial=0)]  # x == x: not NaN


def _roots_of_degree(c: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """stacked_real_roots of rows c of one degree d >= 1, one column per
    eigenvalue: (m, d), NaN where an eigenvalue gives no root in range. Each
    value takes the same operations in the same order whatever the stack
    (Horner's rule, runs summed left to right), so a row's roots do not
    depend on the rows beside it."""
    m, d = c.shape[0], c.shape[1] - 1
    # |p|, p, p and p' (with a zero leading coefficient), ascending, each
    # coefficient spread over the d columns of the points in `at`
    planes = np.zeros((d + 1, 4, m, d))
    planes[:, 1:3] = c.T[:, None, :, None]
    np.abs(planes[:, 1], out=planes[:, 0])
    with np.errstate(over="ignore"):  # an infinite p' coefficient fails the first pass
        planes[:-1, 3] = _derivative(planes[:, 1])

    with np.errstate(over="ignore", invalid="ignore"):
        ratio = c / c[:, -1:]  # last column 1, or NaN for a leading inf or NaN
    if not np.isfinite(ratio).all():
        raise ConfigError("real_roots needs finite coefficients and a finite companion matrix")
    companion = np.zeros((m, d, d))
    companion.reshape(m, -1)[:, d :: d + 1] = 1.0
    companion[:, :, -1] -= ratio[:, :-1]
    z = np.linalg.eigvals(companion)
    at = np.empty((4, m, d))  # at[0] = |at[1]|
    at[0], at[1:] = np.abs(z.real), z.real
    with np.errstate(over="ignore", invalid="ignore"):
        first = horner(planes, at)
    # Finite here, every later sum is: it is |p| at a point no farther out, or
    # p or p' at an eigenvalue.
    if not np.isfinite(first).all():
        raise ConfigError("real_roots needs Horner sums that stay finite at every eigenvalue")
    bound, value = first[:2]
    x = np.sort(np.where((z.imag == 0) | vanishes(value, bound, d + 1), z.real, math.nan), 1)
    at[1, :, :-1], at[1, :, -1], at[2], at[3] = 0.5 * (x[:, 1:] + x[:, :-1]), math.nan, x, x
    at[0] = np.abs(at[1])
    bound, value, at_x, slope = horner(planes, at)
    joined = vanishes(value, bound, d + 1)  # x[:, j] and x[:, j + 1] are one root
    with np.errstate(divide="ignore", invalid="ignore"):  # p' may vanish at a multiple root
        r = x - at_x / slope  # one Newton step, kept for simple roots
    if joined.any():
        acc = np.empty((d, 2, m))  # each run's running sum and count, then its mean
        acc[:, 0], acc[:, 1], joined = x.T, 1.0, joined.T
        for j in range(1, d):
            acc[j] += np.where(joined[j - 1], acc[j - 1], 0.0)
        acc[:, 0] /= acc[:, 1]
        for j in range(d - 2, -1, -1):  # back from each run's end
            acc[j] = np.where(joined[j], acc[j + 1], acc[j])
        r = np.where(acc[:, 1].T > 1, acc[:, 0].T, r)
    inside = (lo - 1e-12 <= r) & (r <= hi + 1e-12)
    return np.where(inside, np.minimum(np.maximum(r, lo), hi), math.nan)
