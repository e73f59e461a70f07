import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from iecpulse import errors
from iecpulse.errors import SingularSystem
from iecpulse.poly import Condition, Polynomial, fit, real_roots, stacked_real_roots

PI = math.pi

# hand-solved: cubic through p(0)=pi, p'(0)=0, p(1)=0, p'(1)=0
CUBIC = [PI, 0.0, -3.0 * PI, 2.0 * PI]
# hand-solved: quartic adding p(1/2)=0 to the same endpoint conditions
QUARTIC = [PI, 0.0, -11.0 * PI, 18.0 * PI, -8.0 * PI]


def test_eval_constant_term():
    assert Polynomial(CUBIC)(0.0) == PI


def test_eval_boundary():
    assert abs(Polynomial(CUBIC)(1.0)) < 1e-15


def test_eval_midpoint():
    # pi * (1 - 3/4 + 2/8) = pi/2
    assert Polynomial(CUBIC)(0.5) == pytest.approx(PI / 2, abs=1e-15)


def test_eval_vectorized():
    p = Polynomial([1.0, 2.0])
    np.testing.assert_allclose(p(np.array([0.0, 1.0, 2.0])), [1.0, 3.0, 5.0])


def test_derivative_power_rule():
    d = Polynomial(CUBIC).derivative()
    np.testing.assert_allclose(d.coefficients, [0.0, -6.0 * PI, 6.0 * PI])


def test_derivative_of_constant_is_zero_polynomial():
    d = Polynomial([3.5]).derivative()
    assert d.degree == -1
    assert d(0.7) == 0.0


def test_zero_polynomial_keeps_input_dtype():
    # complex input (a complex-step evaluation) must not be cast to float,
    # which would raise ComplexWarning
    zero = Polynomial([]).derivative()
    s = np.array([0.2, 0.7]) + 1e-30j
    assert zero(s).dtype == complex and zero(s).shape == (2,) and not zero(s).any()
    assert zero(0.3 + 1e-30j) == 0 and np.iscomplexobj(zero(0.3 + 1e-30j))
    assert zero(np.array([0.2, 0.7])).dtype == float
    assert zero([0.1, 0.2, 0.3]).shape == (3,)


def test_second_derivative():
    d2 = Polynomial(CUBIC).derivative().derivative()
    np.testing.assert_allclose(d2.coefficients, [-6.0 * PI, 12.0 * PI])


def test_derivative_has_one_fewer_coefficient():
    p = Polynomial(CUBIC)
    assert len(p.derivative().coefficients) == len(p.coefficients) - 1


def test_fit_cubic_boundary_conditions():
    p = fit(
        [
            Condition(0.0, 0, PI),
            Condition(0.0, 1, 0.0),
            Condition(1.0, 0, 0.0),
            Condition(1.0, 1, 0.0),
        ],
        3,
    )
    np.testing.assert_allclose(p.coefficients, CUBIC, atol=1e-12)


def test_fit_quartic_with_interior_zero():
    p = fit(
        [
            Condition(0.0, 0, PI),
            Condition(0.0, 1, 0.0),
            Condition(1.0, 0, 0.0),
            Condition(1.0, 1, 0.0),
            Condition(0.5, 0, 0.0),
        ],
        4,
    )
    np.testing.assert_allclose(p.coefficients, QUARTIC, atol=1e-11)


def test_fit_degree_zero_identity():
    p = fit([Condition(0.0, 0, -PI / 2)], 0)
    np.testing.assert_allclose(p.coefficients, [-PI / 2])


def test_condition_validation():
    with pytest.raises(ValueError):
        Condition(1.5, 0, 0.0)
    with pytest.raises(ValueError):
        Condition(0.5, -1, 0.0)


def test_fit_duplicate_conditions_raises():
    with pytest.raises(SingularSystem):
        fit([Condition(0.3, 0, 1.0), Condition(0.3, 0, 1.0)], 1)


def test_fit_wrong_condition_count():
    with pytest.raises(ValueError):
        fit([Condition(0.0, 0, 1.0)], 3)


def test_fit_satisfies_random_condition_sets():
    rng = np.random.default_rng(7)
    for _ in range(25):
        degree = int(rng.integers(1, 6))
        points = rng.uniform(0.0, 1.0, degree + 1)
        while len(np.unique(np.round(points, 3))) < degree + 1:
            points = rng.uniform(0.0, 1.0, degree + 1)
        orders = rng.integers(0, 2, degree + 1)
        values = rng.uniform(-10.0, 10.0, degree + 1)
        conds = [Condition(float(s), int(k), float(v)) for s, k, v in zip(points, orders, values)]
        try:
            p = fit(conds, degree)
        except SingularSystem:
            continue
        for c in conds:
            q = p
            for _ in range(c.derivative_order):
                q = q.derivative()
            assert abs(q(c.s) - c.value) < 1e-9 * max(1.0, abs(c.value))


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(11)
    p = Polynomial(rng.uniform(-5, 5, 6))
    d = p.derivative()
    h = 1e-6
    for s in rng.uniform(0.05, 0.95, 100):
        numeric = (p(s + h) - p(s - h)) / (2.0 * h)
        assert abs(d(s) - numeric) < 1e-5 * max(1.0, abs(numeric))


def test_real_roots_of_quartic_derivative():
    # gamma-rate of the antedated quartic vanishes at 11/16 and at 1
    roots = real_roots(Polynomial(QUARTIC).derivative(), 1e-9, 1.0)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(11.0 / 16.0, abs=1e-10)
    assert roots[1] == pytest.approx(1.0, abs=1e-10)


def test_real_roots_linear():
    assert real_roots(Polynomial([0.0, 1.0]), 0.0, 1.0) == [0.0]


def test_real_roots_nonzero_constant():
    assert real_roots(Polynomial([1.0]), 0.0, 1.0) == []


def test_real_roots_requires_ordered_interval():
    with pytest.raises(ValueError):
        real_roots(Polynomial([0.0, 1.0]), 1.0, 0.0)


def test_real_roots_are_sorted_and_small():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = Polynomial(rng.uniform(-3, 3, 5))
        roots = real_roots(p, 0.0, 1.0)
        assert roots == sorted(roots)
        scale = max(1.0, float(np.abs(p(np.linspace(0, 1, 64))).max()))
        for r in roots:
            assert abs(p(r)) < 1e-8 * scale


def test_real_roots_repeat_multiple_roots():
    # rounding splits the double root at 1 about 1e-8 apart; it is one root
    # of multiplicity two
    assert real_roots(Polynomial(QUARTIC), 0.0, 1.0) == pytest.approx([0.5, 1.0, 1.0], abs=1e-12)


def test_polynomial_hash_and_eq():
    assert Polynomial([1.0, 2.0]) == Polynomial([1.0, 2.0])
    assert hash(Polynomial([1.0, 2.0])) == hash(Polynomial([1.0, 2.0]))
    assert Polynomial([1.0, 2.0]) != Polynomial([1.0, 2.5])


def reference_real_roots(c, lo, hi):
    """The roots that stacked_real_roots gives for the coefficient row c, one
    polynomial at a time: npoly.polyroots, then a Python loop over the runs
    of candidates that are one root (the per-row root finder that the
    stacked one replaced)."""
    nonzero = np.flatnonzero(c)
    if len(nonzero) == 0 or nonzero[-1] == 0:
        return []
    c = np.asarray(c, dtype=float)[: nonzero[-1] + 1]

    def negligible(x):
        bound = 8 * len(c) * np.finfo(float).eps * npoly.polyval(np.abs(x), np.abs(c))
        return np.abs(npoly.polyval(x, c)) <= bound

    z = npoly.polyroots(c)
    x = np.sort(z.real[(z.imag == 0) | negligible(z.real)])
    roots = []
    for group in np.split(x, np.nonzero(~negligible(0.5 * (x[1:] + x[:-1])))[0] + 1):
        r = float(group.sum()) / len(group) if len(group) else math.nan
        if len(group) == 1:
            r -= float(npoly.polyval(r, c) / npoly.polyval(r, c[1:] * np.arange(1, len(c))))
        if lo - 1e-12 <= r <= hi + 1e-12:
            roots += [min(max(r, lo), hi)] * len(group)
    return roots


#: Coefficients of the random rows: 0, or 1e-6 to 3 in size (a leading
#: coefficient near the smallest normal float overflows the companion matrix).
_COEFFICIENTS = st.just(0.0) | st.floats(1e-6, 3.0) | st.floats(-3.0, -1e-6)


@st.composite
def _factors(draw, lo, hi):
    """Ascending coefficients of one factor: a simple root (anywhere, or
    exactly at lo or hi), a double or triple root, or a complex pair a +- i e
    near the real axis."""
    a = draw(st.sampled_from([lo, hi]) | st.floats(lo - 0.5, hi + 0.5))
    kind = draw(st.sampled_from(["simple", "double", "triple", "pair"]))
    if kind == "pair":
        e = 10.0 ** draw(st.floats(-12.0, -1.0))
        return np.array([a * a + e * e, -2.0 * a, 1.0])
    return npoly.polyfromroots([a] * {"simple": 1, "double": 2, "triple": 3}[kind])


@st.composite
def _row(draw, width, lo, hi):
    """A coefficient row of width entries: random, from planted factors, all
    zero or constant; its top entries may be zero, so it has a lower degree."""
    kind = draw(st.sampled_from(["random", "planted", "planted", "zero", "constant"]))
    if kind == "zero":
        return np.zeros(width)
    if kind == "constant":
        return np.array([draw(_COEFFICIENTS)] + [0.0] * (width - 1))
    if kind == "random":
        c = np.array(draw(st.lists(_COEFFICIENTS, min_size=width, max_size=width)))
    else:
        c = np.array([draw(st.floats(0.5, 3.0) | st.floats(-3.0, -0.5))])
        while len(c) < width:
            f = draw(_factors(lo, hi))
            if len(c) + len(f) - 1 > width:
                break
            c = npoly.polymul(c, f)
        c = np.concatenate([c, np.zeros(width - len(c))])
    c[width - draw(st.just(0) | st.integers(0, width - 1)):] = 0.0
    return c


@st.composite
def _stacks(draw):
    """(stack, lo, hi): 1-8 rows of one width (degree 0-6), rows of lower
    degree among them."""
    lo = draw(st.sampled_from([0.0, -0.25]) | st.floats(-1.0, 1.0))
    hi = lo + draw(st.sampled_from([1.0, 0.5]) | st.floats(1e-3, 2.0))
    width = draw(st.integers(1, 7))
    rows = draw(st.lists(_row(width, lo, hi), min_size=1, max_size=8))
    return np.array(rows), lo, hi


@settings(max_examples=300)
@given(case=_stacks())
@example(case=(np.array([QUARTIC, [-1.0, 3.0, -3.0, 1.0, 0.0], [0.0] * 5]), 0.0, 1.0))
@example(case=(np.array([[0.0, 1.0], [1.0, 0.0], [-1.0, 1.0]]), 0.0, 1.0))  # roots at lo, hi
def test_stacked_real_roots_match_one_polynomial_at_a_time(case):
    stack, lo, hi = case
    roots = stacked_real_roots(stack, lo, hi)
    expected = [reference_real_roots(c, lo, hi) for c in stack]
    assert roots.shape == (len(stack), max(map(len, expected)))
    for row, reference in zip(roots, expected):
        found = row[~np.isnan(row)]
        assert found.tolist() == reference
        assert np.isnan(row[len(found):]).all()  # NaN only as padding


@pytest.mark.parametrize("row", [[1.0, 2.2e-309], [-0.5, 1.0, 1e-309], [1.0, math.nan],
                                 [math.inf, 1.0], [1.0, 1e300, 1.0], [1.0, -1e300, 1.0]])
def test_roots_outside_the_finite_companion_domain_raise_a_typed_error(row):
    # the companion matrix overflows (2.2e-309, 1e-309), holds a NaN or an
    # inf, or has an eigenvalue near -/+1e300 where |x|^2 overflows; the
    # suite's filterwarnings = error turns any warning into a failure
    stack = np.array([[1.0, -0.5, 0.0], row + [0.0] * (3 - len(row))])  # beside a good row
    for call in (lambda: real_roots(Polynomial(row), 0.0, 1.0),
                 lambda: stacked_real_roots(stack, 0.0, 1.0)):
        with pytest.raises(Exception) as info:
            call()
        assert type(info.value).__module__ == errors.__name__, repr(info.value)
        assert isinstance(info.value, errors.ConfigError)
