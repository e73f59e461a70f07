import math

import numpy as np
import pytest

from iecpulse.errors import SingularSystem
from iecpulse.poly import Condition, Polynomial, fit, real_roots

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
