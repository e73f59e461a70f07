import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

import iecpulse
from iecpulse import errors, poly
from iecpulse.errors import ConfigError, SingularSystem
from iecpulse.poly import Condition, Polynomial, fit, horner, real_roots, stacked_real_roots
from iecpulse.pulse import _Waveform
from iecpulse.schedule import antedated_pair

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
    assert p([0.0, 1.0, 2.0]).tolist() == p((0.0, 1.0, 2.0)).tolist() == [1.0, 3.0, 5.0]


#: Evaluation points and coefficients: signed zeros, infinities and negative values among them.
_POINTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf]) | st.floats(-1e3, 1e3)
_HORNER_COEFFICIENTS = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-3.0, 3.0)


@st.composite
def _horner_cases(draw):
    """(c, x): 0-8 ascending coefficients, one polynomial or a stack of three
    (c is then (n, 3)), at a float, complex, 0-d, 1-D or 2-D x that broadcasts
    against a stack's columns."""
    n, columns = draw(st.integers(0, 8)), draw(st.sampled_from([(), (3,)]))
    c = np.array(draw(st.lists(_HORNER_COEFFICIENTS, min_size=n * (3 if columns else 1),
                               max_size=n * (3 if columns else 1)))).reshape((n, *columns))
    shape = draw(st.sampled_from([None, (), (3,), (2, 3)]))  # None: a Python number
    size = 1 if shape is None else math.prod(shape)
    x = np.array(draw(st.lists(_POINTS, min_size=size, max_size=size)))
    if draw(st.booleans()):
        x = x.astype(complex)
        x.imag = draw(st.lists(_POINTS, min_size=size, max_size=size))
    return c, x.item() if shape is None else x.reshape(shape)


@settings(max_examples=400)
@given(case=_horner_cases())
@example(case=(np.array([1.0, -2.0, 0.5]), -0.0))
@example(case=(np.zeros((0, 3)), np.array([[1.0, -0.0, math.inf]] * 2)))
def test_horner_is_numpy_polyval_bit_for_bit(case):
    # numpy's polyval is the independent oracle; it has no value for no
    # coefficients, where horner gives zeros of x's shape and type
    c, x = case
    with np.errstate(all="ignore"):  # inf * 0 and inf - inf are NaN in both
        got = horner(c, x)
        want = (npoly.polyval(x, c, tensor=False) if len(c)
                else np.zeros(np.shape(x), np.result_type(x, float))[()])
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


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
    for order in (1.0, 0.5, "1", None, True):
        with pytest.raises(ConfigError, match="integer"):
            Condition(0.5, order, 0.0)
    for value in (math.nan, math.inf, -math.inf, "1", None, 1j, 10**400):
        with pytest.raises(ConfigError, match="finite"):
            Condition(0.5, 0, value)
    for s in ("0.5", None, 0.5 + 0j, True):
        with pytest.raises(ConfigError, match="abscissa"):
            Condition(s, 0, 0.0)


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


@pytest.mark.parametrize("past, kept", [(0.5e-12, True), (2e-12, False)])
def test_real_roots_clip_a_root_within_1e_12_of_the_interval(past, kept):
    # s - (1 + past) and s + past: one root just past each end of [0, 1]
    assert real_roots(Polynomial([-(1.0 + past), 1.0]), 0.0, 1.0) == ([1.0] if kept else [])
    assert real_roots(Polynomial([past, 1.0]), 0.0, 1.0) == ([0.0] if kept else [])


def test_real_roots_repeat_multiple_roots():
    # rounding splits the double root at 1 about 1e-8 apart; it is one root
    # of multiplicity two
    assert real_roots(Polynomial(QUARTIC), 0.0, 1.0) == pytest.approx([0.5, 1.0, 1.0], abs=1e-12)


def test_split_double_root_is_joined_within_the_rounding_bound():
    # p = (s - 1/2)^2 - e^2 has the eigenvalues 1/2 -+ e, whose mean is 1/2.
    # There |p| = e^2 and the absolute coefficients sum to 1/4 + 1/2 + 1/4 = 1,
    # so poly.vanishes joins them while e^2 <= 8 * 3 * eps. At 0.7 times that
    # bound they are one double root, at 1.4 times two simple ones: a rule of
    # half or twice the constant turns one of them over.
    bound = 8 * 3 * np.finfo(float).eps
    joined, split = stacked_real_roots(np.array([[0.25 - 0.7 * bound, -1.0, 1.0],
                                                 [0.25 - 1.4 * bound, -1.0, 1.0]]), 0.0, 1.0)
    assert joined[0] == joined[1] == pytest.approx(0.5, abs=1e-15)
    assert split[1] - split[0] == pytest.approx(2.0 * math.sqrt(1.4 * bound), rel=1e-3)


def test_polynomial_hash_and_eq():
    assert Polynomial([1.0, 2.0]) == Polynomial([1.0, 2.0])
    assert hash(Polynomial([1.0, 2.0])) == hash(Polynomial([1.0, 2.0]))
    assert Polynomial([1.0, 2.0]) != Polynomial([1.0, 2.5])


def test_signed_zero_coefficients_hash_as_they_compare():
    # __eq__ is np.array_equal, which equates 0.0 and -0.0, so the hash must too
    plus, minus = Polynomial([0.0, 1.0]), Polynomial([-0.0, 1.0])
    assert np.signbit(minus.coefficients[0])
    assert plus == minus and hash(plus) == hash(minus)
    assert len({plus, minus}) == 1


@pytest.mark.parametrize("factor, ok", [(0.5, True), (2.0, False)])
def test_residual_ok_bound_is_fit_tol_times_the_largest_value(factor, ok):
    # p = 3 + miss - 8 s misses both conditions by miss; the largest |value| is
    # 5, and FIT_TOL is 1e-9
    conditions = [Condition(0.0, 0, 3.0), Condition(1.0, 0, -5.0)]
    miss = factor * 1e-9 * 5.0
    c = np.array([3.0 + miss, -8.0])
    assert poly.misfit(c, conditions, [3.0, -5.0]) == pytest.approx([miss, miss], rel=1e-6)
    assert bool(poly.residual_ok(c, conditions, [3.0, -5.0])) == ok


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


@settings(max_examples=200)
@given(p=st.integers(1, 7).flatmap(lambda width: _row(width, 0.0, 1.0)).map(Polynomial))
@example(p=Polynomial(QUARTIC))  # p' = 0 at 0, and two more stationary points
@example(p=Polynomial([0.0, 0.0, 0.0, 1.0, 0.0, 0.0]))  # s^3: a double root of p' at 0
@example(p=Polynomial(npoly.polymul([1.0, 3.0], npoly.polypow([1.0, -1.0], 3))))  # at 1
@example(p=Polynomial([2.0]))
@example(p=Polynomial([]))
def test_stationary_points_are_found_once_and_leave_equality_alone(p):
    fresh = Polynomial(p.coefficients)
    points = p.stationary_points
    expected = real_roots(p.derivative(), 0.0, 1.0)
    assert isinstance(points, tuple)
    assert [x.hex() for x in points] == [x.hex() for x in expected]  # bit for bit
    assert p.stationary_points is points  # kept, not sought again
    assert p == fresh and hash(p) == hash(fresh)


def test_antedated_gamma_keeps_its_basis_stationary_points(monkeypatch):
    # the basis found gamma's stationary points; the waveform build reads them
    pair = antedated_pair(1.0, 0.4, 2.0)
    calls = []
    search = poly.stacked_real_roots
    monkeypatch.setattr(poly, "stacked_real_roots", lambda *args: calls.append(args) or search(*args))
    points = pair.gamma.stationary_points
    assert calls == []
    _Waveform(pair)
    assert pair.gamma.stationary_points is points
    assert len(calls) == 1  # beta's stationary points, a fresh polynomial's


@pytest.mark.parametrize("coefficients", [[[1, 2], [3, 4]], [None], [1j], "abc", [[1], [2, 3]],
                                          np.zeros((1, 2))],
                         ids=["nested", "none", "complex", "string", "ragged", "2-d"])
def test_polynomial_needs_real_numbers_in_one_dimension(coefficients):
    with pytest.raises(ConfigError, match="coefficients must be real numbers in 1-D"):
        Polynomial(coefficients)


def test_polynomial_accepts_numbers_integers_and_non_finite_values():
    assert Polynomial(2.5).coefficients.tolist() == [2.5]  # 0-D
    assert Polynomial(np.array([1, 2], dtype=np.int32)).coefficients.tolist() == [1.0, 2.0]
    assert Polynomial([]).degree == -1
    # real_roots, not Polynomial, rejects rows it cannot root
    row = Polynomial([1.0, math.nan, math.inf])
    assert np.isnan(row.coefficients[1]) and row.coefficients[2] == math.inf
    with pytest.raises(ConfigError):
        real_roots(row, 0.0, 1.0)


def _numpy_polynomial_uses(path):
    """(line, kind, function) of each import from numpy.polynomial ("import")
    and each np.polynomial attribute ("attribute") in a module, with the
    name of the innermost function it is in (None at module level)."""
    tree = ast.parse(path.read_text())
    owner = {}
    for f in ast.walk(tree):  # outer functions first, so inner ones overwrite
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((node, f.name) for node in ast.walk(f))
    for node in ast.walk(tree):
        names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
        if isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{a.name}" for a in node.names]
        if any(n == "numpy.polynomial" or n.startswith("numpy.polynomial.") for n in names):
            yield node.lineno, "import", owner.get(node)
        if (isinstance(node, ast.Attribute) and node.attr == "polynomial"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            yield node.lineno, "attribute", owner.get(node)


def test_numpy_polynomial_is_reached_only_for_gauss_legendre_nodes():
    # poly owns polynomial arithmetic: no other module imports from
    # numpy.polynomial, and pulse._gauss_rule's leggauss is its one other use
    modules = sorted(Path(iecpulse.__file__).parent.glob("*.py"))
    assert "poly.py" in [m.name for m in modules]
    uses = [(m.name, kind, f) for m in modules for _, kind, f in _numpy_polynomial_uses(m)]
    assert [u for u in uses if u[1] == "import" and u[0] != "poly.py"] == []
    assert [u for u in uses if u[1] == "attribute"] == [("pulse.py", "attribute", "_gauss_rule")]


def test_importing_the_package_leaves_numpy_polynomial_unloaded():
    # only the first quadrature's Gauss-Legendre rule loads it
    code = ("import sys, iecpulse, iecpulse.cli\n"
            "print('numpy.polynomial' in sys.modules)\n"
            "iecpulse.energy_cost(iecpulse.third_order_pair(1.0))\n"
            "print('numpy.polynomial' in sys.modules)\n")
    src = Path(iecpulse.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert done.stdout.split() == ["False", "True"]
