import heapq
import inspect
import math
import warnings
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iecpulse import poly, pulse
from iecpulse.analysis import compare_passages, max_adiabaticity_metric, validate_schedule
from iecpulse.dynamics import Weights, hamiltonian_at
from iecpulse.errors import DegeneratePoint, DivergentPulse, Infeasible, NoConvergence
from iecpulse.errors import NumericalFailure
from iecpulse.poly import Polynomial, horner
from iecpulse.pulse import (
    GAUSS_CAP,
    GAUSS_START,
    _angle,
    _gauss_rule,
    _upow,
    _waveform,
    adiabaticity_metric,
    delta_at,
    gauss_legendre,
    lr_phase,
    omega_r_at,
    synthesize,
)
from iecpulse.schedule import SchedulePair, antedated_pair, beta_dot0_rate, fourth_order_pair
from iecpulse.schedule import critical_t_a, gamma_dot_zero_crossing, third_order_pair
from test_analysis import _evenly

PI = math.pi


@pytest.fixture(scope="module")
def third():
    return third_order_pair(1.0)


@pytest.fixture(scope="module")
def ante():
    return antedated_pair(1.0, 0.5)


def test_omega_r_turn_on(third):
    assert abs(omega_r_at(third, 0.0)) < 1e-9
    assert abs(omega_r_at(third, 1.0)) < 1e-9


def test_omega_r_midpoint(third):
    # gamma'(1/2) = -3pi/2 per unit s, beta(1/2) = -pi/8
    expected = 1.5 * PI / math.sin(PI / 8)
    assert omega_r_at(third, 0.5) == pytest.approx(expected, rel=1e-12)
    assert omega_r_at(third, np.array(0.5)) == omega_r_at(third, 0.5)  # a 0-d array is a scalar


def test_omega_r_compensated_limit(ante):
    # at s = 11/16 both gamma-rate and sin(beta) vanish; the limit is the
    # ratio of their first derivatives there
    s0 = 11.0 / 16.0
    value = omega_r_at(ante, s0)
    d2g = ante.gamma.derivative().derivative()
    db = ante.beta.derivative()
    expected = d2g(s0) / (db(s0) * math.cos(ante.beta(s0)))
    assert value == pytest.approx(expected, rel=1e-9)
    # continuity: direct evaluation 2e-3 away agrees
    probe = ante.gamma.derivative()(s0 + 2e-3) / math.sin(ante.beta(s0 + 2e-3))
    assert value == pytest.approx(probe, rel=1e-2)


def test_delta_endpoints(third):
    assert delta_at(third, 0.0) == pytest.approx(-4.5 * PI, abs=1e-9)
    assert delta_at(third, 1.0) == pytest.approx(4.5 * PI, abs=1e-9)


def test_delta_midpoint_zero(third):
    # cot(gamma(1/2)) = cot(pi/2) = 0 and beta'(1/2) = 0
    assert abs(delta_at(third, 0.5)) < 1e-12


def test_delta_continuous_across_series_window(third):
    # the factored evaluation about an endpoint must join the direct formula
    for s0 in (0.0, 1.0):
        inner = delta_at(third, s0 + (9e-4 if s0 == 0.0 else -9e-4))
        outer = delta_at(third, s0 + (2e-3 if s0 == 0.0 else -2e-3))
        assert inner == pytest.approx(outer, rel=5e-2)


def test_scalar_evaluators_are_vector_elements(third, ante):
    # one evaluator per quantity: a scalar call is a one-sample vector call
    s = np.linspace(0.0, 1.0, 1001)
    for pair in (third, ante):
        wave = _waveform(pair)
        assert [wave.omega(x) for x in s.tolist()] == wave.omega_many(s).tolist()
        assert [wave.cot_term(x) for x in s.tolist()] == wave.quotients(s)[1].tolist()
        assert [wave.delta(x) for x in s.tolist()] == wave.delta_many(s).tolist()


def test_waveform_probes_take_arrays(third, ante):
    # one vectorised call per array: each element is the scalar probe's, and
    # a float s (or a 0-d array) gives a float
    s = np.linspace(0.0, 1.0, 101)
    for pair in (third, ante):
        for probe in (omega_r_at, delta_at):
            values = probe(pair, s)
            assert isinstance(values, np.ndarray) and values.shape == s.shape
            assert values.tolist() == [probe(pair, x) for x in s.tolist()]
            assert type(probe(pair, 0.25)) is float and type(probe(pair, np.array(0.25))) is float
            assert probe(pair, s[:0]).shape == (0,)


def _reference_divide(a, b):
    """a / b as _quotients divides: numpy's division for real samples, the
    first-order complex-step division (pulse._divide) for complex ones."""
    return pulse._divide(a, b) if np.iscomplexobj(b) else a / b


def _reference_omega(st, u):
    """omega_r at s0 + u: the station formula that _quotients replaced."""
    sin_b, _ = _angle(st, 1, u)
    return _upow(u, st.omega_order, _reference_divide(horner(st.coef[0], u), sin_b))


def _reference_cot(st, u):
    """The cot term at s0 + u: the station formula that _quotients replaced."""
    sin_b, _ = _angle(st, 1, u)
    cos_b, _ = _angle(st, 2, u)
    sin_x, cos_x = _angle(st, 3, u)
    q = _reference_divide(horner(st.coef[0], u), sin_b)
    return _upow(u, st.cot_order, _reference_divide(q * cos_x * cos_b, sin_x))


def _reference_rows(wave, s):
    """Both reference formulas at every sample, from the station nearest s.real."""
    s0 = np.array([st.s0 for st in wave.stations])
    j = np.searchsorted(0.5 * (s0[1:] + s0[:-1]), s.real, side="right")
    om, cot = np.empty_like(s), np.empty_like(s)
    for i, st in enumerate(wave.stations):
        at = j == i
        om[at], cot[at] = _reference_omega(st, s[at] - st.s0), _reference_cot(st, s[at] - st.s0)
    return om, cot


@pytest.mark.parametrize("pair", [
    third_order_pair(1.0),
    fourth_order_pair(1.0, 1.2),
    antedated_pair(1.0, 0.5),
    antedated_pair(1.0, 0.77, beta_dot0_rate(5.62, 1.0)),  # near the band edge 0.77376
], ids=["third", "fourth", "antedated", "antedated-edge"])
def test_quotients_match_the_two_station_formulas_bit_for_bit(pair):
    wave = _waveform(pair)
    s0 = np.array([st.s0 for st in wave.stations])
    near = (s0[:, None] + np.array([-1e-3, -1e-6, -1e-9, 1e-9, 1e-6, 1e-3])).ravel()
    s = np.concatenate([np.linspace(0.0, 1.0, 1001), near[(near >= 0.0) & (near <= 1.0)]])
    for x in (s, s + 1e-200j):  # the metric's complex step
        rows, reference = wave.quotients(x), _reference_rows(wave, x)
        for row, ref in zip(rows, reference):
            assert row.dtype == ref.dtype and row.tobytes() == ref.tobytes()


def test_quotients_visit_only_the_stations_that_own_samples(monkeypatch, ante):
    wave = _waveform(ante)
    visited = []
    station_formula = pulse._quotients
    monkeypatch.setattr(pulse, "_quotients",
                        lambda st, u: visited.append(st.s0) or station_formula(st, u))
    wave.quotients(np.array([0.3]))
    assert len(visited) == 1
    # a driven-segment call skips the stations past the switch
    visited.clear()
    s = np.linspace(0.0, wave.end, 1001)
    wave.quotients(s)
    s0 = np.array([st.s0 for st in wave.stations])
    owners = set(s0[np.abs(s[:, None] - s0).argmin(axis=1)].tolist())
    assert sorted(visited) == sorted(owners) and len(visited) == 2
    assert sorted(set(s0.tolist()) - owners) == [gamma_dot_zero_crossing(ante.gamma), 1.0]


# the listed points of the trig helper: 0, tiny, the series threshold 1e-2
# from either side, and around pi / 2 and pi, where tan(a / 2) is 1 or huge
TRIG_POINTS = [0.0, 1e-300, 1e-8, math.nextafter(1e-2, 0.0), 1e-2, PI / 2, PI - 1e-8, PI, 10.0]


def test_sinc_cos_from_one_tan_matches_numpy_within_a_few_ulps():
    a = np.array(TRIG_POINTS + [-x for x in TRIG_POINTS])
    sinc, cos = pulse._sinc_cos(a)
    # sinc relative to its value; cos absolute, because it comes from
    # (1 - t)(1 + t) with t = tan(a / 2) rounded near 1 where cos(a) ~ 0
    assert np.all(np.abs(sinc - np.sinc(a / PI)) <= 4 * np.spacing(np.abs(sinc)))
    assert np.all(np.abs(cos - np.cos(a)) <= 2 * np.finfo(float).eps)
    # a complex step a + i b carries b sinc'(a) and -b sin(a), the real parts unchanged
    step_sinc, step_cos = pulse._sinc_cos(a + 1j)
    assert step_sinc.real.tobytes() == sinc.tobytes() and step_cos.real.tobytes() == cos.tobytes()
    with mp.workdps(800):  # cos(a) - sinc(a) ~ a^2 / 3 at a = 1e-300
        exact = [(mp.cos(x) - mp.sin(x) / x) / x if x else mp.mpf(0) for x in map(mp.mpf, a)]
    rate = np.array([float(x) for x in exact])
    # below 1e-2 the series; above it (cos a - sinc a) / a, which loses
    # ~eps / a to cancellation, as does numpy's own difference
    numpy_rate = (np.cos(a) - np.sinc(a / PI)) / np.where(a == 0.0, 1.0, a)
    series = np.abs(a) < 1e-2
    assert np.all(np.abs(step_sinc.imag - rate)[series] <= 2 * np.spacing(np.abs(rate[series])))
    slack = 2 * np.spacing(np.abs(rate)) + 4 * np.finfo(float).eps / np.abs(np.where(series, 1.0, a))
    assert np.all(np.abs(step_sinc.imag - numpy_rate)[~series] <= slack[~series])
    assert np.all(np.abs(step_cos.imag + np.sin(a)) <= 2 * np.spacing(np.abs(np.sin(a))))
    # b scales the complex-step parts exactly, down to the metric's h = 1e-200
    tiny_sinc, tiny_cos = pulse._sinc_cos(a + 1e-200j)
    assert tiny_sinc.imag.tolist() == (1e-200 * step_sinc.imag).tolist()
    assert tiny_cos.imag.tolist() == (1e-200 * step_cos.imag).tolist()


@pytest.mark.parametrize("build, searches", [
    (partial(third_order_pair, 1.0), 0),
    (partial(fourth_order_pair, 1.0, 1.2), 1),
    (partial(fourth_order_pair, 1.0, 5 * PI / 16), 1),  # the triple zero of gamma at s = 1
    (partial(antedated_pair, 1.0, 0.5), 1),
], ids=["third", "fourth", "fourth-critical", "antedated"])
def test_cubic_and_quartic_builds_make_at_most_two_root_searches(monkeypatch, build, searches):
    # Every search, stationary points included, goes through stacked_real_roots.
    # A polynomial finds its stationary points once: the cubic angles (the
    # quartic's beta too) kept theirs from the process's first cubic build,
    # and the antedated gamma its basis's. So a build searches only for a
    # fresh angle's. Every designed angle zero sits at an edge (s = 0, the
    # switch, the rate reversal, s = 1), where no root is sought, and each
    # station lies exactly there.
    pulse._Waveform(third_order_pair(1.0))
    pair = build()
    calls = []
    search = poly.stacked_real_roots
    monkeypatch.setattr(poly, "stacked_real_roots", lambda *args: calls.append(args) or search(*args))
    wave = pulse._Waveform(pair)
    assert len(calls) <= searches
    if pair.switch_fraction is None:
        assert [st.s0 for st in wave.stations] == [0.0, 1.0]
    else:
        t_s = gamma_dot_zero_crossing(pair.gamma)
        assert [st.s0 for st in wave.stations] == [0.0, pair.switch_fraction, t_s, 1.0]


def _searching_angle_zeros(p, crit, n):
    """The zeros of sin(p) in s order, the roots of every multiple of pi
    crossed between p's stationary points crit, sought at a piece's edge too."""
    edges = [0.0, *crit, 1.0]
    values = p(np.array(edges)) / PI
    roots = {}
    for a, b, va, vb in zip(edges, edges[1:], values, values[1:]):
        lo, hi = math.ceil(min(va, vb) - 1e-9), math.floor(max(va, vb) + 1e-9)
        for k in range(lo, hi + 1) if va <= vb else range(hi, lo - 1, -1):
            if k not in roots:
                roots[k] = pulse.real_roots(p.shifted(-k * PI), 0.0, 1.0)
            yield from (r for r in roots[k] if a <= r <= b)


def _clusters(points):
    """The points, in s order, in runs whose neighbours lie within ROOT_TOL."""
    run = []
    for x in points:
        if run and x > run[-1] + pulse.ROOT_TOL:
            yield run
            run = []
        run.append(x)
    yield run


def _clustered_stations(pair):
    """pair's stations by a walk that knows no designed zero: every crossing
    sought over each angle's own stationary points, the stationary points
    added as candidates, each run of candidates within ROOT_TOL decided
    together, and the candidates kept where most factors vanish (least s on
    a tie). The stations, or the type and message of the walk's error."""
    dgamma, dbeta = pair.gamma.derivative(), pair.beta.derivative()
    gamma_crit, beta_crit = (pulse.real_roots(q, 0.0, 1.0) for q in (dgamma, dbeta))
    end = pair.switch_fraction or 1.0
    args = (dgamma, pair.beta, pair.beta.shifted(0.5 * PI), pair.gamma)
    n = max(len(q.coefficients) for q in args)
    zeros = [_searching_angle_zeros(q, crit, n)
             for q, crit in zip(args[1:], (beta_crit, beta_crit, gamma_crit))]
    a = np.zeros((n, 4))
    for f, q in enumerate(args):
        a[: len(q.coefficients), f] = q.coefficients
    a = np.hstack([a, np.abs(a)])
    stations, origin = [], []
    for run in _clusters(heapq.merge(sorted({0.0, *gamma_crit, *beta_crit}), *zeros)):
        found = [next(pulse._stacked_stations(a, x)) for x in sorted(set(run))]
        origin = origin or found[:1]
        kept = []
        for x in sorted((x for x in found if x.mult[1] + x.mult[3]), key=lambda x: -sum(x.mult)):
            if all(abs(x.s0 - y.s0) > pulse.ROOT_TOL for y in kept):
                kept.append(x)
        for x in sorted(kept, key=lambda x: x.s0):
            if x.s0 <= end + pulse.ROOT_TOL and x.cot_order < 0:
                return DivergentPulse, f"waveform diverges at s = {x.s0:.6g}"
            stations.append(x)
    return stations or origin


@pytest.mark.parametrize("miss, m", [(-16, 1), (64, 0)])
def test_station_multiplicity_turns_at_the_rounding_bound(miss, m):
    # About s = 1, gamma_dot = -(1 + miss eps) + s has the Taylor coefficients
    # -miss eps, exactly, and 1; the first's absolute coefficients sum to
    # 2 + miss eps. So poly.vanishes's bound for its two terms is 8 * 2 * eps
    # * (2 + miss eps): at miss = -16 the coefficient is just over half of it
    # and vanishes (multiplicity 1), at 64 just under twice it and does not
    # (multiplicity 0). A rule of half or twice the constant turns one over.
    eps = np.finfo(float).eps
    a = np.array([[-(1.0 + miss * eps), 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0]])
    assert next(pulse._stacked_stations(np.hstack([a, np.abs(a)]), 1.0)).mult == (m, 0, 0, 0)


def _outcome(build):
    """The pair build() makes and its waveform, built afresh (not cached), or
    the type and message of the error that stopped either."""
    try:
        pair = build()
        return pair, pulse._Waveform(pair)
    except (Infeasible, NumericalFailure) as exc:
        return type(exc), str(exc)


@settings(max_examples=80)
@given(family=st.sampled_from(["fourth", "antedated"]), mid=_evenly(5 * PI / 16, 3.1),
       frac=_evenly(critical_t_a() * (1 + 1e-9), 0.9999), units=_evenly(0.01, 25.0),
       t_f=_evenly(-6.0, 6.0).map(lambda e: 10.0**e))
@example(family="fourth", mid=5 * PI / 16, frac=0.5, units=1.0, t_f=1e-6)
@example(family="antedated", mid=1.0, frac=0.5, units=5.232, t_f=1e6)
@example(family="antedated", mid=1.0, frac=critical_t_a(), units=4.0, t_f=1.0)
def test_edge_zeros_keep_the_stations_of_a_full_search_and_t_f_free_waveforms(
        family, mid, frac, units, t_f):
    # unit: the pair at t_f = 1 with the t_a / t_f and beta_dot0 t_f that pair
    # is built from, whose waveforms (times t_f) must equal pair's to the bit
    if family == "fourth":
        build = partial(fourth_order_pair, t_f, mid)
        unit_build = partial(fourth_order_pair, 1.0, mid)
    else:
        t_a, rate = frac * t_f, beta_dot0_rate(units, t_f)
        build = partial(antedated_pair, t_f, t_a, rate)
        # beta_dot0 t_f as antedated_pair rounds it
        unit_build = partial(antedated_pair, 1.0, t_a / t_f, rate * t_f)
    built, unit = _outcome(build), _outcome(unit_build)
    if isinstance(built[0], type):  # raised as the unit pair and the search do
        assert built == unit
        if built[0] is DivergentPulse:
            assert _clustered_stations(build()) == built
        return
    (pair, wave), (unit_pair, _) = built, unit
    # The same stations; where the search puts a shared zero at a
    # rounding-split root, the edge is the exact structural zero.
    full = _clustered_stations(pair)
    assert [(x.mult, x.omega_order, x.cot_order) for x in wave.stations] == \
        [(x.mult, x.omega_order, x.cot_order) for x in full]
    assert np.abs(wave._s0 - [x.s0 for x in full]).max() <= 1e-12
    table, unit_table = synthesize(pair, 400), synthesize(unit_pair, 400)
    assert table.omega_r.tobytes() == unit_table.omega_r.tobytes()
    assert table.delta.tobytes() == unit_table.delta.tobytes()
    assert _waveform(pair).grid.metric_peak == _waveform(unit_pair).grid.metric_peak


def test_frequencies_scale_as_inverse_t_f():
    small = third_order_pair(1.0)
    large = third_order_pair(1000.0)
    for s in (0.0, 0.2, 0.5, 0.9, 1.0):
        assert omega_r_at(small, s) == pytest.approx(1000.0 * omega_r_at(large, s), abs=1e-12)
        assert delta_at(small, s) == pytest.approx(1000.0 * delta_at(large, s), abs=1e-12)


def test_synthesize_minimal_grid(third):
    table = synthesize(third, 2)
    np.testing.assert_allclose(table.t, [0.0, 0.5, 1.0])


def test_synthesize_third_profile(third):
    table = synthesize(third, 1000)
    assert np.all(table.omega_r >= -1e-9)
    assert abs(table.omega_r[0]) < 1e-9 and abs(table.omega_r[-1]) < 1e-9
    assert np.all(np.isfinite(table.omega_r)) and np.all(np.isfinite(table.delta))
    peak = table.omega_r.max()
    assert peak == pytest.approx(1.5 * PI / math.sin(PI / 8), rel=1e-4)
    assert table.t[np.argmax(table.omega_r)] == pytest.approx(0.5, abs=1e-3)


def test_synthesize_antedated_switch(ante):
    table = synthesize(ante, 1000)
    after = table.t > 0.5
    assert np.all(table.omega_r[after] == 0.0)
    held = table.delta[after]
    assert np.all(held == held[0])
    assert held[0] != 0.0
    # nonnegative everywhere despite the gamma-rate sign flip at 11/16
    assert np.all(table.omega_r >= -1e-9)


def test_synthesize_rejects_tiny_grid(third):
    with pytest.raises(ValueError):
        synthesize(third, 1)


def test_divergent_pulse_on_uncompensated_schedule():
    # beta crosses zero at s = 0.3 where the gamma rate does not vanish
    broken = SchedulePair(
        Polynomial([PI, 0, -3 * PI, 2 * PI]), Polynomial([-0.3, 1.0]), 1.0, None
    )
    with pytest.raises(DivergentPulse):
        omega_r_at(broken, 0.3)


def test_runtime_divergence_check_names_the_station():
    # the antedated angles with beta bent by 2 s^2 (s - 1/2)^2, past the
    # switch: sin(beta) vanishes at 0.683992, where gamma_dot does not, and
    # at s = 1 (a double zero of gamma, a simple one of gamma_dot) beta no
    # longer sits at pi/2, so there the cot term diverges but omega_r does not
    ante = antedated_pair(1.0, 0.5)
    bend = np.zeros(len(ante.beta.coefficients))
    bend[2:5] = [0.5, -2.0, 2.0]
    pair = SchedulePair(ante.gamma, Polynomial(ante.beta.coefficients + bend), 1.0, 0.5)
    wave = _waveform(pair)
    assert [round(st.s0, 6) for st in wave.stations] == [0.0, 0.5, 0.683992, 1.0]
    assert [st.omega_order < 0 for st in wave.stations] == [False, False, True, False]
    assert [st.cot_order < 0 for st in wave.stations] == [False, False, True, True]
    s_div = wave.stations[2].s0
    for probe in (lambda: adiabaticity_metric(pair, np.array([0.6, 0.7])),
                  lambda: omega_r_at(pair, s_div), lambda: delta_at(pair, s_div)):
        with pytest.raises(DivergentPulse, match="diverges at s = 0.683992"):
            probe()
    # the driven segment [0, 1/2] is finite, so the switched drive is too
    assert np.all(np.isfinite(synthesize(pair, 1000).omega_r))
    assert np.all(np.isfinite(hamiltonian_at(pair, np.linspace(0.0, 1.0, 101))))
    # one flag: omega_r's continuation raises where only delta's diverges
    with pytest.raises(DivergentPulse, match="diverges at s = 1"):
        omega_r_at(pair, 1.0)


def test_degenerate_switch_warns():
    # linear gamma through zero at t_a with beta pinned at -pi/2 gives an
    # identically zero detuning, so the switched Hamiltonian is degenerate
    degenerate = SchedulePair(
        Polynomial([PI, -2 * PI]), Polynomial([-PI / 2]), 1.0, 0.5
    )
    with pytest.warns(UserWarning, match="degenerate"):
        synthesize(degenerate, 100)


@pytest.mark.parametrize("rate, warns", [(0.5e-9, True), (2e-9, False)])
def test_switched_detuning_warns_below_1e_9(rate, warns):
    # the cubic gamma is pi / 2 at the switch s = 1/2, so cot(gamma) vanishes
    # there and the held detuning is -beta_dot = rate (times 1 / t_f)
    pulse._waveform.cache_clear()
    pair = SchedulePair(third_order_pair(1.0).gamma, Polynomial([-PI / 2, -rate]), 1.0, 0.5)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        table = synthesize(pair, 100)
    assert table.delta[-1] == pytest.approx(rate, rel=1e-9)
    assert [str(w.message).startswith("switched detuning is ~0") for w in seen] == [True] * warns


def test_degenerate_switch_warns_once_per_shape():
    # the same dimensionless shape at another t_f reads the cached waveform
    pulse._waveform.cache_clear()
    shape = (Polynomial([PI, -2 * PI]), Polynomial([-PI / 2]))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        for t_f in (1.0, 4.0):
            synthesize(SchedulePair(*shape, t_f, 0.5 * t_f), 100)
    assert [str(w.message).startswith("switched detuning is ~0") for w in seen] == [True]
    # attributed, as before the shape key, to the public function that built it
    lines, first = inspect.getsourcelines(synthesize)
    assert seen[0].filename == pulse.__file__ and first < seen[0].lineno < first + len(lines)


def _counted_builds(monkeypatch):
    """Clear the waveform cache and count, from here on, _Waveform builds and
    complex passes over the validation grid (through fields)."""
    builds, passes = [], []
    init, fields = pulse._Waveform.__init__, pulse._Waveform.fields

    def counted_init(self, pair):
        builds.append(pair)
        init(self, pair)

    def counted_fields(self, s):
        if np.iscomplexobj(s) and len(s) == pulse.GRID_POINTS + 2:
            passes.append(self)
        return fields(self, s)

    monkeypatch.setattr(pulse._Waveform, "__init__", counted_init)
    monkeypatch.setattr(pulse._Waveform, "fields", counted_fields)
    pulse._waveform.cache_clear()
    return builds, passes


def test_pairs_that_differ_in_t_f_alone_share_one_waveform(monkeypatch):
    builds, passes = _counted_builds(monkeypatch)
    one, seven = third_order_pair(1.0), third_order_pair(7.0)
    wave = _waveform(one)
    assert _waveform(seven) is wave
    assert wave.grid is _waveform(seven).grid
    assert len(builds) == 1 and passes == [wave]
    assert builds[0].t_f == 1.0  # the shape's own pair, at unit t_f
    info = pulse._waveform.cache_info()
    assert (info.hits, info.misses, info.maxsize, info.currsize) == (2, 1, 128, 1)
    assert max_adiabaticity_metric(seven) == max_adiabaticity_metric(one)
    assert omega_r_at(seven, 0.3) == omega_r_at(one, 0.3) / 7.0
    assert len(builds) == 1 and len(passes) == 1


def test_antedated_pairs_of_one_shape_share_one_waveform(monkeypatch):
    # equal t_a / t_f and beta_dot0 t_f fit the same polynomials at any t_f
    builds, passes = _counted_builds(monkeypatch)
    unit, scaled = antedated_pair(1.0, 0.375, 3.0), antedated_pair(4.0, 1.5, 0.75)
    assert (unit.gamma, unit.beta, unit.switch_fraction) == \
        (scaled.gamma, scaled.beta, scaled.switch_fraction)
    assert _waveform(unit) is _waveform(scaled)
    _waveform(unit).grid, _waveform(scaled).grid
    assert len(builds) == 1 and len(passes) == 1
    # another switch fraction is another shape
    assert _waveform(antedated_pair(4.0, 2.0, 0.75)) is not _waveform(unit)
    assert len(builds) == 2


def test_quartic_pairs_at_two_gamma_mid_do_not_share(monkeypatch):
    builds, passes = _counted_builds(monkeypatch)
    low, high = fourth_order_pair(2.0, 1.2), fourth_order_pair(2.0, 1.3)
    assert _waveform(low) is not _waveform(high)
    assert _waveform(low).grid != _waveform(high).grid
    assert len(builds) == 2 and len(passes) == 2
    assert pulse._waveform.cache_info().currsize == 2


def test_signed_zero_coefficients_make_one_pair_and_one_waveform(monkeypatch):
    # the cubic's gamma and beta each have a 0.0 coefficient; -0.0 there is the same pair
    builds, _ = _counted_builds(monkeypatch)
    third = third_order_pair(1.0)
    signed = [Polynomial(np.where(p.coefficients == 0.0, -0.0, p.coefficients))
              for p in (third.gamma, third.beta)]
    assert np.signbit(signed[0].coefficients[1]) and np.signbit(signed[1].coefficients[3])
    other = SchedulePair(*signed, 1.0, None)
    assert other == third and hash(other) == hash(third)
    assert _waveform(other) is _waveform(third)
    assert len(builds) == 1


@pytest.mark.parametrize("gap, divergent", [(0.5e-6, True), (2e-6, False)])
def test_a_divergence_within_root_tol_past_the_switch_is_on_the_drive(gap, divergent):
    # beta crosses 0 at s1 = 0.5 + gap, where gamma_dot does not vanish, so
    # omega_r diverges there, just past the switch at s = 0.5: within ROOT_TOL
    # of the drive's end it is on the driven segment
    s1 = 0.5 + gap
    pair = SchedulePair(third_order_pair(1.0).gamma, Polynomial([-PI / 2, PI / (2 * s1)]), 1.0, 0.5)
    if divergent:
        with pytest.raises(DivergentPulse, match="diverges at s = 0.5"):
            synthesize(pair, 100)
    else:
        table = synthesize(pair, 100)
        assert np.isfinite(table.omega_r).all() and table.omega_r[50] > 1e5


def test_adiabaticity_metric_static_pulse():
    static = SchedulePair(Polynomial([2.0]), Polynomial([-1.2, 0.3]), 1.0, None)
    assert adiabaticity_metric(static, 0.4) == pytest.approx(0.0, abs=1e-9)


def test_adiabaticity_metric_usual_vs_antedated(third, ante):
    s = np.linspace(1e-3, 1 - 1e-3, 501)
    usual = max(adiabaticity_metric(third, float(x)) for x in s)
    pre_switch = np.linspace(1e-3, 0.5 - 1e-3, 251)
    antedated = max(adiabaticity_metric(ante, float(x)) for x in pre_switch)
    assert usual < 1.0  # the baseline waveforms happen to respect adiabaticity
    assert antedated > usual  # the antedated passage is the non-adiabatic one


def test_adiabaticity_metric_array_matches_scalar(third, ante):
    fourth = fourth_order_pair(1.0, 1.2)
    for pair, s_end in ((third, 1.0), (fourth, 1.0), (ante, 0.5)):
        s = np.linspace(1e-3, s_end - 1e-3, 101)
        metric = adiabaticity_metric(pair, s)
        assert metric.shape == s.shape
        assert metric.tolist() == [adiabaticity_metric(pair, float(x)) for x in s]


def _metric_central_difference(pair, s, h=1e-6):
    """The metric adiabaticity_metric replaced: rates by central differences
    of the vector evaluators at step h in s."""
    wave = _waveform(pair)
    om, dl = wave.omega_many(s), wave.delta_many(s)
    dom = (wave.omega_many(s + h) - wave.omega_many(s - h)) / (2.0 * h)
    ddl = (wave.delta_many(s + h) - wave.delta_many(s - h)) / (2.0 * h)
    return np.abs((om * ddl - dom * dl) / np.hypot(om, dl) ** 3)


def test_adiabaticity_metric_matches_central_difference(third, ante):
    for pair in (third, fourth_order_pair(1.0, 1.2), ante):
        s_end = pair.switch_fraction or 1.0
        s = np.linspace(0.0, s_end, 2001)[1:-1]
        stations = np.array([st.s0 for st in _waveform(pair).stations])
        s = s[np.abs(s[:, None] - stations).min(axis=1) > 1e-3]
        metric = adiabaticity_metric(pair, s)
        reference = _metric_central_difference(pair, s)
        assert np.abs(metric - reference).max() <= 1e-6 * reference.max()
        assert np.all(np.abs(metric - reference) <= 1e-6 * reference)


def test_adiabaticity_metric_domain(third):
    for s in (0.0, 1.0, np.array([0.0, 0.5])):
        with pytest.raises(ValueError):
            adiabaticity_metric(third, s)
    # the complex step has no difference step to keep inside [0, 1]
    assert math.isfinite(adiabaticity_metric(third, 1e-9))


def test_adiabaticity_metric_level_crossing():
    # constant angles: omega_r = delta = 0 everywhere, so Omega vanishes
    crossing = SchedulePair(Polynomial([1.0]), Polynomial([-1.2]), 1.0, None)
    with pytest.raises(DegeneratePoint):
        adiabaticity_metric(crossing, 0.4)
    with pytest.raises(DegeneratePoint):
        adiabaticity_metric(crossing, np.array([0.2, 0.4]))
    for _ in range(2):  # the grid pass is kept, but never the exception
        with pytest.raises(DegeneratePoint, match="vanishes at s = 0$"):
            max_adiabaticity_metric(crossing)
    assert validate_schedule(crossing).delta_finite
    with pytest.raises(DegeneratePoint, match="level crossing"):
        compare_passages(crossing, Weights(0.2, 0.8), 100)


@pytest.mark.parametrize("rate, crossing", [(0.5e-12, True), (2e-12, False)])
def test_adiabaticity_metric_sees_a_crossing_below_1e_12(rate, crossing):
    # constant gamma: omega_r = 0 and delta = -beta_dot = rate, so Omega t_f = rate
    pair = SchedulePair(Polynomial([1.0]), Polynomial([-1.2, -rate]), 1.0, None)
    if crossing:
        with pytest.raises(DegeneratePoint, match="vanishes at s = 0.4"):
            adiabaticity_metric(pair, 0.4)
    else:
        assert adiabaticity_metric(pair, 0.4) == 0.0


def test_adiabaticity_metric_scale_invariant():
    small, large = third_order_pair(1.0), third_order_pair(1000.0)
    for s in (0.1, 0.37, 0.81):
        assert adiabaticity_metric(small, s) == pytest.approx(
            adiabaticity_metric(large, s), rel=1e-9
        )


def test_lr_phase_zero_at_start(third):
    assert lr_phase(third, 0.0, +1) == 0.0


def test_lr_phase_branches_opposite(third):
    for t in (0.2, 0.5, 1.0):
        assert lr_phase(third, t, +1) == pytest.approx(-lr_phase(third, t, -1), abs=1e-12)


def test_lr_phase_finite_total(third):
    alpha = lr_phase(third, 1.0, +1)
    assert math.isfinite(alpha)
    assert abs(alpha) > 1.0  # a nontrivial accumulated phase


def test_lr_phase_dimensionless(third):
    large = third_order_pair(1000.0)
    assert lr_phase(third, 0.7, +1) == pytest.approx(lr_phase(large, 700.0, +1), abs=1e-9)


def test_lr_phase_just_past_t_f_is_the_total(third):
    # accepted up to t_f (1 + 1e-12), and read at t_f: an unswitched pair has no held detuning
    assert lr_phase(third, 1.0 + 1e-13, +1) == lr_phase(third, 1.0, +1)


def test_lr_phase_invalid_branch(third):
    with pytest.raises(ValueError):
        lr_phase(third, 0.5, 2)


def test_gauss_legendre_known_integrals():
    pieces = np.array([[0.0, 0.5 * PI, PI], [0.0, 1.0, 1.0]])
    rows = np.array([0.0, 1.0])
    values = gauss_legendre(lambda s, row: np.where(rows[row, None] == 0, np.sin(s), s**3), pieces)
    assert values == pytest.approx([2.0, 0.25], abs=1e-12)


def test_gauss_legendre_stops_at_node_cap():
    # 1.6 million oscillations cannot be resolved by 1024 nodes per piece
    with pytest.raises(NoConvergence, match=r"did not converge on \[0, 0.5\]"):
        gauss_legendre(lambda s, row: np.sin(1e7 * s), [0.0, 0.5, 1.0])


#: every node count gauss_legendre can ask for: GAUSS_START doubled up to GAUSS_CAP
RULE_SIZES = [GAUSS_START << j for j in range((GAUSS_CAP // GAUSS_START).bit_length())]


def test_rule_sizes_run_from_the_first_rule_to_the_cap():
    assert RULE_SIZES[0] == GAUSS_START and RULE_SIZES[-1] == GAUSS_CAP
    assert all(b == 2 * a for a, b in zip(RULE_SIZES, RULE_SIZES[1:]))


@pytest.mark.parametrize("n", RULE_SIZES)
def test_gauss_rule_nodes_rise_strictly_inside_and_are_symmetric(n):
    x, w = _gauss_rule(n)
    assert x.shape == w.shape == (n,) and not (x.flags.writeable or w.flags.writeable)
    assert -1.0 < x[0] and x[-1] < 1.0 and (np.diff(x) > 0).all()
    assert np.abs(x + x[::-1]).max() <= np.finfo(float).eps
    assert (w > 0).all() and np.abs(w / w[::-1] - 1).max() <= 1e-13


@pytest.mark.parametrize("n", RULE_SIZES)
def test_gauss_rule_integrates_every_monomial_up_to_degree_2n_minus_1(n):
    x, w = _gauss_rule(n)
    k = np.arange(2 * n)[:, None]
    terms = w * x**k
    exact = np.where(k[:, 0] % 2 == 0, 2.0 / (k[:, 0] + 1), 0.0)
    # relative to the sum of |w x^k|, which is the exact value for even k
    assert (np.abs(terms.sum(axis=1) - exact) <= 1e-13 * np.abs(terms).sum(axis=1)).all()


def _reference_root_and_weight(n, x):
    """The root of P_n next to the float x and its weight, to 40 digits: two
    Newton steps on mpmath's legendre, then 2 (1 - a^2) / (n P_{n-1}(a))^2.
    mpmath evaluates P_n slowly at x < 0, so it works at |x| and mirrors
    (P_n(-x) = (-1)^n P_n(x))."""
    with mp.workdps(40):
        a = mp.mpf(abs(x))
        for _ in range(2):
            pn, pm = mp.legendre(n, a), mp.legendre(n - 1, a)
            a -= pn * (a * a - 1) / (n * (a * pn - pm))
        w = 2 * (1 - a * a) / (n * mp.legendre(n - 1, a)) ** 2
        return math.copysign(1.0, x) * a, w


@pytest.mark.parametrize("n", [16, 128, 1024])
def test_gauss_rule_matches_a_40_digit_reference(n):
    # leggauss's weights miss this by 1.2e-9 at n = 1024
    x, w = _gauss_rule(n)
    for i in sorted({*np.linspace(0, n - 1, 20).round().astype(int).tolist()}):
        root, weight = _reference_root_and_weight(n, float(x[i]))
        assert abs(x[i] - root) <= 2.2e-16, (n, i)
        assert abs(w[i] / weight - 1) <= 1e-11, (n, i)


def test_gauss_rules_build_without_an_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    for name in ("eigvalsh", "eigh", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for n in RULE_SIZES:  # built afresh, not read from the cache
        assert all(map(np.array_equal, _gauss_rule.__wrapped__(n), _gauss_rule(n)))


def test_pulse_values_match_on_fourth_order_families():
    # same beta as the cubic family, so the endpoint detuning is unchanged
    for mid in (2 * PI / 5, 2 * PI / 6):
        pair = fourth_order_pair(1.0, mid)
        assert delta_at(pair, 0.0) == pytest.approx(-4.5 * PI, abs=1e-9)
        assert abs(omega_r_at(pair, 0.0)) < 1e-9
