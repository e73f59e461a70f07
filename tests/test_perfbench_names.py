"""The program names the benchmark binds from outside the package.

perfbench/tracer.py wraps each (module, attribute) of its TRACED list with
getattr, and perfbench/worker.py and workloads.py call a few more, so a
name dropped from the package would first show up as a broken benchmark.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import iecpulse
import iecpulse.cli  # noqa: F401  (the CLI is not imported by the package)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: Names the benchmark workers call besides the traced ones.
CALLED = [
    ("analysis", "default_workers"),
    ("pulse", "_waveform.cache_clear"),
    ("pulse", "_waveform.cache_info"),
    ("cli", "main"),
    ("cli", "parse_config"),
    ("cli", "ConfigError"),
    ("schedule", "critical_gamma_mid"),
    ("dynamics", "evolve_pure"),
    ("dynamics", "invariant_eigenstate"),
]


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, _ in tracer.TRACED]


@pytest.mark.parametrize("module, attr", _traced() + CALLED,
                         ids=lambda x: x if isinstance(x, str) else None)
def test_benchmark_name_resolves(module, attr):
    owner = getattr(iecpulse, module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_benchmark_result_shapes():
    # The tracer counts len(evolve(...).t) - 1 RK4 steps and len(evolve_pure(...)) - 1
    # pure steps, and reads _sweep_point's (cost, feasible) pair. The verify jobs
    # call evolve_pure on both branches of one pair in a row, take each record's
    # last (t, psi) sample as a float time and a length-2 complex state, and read
    # its np.vdot overlap with the invariant eigenstate at the end.
    pair = iecpulse.third_order_pair(1.0)
    rho0 = iecpulse.invariant_state(pair, iecpulse.Weights(0.2, 0.8), 0.0)
    assert len(iecpulse.dynamics.evolve(pair, rho0, 100).t) - 1 == 100
    cost, feasible = iecpulse.analysis._sweep_point(1.0, 0.5, 5.0)
    assert type(cost) is float and type(feasible) is bool
    for branch in (+1, -1):
        states = iecpulse.dynamics.evolve_pure(pair, branch, 200)
        assert len(states) - 1 == 200
        t, psi = states[-1]
        assert t == pytest.approx(1.0) and psi.shape == (2,)
        assert type(t) is float and psi.dtype == complex
        phi = iecpulse.dynamics.invariant_eigenstate(pair, branch, 1.0)
        assert abs(abs(np.vdot(phi, psi)) - 1.0) <= 1e-6
