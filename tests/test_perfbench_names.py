"""The program names the benchmark binds from outside the package.

perfbench/tracer.py wraps each (module, attribute) of its TRACED list with
getattr, and perfbench/worker.py and workloads.py call a few more, so a
name dropped from the package would first show up as a broken benchmark.
"""

import importlib.util
from pathlib import Path

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
