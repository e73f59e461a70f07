"""Per-layer tracing from outside the program.

`Tracer.install(ip)` replaces each traced function of the `iecpulse`
package with a wrapper that records a span: name, start, end, parent span
and job id. Many modules import these functions by value, so the wrapper
is written into every module namespace that holds the original object,
and `_Waveform` methods are wrapped on the class. Spans stay in compact
arrays in memory and are saved once, at the end.

A span's self time is its duration minus the durations of its direct
children (calls are nested and single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

#: (module, attribute, span group). Class methods are written "Class.method".
TRACED = [
    ("poly", "fit", "poly.fit"),
    ("poly", "real_roots", "poly.real_roots"),
    ("schedule", "third_order_pair", "schedule.pair"),
    ("schedule", "fourth_order_pair", "schedule.pair"),
    ("schedule", "antedated_pair", "schedule.pair"),
    ("schedule", "gamma_dot_zero_crossing", "schedule.gamma_dot_zero_crossing"),
    ("schedule", "critical_gamma_mid", "schedule.critical_gamma_mid"),
    ("pulse", "_waveform", "pulse.waveform.lookup"),
    ("pulse", "_Waveform.__init__", "pulse.waveform.build"),
    ("pulse", "_Waveform.omega", "pulse.scalar_eval"),
    ("pulse", "_Waveform.delta", "pulse.scalar_eval"),
    ("pulse", "_Waveform.cot_term", "pulse.scalar_eval"),
    ("pulse", "_Waveform.omega_many", "pulse.vector_eval"),
    ("pulse", "_Waveform.delta_many", "pulse.vector_eval"),
    ("analysis", "validate_schedule", "analysis.validate_schedule"),
    ("analysis", "energy_cost", "analysis.energy_cost"),
    ("analysis", "sweep_beta_dot0", "analysis.sweep"),
    ("analysis", "_sweep_point", "analysis.sweep"),
    ("analysis", "compare_passages", "analysis.compare_passages"),
    ("dynamics", "evolve", "dynamics.evolve"),
    ("dynamics", "evolve_pure", "dynamics.evolve_pure"),
    ("dynamics", "invariant_state", "dynamics.state"),
    ("dynamics", "adiabatic_state", "dynamics.state"),
    ("dynamics", "invariant_residual", "dynamics.invariant_residual"),
    ("cli", "main", "cli.main"),
]


class Tracer:
    """Span recorder for one traced pass; `enabled` switches recording."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.groups: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.job = -1
        self.enabled = False
        #: counters kept at the boundaries: work done, errors, nesting tallies
        self.counts: Counter[str] = Counter()
        self._depth: Counter[str] = Counter()
        self._errors: tuple[type, ...] = ()
        self._wave_cache = None

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, group: str, fn, work=None):
        nid = len(self.names)
        self.names.append(name)
        self.groups.append(group)
        clock = time.perf_counter
        counts, depth, stack = self.counts, self._depth, self.stack
        starts, ends = self.span_start, self.span_end
        add_name, add_parent, add_job = (self.span_name.append, self.span_parent.append,
                                         self.span_job.append)
        scalar = group == "pulse.scalar_eval"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(starts)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_job(self.job)
            ends.append(0.0)
            stack.append(idx)
            depth[group] += 1
            if scalar:
                if depth["pulse.vector_eval"]:
                    counts["pulse.scalar_eval.in_vector"] += 1
                if depth["analysis.energy_cost"]:
                    counts["analysis.energy_cost.integrand_evals"] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except self._errors:
                counts[f"{name}.errors"] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
                depth[group] -= 1
            if work is not None:
                work(counts, args, result)
            return result

        return traced

    def install(self, ip) -> None:
        """Wrap every binding of every traced function in the package."""
        self._errors = tuple(
            v for v in vars(ip.errors).values() if isinstance(v, type) and issubclass(v, Exception)
        ) + (ip.cli.ConfigError,)
        self._wave_cache = ip.pulse._waveform
        namespaces = [ip] + [getattr(ip, m) for m in ("poly", "schedule", "pulse", "analysis",
                                                      "dynamics", "cli")]
        for module, attr, group in TRACED:
            owner = getattr(ip, module)
            name = f"{module}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(name, group, getattr(cls, meth), _WORK.get(attr)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, group, original, _WORK.get(attr))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)

    def waveform_cache_info(self):
        return self._wave_cache.cache_info()

    # -- results --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.span_job, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), groups=np.array(self.groups),
                            **self.arrays())

    def raw_metrics(self) -> dict[str, float]:
        """Calls and escaped typed errors per span name, calls and self time
        per group, plus the counters kept at the boundaries."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        calls = np.bincount(a["name"], minlength=len(self.names))
        selfs = np.bincount(a["name"], weights=dur - child, minlength=len(self.names))
        spans: dict[str, float] = {}
        groups: Counter[str] = Counter()
        for i, (name, group) in enumerate(zip(self.names, self.groups)):
            spans[f"{name}.calls"] = int(calls[i])
            spans[f"{name}.errors"] = self.counts[f"{name}.errors"]
            groups[f"{group}.calls"] += int(calls[i])
            groups[f"{group}.self_s"] += float(selfs[i])
        return {**self.counts, **spans, **groups}


def _count_samples(counts, args, result) -> None:
    counts["pulse.vector_eval.samples"] += int(np.size(args[1]))


def _count_sweep_point(counts, args, result) -> None:
    counts["analysis.sweep.points"] += 1
    counts["analysis.sweep.feasible"] += int(bool(result[1]))


def _count_evolve_steps(counts, args, result) -> None:
    counts["dynamics.evolve.steps"] += len(result.t) - 1


def _count_evolve_pure_steps(counts, args, result) -> None:
    counts["dynamics.evolve_pure.steps"] += len(result) - 1


#: Work counted from a call's arguments and result, keyed by attribute.
_WORK = {
    "_Waveform.omega_many": _count_samples,
    "_Waveform.delta_many": _count_samples,
    "_sweep_point": _count_sweep_point,
    "evolve": _count_evolve_steps,
    "evolve_pure": _count_evolve_pure_steps,
}
