"""Self-tests of the benchmark (not part of the program's test suite).

    python3 -m pytest -q perfbench/selftest.py

Each workload's real job list is traced once (twice for `design`), so the
checks hold for exactly the inputs the benchmark measures. The file takes a
minute or two.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import TRACED  # noqa: E402

ROOT = HERE.parent

#: The workload meant to exercise each traced function.
EXERCISED_BY = {
    "poly.fit": "design",
    "poly.real_roots": "design",
    "schedule.third_order_pair": "design",
    "schedule.fourth_order_pair": "design",
    "schedule.antedated_pair": "optimise",
    "schedule.gamma_dot_zero_crossing": "optimise",
    "schedule.critical_gamma_mid": "design",
    "pulse._waveform": "design",
    "pulse._Waveform.__init__": "optimise",
    "pulse._Waveform.omega": "optimise",
    "pulse._Waveform.delta": "design",
    "pulse._Waveform.cot_term": "design",
    "pulse._Waveform.omega_many": "optimise",
    "pulse._Waveform.delta_many": "verify",
    "analysis.validate_schedule": "optimise",
    "analysis.energy_cost": "optimise",
    "analysis.sweep_beta_dot0": "optimise",
    "analysis._sweep_point": "optimise",
    "analysis.compare_passages": "verify",
    "dynamics.evolve": "verify",
    "dynamics.evolve_pure": "verify",
    "dynamics.invariant_state": "verify",
    "dynamics.adiabatic_state": "verify",
    "dynamics.invariant_residual": "design",
    "cli.main": "design",
}

#: Per-layer values that must repeat exactly between runs of one seed.
COUNT_SUFFIXES = (".calls", ".errors", ".steps", ".samples", ".integrand_evals", ".points",
                  ".feasible", ".in_vector")


def traced(workload: str, seed: int = 3) -> dict:
    env = run.program_env(serial=True)
    result = run.run_worker(ROOT, workload, seed, "traced", env)
    (traced_round,) = result.pop("rounds")
    assert traced_round["failed"] == 0, traced_round["failures"]
    return {**result, **traced_round}


@pytest.fixture(scope="module")
def runs() -> dict[str, dict]:
    return {w: traced(w) for w in workloads.WORKLOADS}


def counts(result: dict) -> dict:
    raw = result["raw_layers"]
    out = {k: v for k, v in raw.items() if k.endswith(COUNT_SUFFIXES)}
    out["cache"] = result["waveform_cache"]
    out["exits"] = result["exits"]
    return out


def test_same_seed_gives_identical_counts(runs):
    again = traced("design")
    assert counts(again) == counts(runs["design"])


def test_every_traced_function_is_exercised(runs):
    assert set(EXERCISED_BY) == {f"{m}.{a}" for m, a, _ in TRACED}
    for name, workload in EXERCISED_BY.items():
        assert runs[workload]["raw_layers"][f"{name}.calls"] > 0, (name, workload)


def test_predicted_zeros(runs):
    assert runs["optimise"]["raw_layers"].get("dynamics.evolve.steps", 0) == 0
    for workload in ("design", "verify"):
        assert runs[workload]["raw_layers"].get("analysis.sweep.points", 0) == 0


def test_per_layer_metrics_cover_benchmark_json(runs):
    """Every declared metric is reported, and every declared time is a real
    measurement (nonzero) on every workload."""
    declared = run.load_spec()["per_layer"]
    for workload, result in runs.items():
        layers = run.per_layer(result["raw_layers"], result["waveform_cache"],
                               Counter(result["exits"]), result["output_bytes"])
        assert {m["name"] for m in declared} <= set(layers)
        for m in declared:
            if m["unit"] == "s":
                assert layers[m["name"]] > 0.0, (workload, m["name"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_not_job_count(workload):
    first = [j.config_text() for j in workloads.make_jobs(workload, 1)]
    again = [j.config_text() for j in workloads.make_jobs(workload, 1)]
    other = [j.config_text() for j in workloads.make_jobs(workload, 2)]
    assert first == again
    assert len(other) == len(first)
    assert other != first


def test_rejection_needs_a_real_divergence(tmp_path):
    """Exit 3 counts as a correct answer only at a genuine divergence, not
    at one of the schedule's removable 0/0 points."""
    sys.path.insert(0, str(ROOT / "src"))
    import iecpulse
    import iecpulse.cli  # noqa: F401

    def confirmed(config: dict, s0: float) -> bool:
        job = workloads.Job(0, "design", "antedated", {"family": "antedated", **config}, ("synth",))
        (tmp_path / "run.cfg").write_text(job.config_text())
        (tmp_path / "synth.stderr").write_text(
            f"iecpulse: numerical failure: waveform diverges at s = {s0!r}\n")
        return workloads._divergence_confirmed(job, tmp_path / "synth.stderr", iecpulse)

    t_s = iecpulse.gamma_dot_zero_crossing(iecpulse.antedated_pair(1.0, 0.5).gamma)
    for s0 in (0.0, 0.5, t_s, 0.3):
        assert not confirmed({"t_f": 1.0, "t_a": 0.5, "beta_dot0": 5.0}, s0)
    assert confirmed({"t_f": 1.0, "t_a": 0.63, "beta_dot0": 0.5}, 0.307296)


def test_job_limit_interrupts_a_hung_call(monkeypatch):
    monkeypatch.setattr(workloads, "JOB_LIMIT_S", 0.05)
    t0 = time.perf_counter()
    with pytest.raises(workloads.JobTimeout):
        workloads._limited(time.sleep, 5.0)
    assert time.perf_counter() - t0 < 1.0



def test_hung_job_is_not_run_again(tmp_path, monkeypatch):
    """A job that gave no answer fails in every round but runs only once,
    so that a hang costs a run JOB_LIMIT_S once, not once per round."""
    monkeypatch.setattr(workloads, "JOB_LIMIT_S", 0.05)
    calls = []

    def main(argv):
        calls.append(argv[0])
        time.sleep(5.0)

    ip = SimpleNamespace(cli=SimpleNamespace(main=main))
    jobs = workloads.make_jobs("optimise", 1)[:1]
    workloads.write_configs(jobs, tmp_path)
    first = worker.run_round(jobs, tmp_path, ip, None, set())
    again = worker.run_round(jobs, tmp_path, ip, None, {jobs[0].index})
    assert calls == ["sweep"]
    assert first["failed"] == again["failed"] == 1
    assert first["job_exits"] == again["job_exits"] == [["timeout"]]
    assert again["job_s"] == [None]
    assert run._job_means([first["job_s"], again["job_s"]]) == first["job_s"]
