"""One workload process: build the seeded job list, warm up, run the list
one or more times (timed, or traced from outside the program), check every
output and write a JSON result.

    python3 perfbench/worker.py --workload design --seed 1 --mode plain --rounds 3 --result out.json

Run from the root of a checkout; the program is imported from its `src/`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

REFERENCE_PER_ROUND = 60


def import_program(root: Path):
    """Import `iecpulse` from the checkout's `src/`, and only from there."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import iecpulse
    import iecpulse.cli  # noqa: F401  (the CLI is not imported by the package)

    if Path(iecpulse.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: iecpulse imported from {iecpulse.__file__}, not {src}")
    return iecpulse


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_maxrss + kids.ru_maxrss) / 1024.0


def run_pass(workload: str, seed: int, mode: str, root: Path, rounds: int) -> dict:
    """Run the job list `rounds` times in this process and check every round."""
    ip = import_program(root)
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(ip)
        # First-use set-up, traced as its own job: the part of setup_s
        # that lies inside the program.
        tracer.enabled = True
        ip.schedule.critical_gamma_mid()
        tracer.enabled = False
    else:
        ip.schedule.critical_gamma_mid()

    jobs = workloads.make_jobs(workload, seed)
    work = HERE / "_work" / f"{workload}-{seed}-{mode}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        warm = workloads.warm_job(workload)
        workloads.write_configs([warm], work / "warm")
        workloads.run_job(warm, work / "warm", ip, workloads.Outcome())
        workloads.write_configs(jobs, work)
        if tracer is not None:
            cache0 = tracer.waveform_cache_info()

        results = []
        hung: set[int] = set()
        for r in range(rounds):
            if r:
                # Every round starts with the waveform cache as the first
                # found it, so a repeat does the same work as a first run.
                ip.pulse._waveform.cache_clear()
            results.append(run_round(jobs, work, ip, tracer, hung))
            hung |= {j.index for j, exits in zip(jobs, results[-1]["job_exits"])
                     if "timeout" in exits}
        result = {
            "rounds": results,
            "peak_rss_mb": peak_rss_mb(),
            "sweep_workers": ip.analysis.default_workers() if workload == "optimise" else None,
        }
        if tracer is not None:
            cache1 = tracer.waveform_cache_info()
            result["raw_layers"] = tracer.raw_metrics()
            result["waveform_cache"] = {
                "hits": cache1.hits - cache0.hits,
                "misses": cache1.misses - cache0.misses,
            }
            spans = HERE / "_work" / f"spans-{workload}-seed{seed}.npz"
            tracer.save(spans)
            result["spans_file"] = str(spans)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_round(jobs: list, work: Path, ip, tracer, hung: set[int]) -> dict:
    """One run of the job list, then the checks of every job's output.

    A job in `hung` gave no answer in an earlier round. It is not run again,
    which bounds the length of a run, and it counts as failed again.

    Before each job, samples of the host's speed are taken (untimed), about
    REFERENCE_PER_ROUND in all, so that they cover the same stretch of time
    as the jobs.
    """
    outcomes = [workloads.Outcome() for _ in jobs]
    reference = []
    per_job = max(1, REFERENCE_PER_ROUND // len(jobs))
    for job, outcome in zip(jobs, outcomes):
        if job.index in hung:
            outcome.exits.append("timeout")
            outcome.failures.append("not run again: no answer in an earlier round")
            continue
        reference += [workloads.reference_s() for _ in range(per_job)]
        if tracer is not None:
            tracer.job, tracer.enabled = job.index, True
        workloads.run_job(job, work, ip, outcome)
        if tracer is not None:
            tracer.enabled = False
    for job, outcome in zip(jobs, outcomes):
        workloads.check_job(job, work, ip, outcome)
    return {
        "wall_s": sum(t for o in outcomes for t in o.step_s.values()),
        "job_s": [sum(o.step_s.values()) if o.step_s else None for o in outcomes],
        "job_cpu_s": [sum(o.step_cpu_s.values()) if o.step_s else None for o in outcomes],
        "job_exits": [o.exits for o in outcomes],
        "reference_s": reference,
        "attempted": len(jobs),
        "failed": sum(1 for o in outcomes if o.failures),
        "failures": [f"job {j.index}: {f}" for j, o in zip(jobs, outcomes) for f in o.failures],
        "exits": [e for o in outcomes for e in o.exits],
        "rejected": sum(o.rejected for o in outcomes),
        "values": _result_values(outcomes),
        "output_bytes": sum(f.stat().st_size for f in work.glob("job*/*/*") if f.is_file()),
    }


def _result_values(outcomes) -> dict:
    """Deterministic results of the pass, recorded next to its timings."""
    values: dict[str, float] = {}
    for o in outcomes:
        for key, v in o.values.items():
            if key.startswith("pure_overlap"):
                values["min_pure_overlap"] = min(values.get("min_pure_overlap", 1.0), v)
            elif key.startswith("max_"):
                values[key] = max(values.get(key, 0.0), v)
            else:
                values[key] = v
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--mode", required=True, choices=("plain", "traced"))
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args()
    result = run_pass(args.workload, args.seed, args.mode, Path.cwd(), args.rounds)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
