"""iecpulse benchmark: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload design --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Workloads (see README.md): design, optimise,
verify, or `all` to run each in turn. With --trace 0 the run runs the
workload's job list max(2, seconds // 10) times in one fresh, warmed worker
process, times set-up in fresh interpreters before and after, and reports
the mean times over these repeats, scaled to a nominal host speed. With
--trace 1 it runs the list once plainly and once traced, and reports
per-layer metrics and the tracing overhead. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: Nominal seconds of one round: a job list takes about 6-12 s on the
#: reference VM. A run makes max(MIN_ROUNDS, seconds // ROUND_S) rounds, so
#: the sample size follows --seconds alone, never the speed being measured.
ROUND_S = 10.0
MIN_ROUNDS = 2
#: Fresh interpreters timed for setup_s, half before and half after the
#: rounds.
SETUP_SPAWNS = 12
#: Mean of `workloads.reference_s()` that defines the nominal host speed.
#: Every time metric is scaled by REFERENCE_S / (mean sample of the run).
REFERENCE_S = 0.004
REFERENCE_PER_SPAWN = 5
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import iecpulse; "
    "iecpulse.critical_gamma_mid(); print('ready', flush=True)"
)
CHILD_TIMEOUT_S = 170

#: Units of the metrics printed beside BENCHMARK.json's.
EXTRA_UNITS = {"job_p90_ms": "ms", "failed_frac": "1"}


def load_spec() -> dict:
    """The benchmark's contract: metric names, units and bounds."""
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def program_env(serial: bool) -> dict[str, str]:
    """The user's environment without sweep-worker overrides: timed runs
    measure the pool users get by default; traced runs are serial."""
    env = {k: v for k, v in os.environ.items() if k != "IECPULSE_WORKERS"}
    if serial:
        env["IECPULSE_WORKERS"] = "1"
    return env


def time_setup(root: Path, env: dict[str, str]) -> float:
    """Seconds from spawning an interpreter until it has imported iecpulse
    and run the first-use set-up, so that a first job could start."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate()
    finally:
        watchdog.cancel()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up interpreter failed:\n{err}")
    return elapsed


def run_worker(root: Path, workload: str, seed: int, mode: str, env: dict[str, str],
               rounds: int = 1) -> dict:
    """`rounds` runs of the job list in one fresh worker process."""
    work = HERE / "_work"
    work.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        result = Path(tmp) / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed",
               str(seed), "--mode", mode, "--rounds", str(rounds), "--result", str(result)]
        # Its own session, so that a timeout also stops the sweep pool.
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed ({proc.returncode}):\n{err}")
        return json.loads(result.read_text())


def metadata(root: Path, seed: int, load: float, sweep_workers) -> dict:
    import numpy

    sha = "unknown"
    if (root / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True)
        sha = git.stdout.strip() or sha
    return {
        "seed": seed,
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": load,
        "sweep_workers": sweep_workers,
    }


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarise_rounds(rounds: list[dict]) -> dict:
    """Correctness totals and the deterministic results over rounds."""
    exits = Counter(e for r in rounds for e in r["exits"])
    values = rounds[0]["values"]
    same = all(r["values"] == values for r in rounds)
    return {
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "failures": [f for r in rounds for f in r["failures"]][:20],
        "rejected": sum(r["rejected"] for r in rounds),
        "exits": dict(sorted(exits.items())),
        "values": values,
        "values_repeat": same,
    }


def timed_run(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    load = os.getloadavg()[0]
    env = program_env(serial=False)
    time_setup(root, env)  # untimed: fills the bytecode cache
    setup: list[float] = []
    reference: list[float] = []

    def spawns(n: int) -> None:
        for _ in range(n):
            reference.extend(workloads.reference_s() for _ in range(REFERENCE_PER_SPAWN))
            setup.append(time_setup(root, env))

    spawns(SETUP_SPAWNS // 2)
    rounds_run = max(MIN_ROUNDS, int(seconds // ROUND_S))
    worker = run_worker(root, workload, seed, "plain", env, rounds_run)
    spawns(SETUP_SPAWNS - SETUP_SPAWNS // 2)
    rounds = worker["rounds"]
    reference += [x for r in rounds for x in r["reference_s"]]

    # Every round runs the same jobs from the same cold waveform cache, and
    # every spawn does the same set-up; each time is the mean over them. The
    # shared host's speed drifts by tens of percent over minutes, so each
    # mean is scaled to the nominal host speed by the mean of the reference
    # samples taken between the jobs and spawns of the same run.
    scale = REFERENCE_S / statistics.fmean(reference)
    job_wall = _job_means([r["job_s"] for r in rounds])
    job_cpu = _job_means([r["job_cpu_s"] for r in rounds])
    raw = {"setup_s": statistics.fmean(setup), "wall_s": sum(job_wall), "cpu_s": sum(job_cpu),
           "job_p50_ms": 1e3 * statistics.median(job_wall)}
    jobs_ms = [1e3 * scale * t for t in job_wall]
    metrics = {
        "setup_s": (scale * raw["setup_s"], len(setup)),
        "wall_s": (scale * raw["wall_s"], len(rounds)),
        "cpu_s": (scale * raw["cpu_s"], len(rounds)),
        "job_p50_ms": (statistics.median(jobs_ms), len(jobs_ms)),
        "peak_rss_mb": (worker["peak_rss_mb"], 1),
    }
    extra = {}
    if len(jobs_ms) >= 100:
        extra["job_p90_ms"] = (quantile(jobs_ms, 90), len(jobs_ms))
    summary = summarise_rounds(rounds)
    extra["failed_frac"] = (summary["failed"] / summary["attempted"], summary["attempted"])
    report = {"metrics": metrics, "extra": extra, "summary": summary, "raw": raw,
              "scale": scale, "reference_n": len(reference),
              "round_wall_s": [r["wall_s"] for r in rounds],
              "meta": metadata(root, seed, load, worker["sweep_workers"])}
    return report, summary


def _job_means(rounds: list[list[float | None]]) -> list[float]:
    """Each job's mean time over the rounds that ran it (None: not run)."""
    return [statistics.fmean(t for t in times if t is not None) for times in zip(*rounds)]


#: Per-layer values passed on as the tracer records them (absent = 0).
RAW_LAYERS = [
    f"{group}.{kind}"
    for group in ("poly.fit", "poly.real_roots", "schedule.pair",
                  "schedule.gamma_dot_zero_crossing", "schedule.critical_gamma_mid",
                  "pulse.vector_eval", "pulse.scalar_eval", "analysis.validate_schedule",
                  "analysis.energy_cost", "analysis.compare_passages", "dynamics.state",
                  "dynamics.invariant_residual", "cli.main")
    for kind in ("calls", "self_s")
] + [
    "pulse.vector_eval.samples", "analysis.energy_cost.integrand_evals", "analysis.sweep.points",
    "analysis.sweep.self_s", "dynamics.evolve.steps", "dynamics.evolve.self_s",
    "dynamics.evolve_pure.steps", "dynamics.evolve_pure.self_s",
]


def per_layer(raw: dict, cache: dict, exits: Counter, output_bytes: int) -> dict[str, float]:
    """The per-layer metrics of a traced pass (a superset of BENCHMARK.json's)."""
    out = {key: raw.get(key, 0) for key in RAW_LAYERS}
    samples, points = out["pulse.vector_eval.samples"], out["analysis.sweep.points"]
    lookups = cache["hits"] + cache["misses"]
    out.update({
        "pulse.waveform.builds": raw["pulse.waveform.build.calls"],
        "pulse.waveform.build_self_s": raw["pulse.waveform.build.self_s"],
        "pulse.waveform.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "pulse.scalar_fallback_ratio":
            raw.get("pulse.scalar_eval.in_vector", 0) / samples if samples else 0.0,
        "analysis.sweep.calls": raw["analysis.sweep_beta_dot0.calls"],
        "analysis.sweep.feasible_ratio":
            raw.get("analysis.sweep.feasible", 0) / points if points else 0.0,
        "cli.output_bytes": output_bytes,
    })
    for code in ("0", "1", "2", "3", "traceback", "timeout"):
        out[f"cli.exit.{code}"] = exits.get(code, 0)
    out.update({k: v for k, v in raw.items() if k.endswith(".errors")})
    return dict(sorted(out.items()))


def traced_run(root: Path, workload: str, seed: int) -> tuple[dict, dict]:
    load = os.getloadavg()[0]
    serial = workload == "optimise"
    env = program_env(serial=serial)
    plain = run_worker(root, workload, seed, "plain", env)["rounds"][0]
    traced = run_worker(root, workload, seed, "traced", env)
    traced_round = traced["rounds"][0]
    summary = summarise_rounds([plain, traced_round])
    layers = per_layer(traced["raw_layers"], traced["waveform_cache"],
                       Counter(traced_round["exits"]), traced_round["output_bytes"])
    report = {
        "layers": layers,
        "summary": summary,
        "traced_wall_s": traced_round["wall_s"],
        "plain_wall_s": plain["wall_s"],
        "serial": serial,
        "spans_file": traced["spans_file"],
        "meta": metadata(root, seed, load, traced["sweep_workers"]),
    }
    return report, summary


def print_timed(workload: str, report: dict, units: dict[str, str]) -> None:
    print(f"# workload {workload}: end-to-end (n = sample count; see README.md)")
    print("  wall time of each round (s): "
          + " ".join(f"{w:.3f}" for w in report["round_wall_s"]))
    print(f"  host speed: times scaled by {report['scale']:.4f} "
          f"(n={report['reference_n']} reference samples)")
    for name, (value, n) in {**report["metrics"], **report["extra"]}.items():
        unscaled = f"   unscaled {report['raw'][name]:.6g}" if name in report["raw"] else ""
        print(f"  {name:<14} {value:>14.6g} {units.get(name, EXTRA_UNITS.get(name)):<3} "
              f"n={n}{unscaled}")
    _print_common(report)


def print_traced(workload: str, report: dict) -> None:
    label = " (serial: IECPULSE_WORKERS=1)" if report["serial"] else ""
    print(f"# workload {workload}: per-layer, one traced pass{label}")
    for name, value in report["layers"].items():
        print(f"  {name:<44} {value:>14.6g}")
    print(f"  traced wall_s {report['traced_wall_s']:.4f} s, untraced wall_s "
          f"{report['plain_wall_s']:.4f} s, tracing overhead "
          f"{report['traced_wall_s'] - report['plain_wall_s']:+.4f} s (one pass each, so host "
          f"noise included); spans in {report['spans_file']}")
    _print_common(report)


def _print_common(report: dict) -> None:
    s = report["summary"]
    print(f"  jobs attempted {s['attempted']}, failed {s['failed']}, confirmed rejections "
          f"{s['rejected']}, exits {s['exits']}")
    for failure in s["failures"]:
        print(f"  FAILED {failure}")
    print(f"  results {json.dumps(s['values'])} (identical in every round: {s['values_repeat']})")
    print(f"  meta {json.dumps(report['meta'])}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "iecpulse" / "__init__.py").is_file():
        print(f"perfbench: no iecpulse sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in load_spec()["per_layer" if args.trace else "end_to_end"]}

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        if args.trace:
            report, summary = traced_run(root, name, args.seed)
            print_traced(name, report)
            values = report["layers"]
        else:
            report, summary = timed_run(root, name, args.seed, args.seconds)
            print_timed(name, report, units)
            values = {k: v for k, (v, _) in report["metrics"].items()}
        correct &= summary["failed"] == 0 and summary["values_repeat"]
        attempted += summary["attempted"]
        failed += summary["failed"]
        for key, unit in units.items():
            label = key if len(names) == 1 else f"{name}.{key}"
            metrics[label] = {"value": values[key], "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
