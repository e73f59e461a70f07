"""Compare every CLI output of this checkout with those of a git revision.

    python3 tools/outputs.py --against HEAD~1 --seeds 1-3

The revision's `src/` is exported with `git archive` into a work folder (no
network is needed). The seeded job lists of the benchmark workloads
(`perfbench/workloads.py` of this checkout, read only: the same lists for
both sides) then run through each tree's `cli.main`, in this process, one
tree after the other; where a job asks for it, `dynamics.evolve_pure` runs
on both branches too. Each side keeps its output files, exit codes, stderr
and `evolve_pure` `t` and `psi` arrays under `<work>/base` and
`<work>/head`, and the two folders are compared file by file.

The report names every file whose bytes differ. For a CSV column, a
`key = value` (or `key: value`) line or an array, it gives the largest
absolute change and that change relative to the largest finite magnitude
of the column, key or array on either side. A change of exit code, stderr,
text, shape or file set is named as it is. The last line sums up: the file
and exit-code counts, and the largest relative change with its file and
column, key or array, so one line can be cited. The exit status is 1 when an
exit code changed, a number changed by more than 1e-12 relative, or a change
is no number at all (text, a shape, a missing file); else 0, and 2 when
the revision cannot be exported. Without --work the work folder is a
temporary one, removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import math
import shutil
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: The north star's bound on a waveform change, relative.
REL_TOL = 1e-12


# ---------------------------------------------------------------------------
# running one tree

def _workloads():
    """perfbench/workloads.py of this checkout, loaded without changing sys.path."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _import_tree(src: Path):
    """The iecpulse package under src, imported afresh in place of any other."""
    for name in [m for m in sys.modules if m == "iecpulse" or m.startswith("iecpulse.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        ip = importlib.import_module("iecpulse")
        importlib.import_module("iecpulse.cli")  # the package does not import its CLI
    finally:
        sys.path.remove(str(src))
    if not Path(ip.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported iecpulse from {ip.__file__}, not from {src}")
    return ip


def _run_job(ip, job, d: Path) -> None:
    """Each subcommand of job on d/run.cfg, then evolve_pure where asked and
    every subcommand exited 0. An escaped exception is an outcome, kept by
    type and message (a traceback would name each tree's paths)."""
    exits = []
    for cmd in job.commands:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = str(ip.cli.main([cmd, "--config", str(d / "run.cfg"), "--out", str(d / cmd)]))
            except Exception as exc:  # an outcome to compare, not to handle
                code = "traceback"
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        exits.append(code)
        (d / f"{cmd}.exit").write_text(code + "\n")
        (d / f"{cmd}.stderr").write_text(err.getvalue())
    if not job.pure_branches or exits != ["0"] * len(exits):
        return
    pair = ip.cli.parse_config(d / "run.cfg").build_pair()
    for branch in job.pure_branches:
        name = f"pure{branch:+d}"
        try:
            traj = ip.dynamics.evolve_pure(pair, branch, int(job.config["rk4_steps"]))
        except Exception as exc:  # an outcome to compare, not to handle
            (d / f"{name}.error").write_text(f"{type(exc).__name__}: {exc}\n")
            continue
        np.save(d / f"{name}_t.npy", np.asarray(traj.t))
        np.save(d / f"{name}_psi.npy", np.asarray(traj.psi))


def run_tree(src: Path, job_lists: dict, out: Path) -> None:
    """Run every job list (name -> jobs) through the package under src, into out/name."""
    ip, workloads = _import_tree(src), sys.modules["workloads"]
    for name, jobs in job_lists.items():
        workloads.write_configs(jobs, out / name)
        for job in jobs:
            _run_job(ip, job, out / name / f"job{job.index:03d}")


def export(rev: str, dest: Path) -> Path:
    """rev's src/ extracted under dest by git archive; the folder of the package."""
    proc = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                          capture_output=True)
    if proc.returncode:
        print(f"git archive {rev} failed: {proc.stderr.decode().strip()}", file=sys.stderr)
        raise SystemExit(2)
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


# ---------------------------------------------------------------------------
# comparing two output folders

@dataclass
class FileReport:
    """One file present in either folder: identical bytes or not, the
    largest (absolute, relative) change per numeric column, key or array,
    and what changed that is no number."""

    path: str
    identical: bool
    changes: dict[str, tuple[float, float]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.notes) or any(rel > REL_TOL for _, rel in self.changes.values())

    def line(self) -> str:
        parts = self.notes + [f"{k}: abs {a:.3g} rel {r:.3g}" for k, (a, r) in self.changes.items()
                              if a or r]
        return f"{'FAIL' if self.failed else 'near'}  {self.path}  " + ("; ".join(parts) or
                                                                      "equal as numbers")


def _change(a, b) -> tuple[float, float]:
    """Largest |a - b| (NaN against NaN and equal infinities count 0, any
    other NaN or infinity inf) and its ratio to the largest finite |a| or |b|."""
    a, b = np.asarray(a), np.asarray(b)
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore", over="ignore"):
        d = np.where(same, 0.0, np.abs(a - b))
    d = np.where(np.isnan(d), math.inf, d)
    size = np.abs(np.concatenate([a.ravel(), b.ravel()]))
    big = float(size[np.isfinite(size)].max(initial=0.0))
    worst = float(d.max(initial=0.0))
    return worst, worst / big if big else (math.inf if worst else 0.0)


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _table(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _keyed(text: str) -> dict[str, str]:
    """A summary's `key = value` or a report's `key: value` lines; a repeated key is numbered."""
    out: dict[str, str] = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            key, _, value = line.partition(": ")
        n = sum(k == key or k.startswith(f"{key}#") for k in out)
        out[f"{key}#{n}" if n else key] = value
    return out


def _compare_csv(report: FileReport, a: str, b: str) -> None:
    (ha, ra), (hb, rb) = _table(a), _table(b)
    if ha != hb or [len(r) for r in ra] != [len(r) for r in rb]:
        report.notes.append(f"header or shape changed ({len(ra)} -> {len(rb)} rows)")
        return
    for name, ca, cb in zip(ha, zip(*ra), zip(*rb)):
        xa, xb = [_number(v) for v in ca], [_number(v) for v in cb]
        if None in xa or None in xb:
            if ca != cb:
                report.notes.append(f"{name}: text changed")
            continue
        report.changes[name] = _change(xa, xb)


def _compare_keyed(report: FileReport, a: str, b: str) -> None:
    ka, kb = _keyed(a), _keyed(b)
    if ka.keys() != kb.keys():
        report.notes.append(f"keys changed: {sorted(ka.keys() ^ kb.keys())}")
    for key in ka.keys() & kb.keys():
        xa, xb = _number(ka[key]), _number(kb[key])
        if xa is not None and xb is not None:
            report.changes[key] = _change(xa, xb)
        elif ka[key] != kb[key]:
            report.notes.append(f"{key}: {ka[key]!r} -> {kb[key]!r}")


def compare_file(rel: str, a: Path, b: Path) -> FileReport:
    """The report of one file, relative path rel, present as a and as b."""
    da, db = a.read_bytes(), b.read_bytes()
    report = FileReport(rel, da == db)
    if report.identical:
        return report
    if a.suffix == ".npy":
        xa, xb = np.load(a), np.load(b)
        if xa.shape != xb.shape or xa.dtype != xb.dtype:
            report.notes.append(f"array {xa.dtype}{xa.shape} -> {xb.dtype}{xb.shape}")
        else:
            report.changes["array"] = _change(xa, xb)
        return report
    ta, tb = da.decode(), db.decode()
    if a.suffix == ".exit":
        report.notes.append(f"exit {ta.strip()} -> {tb.strip()}")
    elif a.suffix in (".stderr", ".error"):
        report.notes.append(f"{a.suffix[1:]} changed: {ta.strip()!r} -> {tb.strip()!r}")
    elif a.suffix == ".csv":
        _compare_csv(report, ta, tb)
    else:
        _compare_keyed(report, ta, tb)
    return report


def compare(base: Path, head: Path) -> list[FileReport]:
    """One report per file in either folder, in path order."""
    def files(root: Path) -> set[str]:
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    fa, fb = files(base), files(head)
    reports = []
    for rel in sorted(fa | fb):
        if rel in fa and rel in fb:
            reports.append(compare_file(rel, base / rel, head / rel))
        else:
            reports.append(FileReport(rel, False, notes=["only in " + ("base" if rel in fa else "head")]))
    return reports


def _largest(reports: list[FileReport]) -> str:
    """The largest relative change of any number, with its absolute change, its
    file and its column, key or array (the first in path order on a tie)."""
    changes = [(rel, a, r.path, key) for r in reports for key, (a, rel) in r.changes.items()
               if a or rel]
    if not changes:
        return "no number changed"
    rel, a, path, key = max(changes, key=lambda c: c[0])
    return f"largest change rel {rel:.3g} (abs {a:.3g}) in {path}, {key}"


def summarize(reports: list[FileReport]) -> tuple[str, int]:
    """The report's text and the exit status: 1 if any file failed, else 0.
    The last line, the summary, counts the files and exit codes and names the
    largest relative change."""
    differ = [r for r in reports if not r.identical]
    failed = sum(r.failed for r in differ)
    exits = [r for r in reports if r.path.endswith(".exit")]
    lines = [r.line() for r in differ] + [
        f"{len(reports)} files: {len(reports) - len(differ)} identical, {len(differ)} differ, "
        f"{failed} beyond {REL_TOL:g} relative or not numeric; "
        f"{sum(r.identical for r in exits)} of {len(exits)} exit codes equal; {_largest(differ)}"
    ]
    return "\n".join(lines), int(failed > 0)


# ---------------------------------------------------------------------------
# the command

def _seeds(text: str) -> list[int]:
    """'1-3' or '1,4' as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--seeds", type=_seeds, default=[1], help="e.g. 1-3 (default 1)")
    parser.add_argument("--work", type=Path, help="folder kept for the outputs (default temporary)")
    args = parser.parse_args(argv)
    workloads = _workloads()
    job_lists = {f"{w}-seed{seed}": workloads.make_jobs(w, seed)
                 for w in workloads.WORKLOADS for seed in args.seeds}
    work = args.work or Path(tempfile.mkdtemp(prefix="iecpulse-outputs-"))
    try:
        for side in ("rev", "base", "head"):
            shutil.rmtree(work / side, ignore_errors=True)
        run_tree(export(args.against, work / "rev"), job_lists, work / "base")
        run_tree(ROOT / "src", job_lists, work / "head")
        text, status = summarize(compare(work / "base", work / "head"))
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    print(f"against {args.against}, seeds {args.seeds}, {sum(map(len, job_lists.values()))} jobs")
    print(text)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
