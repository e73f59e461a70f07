"""tools/outputs.py's comparison of two output folders.

The tool runs the benchmark job lists through two trees and compares what
they wrote; here two small folders stand in for those outputs, so the test
runs no job and needs no git revision.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "outputs.py"


@pytest.fixture(scope="module")
def outputs():
    spec = importlib.util.spec_from_file_location("outputs_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up there
    spec.loader.exec_module(module)
    return module


def _folder(root: Path, pulse: str, exit_code: str, psi: np.ndarray) -> Path:
    job = root / "design-seed1" / "job000"
    (job / "synth").mkdir(parents=True)
    (job / "run.cfg").write_text("t_f = 1.0\nfamily = third\n")
    (job / "synth" / "pulse.csv").write_text(pulse)
    (job / "synth" / "summary.txt").write_text("t_f = 1.0\nfamily = third\nenergy_cost = 6.0\n")
    (job / "check").mkdir()
    (job / "check" / "check_report.txt").write_text("delta_finite: True\nmax_invariant_residual: 0.5\n")
    (job / "synth.exit").write_text("0\n")
    (job / "check.exit").write_text(exit_code + "\n")
    (job / "check.stderr").write_text("")
    np.save(job / "pure+1_psi.npy", psi)
    return root


def test_one_value_and_one_exit_code(outputs, tmp_path):
    psi = np.array([[1.0 + 0.0j, 0.0], [0.6, 0.8j]])
    base = _folder(tmp_path / "base", "t,omega_r\n0.0,1.0\n0.5,2.0\n1.0,-4.0\n", "0", psi)
    head = _folder(tmp_path / "head", "t,omega_r\n0.0,1.0\n0.5,2.5\n1.0,-4.0\n", "3", psi)
    reports = {r.path: r for r in outputs.compare(base, head)}
    assert len(reports) == 8
    changed = {"design-seed1/job000/synth/pulse.csv", "design-seed1/job000/check.exit"}
    assert {p for p, r in reports.items() if not r.identical} == changed
    csv = reports["design-seed1/job000/synth/pulse.csv"]
    assert csv.changes == {"t": (0.0, 0.0), "omega_r": (0.5, 0.5 / 4.0)} and csv.failed
    exit_code = reports["design-seed1/job000/check.exit"]
    assert exit_code.notes == ["exit 0 -> 3"] and exit_code.failed
    text, status = outputs.summarize(list(reports.values()))
    assert status == 1
    assert text.splitlines()[-1] == ("8 files: 6 identical, 2 differ, 2 beyond 1e-12 relative "
                                     "or not numeric; 1 of 2 exit codes equal; largest change "
                                     "rel 0.125 (abs 0.5) in design-seed1/job000/synth/pulse.csv, "
                                     "omega_r")
    assert "omega_r: abs 0.5 rel 0.125" in text and "exit 0 -> 3" in text


def test_rounding_changes_are_measured_and_pass_below_the_bound(outputs, tmp_path):
    psi = np.array([[1.0 + 0.0j, 0.0], [0.6, 0.8j]])
    nudged = psi.copy()
    nudged[1, 1] += 1e-16j
    base = _folder(tmp_path / "base", "t,x\n0.0,nan\n1.0,-0.0\n", "0", psi)
    head = _folder(tmp_path / "head", "t,x\n0.0,nan\n1.0,0.0\n", "0", nudged)
    reports = {r.path: r for r in outputs.compare(base, head) if not r.identical}
    assert reports["design-seed1/job000/synth/pulse.csv"].changes["x"] == (0.0, 0.0)
    array = reports["design-seed1/job000/pure+1_psi.npy"].changes["array"]
    assert array[0] == pytest.approx(1e-16) and array[1] < 1e-12
    text, status = outputs.summarize(list(reports.values()))
    assert status == 0
    # the summary names the one number that moved, not the -0.0 that did not
    assert text.splitlines()[-1].endswith(
        f"; largest change rel {array[1]:.3g} (abs {array[0]:.3g}) in "
        "design-seed1/job000/pure+1_psi.npy, array")


def test_summary_names_the_largest_relative_change_and_where(outputs, tmp_path):
    psi = np.zeros((2, 2), dtype=complex)
    base = _folder(tmp_path / "base", "t,x,y\n0.0,1.0,100.0\n1.0,2.0,200.0\n", "0", psi)
    head = _folder(tmp_path / "head", "t,x,y\n0.0,1.0,100.0\n1.0,2.0,200.0\n", "0", psi)
    assert outputs.summarize(outputs.compare(base, head))[0].endswith(
        "; 2 of 2 exit codes equal; no number changed")
    job = head / "design-seed1" / "job000"
    # y moves most in absolute terms, energy_cost most relative to its size
    (job / "synth" / "pulse.csv").write_text("t,x,y\n0.0,1.0,100.0\n1.0,2.2,202.0\n")
    (job / "synth" / "summary.txt").write_text("t_f = 1.0\nfamily = third\nenergy_cost = 7.0\n")
    text, status = outputs.summarize(outputs.compare(base, head))
    assert status == 1
    assert text.splitlines()[-1].endswith(
        "; largest change rel 0.143 (abs 1) in design-seed1/job000/synth/summary.txt, energy_cost")


def test_keys_text_and_files_that_are_no_number_fail(outputs, tmp_path):
    psi = np.zeros((2, 2), dtype=complex)
    base = _folder(tmp_path / "base", "t\n0.0\n", "0", psi)
    head = _folder(tmp_path / "head", "t\n0.0\n", "0", psi)
    job = head / "design-seed1" / "job000"
    (job / "check" / "check_report.txt").write_text("delta_finite: False\nmax_invariant_residual: 0.5\n")
    (job / "synth" / "summary.txt").write_text("t_f = 1.0\nfamily = third\nenergy_cost = inf\n")
    (job / "check.stderr").write_text("iecpulse: numerical failure\n")
    (job / "pure-1_psi.npy").write_bytes((job / "pure+1_psi.npy").read_bytes())
    reports = {r.path: r for r in outputs.compare(base, head) if not r.identical}
    assert reports["design-seed1/job000/check/check_report.txt"].notes == \
        ["delta_finite: 'True' -> 'False'"]
    assert reports["design-seed1/job000/synth/summary.txt"].changes["energy_cost"] == \
        (math.inf, math.inf)
    assert reports["design-seed1/job000/pure-1_psi.npy"].notes == ["only in head"]
    assert all(r.failed for r in reports.values()) and len(reports) == 4


def test_seed_ranges(outputs):
    assert outputs._seeds("1-3") == [1, 2, 3]
    assert outputs._seeds("2,5-6") == [2, 5, 6]
