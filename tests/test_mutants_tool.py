"""tools/mutants.py: which mutants it makes, and its survivors on a toy tree.

The survey on the toy tree starts five short pytest runs (the unmutated
copy and four mutants) in a temporary copy of that tree.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"


def _tool():
    spec = importlib.util.spec_from_file_location("mutants_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up there
    spec.loader.exec_module(module)
    return module


def test_mutants_are_constants_and_the_literals_comparisons_read():
    source = ("TOL = 1e-9\nN = 8\nNAME = 'x'\n\n\n"
              "def ok(x, n):\n    return abs(x) <= 2.0 * TOL and n[1] > 0 and f(3) < x\n")
    mutants = _tool().mutants("m", source)
    assert [str(m) for m in mutants] == [
        "m.py:1:7: TOL 1e-09 -> 1e-08",
        "m.py:1:7: TOL 1e-09 -> 1e-10",
        "m.py:2:5: N 8 -> 80",
        "m.py:2:5: N 8 -> 1",
        "m.py:7:19: comparison <= -> <",
        "m.py:7:22: literal 2.0 -> 20.0",
        "m.py:7:22: literal 2.0 -> 0.2",
        "m.py:7:41: comparison > -> >=",  # 0 reads no scaled value, the index 1 is not read
    ]  # f(3) < x reads no literal: 3 is a call's argument
    assert mutants[4].apply(source).endswith("abs(x) < 2.0 * TOL and n[1] > 0 and f(3) < x\n")
    assert mutants[7].apply(source).endswith("abs(x) <= 2.0 * TOL and n[1] >= 0 and f(3) < x\n")


def test_survivors_name_the_constant_no_test_pins(tmp_path):
    package = tmp_path / "src" / "iecpulse"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    source = "PINNED = 2.0\nLOOSE = 3.0\n"
    (package / "consts.py").write_text(source)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_toy.py").write_text(
        "from iecpulse import consts\n\n\ndef test_pinned():\n    assert consts.PINNED == 2.0\n")
    out = tmp_path / "survivors.txt"
    proc = subprocess.run([sys.executable, str(TOOL), "--root", str(tmp_path), "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert out.read_text().splitlines() == ["consts.py:2:9: LOOSE 3.0 -> 30.0",
                                            "consts.py:2:9: LOOSE 3.0 -> 0.3"]
    assert "2 of 4 mutants survived" in proc.stdout
    assert (package / "consts.py").read_text() == source  # the tree itself is never mutated
