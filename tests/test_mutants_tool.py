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
        "m.py:7:32: boolean and -> or",
        "m.py:7:41: comparison > -> >=",  # 0 reads no scaled value, the index 1 is not read
        "m.py:7:45: boolean and -> or",
    ]  # f(3) < x reads no literal: 3 is a call's argument
    assert mutants[4].apply(source).endswith("abs(x) < 2.0 * TOL and n[1] > 0 and f(3) < x\n")
    assert mutants[8].apply(source).endswith("abs(x) <= 2.0 * TOL and n[1] >= 0 and f(3) < x\n")


def test_mutants_swap_and_with_or_and_negate_if_and_while_conditions():
    source = ("def f(a, b):\n    while a or (b and\n               a):\n        a -= 1\n"
              "    if a:\n        return 1\n    elif not b:\n        return [x for x in a if x]\n")
    mutants = _tool().mutants("m", source)
    assert [str(m) for m in mutants] == [
        "m.py:2:11: condition negated",
        "m.py:2:13: boolean or -> and",
        "m.py:2:19: boolean and -> or",
        "m.py:5:8: condition negated",
        "m.py:7:10: condition negated",  # the elif
        "m.py:8:33: condition negated",  # the comprehension's if
    ]
    edits = [m.apply(source) for m in mutants]
    for text in edits:
        compile(text, "m.py", "exec")
    assert "    while not (a or (b and\n               a)):\n" in edits[0]
    assert "    while a and (b and\n" in edits[1]
    assert "(b or\n" in edits[2]
    assert "    if not (a):\n" in edits[3]
    assert "    elif not (not b):\n" in edits[4]
    assert "        return [x for x in a if not (x)]\n" in edits[5]


def test_mutants_drop_raises_and_negate_conditional_expressions():
    source = ("def g(a):\n    if a:\n        raise ValueError(\n            f'{a}') from None\n"
              "    return [1 if y else 2 for y in a]\n")
    mutants = _tool().mutants("m", source)
    assert [str(m) for m in mutants] == [
        "m.py:2:8: condition negated",
        "m.py:3:9: raise dropped",
        "m.py:5:18: condition negated",
    ]
    edits = [m.apply(source) for m in mutants]
    for text in edits:
        compile(text, "m.py", "exec")
    assert edits[1] == "def g(a):\n    if a:\n        pass\n    return [1 if y else 2 for y in a]\n"
    assert "    return [1 if not (y) else 2 for y in a]\n" in edits[2]


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
