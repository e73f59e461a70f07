"""Which tolerance mutants of the package survive its tests.

    python3 tools/mutants.py --out survivors.txt
    python3 tools/mutants.py --list
    python3 tools/mutants.py --match GAUSS_TOL --out survivors.txt

One mutant at a time changes one of these in `src/iecpulse/*.py`:
- a module-level constant whose value is a number literal, times 10 and
  divided by 10;
- a number literal that a comparison reads, as an operand or inside an
  operand's arithmetic (not an index, a call's argument or a tuple),
  times 10 and divided by 10;
- the operator of such a comparison: `<` and `<=` swapped, and `>` and `>=`.

An int is divided with floor and kept at least 1 in size; a mutant that
equals the original (a zero, a 1 divided) is not made. Each mutant is
written into one temporary copy of the tree (without `.git` and caches),
never into the checkout, and the original text is put back after it. The
whole of tests/ runs there with `pytest -x`, since a test reaches modules
through others (the CLI's tests drive every module), one mutant at a time:
two runs at once would share the cores and time out sooner. The unmutated
copy runs first and must pass. A mutant survives when the tests pass; a
run that takes more than four times the unmutated one, plus a minute,
counts as killed. Survivors are written one per line to --out, in the
form `--list` prints: `module.py:line:column: change`, the column 1-based.
A surviving mutant costs a full run of the tests.

Exit status: 0 when every mutant ran, 2 when the unmutated tests fail.
"""

from __future__ import annotations

import argparse
import ast
import bisect
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "iecpulse"

_SWAP = {ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">"}


@dataclass(frozen=True)
class Mutant:
    """One text edit of one module: replace [start, end) of its source by text."""

    module: str
    line: int
    col: int
    what: str
    start: int
    end: int
    text: str

    def __str__(self) -> str:
        return f"{self.module}.py:{self.line}:{self.col}: {self.what}"

    def apply(self, source: str) -> str:
        return source[: self.start] + self.text + source[self.end:]


def _is_number(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _read(node: ast.AST):
    """The number literals whose values an operand reads: the operand itself,
    or one inside its arithmetic (not an index, a call's argument or a tuple)."""
    if _is_number(node):
        yield node
    elif isinstance(node, ast.UnaryOp):
        yield from _read(node.operand)
    elif isinstance(node, ast.BinOp):
        yield from _read(node.left)
        yield from _read(node.right)


def _scaled(value: int | float) -> list[int | float]:
    """value times 10 and divided by 10, without the ones equal to value."""
    if value == 0:
        return []
    if isinstance(value, int):
        down = value // 10 or (1 if value > 0 else -1)
        out = [value * 10, down]
    else:
        out = [float(Decimal(repr(value)) * 10), float(Decimal(repr(value)) / 10)]
    return [v for v in out if v != value]


def mutants(module: str, source: str) -> list[Mutant]:
    """Every mutant of one module's source, in source order."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def offset(line: int, col: int) -> int:
        # ast columns count UTF-8 bytes
        text = source[starts[line - 1]: starts[line]]
        return starts[line - 1] + len(text.encode()[:col].decode())

    def span(node: ast.AST) -> tuple[int, int]:
        return offset(node.lineno, node.col_offset), offset(node.end_lineno, node.end_col_offset)

    out: list[Mutant] = []

    def add(what: str, a: int, b: int, text: str) -> None:
        line = bisect.bisect_right(starts, a)  # 1-based: starts[line - 1] <= a
        out.append(Mutant(module, line, a - starts[line - 1] + 1, what, a, b, text))

    def scale(node: ast.Constant, name: str) -> None:
        a, b = span(node)
        for v in _scaled(node.value):
            add(f"{name} {node.value!r} -> {v!r}", a, b, repr(v))

    tree = ast.parse(source)
    for stmt in tree.body:
        target = (stmt.targets[0] if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                  else stmt.target if isinstance(stmt, ast.AnnAssign) else None)
        value = getattr(stmt, "value", None)
        if isinstance(value, ast.UnaryOp) and isinstance(value.op, (ast.USub, ast.UAdd)):
            value = value.operand
        if isinstance(target, ast.Name) and value is not None and _is_number(value):
            scale(value, target.id)
    for node in ast.walk(tree):
        operands = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
        numbers = [n for x in operands for n in _read(x)]
        if not numbers:
            continue
        for n in numbers:
            scale(n, "literal")
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if type(op) not in _SWAP:
                continue
            a, b = span(left)[1], span(right)[0]
            m = re.search(r"<=|>=|<|>", source[a:b])
            add(f"comparison {m.group()} -> {_SWAP[type(op)]}", a + m.start(), a + m.end(),
                _SWAP[type(op)])
    return sorted(out, key=lambda m: m.start)


def _pytest(work: Path, timeout: float | None) -> tuple[str, float]:
    """('pass' | 'fail' | 'timeout', seconds) of pytest -x on tests/ in work."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - t0
    return ("pass" if proc.returncode == 0 else "fail"), time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="tree with src/ and tests/")
    parser.add_argument("--match", default="", help="run only mutants whose line contains this")
    parser.add_argument("--out", type=Path, help="file for the survivors")
    parser.add_argument("--list", action="store_true", help="print the mutants; run nothing")
    args = parser.parse_args(argv)

    src = args.root / "src" / PACKAGE
    chosen = [m for path in sorted(src.glob("*.py"))
              for m in mutants(path.stem, path.read_text()) if args.match in str(m)]
    if args.list:
        print("\n".join(map(str, chosen)))
        return 0
    if args.out is None:
        parser.error("--out is required unless --list")

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        shutil.copytree(args.root, work, dirs_exist_ok=True, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "_work"))
        verdict, base = _pytest(work, None)
        print(f"unmutated: {verdict} in {base:.1f} s", flush=True)
        if verdict != "pass":
            return 2
        survivors = []
        for m in chosen:
            path = work / "src" / PACKAGE / f"{m.module}.py"
            original = path.read_text()
            path.write_text(m.apply(original))
            try:
                verdict, secs = _pytest(work, 4 * base + 60)
            finally:
                path.write_text(original)
            print(f"{'SURVIVED' if verdict == 'pass' else verdict:8s} {secs:6.1f} s  {m}", flush=True)
            if verdict == "pass":
                survivors.append(str(m))
        args.out.write_text("".join(f"{s}\n" for s in survivors))
    print(f"{len(survivors)} of {len(chosen)} mutants survived; listed in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
