"""Run tier-1 against seeded single-site mutants of the package.

The catalogue holds every single-site mutant of the source files (by
default all of src/bestexec), in file order and then source order:

    operator swaps      + -, * /, // /, % //, ** *, & |, and or, and the
                        augmented forms (+= -=, ...)
    comparison flips    < <=, > >=, == !=, in not in, is is not
    integer constants   n -> n + 1 (not True or False)

A mutant replaces one operator or literal token and leaves every other byte
of the file as it is. --seed N --count K draws K of them with
random.Random(N).sample and numbers them M00, M01, ... in drawn order. Each
one runs, alone, in a temporary copy of the checkout (the package's
bytecode is never written, so no stale cache can stand in for the mutant):

    python -m pytest -q -x -p no:cacheprovider --hypothesis-seed=0 --deselect SELF_TEST

from the copy's root, with PYTHONPATH=src, one BLAS thread and no example
database left from an earlier mutant. SELF_TEST, the test of this tool's
committed survivors, reads the mutated source as its data, so it is left
out. One line per mutant gives its id, its site (file:line:column of the
token, the column counted from 1), the change and the first failing test,
or SURVIVED. A run that takes longer than TIMEOUT seconds is stopped, and
counts as killing the mutant.

--against PARENT also runs PARENT's tests, tools, bench and data against
the same mutated source (this checkout's src/ in a copy of PARENT's tree),
and prints both kill sets, their differences and the survivors. It exits
with status 1 when the parent's tests kill a mutant that this checkout's
tests do not. Both suites first run on the unmutated source, and the tool
stops if either fails there.

    python tools/mutants.py --seed 30 --count 70
    python tools/mutants.py --seed 32 --count 45 src/bestexec/estimation.py --against ../parent
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_FILES = sorted(p.relative_to(ROOT).as_posix()
                       for p in (ROOT / "src" / "bestexec").glob("*.py"))

_BINARY = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"),
           ast.Div: ("/", "*"), ast.FloorDiv: ("//", "/"), ast.Mod: ("%", "//"),
           ast.Pow: ("**", "*"), ast.BitAnd: ("&", "|"), ast.BitOr: ("|", "&")}
_COMPARE = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
            ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
            ast.In: ("in", "not in"), ast.NotIn: ("not in", "in"),
            ast.Is: ("is", "is not"), ast.IsNot: ("is not", "is")}
_BOOLEAN = {ast.And: ("and", "or"), ast.Or: ("or", "and")}
TIMEOUT = 300.0
SELF_TEST = "tests/test_tools.py::test_a_seeds_mutants_are_fixed_and_every_survivor_site_exists"
_COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                      ".bench_work", ".benchmarks", "*.egg-info")


@dataclass(frozen=True)
class Mutant:
    """One token replacement: in file (relative to the checkout root), the
    token text `old` that starts at (line, col), 1-based, becomes `new`."""

    file: str
    line: int
    col: int
    old: str
    new: str

    @property
    def site(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"

    @property
    def change(self) -> str:
        return f"{self.old} -> {self.new}"

    def apply(self, source: str) -> str:
        """source with this mutant's token replaced (both words of "not in" and
        "is not"); the token must be there."""
        lines = source.splitlines(keepends=True)
        text = lines[self.line - 1]
        start = self.col - 1
        if text[start:start + len(self.old)] != self.old:
            raise ValueError(f"{self.site}: {self.old!r} is not there")
        lines[self.line - 1] = text[:start] + self.new + text[start + len(self.old):]
        return "".join(lines)


def _file_mutants(file: str, source: str) -> list[Mutant]:
    """Every mutant of one file, in source order."""
    all_tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    tokens = [t for t in all_tokens if t.type in (tokenize.OP, tokenize.NAME, tokenize.NUMBER)]
    # before Python 3.12 an f-string, fields and all, is one STRING token
    strings = [(t.start, t.end) for t in all_tokens if t.type == tokenize.STRING]

    def token_after(position, text):
        # the first token spelled text (its first word) at or after position
        first = text.split()[0]
        for token in tokens:
            if token.start >= position and token.string == first:
                return token.start
        raise ValueError(f"{file}: no {text!r} after {position}")

    found = []
    for node in ast.walk(ast.parse(source)):
        position = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))
        if any(start < position < end for start, end in strings):
            continue
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            old, new = _BINARY[type(node.op)]
            found.append((token_after((node.left.end_lineno, node.left.end_col_offset), old),
                          old, new))
        elif isinstance(node, ast.AugAssign) and type(node.op) in _BINARY:
            old, new = (op + "=" for op in _BINARY[type(node.op)])
            found.append((token_after((node.target.end_lineno, node.target.end_col_offset),
                                      old), old, new))
        elif isinstance(node, ast.BoolOp):
            old, new = _BOOLEAN[type(node.op)]
            found.append((token_after((node.values[0].end_lineno,
                                       node.values[0].end_col_offset), old), old, new))
        elif isinstance(node, ast.Compare):
            for left, op in zip([node.left, *node.comparators], node.ops):
                old, new = _COMPARE[type(op)]
                found.append((token_after((left.end_lineno, left.end_col_offset), old),
                              old, new))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            text = next(t.string for t in tokens if t.start == position)
            found.append((position, text, str(node.value + 1)))
    return [Mutant(file, line, col + 1, old, new)
            for (line, col), old, new in sorted(found)]


def catalogue(files: list[str] | None = None) -> list[Mutant]:
    """Every mutant of the files (paths relative to the checkout root), file
    by file."""
    return [m for file in (files or DEFAULT_FILES)
            for m in _file_mutants(file, (ROOT / file).read_text(encoding="utf-8"))]


def draw(seed: int, count: int, files: list[str] | None = None) -> list[Mutant]:
    """The count mutants that random.Random(seed) samples from the catalogue."""
    mutants = catalogue(files)
    if not 1 <= count <= len(mutants):
        raise SystemExit(f"mutants: --count must be in 1..{len(mutants)}")
    return random.Random(seed).sample(mutants, count)


def _tier1(tree: Path) -> str | None:
    """Run tier-1 with -x in the checkout copy at tree: None when every test
    passes, else the first failing test (or TIMEOUT)."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", "--deselect", SELF_TEST]
    try:
        proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "TIMEOUT"
    if proc.returncode == 0:
        return None
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0].split(" ", 1)[1]
    return f"exit status {proc.returncode}"


def _copy_checkout(root: Path, dest: Path) -> Path:
    """A copy at dest of the checkout at root, with this checkout's src/."""
    shutil.copytree(root, dest, ignore=_COPY_IGNORE)
    shutil.rmtree(dest / "src")
    shutil.copytree(ROOT / "src", dest / "src", ignore=_COPY_IGNORE)
    return dest


def run(mutants: list[Mutant], parent: Path | None) -> int:
    """Run tier-1 on each mutant, in this checkout's copy and, with parent,
    in the parent's; print one line per mutant and the kill sets. Returns
    the exit status."""
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        trees = {"checkout": _copy_checkout(ROOT, Path(tmp, "checkout"))}
        if parent is not None:
            trees["parent"] = _copy_checkout(parent, Path(tmp, "parent"))
        for name, tree in trees.items():
            failed = _tier1(tree)
            if failed is not None:
                raise SystemExit(f"mutants: the {name}'s tier-1 fails on the unmutated "
                                 f"source: {failed}")
        killed = {name: set() for name in trees}
        start = time.perf_counter()
        for k, mutant in enumerate(mutants):
            ident = f"M{k:02d}"
            verdicts = []
            for name, tree in trees.items():
                path = tree / mutant.file
                source = path.read_text(encoding="utf-8")
                path.write_text(mutant.apply(source), encoding="utf-8")
                try:
                    failed = _tier1(tree)
                finally:
                    path.write_text(source, encoding="utf-8")
                if failed is not None:
                    killed[name].add(ident)
                verdict = f"killed by {failed}" if failed is not None else "SURVIVED"
                verdicts.append(verdict if parent is None else f"{name}: {verdict}")
            print(f"{ident} {mutant.site} {mutant.change}: {' | '.join(verdicts)}", flush=True)
    ids = [f"M{k:02d}" for k in range(len(mutants))]

    def listed(members):
        return " ".join(i for i in ids if i in members) or "none"

    print(f"{len(mutants)} mutants in {time.perf_counter() - start:.0f} s")
    for name in killed:
        print(f"killed by the {name}'s tier-1: {len(killed[name])}: {listed(killed[name])}")
    if parent is None:
        print(f"survivors: {listed(set(ids) - killed['checkout'])}")
        return 0
    lost = killed["parent"] - killed["checkout"]
    print(f"killed by the parent's only: {listed(lost)}")
    print(f"killed by the checkout's only: {listed(killed['checkout'] - killed['parent'])}")
    print(f"survivors of both: {listed(set(ids) - killed['checkout'] - killed['parent'])}")
    return 1 if lost else 0


def main(args: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", help="source files to draw from, relative to "
                        "the checkout root (default: all of src/bestexec)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--against", type=Path, help="the parent's checkout root")
    opts = parser.parse_args(args)
    return run(draw(opts.seed, opts.count, opts.files or None), opts.against)


if __name__ == "__main__":
    sys.exit(main())
