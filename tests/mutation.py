"""Mutation testing of the ``qotp`` package, with the standard library only
(``mutmut`` and its kind are not dependencies).

Run by hand from anywhere, with the test extra installed:

    python tests/mutation.py [--operators] [module ...]

With no module named it mutates every file of ``src/qotp``; ``protocol cli``
mutates those two.  It copies the repository, without ``.git`` and caches,
to a temporary directory and never edits the checkout.  Each mutant changes
one site of a function or class body, at any depth; module-level code is not
mutated.  By default the mutants are:

* a statement becomes ``pass``, except a definition (its body is mutated
  instead), a bare string such as a docstring, and a ``pass``;
* the test of an ``if`` or ``while`` that sits on one line becomes ``False``,
  and in a second mutant ``True``.

With ``--operators`` they are instead the operator swaps of ``SWAPS`` (``<``
and ``<=``, ``==`` and ``!=``, ``+`` and ``-``, ``&`` and ``|``, and so on,
each comparison of a chain on its own) and each int constant moved by +1 and
by -1; annotations, code inside an f-string and a ``%`` format are left
alone.

For each mutant the copy's file is rewritten and the tier-1 suite runs in a
child process with ``-x``, one at a time, from the copy, with ``PYTHONPATH``
set to the copy's ``src`` and no bytecode cache (a rewritten file could keep
its stale cached code); the suite's Hypothesis profile is derandomized.  The
mutant is killed when the suite fails, or runs past ``TIMEOUT_FACTOR`` times
the unmutated suite's time (a ``while True`` spins), and survives when it
passes.  Each child's address space is capped at ``MEMORY_BYTES``, so a
mutant that asks numpy for a huge array gets a MemoryError instead of the
host's memory.

It prints each survivor as ``file:line: change | source line``, then the
killed/total count of each module, and exits 1 if a mutant survived.  A
full run of either mode takes about 40 minutes on a shared 2-vCPU host.
"""

from __future__ import annotations

import ast
import copy
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "qotp"
MEMORY_BYTES = 3 << 30
TIMEOUT_FACTOR = 5
SUITE = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "tests"]


# the operator that each swapped operator becomes
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult, ast.FloorDiv: ast.Div,
    ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
    ast.BitXor: ast.BitOr, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
}


def _swapped(node: ast.AST):
    """(mutated copy, change) of each operator mutant of one node: a swapped
    comparison, arithmetic or bit operator, or an int constant moved by 1."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS and not (
            isinstance(node, ast.BinOp) and isinstance(node.left, ast.Constant)
            and isinstance(node.left.value, str)):  # a "%" format, not arithmetic
        new = copy.copy(node)
        new.op = SWAPS[type(node.op)]()
        yield new, f"{type(node.op).__name__} -> {type(new.op).__name__}"
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            new = copy.copy(node)
            new.ops = [*node.ops[:i], SWAPS[type(op)](), *node.ops[i + 1:]]
            yield new, f"{type(op).__name__} -> {type(new.ops[i]).__name__}"
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        for value in (node.value + 1, node.value - 1):
            yield ast.Constant(value), f"{node.value} -> {value}"


def mutants(source: str, operators: bool = False) -> list[tuple[int, str, str]]:
    """(line, change, mutated source) of each mutant of a module's source: its
    statement and condition mutants or, given ``operators``, its operator
    mutants."""
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))

    def offset(lineno: int, col: int) -> int:
        # ast columns count UTF-8 bytes
        return starts[lineno - 1] + len(lines[lineno - 1].encode()[:col].decode())

    found = []

    def replace(node, text: str, change: str) -> None:
        start = offset(node.lineno, node.col_offset)
        end = offset(node.end_lineno, node.end_col_offset)
        found.append((node.lineno, change, source[:start] + text + source[end:]))

    def visit(node: ast.AST, inside: bool) -> None:
        definition = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        if inside and operators:
            for new, change in _swapped(node):
                # an expression goes in parentheses, so that it keeps its precedence
                text = ast.unparse(new)
                replace(node, text if isinstance(node, ast.stmt) else f"({text})", change)
        elif inside:
            if isinstance(node, ast.stmt) and not isinstance(node, ast.Pass) and not (
                    definition or isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                replace(node, "pass", "statement -> pass")
            if isinstance(node, (ast.If, ast.While)) and node.test.lineno == node.test.end_lineno:
                for value in ("False", "True"):
                    replace(node.test, value, f"{type(node).__name__.lower()} test -> {value}")
        # an annotation is never evaluated (the package imports annotations from
        # __future__), and before Python 3.12 the positions inside an f-string
        # are not reliable
        for field, value in () if isinstance(node, ast.JoinedStr) else ast.iter_fields(node):
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST) and field not in ("annotation", "returns"):
                    visit(child, inside or definition)

    visit(ast.parse(source), False)
    return found


def run_suite(copy: Path, timeout: float | None = None) -> tuple[bool | None, float]:
    """Whether the tier-1 suite passes in ``copy``, None if it ran past
    ``timeout`` seconds, and how long it took."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    start = time.perf_counter()
    try:
        done = subprocess.run(
            SUITE, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES,) * 2))
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start
    return done.returncode == 0, time.perf_counter() - start


def main(argv: list[str]) -> int:
    operators = "--operators" in argv
    names = [name for name in argv if name != "--operators"] or sorted(
        path.stem for path in (ROOT / PACKAGE).glob("*.py"))
    with tempfile.TemporaryDirectory(prefix="qotp-mutation-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info"))
        passed, seconds = run_suite(copy)
        if not passed:
            print("the unmutated suite fails in the copy", file=sys.stderr)
            return 2
        timeout = TIMEOUT_FACTOR * seconds
        print(f"unmutated suite: {seconds:.1f} s", flush=True)
        counts, survivors = [], 0
        for name in names:
            path = copy / PACKAGE / f"{name}.py"
            source = path.read_text()
            found = mutants(source, operators)
            survived = 0
            for line, change, mutated in found:
                compile(mutated, str(path), "exec")  # a mutant that does not parse is a fault here
                path.write_text(mutated)
                if run_suite(copy, timeout)[0]:
                    survived += 1
                    print(f"{name}.py:{line}: {change} | {source.splitlines()[line - 1].strip()}",
                          flush=True)
            path.write_text(source)
            survivors += survived
            if found:
                counts.append(f"{name} {len(found) - survived}/{len(found)}")
                print(counts[-1], flush=True)
        print(", ".join(counts))
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
