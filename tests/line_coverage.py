"""Line coverage of the ``qotp`` package under the tier-1 suite, with the
standard library only (``coverage`` is not a dependency).

Run from anywhere, with the test extra installed:

    python tests/line_coverage.py

It runs the tier-1 suite (``pytest -q --continue-on-collection-errors``
over ``tests/``) in this process under a ``sys.settrace`` hook that traces
only frames whose code is a file of ``src/qotp``, then compares the lines
that ran with every executable line of those files: the lines of
``co_lines()`` of each code object that compiling the file gives.  It prints
each line that never ran and exits 1 if one is not declared in ``UNRUN``,
or if a declared line ran; it exits with pytest's code if the suite fails.
The name keeps pytest from collecting it, so tier-1 keeps its time.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qotp"

# Lines the suite cannot run, by file and stripped source text: the script
# entry point, which only ``python -m qotp.cli`` reaches.
UNRUN = {("cli.py", "raise SystemExit(main())")}


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every instruction that compiling ``path`` gives."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def run_suite() -> tuple[int, dict[str, set[int]]]:
    """Pytest's exit code, and the lines that ran in each package file."""
    import pytest

    ran: dict[str, set[int]] = {str(path): set() for path in PACKAGE.glob("*.py")}
    # None for a code object outside the package, else its file's line set
    seen: dict = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        if code not in seen:
            seen[code] = ran.get(code.co_filename)
        if seen[code] is None:
            return None
        seen[code].add(frame.f_lineno)
        return local

    # the package is imported by the suite, after the hook is set, so its
    # module-level lines are traced too
    if any(name == "qotp" or name.startswith("qotp.") for name in sys.modules):
        raise RuntimeError("qotp was imported before the trace hook was set")
    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    module = sys.modules.get("qotp")
    if module is None or Path(module.__file__).resolve().parent != PACKAGE:
        raise RuntimeError(f"the suite did not import qotp from {PACKAGE}")
    return int(code), ran


def main() -> int:
    code, ran = run_suite()
    unrun, stale = [], set(UNRUN)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        missed = sorted(executable_lines(path) - ran[str(path)])
        for line in missed:
            text = source[line - 1].strip()
            declared = (path.name, text) in UNRUN
            stale.discard((path.name, text))
            unrun.append((path.name, line, text, declared))
        print(f"{path.name}: {len(missed)} unrun")
    for name, line, text, declared in unrun:
        print(f"  {name}:{line}: {text}" + ("  (declared)" if declared else ""))
    for name, text in sorted(stale):
        print(f"declared line ran or is gone: {name}: {text}")
    if code:
        return code
    return 1 if stale or not all(declared for *_, declared in unrun) else 0


if __name__ == "__main__":
    sys.exit(main())
