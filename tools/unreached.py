"""List the statements of src/tccp that no in-process test reaches.

    PYTHONPATH=src python tools/unreached.py [pytest arguments]

Runs pytest (by default the Tier-1 suite) in this process under a
`sys.settrace` line tracer, then prints `file:line  statement` for every
statement of `src/tccp/*.py` that never ran. Children that tests start
with `subprocess` are not traced. Docstrings are not statements here.
The exit status is pytest's; the list itself gates nothing.

The tracer slows every line, so a test that bounds its own wall time
(`TIMED`) is left out of the traced run, which says so; Tier-1 runs it
untraced.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tccp"
PREFIX = str(SRC) + os.sep
hit = set()
TIMED = ["tests/test_acceptance.py::test_c7_performance"]


def _line(frame, event, arg):
    if event == "line":
        hit.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(PREFIX) else None


def statements(path):
    """Line of each statement in the file, docstrings and bare strings left out."""
    return sorted({n.lineno for n in ast.walk(ast.parse(path.read_text()))
                   if isinstance(n, ast.stmt) and not (
                       isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant))})


def main(args):
    print("left out of the traced run (wall-time bounds):", *TIMED)
    args = (args or ["-q", "-p", "no:cacheprovider"]) + [
        f"--deselect={test}" for test in TIMED]
    sys.settrace(_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        for n in statements(path):
            if (str(path), n) not in hit:
                print(f"src/tccp/{path.name}:{n}  {lines[n - 1].strip()}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
