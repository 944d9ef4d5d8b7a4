"""Line-coverage guard for src/biplane: run the whole tier-1 suite
in-process and fail when a counted line never ran.

    python tests/line_coverage.py

A line counts when some code object of its module has an instruction on it
and it is not part of a bare re-raise or of a `raise InternalInvariantError`
statement: a rejected precondition must run like any other line.  The
script prints each counted line that never ran as `file:line: text`, and
exits 1 when there is one or when the tests fail.

Stdlib and pytest only; needs Python 3.12 or later.  Lines are recorded by
one `sys.monitoring` LINE callback, which switches itself off at each line
once it has fired there, so code that has run all its lines runs untraced.
The traced run took 73 s on a 2-vCPU VM (Python 3.12), against 66 s
untraced.
"""
from __future__ import annotations

import ast
import functools
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "biplane"


def counted_lines(path: Path) -> set[int]:
    """Each line with an instruction in some code object of the module,
    minus the lines of each exempt `raise` statement."""
    source = path.read_text()
    lines: set[int] = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and _exempt(node):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return lines


def _exempt(node: ast.Raise) -> bool:
    """A bare re-raise, or `raise InternalInvariantError(...)`: a failure
    that only a defect can reach, so no test can run it on purpose.  Every
    other raise, a rejected precondition included, must run like any other
    line."""
    exc = node.exc
    return exc is None or (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
                           and exc.func.id == "InternalInvariantError")


def run_traced() -> tuple[int, set[tuple[str, int]]]:
    """Run tier-1 in this process; return pytest's exit code and the
    (file name, line) pairs of src/biplane that ran."""
    import pytest

    monitoring = sys.monitoring
    tool, line_event = monitoring.COVERAGE_ID, monitoring.events.LINE
    ran: set[tuple[str, int]] = set()

    @functools.cache
    def ours(filename: str) -> str | None:
        """The file name of a module of src/biplane, else None."""
        path = Path(filename).resolve()
        return path.name if path.parent == SRC else None

    def line(code: types.CodeType, number: int):
        name = ours(code.co_filename)
        if name is not None:
            ran.add((name, number))
        return monitoring.DISABLE

    monitoring.use_tool_id(tool, "line_coverage")
    monitoring.register_callback(tool, line_event, line)
    monitoring.set_events(tool, line_event)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        monitoring.set_events(tool, monitoring.events.NO_EVENTS)
        monitoring.register_callback(tool, line_event, None)
        monitoring.free_tool_id(tool)
    return int(status), ran


def main() -> int:
    if sys.version_info < (3, 12):
        sys.exit("tests/line_coverage.py needs Python 3.12 or later (sys.monitoring)")
    # read the sources before the run imports them, so that an edit during
    # the run cannot shift the line numbers
    sources = {path.name: (counted_lines(path), path.read_text().splitlines())
               for path in sorted(SRC.glob("*.py"))}
    status, ran = run_traced()
    unrun = 0
    for name, (counted, text) in sources.items():
        for line in sorted(counted):
            if (name, line) not in ran:
                print(f"{name}:{line}: {text[line - 1].strip()}")
                unrun += 1
    print(f"{unrun} unrun lines; pytest exit {status}")
    return 1 if unrun or status else 0


if __name__ == "__main__":
    sys.exit(main())
