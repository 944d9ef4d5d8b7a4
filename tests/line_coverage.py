"""Line-coverage guard for src/biplane: run the whole tier-1 suite
in-process under a line tracer and compare the lines that never ran with a
committed allowlist.

    python tests/line_coverage.py

A line counts when some code object of its module has an instruction on it
and it is not part of a bare re-raise or of a `raise InternalInvariantError`
statement: a rejected precondition must run like any other line.
`line_coverage_allowlist.txt`
names each line that may stay unrun by its file, the qualified name of the
innermost function that holds it, and its stripped source text, not by its
number, so edits elsewhere in the file leave the entry valid.  An entry
allows one unrun line; two unrun lines with the same key need the entry
twice.  The script exits 1 when a counted line never ran and is not listed,
or when a listed line has no unrun line to match (it now runs, or it is
gone): so the list can only shrink.  It also exits 1 when the tests fail.
Stdlib and pytest only; needs Python 3.11 or later (`co_qualname`).  A
code object is traced only until every line in its `co_lines()` has run.
The traced run took 6 min 45 s on a 2-vCPU VM (Python 3.11), against 12 min
when every call was traced to its end, and 55 s untraced.
"""
from __future__ import annotations

import ast
import sys
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "biplane"
ALLOWLIST = Path(__file__).with_name("line_coverage_allowlist.txt")


def counted_lines(path: Path) -> dict[int, str]:
    """Each line with an instruction in some code object of the module,
    minus the lines of each exempt `raise` statement, mapped to the qualified name
    of the innermost function or class that holds it (`<module>` at the top
    level); a line that a lambda or comprehension shares with the code
    around it keeps the name of that code."""
    source = path.read_text()
    lines: dict[int, str] = {}
    stack = [compile(source, str(path), "exec")]
    while stack:
        # a nested code object is popped after its parent, so it overwrites
        # the parent's name, except on the line where a lambda or
        # comprehension (`<lambda>`, `<genexpr>`, ...) is written
        code = stack.pop()
        anonymous = code.co_name.startswith("<")
        lines.update((line, code.co_qualname) for _, _, line in code.co_lines()
                     if line and not (anonymous and line in lines))
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and _exempt(node):
            for line in range(node.lineno, node.end_lineno + 1):
                lines.pop(line, None)
    return lines


def _exempt(node: ast.Raise) -> bool:
    """A bare re-raise, or `raise InternalInvariantError(...)`: a failure
    that only a defect can reach, so no test can run it on purpose.  Every
    other raise, a rejected precondition included, must run like any other
    line."""
    exc = node.exc
    return exc is None or (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
                           and exc.func.id == "InternalInvariantError")


def run_traced() -> tuple[int, dict[str, set[int]]]:
    """Run tier-1 in this process; return pytest's exit code and, per file
    of src/biplane, the line numbers that ran."""
    import pytest

    ran: dict[str, set[int]] = {}
    # per code object of src/biplane: its file's set of lines that ran, and
    # its own lines that have not run yet; None for any other code
    ours: dict[types.CodeType, tuple[set[int], set[int]] | None] = {}

    def record(frame) -> bool:
        """Record the frame's line; True while its code has lines to run."""
        done, todo = ours[frame.f_code]
        done.add(frame.f_lineno)
        todo.discard(frame.f_lineno)
        return bool(todo)

    def local(frame, event, arg):
        if event == "line" and not record(frame):
            # every line of this code has run: stop tracing the frame, which
            # may still be running (a recursion, a suspended generator);
            # returning None alone leaves its trace function in place
            frame.f_trace = None
            return None
        return local

    def start(frame, event, arg):
        code = frame.f_code
        if code not in ours:
            path = Path(code.co_filename).resolve()
            ours[code] = (ran.setdefault(path.name, set()),
                          {line for _, _, line in code.co_lines() if line}) if path.parent == SRC else None
        if ours[code] is None or not ours[code][1]:
            return None
        return local if record(frame) else None

    sys.settrace(start)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    return int(status), ran


def read_allowlist() -> Counter[tuple[str, str, str]]:
    """How often each (file name, function, stripped source text) is
    listed; `#` starts a comment line."""
    entries: Counter[tuple[str, str, str]] = Counter()
    for row in ALLOWLIST.read_text().splitlines():
        if row.strip() and not row.startswith("#"):
            name, _, rest = row.partition(": ")
            function, _, text = rest.partition(": ")
            entries[name.strip(), function.strip(), text.strip()] += 1
    return entries


def main() -> int:
    # read the sources before the run imports them, so that an edit during
    # the run cannot shift the line numbers
    sources = {path.name: (counted_lines(path), path.read_text().splitlines())
               for path in sorted(SRC.glob("*.py"))}
    status, ran = run_traced()
    unrun: dict[tuple[str, str, str], list[int]] = {}
    for name, (counted, text) in sources.items():
        for line in sorted(set(counted) - ran.get(name, set())):
            unrun.setdefault((name, counted[line], text[line - 1].strip()), []).append(line)
    found = Counter({key: len(lines) for key, lines in unrun.items()})
    allowed = read_allowlist()
    new, stale = found - allowed, allowed - found
    for key in sorted(unrun):
        mark = "NOT LISTED" if key in new else "allowed"
        print(f"unrun {key[0]}:{','.join(map(str, unrun[key]))}: {key[1]}: {key[2]}  [{mark}]")
    for key in sorted(stale.elements()):
        print(f"listed but not unrun (delete the entry): {': '.join(key)}")
    print(f"{sum(map(len, unrun.values()))} unrun lines, {new.total()} not listed, "
          f"{stale.total()} stale entries; pytest exit {status}")
    return 1 if new or stale or status else 0


if __name__ == "__main__":
    sys.exit(main())
