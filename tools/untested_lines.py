"""Print each statement of src/clta that the tier-1 tests never execute.

coverage is not a dependency, so this is a line tracer on the standard
library: ``sys.settrace`` and ``threading.settrace`` record every line run
in a ``src/clta`` frame while pytest runs the tests in this process.  A
statement is reported when the compiler emitted code for one of its lines
and none of those lines ran.  Lines that only a worker process runs (the
pool behind ``run.workers``, or a ``python -m clta`` subprocess) are not
traced and show as never executed.  Tracing makes tier-1 about twice as
slow.

    python tools/untested_lines.py [pytest arguments]

The default pytest arguments are ``<checkout>/tests -q -p
no:cacheprovider``.  pytest's own output goes to stderr, the report to
stdout, one ``path:line: statement`` per statement, then a count.  The
exit status is 0 whatever the tests do.  The tool writes no file itself;
run from outside the checkout with ``PYTHONDONTWRITEBYTECODE=1``, the
tests leave nothing in it either (hypothesis keeps its database in the
working directory).
"""

import ast
import contextlib
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "clta") + os.sep


def code_lines(code) -> set:
    """The lines that ``code`` and the code objects nested in it run."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statement_lines(node: ast.stmt) -> range:
    """A statement's own lines: up to its body for a compound statement."""
    body = getattr(node, "body", None)
    end = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
    return range(node.lineno, max(end, node.lineno) + 1)


def untested(path: str, ran: set) -> list:
    """(line, first source line) of each statement in ``path`` with code
    and no line run."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    emitted = code_lines(compile(source, path, "exec"))
    text = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            lines = set(statement_lines(node)) & emitted
            if lines and not lines & ran:
                found.append((node.lineno, text[node.lineno - 1].strip()))
    return sorted(found)


def main(argv: list) -> int:
    ran: dict = {}

    def local(frame, event, arg):
        if event == "line":
            ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    sys.path.insert(0, SRC)
    import pytest  # imported before tracing starts, so that its own import runs untraced

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            pytest.main(argv or [os.path.join(ROOT, "tests"), "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = PACKAGE + name
            for line, text in untested(path, ran.get(path, set())):
                print(f"{os.path.relpath(path, ROOT)}:{line}: {text}")
                total += 1
    print(f"{total} statements of src/clta never executed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
