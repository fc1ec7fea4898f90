"""Statement lines of src/isekf that a pytest run never executes.

    python scripts/line_coverage.py [pytest arguments]

runs pytest in this process (on tests/ by default, with the arguments
given otherwise) under a sys.settrace line tracer limited to the frames of
src/isekf, then prints one `<module>:<line>: <source>` per statement line
that never ran, and the count per module.  A statement line is the first
line of an ast statement that the compiler keeps code for (a docstring is
not one).  It uses only the standard library, so it runs where no coverage
package is installed; the tracer makes the suite about twice as slow.
"""

from __future__ import annotations

import ast
import collections
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "isekf")


def statement_lines(path: str) -> set[int]:
    """First lines of the module's statements that have code."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stmts = {node.lineno for node in ast.walk(ast.parse(text)) if isinstance(node, ast.stmt)}
    lines, todo = set(), [compile(text, path, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return stmts & lines


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, os.path.join(ROOT, "src"))
    prefix = PACKAGE + os.sep
    executed = collections.defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or [os.path.join(ROOT, "tests"), "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        missed = sorted(statement_lines(path) - executed[path])
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        for line in missed:
            print(f"{name}:{line}: {source[line - 1].strip()}")
        print(f"{name}: {len(missed)} statement lines never executed")
        total += len(missed)
    print(f"total: {total}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
