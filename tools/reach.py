"""List the statements of ``src/orthoplex`` that no test executes.

Runs the tier-1 suite in this process under ``sys.settrace`` and prints, one
per line as ``path:line: text``, every statement of the package with
bytecode of its own that never ran.  A compound statement (``if``, ``def``,
...) counts its header lines, a simple one all of its lines.  Code that only
a child process runs (a test's ``subprocess`` call) shows as unreached.
Standard library only; about 40 s on 2 cores.

    python tools/reach.py              # the tier-1 suite
    python tools/reach.py tests/x.py   # other pytest arguments
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orthoplex"


def code_lines(code) -> set[int]:
    """Line numbers that carry bytecode in ``code`` and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(tree: ast.Module):
    """(statement, its own lines) for every statement of ``tree``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        yield node, range(first, max(first, last) + 1)


def unreached(path: Path, ran: set[int]) -> list[str]:
    source = path.read_text(encoding="utf-8")
    has_code = code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    out = []
    for node, own in statements(ast.parse(source)):
        lines = has_code.intersection(own)
        if lines and not lines & ran:
            out.append((node.lineno, f"{path.relative_to(ROOT)}:{node.lineno}: "
                                     f"{text[node.lineno - 1].strip()}"))
    return [line for _, line in sorted(out)]


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE)
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(trace)
    try:
        code = pytest.main(argv or ["-q", "--continue-on-collection-errors", "-p",
                                    "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        for line in unreached(path, ran.get(str(path), set())):
            print(line)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
