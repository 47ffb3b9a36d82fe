"""List every statement in src/sifc that the Tier-1 suite never runs.

    PYTHONHASHSEED=0 PYTHONPATH=src:tests python tests/reach.py

Runs the Tier-1 tests in this process under `sys.settrace`, with string
hashing and hypothesis seeded at 0, and prints one line per statement that
never ran and is not on ALLOWED below, and one per entry of ALLOWED that
names no such statement; it prints nothing when every statement ran or is
allowed.  The exit code is always 0 and pytest's own outcome is
ignored: the Tier-1 step already gates correctness.  Only this process is
traced, so a statement that only a `python -m sifc.cli` child runs counts as
never run.  Stdlib only, plus the pytest and hypothesis the suite needs anyway.

A statement is a line-numbered statement node of the module's syntax tree
that owns at least one line of compiled code; it ran if any of its own lines
(its decorators and header, not its nested body) raised a line event.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sifc"

REPR = "a debugging aid; no report of the library or the CLI prints it"
PROTOCOL = "Python's comparison protocol; the library never compares with another type"

# (file, enclosing function, first line of the statement) -> why it may never run.
ALLOWED = {
    ("lattice.py", "Lattice.__repr__",
     'return f"Lattice({self.name!r}, {len(self.classes)} classes)"'): REPR,
    ("dlm.py", "Label.__str__", "return format_label(self)"): REPR,
    ("lattice.py", "Lattice.__eq__", "return NotImplemented"): PROTOCOL,
    ("connection.py", "MonotoneMap.__eq__", "return NotImplemented"): PROTOCOL,
    ("cli.py", "<module>", "sys.exit(main())"):
        "the `python -m sifc.cli` entry point runs only in child processes, which are not traced",
    ("dlm.py", "cross_declassify_check", "raise"):
        "a KeyError that neither lifted label explains is a bug in sifc and must propagate",
}


def statements(path: Path):
    """(first line, own lines, enclosing function, source line) per statement
    of the module that owns compiled code."""
    text = path.read_text(encoding="utf-8")
    source = text.splitlines()
    code_lines = set()
    todo = [compile(text, str(path), "exec")]
    while todo:
        code = todo.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]

    out = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                nested = [n for field in ("body", "orelse", "finalbody", "handlers", "cases")
                          for n in getattr(child, field, ())]
                first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", ())])
                last = min([n.lineno for n in nested], default=child.end_lineno + 1) - 1
                own = set(range(first, max(last, child.lineno) + 1)) & code_lines
                if own:
                    out.append((child.lineno, own, scope, source[child.lineno - 1].strip()))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
            else:
                walk(child, scope)

    walk(ast.parse(text), "<module>")
    return out


def trace_suite() -> dict[str, set[int]]:
    """Run the Tier-1 suite quietly; return the lines hit in each src file.

    Each code object is traced only until every one of its lines has run,
    so a hot loop costs one line event per line, not one per iteration."""
    hit: dict[str, set[int]] = {}
    pending: dict = {}  # code object -> its lines that have not run yet
    prefix = str(SRC) + os.sep

    def local(frame, event, arg):
        if event == "line":
            left = pending[frame.f_code]
            if frame.f_lineno in left:
                left.discard(frame.f_lineno)
                hit[frame.f_code.co_filename].add(frame.f_lineno)
                if not left:
                    frame.f_trace_lines = False
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        left = pending.get(code)
        if left is None:
            left = pending[code] = ({line for _, _, line in code.co_lines() if line}
                                    if code.co_filename.startswith(prefix) else set())
        if not left:
            return None
        # A call starts on a line that has run: the header of a def, lambda or
        # comprehension, or a generator's yield.  No line event reports it.
        left.discard(frame.f_lineno)
        hit.setdefault(code.co_filename, set()).add(frame.f_lineno)
        return local if left else None

    import pytest
    from hypothesis import settings

    # No example database: examples saved by earlier runs would reach more here than in CI.
    settings.register_profile("reach", database=None)
    argv = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
            "--hypothesis-seed=0", "--hypothesis-profile=reach", str(ROOT / "tests")]
    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hit


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    hit = trace_suite()
    allowed = set()
    for path in sorted(SRC.glob("*.py")):
        lines = hit.get(str(path), set())
        for lineno, own, scope, text in statements(path):
            if own & lines:
                continue
            if (path.name, scope, text) in ALLOWED:
                allowed.add((path.name, scope, text))
            else:
                print(f"src/sifc/{path.name}:{lineno}: {scope}: {text}")
    for key in sorted(ALLOWED.keys() - allowed):
        print("allowlist entry names no statement that never ran: {}: {}: {}".format(*key))
    return 0


if __name__ == "__main__":
    sys.exit(main())
