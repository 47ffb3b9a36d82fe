"""List every single-position change of a README document that a README
command fails to reject as an input error.

    PYTHONPATH=src:tests python tests/boundary_sweep.py

For each JSON document the README's commands read, every position of the
document (its lattices and hierarchies inlined) is deleted, or replaced by
each of null, 0, true, "x", [] and {}.  Each variant runs in this process,
through `cli_dispatch`, under every README command that reads the document,
with small trial and sample counts.  One line is printed per distinct
(command, key, value) whose run exits 3, or exits 2 with an error outside the
input-error classes; nothing is printed when every variant passes, fails or
is rejected as an input error.  The exit code is always 0.  Stdlib only, plus
the helpers of `test_readme`.
"""

from __future__ import annotations

import copy
import json
import tempfile
from pathlib import Path

from sifc.cli import cli_dispatch
from test_readme import COMMANDS, DOCUMENTS, INPUT_ERROR_NAMES, ROOT, _fast, _inlined, _nodes

DELETE = object()
VALUES = (DELETE, None, 0, True, "x", [], {})


def variants(doc):
    """(position, value, document) for each position and each of VALUES; the
    root is replaced but not deleted."""
    for path, _ in list(_nodes(doc)):
        for value in VALUES[not path:]:
            if not path:
                yield path, value, value
                continue
            changed = copy.deepcopy(doc)
            parent = changed
            for key in path[:-1]:
                parent = parent[key]
            if value is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
            yield path, value, changed


def run(argv: list[str]) -> tuple[int, str | None, str | None]:
    """(exit code, error class name, message) of one in-process run; an
    exception out of `cli_dispatch` is what `main` reports as exit 3."""
    try:
        v = cli_dispatch(argv)
    except Exception as exc:
        return 3, type(exc).__name__, str(exc)
    return v.exit_code, v.details.get("error"), v.details.get("message")


def escapes(workdir: Path):
    """(command, position, value, exit code, error, message) of the first
    escaping run of each distinct (command, key, value)."""
    seen = set()
    for name in DOCUMENTS:
        commands = [argv for argv in COMMANDS if f"fixtures/{name}" in argv]
        f = workdir / name
        for path, value, doc in variants(_inlined(name)):
            f.write_text(json.dumps(doc), encoding="utf-8")
            shown = "<deleted>" if value is DELETE else json.dumps(value)
            for argv in commands:
                code, error, message = run([
                    str(f) if arg == f"fixtures/{name}" else
                    str(ROOT / arg) if arg.startswith("fixtures/") else arg for arg in _fast(argv)])
                if code == 3 or (code == 2 and error not in INPUT_ERROR_NAMES):
                    command = " ".join(argv[:2] if argv[0] == "dlm" else argv[:1])
                    if (key := (command, path[-1] if path else None, shown)) not in seen:
                        seen.add(key)
                        yield command, path, shown, code, error, message


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for command, path, shown, code, error, message in escapes(Path(tmp)):
            where = "/".join(map(str, path)) or "<root>"
            print(f"{command}: {where} = {shown} -> exit {code} {error}: {message}")


if __name__ == "__main__":
    main()
