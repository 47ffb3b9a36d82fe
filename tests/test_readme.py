"""The README's command block runs as documented and prints exactly what
`tests/readme_runs.json` holds, and no mutation of the documents it reads
makes a README command raise or exit outside 0/1/2."""

import io
import json
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sifc.cli import _COMMANDS, cli_dispatch, main
from sifc.connection import MapError
from sifc.dlm import DlmError
from sifc.flowlang import FlowError
from sifc.lattice import LatticeError

ROOT = Path(__file__).resolve().parent.parent


def readme_commands() -> list[tuple[list[str], dict | None]]:
    """The `sifc ...` lines of the README's command-line block as argv lists
    without the program name (`\\` continues a line), each with the JSON
    line quoted in a `# {...}` comment right below it, if any."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S).group(1)
    out = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("# {"):
            out[-1] = (out[-1][0], json.loads(line[2:]))
        elif line.startswith("sifc "):
            out.append((shlex.split(line, comments=True)[1:], None))
    return out


COMMANDS = [argv for argv, _ in readme_commands()]


def test_readme_lists_every_documented_command():
    assert len(COMMANDS) == 18
    assert {" ".join(argv[:2]) if argv[0] == "dlm" else argv[0] for argv in COMMANDS} == {
        "check-lattice", "check-connection", "find-adjoint", "build-from-closures",
        "compose", "decompose", "coarsen", "semi-inverse", "typecheck", "run",
        "ni-suite", "dlm check-hierarchy", "dlm label-leq", "dlm lift",
        "dlm check-lifted", "dlm declassify", "dlm cross-declassify"} == set(_COMMANDS) - {"dlm"}


@pytest.mark.parametrize("argv,quoted", readme_commands(),
                         ids=[" ".join(argv) for argv in COMMANDS])
def test_readme_command_runs_as_documented(monkeypatch, argv, quoted):
    monkeypatch.chdir(ROOT)
    v = cli_dispatch(argv)
    if quoted is None:
        assert v.exit_code == 0, v.details
        assert v.details["status"] == "pass"
    else:  # a failing fixture, with the witness the README quotes
        assert v.exit_code == 1
        assert quoted in v.lines


# -- the exact bytes of each run ------------------------------------------------

EXPECTED_RUNS = Path(__file__).resolve().parent / "readme_runs.json"
RUNS = [["--format", fmt, *argv] for argv in COMMANDS for fmt in ("json", "text")]


def readme_run(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one run through `main`, in-process;
    the caller sets the repo root as cwd and unsets SIFC_SEED."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def write_expected_runs() -> None:
    """Regenerate the expected file, from the repo root:
    `env -u SIFC_SEED PYTHONPATH=src:tests python -c
    'import test_readme; test_readme.write_expected_runs()'`."""
    runs = {" ".join(argv): readme_run(argv) for argv in RUNS}
    EXPECTED_RUNS.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")


def test_expected_file_holds_each_readme_run_in_both_formats():
    expected = json.loads(EXPECTED_RUNS.read_text(encoding="utf-8"))
    assert list(expected) == [" ".join(argv) for argv in RUNS]


@pytest.mark.parametrize("argv", RUNS, ids=[" ".join(argv) for argv in RUNS])
def test_readme_run_prints_the_expected_bytes(monkeypatch, argv):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("SIFC_SEED", raising=False)
    expected = json.loads(EXPECTED_RUNS.read_text(encoding="utf-8"))[" ".join(argv)]
    assert readme_run(argv) == expected


# -- mutated documents -----------------------------------------------------------

def _inlined(name: str):
    """A fixture document with its referenced lattices or hierarchies inlined."""
    doc = json.loads((ROOT / "fixtures" / name).read_text(encoding="utf-8"))
    if isinstance(doc, dict) and "left" in doc and "right" in doc:
        for side in ("left", "right"):
            if isinstance(doc[side], str):
                doc[side] = _inlined(doc[side])
    return doc


def _fast(argv: list[str]) -> list[str]:
    """The same command with small trial and sample counts."""
    counts = {"--trials": "2", "--len": "4", "--samples": "10"}
    return [counts.get(prev, arg) for prev, arg in zip([None, *argv], argv)]


DOCUMENTS = sorted({Path(arg).name for argv in COMMANDS for arg in argv
                    if arg.startswith("fixtures/") and arg.endswith(".json")})


def _subclass_names(cls: type) -> set[str]:
    return {cls.__name__}.union(*map(_subclass_names, cls.__subclasses__()))


INPUT_ERROR_NAMES = set().union(*map(_subclass_names, (
    LatticeError, MapError, FlowError, DlmError, OSError, json.JSONDecodeError,
    UnicodeDecodeError)))


def _nodes(node, path=()):
    """Every (position, value) of a JSON tree, the root first."""
    yield path, node
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _nodes(child, (*path, key))


def _json(names: list[str]):
    """Arbitrary JSON values; strings are arbitrary text (control characters
    included) or names taken from the document, so that deeper checks are
    reached too."""
    text = st.text(max_size=12) | st.sampled_from(names)
    return st.recursive(
        st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats() | text,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(text, inner, max_size=4),
        max_leaves=8)


@st.composite
def mutations(draw):
    """(document name, mutated document): one position of the inlined
    document is deleted or replaced by an arbitrary JSON value."""
    name = draw(st.sampled_from(DOCUMENTS))
    doc = _inlined(name)
    nodes = list(_nodes(doc))
    names = sorted({v for _, v in nodes if isinstance(v, str)}
                   | {p[-1] for p, _ in nodes if p and isinstance(p[-1], str)})
    path = draw(st.sampled_from([p for p, _ in nodes]))
    delete = bool(path) and draw(st.booleans())
    value = None if delete else draw(_json(names))
    if not path:
        return name, value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return name, doc


@settings(derandomize=True, max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutations())
def test_mutated_documents_never_escape_the_cli(tmp_path_factory, mutation):
    name, doc = mutation
    f = tmp_path_factory.mktemp("doc") / name
    f.write_text(json.dumps(doc), encoding="utf-8")
    for argv in COMMANDS:
        if f"fixtures/{name}" not in argv:
            continue
        argv = [str(f) if arg == f"fixtures/{name}" else
                str(ROOT / arg) if arg.startswith("fixtures/") else arg
                for arg in _fast(argv)]
        v = cli_dispatch(argv)
        assert v.exit_code in (0, 1, 2), (argv, v.details)
        if v.exit_code == 2:  # rejected with a typed error, not a bare KeyError
            assert v.details["error"] in INPUT_ERROR_NAMES, (argv, v.details)
