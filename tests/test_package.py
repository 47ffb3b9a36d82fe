"""The package loads lazily: `import sifc` loads no submodule, each CLI
subcommand loads only the library modules it runs, and every public name and
error class is the same object under each path that names it."""

import functools
import importlib
import json

import pytest

import sifc
from sifc import errors

import fixtures as fx
from test_readme import COMMANDS

# A line of the child's stdout: the sifc modules it has loaded.
LOADED = "import json, sys\nprint(json.dumps([m for m in sys.modules if m.startswith('sifc')]))"
BASE = {"sifc", "sifc.cli", "sifc.connection", "sifc.errors", "sifc.lattice"}
# Records are built without `dataclasses`, which would load these.
UNUSED = ("dataclasses", "inspect")


def _extra(argv: list[str]) -> set[str]:
    """The library module a command needs beyond lattice and connection."""
    if argv[0] == "dlm":
        return {"sifc.dlm"}
    return {"sifc.flowlang"} if argv[0] in ("typecheck", "run", "ni-suite") else set()


@functools.cache
def _loaded(argv: tuple[str, ...]) -> tuple[set[str], set[str]]:
    """The sifc modules and the UNUSED modules a child has loaded after one command."""
    probe = f"\nprint(json.dumps([m for m in {UNUSED!r} if m in sys.modules]))"
    proc = fx.run_python("import sys, sifc.cli\nsifc.cli.main(sys.argv[1:])\n" + LOADED + probe,
                         *argv)
    return tuple(set(json.loads(line)) for line in proc.stdout.splitlines()[-2:])


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_subcommand_loads_only_the_modules_it_runs(argv):
    assert _loaded(tuple(argv))[0] == BASE | _extra(argv)


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_subcommand_loads_no_dataclasses(argv):
    assert _loaded(tuple(argv))[1] == set()


def test_import_sifc_loads_no_submodule():
    assert json.loads(fx.run_python("import sifc\n" + LOADED).stdout) == ["sifc"]


def test_public_names_resolve_to_their_home_modules():
    homes = {f"sifc.{m}" for m in ("lattice", "connection", "flowlang", "dlm")}
    for name in (n for n in sifc.__all__ if n != "__version__"):
        value = getattr(sifc, name)
        assert value.__module__ in homes, name
        assert vars(importlib.import_module(value.__module__))[name] is value, name


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from sifc import *", namespace)
    assert all(namespace[name] is getattr(sifc, name) for name in sifc.__all__)
    assert set(sifc.__all__) <= set(dir(sifc))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        getattr(sifc, "no_such_name")


ERRORS = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)]
OLD_HOMES = ((errors.LatticeError, "lattice"), (errors.FlowError, "flowlang"),
             (errors.DlmError, "dlm"))


def test_every_error_class_is_collected():
    assert len(ERRORS) == 32


@pytest.mark.parametrize("cls", ERRORS, ids=[c.__name__ for c in ERRORS])
def test_error_class_is_the_same_under_its_old_path(cls):
    old = next((module for base, module in OLD_HOMES if issubclass(cls, base)), "connection")
    assert cls.__module__ == "sifc.errors"
    assert getattr(importlib.import_module(f"sifc.{old}"), cls.__name__) is cls
