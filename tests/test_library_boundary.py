"""The library constructors and checks reject what the README commands reject.

Each single-position change of a README document (`boundary_sweep.variants`,
sides inlined) whose fields are all there is fed straight to the library call
that its command makes: `build_lattice`, `PrincipalsHierarchy`,
`check_connection` or `PrincipalMapPair.check`.  A call must raise nothing
outside the input-error and fail classes, and it must raise an input error
wherever the command, run in-process on the same document, exits 2.  A
variant without a field the call takes (a key deleted, a side that is not an
object) has nothing to feed and is skipped: `_check_document` rejects it.
"""

from __future__ import annotations

import json

import pytest

from boundary_sweep import DELETE, run, variants
from test_readme import COMMANDS, _fast, _inlined

from sifc.connection import check_connection
from sifc.dlm import PrincipalMapPair, PrincipalsHierarchy
from sifc.errors import (CycleError, DlmError, LatticeError, MapError, NotALattice, NotLagois,
                         NotLagoisHierarchy)
from sifc.lattice import build_lattice

FAILS = (CycleError, NotALattice, NotLagois, NotLagoisHierarchy)  # verdicts, exit 1
INPUT_ERRORS = (LatticeError, MapError, DlmError)


def _lattice(doc) -> tuple:
    return doc["name"], doc["classes"], doc["covers"]


def _hierarchy(doc) -> tuple:
    return doc["principals"], doc.get("acts_for", [])


def _two_sided(side):
    return lambda doc: (side(doc["left"]), side(doc["right"]), doc["alpha"], doc["gamma"])


def _check_connection(left, right, alpha, gamma):
    return check_connection(build_lattice(*left), build_lattice(*right), alpha, gamma)


def _check_principal_maps(left, right, alpha, gamma):
    return PrincipalMapPair.check(PrincipalsHierarchy(*left), PrincipalsHierarchy(*right),
                                  alpha, gamma)


# document -> (the command that reads it, its fields, the library call they go to)
CASES = {
    "college.json": ("check-lattice", _lattice, build_lattice),
    "left-hierarchy.json": ("dlm check-hierarchy", _hierarchy, PrincipalsHierarchy),
    **dict.fromkeys(("college-univ.json", "broken-college-univ.json", "dorm-college-chain.json"),
                    ("check-connection", _two_sided(_lattice), _check_connection)),
    "hierarchy-pm.json": ("dlm check-lifted", _two_sided(_hierarchy), _check_principal_maps),
}


def _argv(command: str, path: str) -> list[str]:
    """The README's `command` line with its document replaced by `path`."""
    argv = next(argv for argv in COMMANDS if " ".join(argv).startswith(command + " "))
    return _fast([path if arg.startswith("fixtures/") else arg for arg in argv])


def escapes(name: str, workdir) -> dict[tuple, str]:
    """What went wrong, once per distinct (call, key, value)."""
    command, fields, call = CASES[name]
    found = {}
    f = workdir / name
    for path, value, doc in variants(_inlined(name)):
        try:
            args = fields(doc)
        except (KeyError, TypeError):
            continue
        key = (call.__name__, path[-1] if path else None,
               "<deleted>" if value is DELETE else json.dumps(value))
        try:
            call(*args)
        except FAILS:
            pass
        except INPUT_ERRORS:
            continue
        except Exception as exc:
            found.setdefault(key, f"{type(exc).__name__}: {exc}")
            continue
        f.write_text(json.dumps(doc), encoding="utf-8")
        if run(_argv(command, str(f)))[0] == 2:
            found.setdefault(key, f"accepted where `{command}` exits 2")
    return found


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_library_rejects_what_the_command_rejects(name, tmp_path):
    assert escapes(name, tmp_path) == {}
