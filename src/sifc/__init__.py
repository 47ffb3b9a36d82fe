"""Secure information-flow connections between autonomous security lattices."""

from importlib import import_module

__version__ = "0.1.0"

# The submodule that defines each public name, imported on first access
# (PEP 562), so that `import sifc` loads none of them.
_NAMES = {
    "lattice": ("Lattice", "build_lattice", "load_lattice"),
    "connection": ("LagoisConnection", "MonotoneMap", "Violation", "budpoint_representative",
                   "build_from_closures", "check_connection", "check_tightness", "coarsen",
                   "compose", "connection_violations", "decompose", "find_adjoint",
                   "identity_connection", "semi_inverse_connection"),
    "flowlang": ("Program", "StorePair", "VarDecl", "adversary_pairs", "exec_program",
                 "gen_well_typed", "ni_trial", "parse_program", "run_ni_suite",
                 "typecheck", "typecheck_phrase"),
    "dlm": ("Label", "Policy", "PrincipalMapPair", "PrincipalsHierarchy",
            "check_lifted_connection", "cross_declassify_check", "declassify_check",
            "label_equiv", "label_join", "label_leq", "lift_label", "parse_label"),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
