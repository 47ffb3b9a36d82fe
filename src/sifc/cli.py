"""Command-line front end.

Every subcommand is a thin adapter over the library: parse files, call one
library function, serialize the result.  A subcommand is one row of the
`_COMMANDS` table (name, help, arguments) plus one handler, which returns a
`Verdict` whose details state its status.  Reports go to stdout (JSON by
default, `--format text` for humans), a one-line summary to stderr.  Exit
codes: 0 pass, 1 fail (violations found or conditions unmet), 2 input error,
3 internal error (a bug in sifc; stderr then carries the traceback).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from . import connection as conn_mod
from .connection import (LagoisConnection, MonotoneMap, check_connection, check_tightness,
                         compose, decompose, find_adjoint)
from .errors import (AdjointError, CoarsenError, ComposeError, CorollaryViolation, CycleError,
                     DlmError, FlowError, FlowTypeError, GenerationStall, IllTyped,
                     LatticeError, MapError, NotALattice, NotClosure, NotIso, NotLagois,
                     NotLagoisHierarchy, NotSemiInverse, ParseError)
from .lattice import Lattice, Record, _check_document, _read_json as _load_json, _read_text
# flowlang and dlm are imported in the handlers that use them: start-up pays for what runs.

PASS, FAIL, INPUT_ERROR, INTERNAL_ERROR = "pass", "fail", "input-error", "internal-error"
_EXIT = {PASS: 0, FAIL: 1, INPUT_ERROR: 2, INTERNAL_ERROR: 3}


class Verdict(Record):
    """details["status"] is PASS, FAIL, INPUT_ERROR or INTERNAL_ERROR; lines
    is the JSON-lines payload, a fresh list unless given."""
    __slots__ = ("details", "lines")

    def __init__(self, details: dict, lines: list[dict] | None = None):
        object.__setattr__(self, "details", details)
        object.__setattr__(self, "lines", [] if lines is None else lines)

    @property
    def exit_code(self) -> int:
        return _EXIT[self.details["status"]]


# -- file plumbing: each document is checked here, and trusted after ---------

def _require_map(value, key: str, error: type[Exception]) -> dict:
    # JSON object keys are always strings; the values must be strings too.
    if not isinstance(value, dict) or not all(isinstance(v, str) for v in value.values()):
        raise error(f"{key!r} must be an object from names to names")
    return value


def _side_ref(value, base: Path, kind):
    """A side given inline or as a file reference resolved next to its document."""
    return kind.from_dict(_load_json(str(base / value)) if isinstance(value, str) else value)


def _load_sides(path: str, kind, maps: tuple[str, ...], optional: tuple[str, ...] = ()):
    """(left, right, *maps, *optional) of a two-sided document: sides of `kind`
    (Lattice or PrincipalsHierarchy), checked maps, None for an absent optional one."""
    error, doc = LatticeError if kind is Lattice else DlmError, _load_json(path)
    _check_document(doc, ("left", "right", *maps), optional, error, path)
    for key in (*maps, *optional):
        if key in doc:
            _require_map(doc[key], key, error)
    base = Path(path).resolve().parent
    return (_side_ref(doc["left"], base, kind), _side_ref(doc["right"], base, kind),
            *(doc.get(key) for key in (*maps, *optional)))


# bench/cli_child.py looks these names and _load_json up to time the CLI's load phase.
_load_connection_doc = _load_pm_doc = _load_sides
_lattice_ref = _hierarchy_ref = _side_ref


def _load_verified_connection(path: str) -> LagoisConnection:
    return check_connection(*_load_sides(path, Lattice, ("alpha", "gamma")))


def _load_principal_maps(path: str) -> PrincipalMapPair:
    from .dlm import PrincipalMapPair, PrincipalsHierarchy
    return PrincipalMapPair.check(*_load_sides(path, PrincipalsHierarchy, ("alpha", "gamma")))


def _conn_report(conn: LagoisConnection, extra: dict | None = None) -> dict:
    out = {
        "status": PASS,
        "alpha": conn.alpha.mapping(),
        "gamma": conn.gamma.mapping(),
        "budpoints_left": list(conn.budpoints_left),
        "budpoints_right": list(conn.budpoints_right),
        "kernel_left": [list(b) for b in conn.kernel_left],
        "kernel_right": [list(b) for b in conn.kernel_right],
    }
    if extra:
        out.update(extra)
    return out


# -- subcommand handlers --------------------------------------------------------

def _cmd_check_lattice(args) -> Verdict:
    lat = Lattice.from_dict(_load_json(args.file))
    return Verdict({"status": PASS, "name": lat.name, "classes": list(lat.classes),
                    "top": lat.top, "bottom": lat.bottom})


def _cmd_check_connection(args) -> Verdict:
    try:
        conn = _load_verified_connection(args.file)
    except NotLagois as exc:
        return Verdict({"status": FAIL, "violations": len(exc.violations)},
                       [v.to_json() for v in exc.violations])
    extra = {}
    if args.tightness:
        report = check_tightness(conn)
        extra["tightness"] = {"passed": report.passed,
                              "subsets_checked": report.subsets_checked,
                              "failures": list(report.failures)}
    return Verdict(_conn_report(conn, extra))


def _cmd_find_adjoint(args) -> Verdict:
    left, right, alpha, _ = _load_sides(args.file, Lattice, ("alpha",), ("gamma",))
    gamma = find_adjoint(MonotoneMap(left, right, alpha, "alpha"))
    return Verdict({"status": PASS, "gamma": gamma.mapping()})


def _cmd_build_from_closures(args) -> Verdict:
    conn = conn_mod.build_from_closures(*_load_sides(args.file, Lattice, ("c", "i", "h")))
    return Verdict(_conn_report(conn))


def _cmd_compose(args) -> Verdict:
    result = compose(_load_verified_connection(args.first), _load_verified_connection(args.second))
    return Verdict(_conn_report(result.connection, {"admitted_by": result.admitted_by}))


def _cmd_decompose(args) -> Verdict:
    conn = _load_verified_connection(args.file)
    dec = decompose(conn)
    return Verdict({
        "status": PASS,
        "budpoints_left": list(conn.budpoints_left),
        "budpoints_right": list(conn.budpoints_right),
        "restrict_left": dec.insertion_left.alpha.mapping(),
        "iso_forward": dec.iso[0].mapping(),
        "iso_back": dec.iso[1].mapping(),
        "restrict_right": dec.insertion_right.gamma.mapping(),
    })


def _cmd_coarsen(args) -> Verdict:
    conn = _load_verified_connection(args.file)
    table = _load_json(args.map)
    if isinstance(table, dict) and isinstance(table.get("alpha2"), dict):  # {"alpha2": {...}}
        _check_document(table, ("alpha2",), (), LatticeError, args.map)
        table = table["alpha2"]
    alpha2 = MonotoneMap(conn.left, conn.right, _require_map(table, "alpha2", LatticeError),
                         "alpha2")
    return Verdict(_conn_report(conn_mod.coarsen(conn, alpha2)))


def _cmd_semi_inverse(args) -> Verdict:
    left, right, alpha, gamma = _load_sides(args.file, Lattice, ("alpha", "gamma"))
    out = conn_mod.semi_inverse_connection(MonotoneMap(left, right, alpha, "alpha"),
                                           MonotoneMap(right, left, gamma, "gamma"))
    return Verdict(_conn_report(out))


def _cmd_typecheck(args) -> Verdict:
    from .flowlang import lint_transfer_classes, parse_program, typecheck
    conn = _load_verified_connection(args.connection)
    prog = _read_text(args.program, parse_program)
    t = typecheck(prog, conn)
    details = {"status": PASS, "type": {"left": t.left, "right": t.right}}
    if args.lint:
        details["lint"] = lint_transfer_classes(prog, conn)
    return Verdict(details)


def _cmd_run(args) -> Verdict:
    from .flowlang import (exec_program, parse_program, store_pair_from_dict,
                           store_pair_to_dict, typecheck)
    prog = _read_text(args.program, parse_program)
    if args.connection:
        conn = _load_verified_connection(args.connection)
        typecheck(prog, conn)  # refuse to run ill-typed programs when asked
    init = store_pair_from_dict(_load_json(args.store))
    final = exec_program(prog, init)
    return Verdict({"status": PASS, "final": store_pair_to_dict(final)})


def _cmd_ni_suite(args) -> Verdict:
    from .flowlang import parse_program, run_ni_suite
    conn = _load_verified_connection(args.connection)
    prog = _read_text(args.program, parse_program)
    report = run_ni_suite(prog.decls, conn, programs=args.trials,
                          max_len=args.len, seed=args.seed, draws=args.draws)
    return Verdict({
        "status": PASS if report.passed else FAIL,
        "programs": report.programs,
        "pairs": [list(p) for p in report.pairs],
        "draws_per_pair": report.draws_per_pair,
        "trials": report.trials,
        "failures": [{"program": p, "pair": list(pair), "seed": s,
                      "distinguishing": list(d)}
                     for p, pair, s, d in report.failures],
        "seed": args.seed,
    })


def _cmd_dlm_check_hierarchy(args) -> Verdict:
    from .dlm import PrincipalsHierarchy
    h = PrincipalsHierarchy.from_dict(_load_json(args.file))
    return Verdict({"status": PASS, "principals": list(h.principals),
                    "acts_for": [[p, q] for p, q in h.edges]})


def _cmd_dlm_label_leq(args) -> Verdict:
    from .dlm import PrincipalsHierarchy, format_label, label_leq, parse_label
    h = PrincipalsHierarchy.from_dict(_load_json(args.file))
    l1, l2 = parse_label(args.label1), parse_label(args.label2)
    holds = label_leq(h, l1, l2)
    return Verdict({"status": PASS if holds else FAIL, "holds": holds,
                    "label1": format_label(l1), "label2": format_label(l2)})


def _cmd_dlm_lift(args) -> Verdict:
    from .dlm import format_label, lift_label, parse_label
    pm = _load_principal_maps(args.file)
    lifted = lift_label(pm, args.direction, parse_label(args.label))
    return Verdict({"status": PASS, "direction": args.direction,
                    "label": format_label(lifted)})


def _cmd_dlm_check_lifted(args) -> Verdict:
    from .dlm import check_lifted_connection
    pm = _load_principal_maps(args.file)
    report = check_lifted_connection(pm, samples=args.samples, seed=args.seed)
    return Verdict({
        "status": PASS if report.passed else FAIL,
        "samples": report.samples,
        "seed": args.seed,
        "checks": dict(sorted(report.checks.items())),
        "failures": [[name, witness] for name, witness in report.failures],
    })


def _split_principals(raw: str) -> list[str]:
    """A comma-separated principal list; a blank one names no principal."""
    if not raw.strip():
        return []
    names = [piece.strip() for piece in raw.split(",")]
    if "" in names:
        raise DlmError(f"empty principal name in {raw!r}")
    return names


def _cmd_dlm_declassify(args) -> Verdict:
    from .dlm import PrincipalsHierarchy, declassify_check, parse_label
    h = PrincipalsHierarchy.from_dict(_load_json(args.file))
    allowed = declassify_check(h, _split_principals(args.authority),
                               parse_label(args.label1), parse_label(args.label2))
    return Verdict({"status": PASS if allowed else FAIL, "allowed": allowed})


def _cmd_dlm_cross_declassify(args) -> Verdict:
    from .dlm import cross_declassify_check, parse_label
    pm = _load_principal_maps(args.file)
    result = cross_declassify_check(
        pm, _split_principals(args.authority_left),
        _split_principals(args.authority_right),
        parse_label(args.label1), parse_label(args.label2),
        direction=args.direction)
    return Verdict({"status": PASS if result.allowed else FAIL, "allowed": result.allowed,
                    "near": result.near_side, "far": result.far_side,
                    "direction": result.direction})


# -- parser -------------------------------------------------------------------

def _count(text: str) -> int:
    """argparse type of the count flags: a non-negative integer."""
    try:
        count = int(text)
    except ValueError:
        count = -1
    if count < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return count


_DIRECTION = ("--direction", {"choices": ("lr", "rl"), "default": "lr"})
_SEED = ("--seed", {"type": int})  # build_parser sets its default

# name: (help, handler, arguments); an argument is a name or (name, argparse
# keywords).  A row without a handler is a group, and the rows named
# "<group> <leaf>" are its subcommands.
_COMMANDS = {
    "check-lattice": ("validate a lattice file", _cmd_check_lattice, ("file",)),
    "check-connection": ("verify a map pair", _cmd_check_connection, (
        "file", ("--tightness", {"action": "store_true",
                                "help": "also check round trips give least budpoints above"}))),
    "find-adjoint": ("synthesise gamma from alpha", _cmd_find_adjoint, ("file",)),
    "build-from-closures": ("build a connection from closure operators and an iso",
                            _cmd_build_from_closures, ("file",)),
    "compose": ("chain two connections", _cmd_compose, ("first", "second")),
    "decompose": ("split a connection into insertions around an iso", _cmd_decompose,
                  ("file",)),
    "coarsen": ("replace alpha by a coarser map", _cmd_coarsen, (
        "file", ("map", {"help": "JSON object with the replacement alpha"}))),
    "semi-inverse": ("rebuild gamma as gamma.alpha.gamma and verify", _cmd_semi_inverse,
                     ("file",)),
    "typecheck": ("type a transfer program", _cmd_typecheck, (
        "program", ("--connection", {"required": True}),
        ("--lint", {"action": "store_true", "help": "flag non-budpoint transfer classes"}))),
    "run": ("execute a transfer program", _cmd_run, (
        "program", ("--store", {"required": True}),
        ("--connection", {"help": "typecheck against this connection before running"}))),
    "ni-suite": ("generate well-typed programs and test non-interference", _cmd_ni_suite, (
        ("program", {"help": "source of the variable declarations"}),
        ("--connection", {"required": True}),
        ("--trials", {"type": _count, "default": 100, "help": "number of generated programs"}),
        _SEED,
        ("--len", {"type": _count, "default": 20, "help": "max body length"}),
        ("--draws", {"type": _count, "default": 3, "help": "store draws per adversary pair"}))),
    "dlm": ("decentralized label model commands", None, ()),
    "dlm check-hierarchy": ("validate a hierarchy file", _cmd_dlm_check_hierarchy, ("file",)),
    "dlm label-leq": ("test the relabeling rule", _cmd_dlm_label_leq,
                      ("file", "label1", "label2")),
    "dlm lift": ("map a label across hierarchies", _cmd_dlm_lift, ("file", "label", _DIRECTION)),
    "dlm check-lifted": ("decide the lifted-connection laws", _cmd_dlm_check_lifted, (
        "file", ("--samples", {"type": _count, "default": 500}), _SEED)),
    "dlm declassify": ("authority-mediated relabeling", _cmd_dlm_declassify, (
        "file", "label1", "label2",
        ("--authority", {"default": "", "help": "comma-separated principals"}))),
    "dlm cross-declassify": ("declassification across two domains", _cmd_dlm_cross_declassify, (
        "file", "label1", "label2", ("--authority-left", {"default": ""}),
        ("--authority-right", {"default": ""}), _DIRECTION)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sifc",
        description="Check, synthesise and maintain secure information-flow "
                    "connections between security lattices.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        help="report style on stdout")
    # --seed defaults to SIFC_SEED, or 0.  A string default goes through
    # `type`, so a bad SIFC_SEED is a usage error.
    seed = {"default": os.environ.get("SIFC_SEED") or "0"}
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for name, (help_text, handler, arguments) in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        p = groups[group].add_parser(leaf, help=help_text)
        for spec in arguments:
            arg, keywords = (spec, {}) if isinstance(spec, str) else spec
            p.add_argument(arg, **keywords, **(seed if arg == "--seed" else {}))
        if handler is None:
            groups[name] = p.add_subparsers(dest=f"{name}_command", required=True)
        else:
            p.set_defaults(handler=handler)
    return parser


# Each fail error, with the report fields it adds; a violation list also
# gives the report's lines.
_FAIL_FIELDS = {
    **dict.fromkeys((CycleError, NotClosure, NotIso, NotSemiInverse, GenerationStall,
                     CorollaryViolation), lambda exc: {}),
    **dict.fromkeys((NotLagois, NotLagoisHierarchy),
                    lambda exc: {"violations": len(exc.violations)}),
    AdjointError: lambda exc: {"condition": exc.condition, "witness": list(exc.witness)},
    ComposeError: lambda exc: {"side": exc.side, "witness": [exc.witness]},
    CoarsenError: lambda exc: {"kind": exc.kind, "witness": list(exc.witness)},
    NotALattice: lambda exc: {"pair": list(exc.pair), "bound": exc.kind},
    FlowTypeError: lambda exc: {"rule": exc.rule, "classes": [exc.lower, exc.upper]} | (
        {} if exc.index is None else {"phrase_index": exc.index}),
}

_INPUT_ERRORS = (OSError, UnicodeDecodeError, json.JSONDecodeError, LatticeError,
                 MapError, ParseError, FlowError, DlmError)


def _error_verdict(status: str, exc: Exception, fields: dict | None = None,
                   lines: list[dict] | None = None) -> Verdict:
    return Verdict({"status": status, "error": type(exc).__name__, "message": str(exc),
                    **(fields or {})}, lines)


def dispatch_args(args) -> Verdict:
    """Run the handler; any exception other than a fail or input error is a
    bug in sifc and propagates."""
    try:
        return args.handler(args)
    except IllTyped:  # from run_ni_suite's re-check of its own program: a bug in sifc
        raise
    except tuple(_FAIL_FIELDS) as exc:
        fields = next(_FAIL_FIELDS[c] for c in type(exc).__mro__ if c in _FAIL_FIELDS)
        return _error_verdict(FAIL, exc, fields(exc),  # the fields of its nearest listed class
                              [v.to_json() for v in getattr(exc, "violations", ())])
    except _INPUT_ERRORS as exc:
        return _error_verdict(INPUT_ERROR, exc)


def cli_dispatch(argv) -> Verdict:
    """Parse arguments and run one subcommand, mapping fail and input errors
    to verdicts."""
    return dispatch_args(build_parser().parse_args(argv))


def _render_text(verdict: Verdict) -> str:
    out = []
    for line in verdict.lines:
        out.append(f"{line['condition']} violated at {', '.join(line['witness'])}")
    for key, value in verdict.details.items():
        out.append(f"{key}: {value}")
    return "\n".join(out)


def render(verdict: Verdict, fmt: str) -> str:
    if fmt == "text":
        return _render_text(verdict)
    if verdict.lines:
        return "\n".join(json.dumps(line, separators=(",", ":"))
                         for line in verdict.lines)
    return json.dumps(verdict.details, separators=(",", ":"))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    trace = ""
    try:
        verdict = dispatch_args(args)
    except Exception as exc:  # a bug in sifc, never the input's fault
        import traceback  # here, so that normal runs do not pay for the import
        verdict, trace = _error_verdict(INTERNAL_ERROR, exc), traceback.format_exc()
    print(render(verdict, args.format))
    summary = verdict.details["status"].replace("-", " ").upper()  # PASS ... INTERNAL ERROR
    message = verdict.details.get("message", "")
    print(f"{summary}" + (f": {message}" if message else ""), file=sys.stderr)
    print(trace, end="", file=sys.stderr)
    return verdict.exit_code


if __name__ == "__main__":
    sys.exit(main())
