"""Command-line front end.

Every subcommand is a thin adapter over the library: parse files, call one
library function, serialize the result.  Reports go to stdout (JSON by
default, `--format text` for humans), a one-line summary to stderr.  Exit
codes: 0 pass, 1 fail (violations found or conditions unmet), 2 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from . import connection as conn_mod
from .connection import (AdjointError, ComposeError, CoarsenError,
                         LagoisConnection, MapError, MonotoneMap, NotClosure,
                         NotIso, NotLagois, NotSemiInverse, check_connection,
                         check_tightness, compose, decompose, find_adjoint)
from .dlm import (CorollaryViolation, DlmError, NotLagoisHierarchy,
                  PrincipalMapPair, PrincipalsHierarchy,
                  check_lifted_connection, cross_declassify_check,
                  declassify_check, format_label, label_leq, lift_label,
                  parse_label)
from .flowlang import (FlowError, FlowTypeError, GenerationStall, IllTyped,
                       ParseError, exec_program, lint_transfer_classes,
                       parse_program, run_ni_suite, store_pair_from_dict,
                       store_pair_to_dict, typecheck)
from .lattice import (CycleError, Lattice, LatticeError, NotALattice,
                      load_lattice)

PASS, FAIL, INPUT_ERROR = "pass", "fail", "input-error"
_EXIT = {PASS: 0, FAIL: 1, INPUT_ERROR: 2}


@dataclass
class Verdict:
    status: str
    details: dict
    lines: list[dict] = field(default_factory=list)  # JSON-lines payload

    @property
    def exit_code(self) -> int:
        return _EXIT[self.status]


# -- file plumbing ------------------------------------------------------------

def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _lattice_ref(value, base: Path, which: str) -> Lattice:
    if isinstance(value, str):
        return load_lattice(str((base / value)))
    if isinstance(value, dict):
        return Lattice.from_dict(value)
    raise LatticeError(f"{which} must be a lattice object or a file reference")


def _load_connection_doc(path: str):
    doc = _load_json(path)
    base = Path(path).resolve().parent
    if not isinstance(doc, dict) or "left" not in doc or "right" not in doc:
        raise LatticeError('connection file needs "left" and "right" lattices')
    left = _lattice_ref(doc["left"], base, "left")
    right = _lattice_ref(doc["right"], base, "right")
    alpha = doc.get("alpha")
    gamma = doc.get("gamma")
    if not isinstance(alpha, dict):
        raise LatticeError('connection file needs an "alpha" map')
    if gamma is not None and not isinstance(gamma, dict):
        raise LatticeError('"gamma" must be a map from right to left classes')
    return left, right, alpha, gamma


def _load_verified_connection(path: str) -> LagoisConnection:
    left, right, alpha, gamma = _load_connection_doc(path)
    if gamma is None:
        raise LatticeError('connection file omits "gamma"; run find-adjoint first')
    return check_connection(left, right, alpha, gamma)


def _hierarchy_ref(value, base: Path, which: str) -> PrincipalsHierarchy:
    if isinstance(value, str):
        return PrincipalsHierarchy.from_dict(_load_json(str(base / value)))
    if isinstance(value, dict):
        return PrincipalsHierarchy.from_dict(value)
    raise DlmError(f"{which} must be a hierarchy object or a file reference")


def _load_pm_doc(path: str):
    doc = _load_json(path)
    base = Path(path).resolve().parent
    for key in ("left", "right", "alpha", "gamma"):
        if key not in doc:
            raise DlmError(f"principal-map file needs {key!r}")
    left = _hierarchy_ref(doc["left"], base, "left")
    right = _hierarchy_ref(doc["right"], base, "right")
    for key in ("alpha", "gamma"):
        if not isinstance(doc[key], dict):
            raise DlmError(f"{key!r} must be a map between principals")
    return left, right, doc["alpha"], doc["gamma"]


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("SIFC_SEED")
    return int(env) if env else 0


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
    lat = load_lattice(args.file)
    return Verdict(PASS, {"status": PASS, "name": lat.name,
                          "classes": list(lat.classes),
                          "top": lat.top, "bottom": lat.bottom})


def _cmd_check_connection(args) -> Verdict:
    left, right, alpha, gamma = _load_connection_doc(args.file)
    if gamma is None:
        raise LatticeError('connection file omits "gamma"; run find-adjoint first')
    try:
        conn = check_connection(left, right, alpha, gamma)
    except NotLagois as exc:
        return Verdict(FAIL, {"status": FAIL, "violations": len(exc.violations)},
                       [v.to_json() for v in exc.violations])
    extra = {}
    if args.tightness:
        report = check_tightness(conn)
        extra["tightness"] = {"passed": report.passed,
                              "subsets_checked": report.subsets_checked,
                              "failures": list(report.failures)}
    return Verdict(PASS, _conn_report(conn, extra))


def _cmd_find_adjoint(args) -> Verdict:
    left, right, alpha, _ = _load_connection_doc(args.file)
    amap = MonotoneMap(left, right, alpha, "alpha")
    gamma = find_adjoint(amap)
    return Verdict(PASS, {"status": PASS, "gamma": gamma.mapping()})


def _cmd_build_from_closures(args) -> Verdict:
    doc = _load_json(args.file)
    base = Path(args.file).resolve().parent
    left = _lattice_ref(doc["left"], base, "left")
    right = _lattice_ref(doc["right"], base, "right")
    conn = conn_mod.build_from_closures(left, right, doc["c"], doc["i"], doc["h"])
    return Verdict(PASS, _conn_report(conn))


def _cmd_compose(args) -> Verdict:
    ab = _load_verified_connection(args.first)
    bc = _load_verified_connection(args.second)
    result = compose(ab, bc)
    return Verdict(PASS, _conn_report(result.connection,
                                      {"admitted_by": result.admitted_by}))


def _cmd_decompose(args) -> Verdict:
    conn = _load_verified_connection(args.file)
    dec = decompose(conn)
    return Verdict(PASS, {
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
    doc = _load_json(args.map)
    table = doc.get("alpha2", doc) if isinstance(doc, dict) else doc
    alpha2 = MonotoneMap(conn.left, conn.right, table, "alpha2")
    out = conn_mod.coarsen(conn, alpha2)
    return Verdict(PASS, _conn_report(out))


def _cmd_semi_inverse(args) -> Verdict:
    left, right, alpha, gamma = _load_connection_doc(args.file)
    if gamma is None:
        raise LatticeError('semi-inverse needs both "alpha" and "gamma"')
    amap = MonotoneMap(left, right, alpha, "alpha")
    gmap = MonotoneMap(right, left, gamma, "gamma")
    out = conn_mod.semi_inverse_connection(amap, gmap)
    return Verdict(PASS, _conn_report(out))


def _cmd_typecheck(args) -> Verdict:
    conn = _load_verified_connection(args.connection)
    with open(args.program, "r", encoding="utf-8") as fh:
        prog = parse_program(fh.read())
    t = typecheck(prog, conn)
    details = {"status": PASS, "type": {"left": t.left, "right": t.right}}
    if args.lint:
        details["lint"] = lint_transfer_classes(prog, conn)
    return Verdict(PASS, details)


def _cmd_run(args) -> Verdict:
    with open(args.program, "r", encoding="utf-8") as fh:
        prog = parse_program(fh.read())
    if args.connection:
        conn = _load_verified_connection(args.connection)
        typecheck(prog, conn)  # refuse to run ill-typed programs when asked
    init = store_pair_from_dict(_load_json(args.store))
    final = exec_program(prog, init)
    return Verdict(PASS, {"status": PASS, "final": store_pair_to_dict(final)})


def _cmd_ni_suite(args) -> Verdict:
    conn = _load_verified_connection(args.connection)
    with open(args.program, "r", encoding="utf-8") as fh:
        prog = parse_program(fh.read())
    seed = _resolve_seed(args.seed)
    report = run_ni_suite(prog.decls, conn, programs=args.trials,
                          max_len=args.len, seed=seed, draws=args.draws)
    details = {
        "status": PASS if report.passed else FAIL,
        "programs": report.programs,
        "pairs": [list(p) for p in report.pairs],
        "draws_per_pair": report.draws_per_pair,
        "trials": report.trials,
        "failures": [{"program": p, "pair": list(pair), "seed": s,
                      "distinguishing": list(d)}
                     for p, pair, s, d in report.failures],
        "seed": seed,
    }
    return Verdict(details["status"], details)


def _cmd_dlm_check_hierarchy(args) -> Verdict:
    h = PrincipalsHierarchy.from_dict(_load_json(args.file))
    return Verdict(PASS, {"status": PASS,
                          "principals": list(h.principals),
                          "acts_for": [[p, q] for p, q in h.edges]})


def _cmd_dlm_label_leq(args) -> Verdict:
    h = PrincipalsHierarchy.from_dict(_load_json(args.file))
    l1, l2 = parse_label(args.label1), parse_label(args.label2)
    holds = label_leq(h, l1, l2)
    return Verdict(PASS if holds else FAIL,
                   {"status": PASS if holds else FAIL, "holds": holds,
                    "label1": format_label(l1), "label2": format_label(l2)})


def _cmd_dlm_lift(args) -> Verdict:
    left, right, alpha, gamma = _load_pm_doc(args.file)
    pm = PrincipalMapPair.check(left, right, alpha, gamma)
    lifted = lift_label(pm, args.direction, parse_label(args.label))
    return Verdict(PASS, {"status": PASS, "direction": args.direction,
                          "label": format_label(lifted)})


def _cmd_dlm_check_lifted(args) -> Verdict:
    left, right, alpha, gamma = _load_pm_doc(args.file)
    pm = PrincipalMapPair.check(left, right, alpha, gamma)
    seed = _resolve_seed(args.seed)
    report = check_lifted_connection(pm, samples=args.samples, seed=seed)
    status = PASS if report.passed else FAIL
    return Verdict(status, {
        "status": status,
        "samples": report.samples,
        "seed": seed,
        "checks": dict(sorted(report.checks.items())),
        "failures": [[name, witness] for name, witness in report.failures],
    })


def _split_principals(raw: str) -> list[str]:
    return [p for p in (piece.strip() for piece in raw.split(",")) if p]


def _cmd_dlm_declassify(args) -> Verdict:
    h = PrincipalsHierarchy.from_dict(_load_json(args.file))
    allowed = declassify_check(h, _split_principals(args.authority),
                               parse_label(args.label1), parse_label(args.label2))
    return Verdict(PASS if allowed else FAIL,
                   {"status": PASS if allowed else FAIL, "allowed": allowed})


def _cmd_dlm_cross_declassify(args) -> Verdict:
    left, right, alpha, gamma = _load_pm_doc(args.file)
    pm = PrincipalMapPair.check(left, right, alpha, gamma)
    result = cross_declassify_check(
        pm, _split_principals(args.authority_left),
        _split_principals(args.authority_right),
        parse_label(args.label1), parse_label(args.label2),
        direction=args.direction)
    status = PASS if result.allowed else FAIL
    return Verdict(status, {"status": status, "allowed": result.allowed,
                            "near": result.near_side, "far": result.far_side,
                            "direction": result.direction})


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sifc",
        description="Check, synthesise and maintain secure information-flow "
                    "connections between security lattices.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        help="report style on stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-lattice", help="validate a lattice file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_check_lattice)

    p = sub.add_parser("check-connection", help="verify a map pair")
    p.add_argument("file")
    p.add_argument("--tightness", action="store_true",
                   help="also check budpoint meet/join tightness")
    p.set_defaults(handler=_cmd_check_connection)

    p = sub.add_parser("find-adjoint", help="synthesise gamma from alpha")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_find_adjoint)

    p = sub.add_parser("build-from-closures",
                       help="build a connection from closure operators and an iso")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_build_from_closures)

    p = sub.add_parser("compose", help="chain two connections")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("decompose",
                       help="split a connection into insertions around an iso")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("coarsen", help="replace alpha by a coarser map")
    p.add_argument("file")
    p.add_argument("map", help="JSON object with the replacement alpha")
    p.set_defaults(handler=_cmd_coarsen)

    p = sub.add_parser("semi-inverse",
                       help="rebuild gamma as gamma.alpha.gamma and verify")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_semi_inverse)

    p = sub.add_parser("typecheck", help="type a transfer program")
    p.add_argument("program")
    p.add_argument("--connection", required=True)
    p.add_argument("--lint", action="store_true",
                   help="flag non-budpoint transfer classes")
    p.set_defaults(handler=_cmd_typecheck)

    p = sub.add_parser("run", help="execute a transfer program")
    p.add_argument("program")
    p.add_argument("--store", required=True)
    p.add_argument("--connection", default=None,
                   help="typecheck against this connection before running")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("ni-suite",
                       help="generate well-typed programs and test non-interference")
    p.add_argument("program", help="source of the variable declarations")
    p.add_argument("--connection", required=True)
    p.add_argument("--trials", type=int, default=100,
                   help="number of generated programs")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--len", type=int, default=20, help="max body length")
    p.add_argument("--draws", type=int, default=3,
                   help="store draws per adversary pair")
    p.set_defaults(handler=_cmd_ni_suite)

    dlm = sub.add_parser("dlm", help="decentralized label model commands")
    dlm_sub = dlm.add_subparsers(dest="dlm_command", required=True)

    p = dlm_sub.add_parser("check-hierarchy", help="validate a hierarchy file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_dlm_check_hierarchy)

    p = dlm_sub.add_parser("label-leq", help="test the relabeling rule")
    p.add_argument("file")
    p.add_argument("label1")
    p.add_argument("label2")
    p.set_defaults(handler=_cmd_dlm_label_leq)

    p = dlm_sub.add_parser("lift", help="map a label across hierarchies")
    p.add_argument("file")
    p.add_argument("label")
    p.add_argument("--direction", choices=("lr", "rl"), default="lr")
    p.set_defaults(handler=_cmd_dlm_lift)

    p = dlm_sub.add_parser("check-lifted",
                           help="sample the lifted-connection laws")
    p.add_argument("file")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=_cmd_dlm_check_lifted)

    p = dlm_sub.add_parser("declassify", help="authority-mediated relabeling")
    p.add_argument("file")
    p.add_argument("label1")
    p.add_argument("label2")
    p.add_argument("--authority", default="", help="comma-separated principals")
    p.set_defaults(handler=_cmd_dlm_declassify)

    p = dlm_sub.add_parser("cross-declassify",
                           help="declassification across two domains")
    p.add_argument("file")
    p.add_argument("label1")
    p.add_argument("label2")
    p.add_argument("--authority-left", default="")
    p.add_argument("--authority-right", default="")
    p.add_argument("--direction", choices=("lr", "rl"), default="lr")
    p.set_defaults(handler=_cmd_dlm_cross_declassify)

    return parser


_FAIL_ERRORS = (CycleError, NotALattice, NotLagois, AdjointError, NotClosure,
                NotIso, ComposeError, CoarsenError, NotSemiInverse,
                FlowTypeError, IllTyped, GenerationStall, NotLagoisHierarchy,
                CorollaryViolation)

_INPUT_ERRORS = (OSError, json.JSONDecodeError, LatticeError, MapError,
                 ParseError, FlowError, DlmError, KeyError, TypeError,
                 ValueError)


def _failure_verdict(exc: Exception) -> Verdict:
    details = {"status": FAIL, "error": type(exc).__name__, "message": str(exc)}
    lines: list[dict] = []
    if isinstance(exc, (NotLagois, NotLagoisHierarchy)):
        details["violations"] = len(exc.violations)
        lines = [v.to_json() for v in exc.violations]
    elif isinstance(exc, AdjointError):
        details["condition"] = exc.condition
        details["witness"] = list(exc.witness)
    elif isinstance(exc, (ComposeError,)):
        details["side"] = exc.side
        details["witness"] = [exc.witness]
    elif isinstance(exc, CoarsenError):
        details["kind"] = exc.kind
        details["witness"] = list(exc.witness)
    elif isinstance(exc, NotALattice):
        details["pair"] = list(exc.pair)
        details["bound"] = exc.kind
    elif isinstance(exc, FlowTypeError):
        details["rule"] = exc.rule
        details["classes"] = [exc.lower, exc.upper]
        if exc.index is not None:
            details["phrase_index"] = exc.index
    elif isinstance(exc, IllTyped):
        details["rule"] = exc.cause.rule
        details["classes"] = [exc.cause.lower, exc.cause.upper]
    return Verdict(FAIL, details, lines)


def dispatch_args(args) -> Verdict:
    try:
        return args.handler(args)
    except _FAIL_ERRORS as exc:
        return _failure_verdict(exc)
    except _INPUT_ERRORS as exc:
        return Verdict(INPUT_ERROR,
                       {"status": INPUT_ERROR, "error": type(exc).__name__,
                        "message": str(exc)})


def cli_dispatch(argv) -> Verdict:
    """Parse arguments and run one subcommand, mapping errors to verdicts."""
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
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv)
    verdict = dispatch_args(args)
    print(render(verdict, args.format))
    summary = {PASS: "PASS", FAIL: "FAIL", INPUT_ERROR: "INPUT ERROR"}[verdict.status]
    message = verdict.details.get("message", "")
    print(f"{summary}" + (f": {message}" if message else ""), file=sys.stderr)
    return verdict.exit_code


if __name__ == "__main__":
    sys.exit(main())
