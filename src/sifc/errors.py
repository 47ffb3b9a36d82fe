"""Every typed error of sifc.  This module imports nothing, so the CLI can
name the errors it maps to exit codes without loading the modules that raise them."""

from __future__ import annotations


class LatticeError(Exception):
    """Base class for lattice construction and query errors."""


class DuplicateClass(LatticeError):
    def __init__(self, name: str):
        super().__init__(f"duplicate class name {name!r}")
        self.name = name


class BadClassName(LatticeError):
    def __init__(self, name: str):
        super().__init__(f"invalid class name {name!r} (must match [A-Za-z0-9_()+-]+)")
        self.name = name


class UnknownClass(LatticeError):
    def __init__(self, name: str, where: str = ""):
        detail = f" in {where}" if where else ""
        super().__init__(f"unknown class {name!r}{detail}")
        self.name = name


class CycleError(LatticeError):
    def __init__(self, pair: tuple[str, str]):
        super().__init__(f"classes {pair[0]!r} and {pair[1]!r} are mutually below each other")
        self.pair = pair


class NotALattice(LatticeError):
    def __init__(self, kind: str, pair: tuple[str, str], candidates: tuple[str, ...]):
        bound = "least upper bound" if kind == "join" else "greatest lower bound"
        if candidates:
            detail = f"minimal candidates {list(candidates)}"
        else:
            detail = "no common bound at all"
        super().__init__(f"pair ({pair[0]!r}, {pair[1]!r}) has no unique {bound}: {detail}")
        self.kind, self.pair, self.candidates = kind, pair, candidates


class MapError(Exception):
    """Base class for map validation errors."""


class PartialMap(MapError):
    def __init__(self, missing: tuple[str, ...], where: str = "map"):
        super().__init__(f"{where} leaves {list(missing)} unmapped")
        self.missing = missing


class NotMonotone(MapError):
    def __init__(self, pair: tuple[str, str], where: str = "map"):
        super().__init__(f"{where} is not order-preserving at {pair[0]!r} <= {pair[1]!r}")
        self.pair = pair


class NotLagois(Exception):
    """Raised when a candidate map pair fails verification."""

    def __init__(self, violations: list[Violation]):
        lines = ", ".join(f"{v.condition}@{'/'.join(v.witness)}" for v in violations)
        super().__init__(f"not a valid connection: {lines}")
        self.violations = violations


class LatticeMismatch(MapError):
    pass


class AdjointError(Exception):
    """Synthesis of the right map failed; `condition` is 1, 2 or 3."""

    def __init__(self, condition: int, witness: tuple[str, ...], detail: str):
        super().__init__(f"no adjoint: condition ({condition}) fails at "
                         f"{'/'.join(witness)}: {detail}")
        self.condition, self.witness = condition, witness


class NotClosure(Exception):
    def __init__(self, operator: str, law: str, witness: str):
        super().__init__(f"{operator} is not a closure operator: "
                         f"{law} fails at {witness!r}")
        self.operator, self.law, self.witness = operator, law, witness


class NotIso(Exception):
    def __init__(self, detail: str, witness: tuple[str, ...]):
        super().__init__(f"not an order isomorphism: {detail} (witness {list(witness)})")
        self.witness = witness


class ComposeError(Exception):
    """A containment condition for chaining two connections failed."""

    def __init__(self, side: str, witness: str):
        which = ("image of the left connection's alpha" if side == "left"
                 else "image of the right connection's gamma")
        super().__init__(f"composition rejected: the {which} is not closed "
                         f"under the middle round trip (witness {witness!r})")
        self.side, self.witness = side, witness


class CoarsenError(Exception):
    """kind is one of not-refinement, no-largest-element, representative-mismatch."""

    def __init__(self, kind: str, witness: tuple[str, ...], detail: str):
        super().__init__(f"coarsening rejected ({kind}): {detail}")
        self.kind, self.witness = kind, witness


class NotSemiInverse(Exception):
    def __init__(self, witness: str):
        super().__init__(f"alpha . gamma . alpha differs from alpha at {witness!r}")
        self.witness = witness


class FlowError(Exception):
    pass


class DuplicateVariable(FlowError):
    pass


class UndeclaredVariable(FlowError):
    pass


class KindMismatch(FlowError):
    pass


class StoreDomainError(FlowError):
    pass


class ParseError(FlowError):
    pass


class FlowTypeError(FlowError):
    """A typing premise failed: `rule` names the offending construct and
    (lower, upper) is the comparison that did not hold."""

    def __init__(self, rule: str, lower: str, upper: str, index: int | None = None):
        at = f" (phrase {index})" if index is not None else ""
        super().__init__(f"rule {rule}{at}: {lower!r} must flow to {upper!r}")
        self.rule, self.lower, self.upper, self.index = rule, lower, upper, index


class IllTyped(FlowError):
    """The harness refuses to run trials for programs that do not typecheck."""

    def __init__(self, cause: FlowTypeError):
        super().__init__(f"program is not well-typed: {cause}")
        self.cause = cause


class GenerationStall(FlowError):
    pass


class DlmError(Exception):
    pass


class UnknownPrincipal(DlmError):
    def __init__(self, name: str, where: str = ""):
        detail = f" in {where}" if where else ""
        super().__init__(f"unknown principal {name!r}{detail}")
        self.name = name


class LabelSyntaxError(DlmError):
    pass


class NotLagoisHierarchy(DlmError):
    def __init__(self, violations: list[Violation]):
        lines = ", ".join(f"{v.condition}@{'/'.join(v.witness)}" for v in violations)
        super().__init__(f"principal maps are not a valid connection: {lines}")
        self.violations = violations


class AuthorityMismatch(DlmError):
    pass


class CorollaryViolation(DlmError):
    """The two sides of the cross-domain declassification test disagreed."""
