"""Two-domain transfer language: atomic execution, security typing, and a
randomized non-interference harness.

Programs are straight-line sequences of phrases over two connected domains,
"L" (left) and "M" (right).  Each domain owns internal variables, plus
dedicated export and import staging variables through which all cross-domain
copies flow:

    t L { z := e; ... }    atomic transaction over internal variables
    rd L z y               internal := import, within one domain
    wr L x z               export := internal, within one domain
    tlr y x                right import := left export
    trl y x                left import := right export

The four copies are declared once, in the table `_MOVES` that the checker,
compiler, typer, generator and parser read.  Typing checks every phrase
against the two lattices and the connection maps; the non-interference
harness then runs well-typed programs from pairs of stores that agree below
an adversary's level and checks the final stores still agree there.

Execution runs a compiled body: a flat list of steps, one per variable
update, each a copy or a sum of a constant and variables mod 2^16.  The
suite pays per program for one typecheck and one compilation, and per
adversary pair for one low/high split of the declarations; each trial then
pays only for two store draws, two runs of the steps and one comparison of
the low variables.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Mapping, Sequence

from .connection import LagoisConnection
from .lattice import UnknownClass

VALUE_MODULUS = 2 ** 16  # stores hold wrap-around integers

DOMAINS = ("L", "M")
KINDS = ("internal", "export", "import")


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
        self.rule = rule
        self.lower = lower
        self.upper = upper
        self.index = index


class IllTyped(FlowError):
    """The harness refuses to run trials for programs that do not typecheck."""

    def __init__(self, cause: FlowTypeError):
        super().__init__(f"program is not well-typed: {cause}")
        self.cause = cause


class GenerationStall(FlowError):
    pass


# -- syntax -------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Add:
    lhs: "Expr"
    rhs: "Expr"


Expr = Const | Var | Add


@dataclass(frozen=True)
class VarDecl:
    name: str
    domain: str  # "L" | "M"
    kind: str    # "internal" | "export" | "import"
    cls: str     # security class in that domain's lattice


@dataclass(frozen=True)
class Txn:
    domain: str
    assigns: tuple[tuple[str, Expr], ...]


@dataclass(frozen=True)
class Rd:
    domain: str
    z: str
    y: str


@dataclass(frozen=True)
class Wr:
    domain: str
    x: str
    z: str


@dataclass(frozen=True)
class Trl:
    """Left import := right export."""
    y: str
    x: str


@dataclass(frozen=True)
class Tlr:
    """Right import := left export."""
    y: str
    x: str


Phrase = Txn | Rd | Wr | Trl | Tlr

# The copy phrases: word -> (class, target, source), each end a (domain, kind) whose
# domain None is the phrase's own.  Every constructor takes ([domain,] target, source).
_MOVES = {"rd": (Rd, (None, "internal"), (None, "import")),
          "wr": (Wr, (None, "export"), (None, "internal")),
          "trl": (Trl, ("L", "import"), ("M", "export")),
          "tlr": (Tlr, ("M", "import"), ("L", "export"))}
_MOVE_OF = {cls: (word, *target, *source, attrgetter(*[f.name for f in fields(cls)][-2:]))
            for word, (cls, target, source) in _MOVES.items()}
PHRASE_KINDS = ("txn", *_MOVES)


def _move(p: Phrase) -> tuple[str, str, str, str, str, str, str] | None:
    """A copy phrase read through `_MOVES`: its word, then the domain, kind
    and name of its target and of its source.  None for any other phrase."""
    entry = _MOVE_OF.get(p.__class__)
    if entry is None:
        return None
    word, tdom, tkind, sdom, skind, ends = entry
    target, source = ends(p)
    if tdom is None:
        tdom = sdom = p.domain
    return word, tdom, tkind, target, sdom, skind, source


@dataclass(frozen=True)
class PhraseType:
    left: str
    right: str


@dataclass(frozen=True)
class StorePair:
    left: dict[str, int]
    right: dict[str, int]

    def copy(self) -> "StorePair":
        return StorePair(dict(self.left), dict(self.right))


def _linear(e: Expr) -> tuple[int, tuple[str, ...]]:
    """Flatten a sum into its constant and its variables; addition mod 2^16
    is associative, so evaluating the flat sum gives the nested one.  The
    walk keeps its own stack, so no sum is too deep for it."""
    const, names, todo = 0, [], [e]
    while todo:
        e = todo.pop()
        if isinstance(e, Const):
            const += e.value
        elif isinstance(e, Var):
            names.append(e.name)
        else:
            todo += (e.rhs, e.lhs)
    return const % VALUE_MODULUS, tuple(names)


def expr_vars(e: Expr) -> set[str]:
    return set(_linear(e)[1])


@dataclass(frozen=True)
class Program:
    decls: tuple[VarDecl, ...]
    body: tuple[Phrase, ...]
    env: Mapping[str, VarDecl] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        env: dict[str, VarDecl] = {}
        for d in self.decls:
            if d.domain not in DOMAINS:
                raise FlowError(f"bad domain {d.domain!r} for {d.name!r}")
            if d.kind not in KINDS:
                raise FlowError(f"bad kind {d.kind!r} for {d.name!r}")
            if d.name in env:
                raise DuplicateVariable(f"variable {d.name!r} declared twice")
            env[d.name] = d
        object.__setattr__(self, "env", env)
        for idx, p in enumerate(self.body):
            self._check_phrase(p, idx)

    def _need(self, name: str, domain: str, kind: str, idx: int) -> None:
        d = self.env.get(name)
        if d is None:
            raise UndeclaredVariable(f"phrase {idx}: variable {name!r} is not declared")
        if d.domain != domain or d.kind != kind:
            raise KindMismatch(
                f"phrase {idx}: {name!r} is a {d.domain} {d.kind} variable, "
                f"needs a {domain} {kind} one")

    def _check_phrase(self, p: Phrase, idx: int) -> None:
        if isinstance(p, Txn):
            for target, e in p.assigns:
                self._need(target, p.domain, "internal", idx)
                for v in expr_vars(e):
                    self._need(v, p.domain, "internal", idx)
            return
        move = _move(p)
        if move is None:
            raise FlowError(f"phrase {idx}: unknown phrase {p!r}")
        _, tdom, tkind, target, sdom, skind, source = move
        self._need(target, tdom, tkind, idx)
        self._need(source, sdom, skind, idx)

    def variables(self, domain: str) -> tuple[VarDecl, ...]:
        return tuple(d for d in self.decls if d.domain == domain)


# -- execution ----------------------------------------------------------------

# A compiled body is a flat list of steps (dst, target, src, source): store
# `dst` (0 left, 1 right) gets `target` := `source` read in store `src`.  The
# source is a variable name for a copy, or (const, names) for a transaction
# right-hand side, whose value is const plus those variables mod 2^16.
Step = tuple[int, str, int, "str | tuple[int, tuple[str, ...]]"]

_SIDE = {"L": 0, "M": 1}
_SIDE_NAMES = ("left", "right")


def _compile(prog: Program) -> list[Step]:
    steps: list[Step] = []
    for p in prog.body:
        if isinstance(p, Txn):
            side = _SIDE[p.domain]
            for target, e in p.assigns:
                const, names = _linear(e)
                copy = const == 0 and len(names) == 1  # stored values are reduced
                steps.append((side, target, side, names[0] if copy else (const, names)))
        else:  # a copy phrase, the only kind left that Program admits
            _, tdom, _, target, sdom, _, source = _move(p)
            steps.append((_SIDE[tdom], target, _SIDE[sdom], source))
    return steps


def _run(steps: list[Step], stores: tuple[dict[str, int], dict[str, int]]) -> None:
    """Apply the steps in order to the (left, right) stores, in place."""
    for dst, target, src, source in steps:
        read = stores[src]
        if source.__class__ is str:
            stores[dst][target] = read[source]
        else:
            const, names = source
            stores[dst][target] = (const + sum(map(read.__getitem__, names))) % VALUE_MODULUS


def exec_program(prog: Program, init: StorePair) -> StorePair:
    """Fold the phrase semantics over a copy of the initial store pair.

    Transactions apply their assignments in listed order, each reading the
    store as left by the previous assignment; every other phrase updates
    exactly one variable.
    """
    expected_left = {d.name for d in prog.decls if d.domain == "L"}
    expected_right = {d.name for d in prog.decls if d.domain == "M"}
    if set(init.left) != expected_left or set(init.right) != expected_right:
        raise StoreDomainError("initial stores must cover exactly the declared variables")

    stores = ({k: v % VALUE_MODULUS for k, v in init.left.items()},
              {k: v % VALUE_MODULUS for k, v in init.right.items()})
    _run(_compile(prog), stores)
    return StorePair(*stores)


# -- typing ---------------------------------------------------------------------

def _classes(prog_env: Mapping[str, VarDecl], conn: LagoisConnection) -> None:
    for d in prog_env.values():
        lat = conn.left if d.domain == "L" else conn.right
        if d.cls not in lat:
            raise UnknownClass(d.cls, f"declaration of {d.name!r}")


def typecheck_phrase(env: Mapping[str, VarDecl], conn: LagoisConnection,
                     p: Phrase, index: int | None = None) -> PhraseType:
    """Type one phrase, or raise FlowTypeError if its premise fails.

    A transaction's premise is that the join of what it reads flows to the
    meet of what it writes; a copy's, read off `_MOVES` and named by its word,
    that the source's class, through gamma (into L) or alpha (into M) if it
    crosses, flows to the target's.  The type is what the phrase reports in
    each domain: a transaction the join of what it reads (the bottom if
    nothing), a copy each moved variable's class on its side, the target's
    where they share one, and the lattice's top on a side it leaves free (the
    identity of the sequence meet).  No premise reads a phrase type."""
    left, right = conn.left, conn.right
    if isinstance(p, Txn):
        lat = left if p.domain == "L" else right
        read = lat.join_all(env[v].cls for _, e in p.assigns for v in expr_vars(e))
        written = lat.meet_all(env[t].cls for t, _ in p.assigns)
        if not lat.leq(read, written):
            raise FlowTypeError("txn", read, written, index)
        return PhraseType(read, right.top) if p.domain == "L" else \
            PhraseType(left.top, read)
    move = _move(p)
    if move is None:
        raise FlowError(f"unknown phrase {p!r}")
    word, tdom, _, target, sdom, _, source = move
    moved, upper = env[source].cls, env[target].cls
    lat, carry = (left, conn.gamma) if tdom == "L" else (right, conn.alpha)
    lower = moved if sdom == tdom else carry(moved)
    if not lat.leq(lower, upper):
        raise FlowTypeError(word, lower, upper, index)
    if tdom == "L":
        return PhraseType(upper, right.top if sdom == "L" else moved)
    return PhraseType(moved if sdom == "L" else left.top, upper)


def typecheck(prog: Program, conn: LagoisConnection) -> PhraseType:
    """Meet-fold of the phrase types; the empty program types at the tops."""
    _classes(prog.env, conn)
    l, m = conn.left.top, conn.right.top
    for idx, p in enumerate(prog.body):
        t = typecheck_phrase(prog.env, conn, p, idx)
        l = conn.left.meet(l, t.left)
        m = conn.right.meet(m, t.right)
    return PhraseType(l, m)


def lint_transfer_classes(prog: Program, conn: LagoisConnection) -> list[str]:
    """Flag export/import variables whose class is not a budpoint.  Such
    classes still typecheck (the maps are total), but they sit outside the
    negotiated transfer structure."""
    _classes(prog.env, conn)
    warnings = []
    for d in prog.decls:
        if d.kind == "internal":
            continue
        buds = conn.budpoints_left if d.domain == "L" else conn.budpoints_right
        if d.cls not in buds:
            warnings.append(f"{d.name}: transfer class {d.cls!r} is not a budpoint")
    return warnings


# -- non-interference harness ----------------------------------------------------

def adversary_pairs(conn: LagoisConnection) -> list[tuple[str, str]]:
    """All observation levels (l, m) that mirror each other across the
    connection: gamma(m) = l and alpha(l) = m.  These are exactly the
    budpoint pairs."""
    return [(l, conn.alpha(l)) for l in conn.left.classes
            if conn.gamma(conn.alpha(l)) == l]


@dataclass(frozen=True)
class NiTrialResult:
    passed: bool
    pair: tuple[str, str]
    seed: int
    distinguishing: tuple[str, str] | None  # (side, variable)
    initial: tuple[StorePair, StorePair] | None = None
    final: tuple[StorePair, StorePair] | None = None


# The low/high split of a program at an adversary pair: (side, name, low) for
# each declaration, in declaration order, where low means at or below the pair.
Split = tuple[tuple[int, str, bool], ...]


def _split(prog: Program, conn: LagoisConnection, pair: tuple[str, str]) -> Split:
    levels = ((conn.left, pair[0]), (conn.right, pair[1]))
    out = []
    for d in prog.decls:
        side = _SIDE[d.domain]
        lat, level = levels[side]
        out.append((side, d.name, lat.leq(d.cls, level)))
    return tuple(out)


def _draw(split: Split, seed: int) -> tuple[tuple[dict, dict], tuple[dict, dict]]:
    """Two (left, right) store pairs that agree on every low variable and
    differ on every high one; a function of the split and the seed."""
    randrange = random.Random(seed).randrange
    a, b = ({}, {}), ({}, {})
    for side, name, low in split:
        v = randrange(VALUE_MODULUS)
        a[side][name] = v
        b[side][name] = v if low else (v + 1 + randrange(VALUE_MODULUS - 1)) % VALUE_MODULUS
    return a, b


def draw_store_pairs(prog: Program, conn: LagoisConnection,
                     pair: tuple[str, str], seed: int) -> tuple[StorePair, StorePair]:
    """Two initial store pairs that agree on every variable at or below the
    adversary pair and differ everywhere else."""
    a, b = _draw(_split(prog, conn, pair), seed)
    return StorePair(*a), StorePair(*b)


def low_variables(prog: Program, conn: LagoisConnection,
                  pair: tuple[str, str]) -> list[tuple[str, str]]:
    return [(_SIDE_NAMES[side], name)
            for side, name, low in _split(prog, conn, pair) if low]


def _require_well_typed(prog: Program, conn: LagoisConnection) -> None:
    try:
        typecheck(prog, conn)
    except FlowTypeError as exc:
        raise IllTyped(exc) from exc


def _trial(steps: list[Step], split: Split, pair: tuple[str, str], seed: int,
           keep_stores: bool = False) -> NiTrialResult:
    """`ni_trial` on a compiled, already checked program and its split."""
    a, b = _draw(split, seed)
    _run(steps, a)
    _run(steps, b)
    distinguishing = next(((_SIDE_NAMES[side], name) for side, name, low in split
                           if low and a[side][name] != b[side][name]), None)
    if distinguishing is None and not keep_stores:
        return NiTrialResult(True, pair, seed, None)
    initial = _draw(split, seed)  # failures carry both runs: draw them again
    return NiTrialResult(distinguishing is None, pair, seed, distinguishing,
                         (StorePair(*initial[0]), StorePair(*initial[1])),
                         (StorePair(*a), StorePair(*b)))


def ni_trial(prog: Program, conn: LagoisConnection, pair: tuple[str, str],
             seed: int, keep_stores: bool = False) -> NiTrialResult:
    """One non-interference experiment at the given adversary pair.

    Draws two low-agreeing stores, executes both, and passes iff the final
    stores still agree on every low variable.  Refuses ill-typed programs.
    """
    _require_well_typed(prog, conn)
    return _trial(_compile(prog), _split(prog, conn, pair), pair, seed, keep_stores)


# -- well-typed program generation -------------------------------------------------

def gen_well_typed(decls: Sequence[VarDecl], conn: LagoisConnection,
                   length: int, seed: int,
                   kinds: Sequence[str] = PHRASE_KINDS,
                   stall_limit: int = 10_000) -> Program:
    """Rejection-sample random phrases, keeping those whose typing premises
    hold, until the body reaches `length`.  Deterministic for a given seed.
    Raises GenerationStall after `stall_limit` consecutive rejections."""
    prog = Program(tuple(decls), ())
    _classes(prog.env, conn)
    pools = {(d, k): [v.name for v in decls if v.domain == d and v.kind == k]
             for d in DOMAINS for k in KINDS}
    for (domain, kind), pool in pools.items():
        if not pool:
            raise FlowError(f"need at least one {kind} variable in domain {domain}")

    rng = random.Random(seed)
    body: list[Phrase] = []
    rejections = 0
    while len(body) < length:
        p = _random_phrase(rng, rng.choice(list(kinds)), pools)
        try:
            typecheck_phrase(prog.env, conn, p)
        except FlowTypeError:
            rejections += 1
            if rejections >= stall_limit:
                raise GenerationStall(
                    f"{stall_limit} consecutive rejections; the declared "
                    f"classes cannot satisfy the requested phrase kinds")
            continue
        body.append(p)
        rejections = 0
    return Program(tuple(decls), tuple(body))


def _random_expr(rng: random.Random, names: list[str], depth: int) -> Expr:
    roll = rng.random()
    if depth > 0 and roll < 0.3:
        return Add(_random_expr(rng, names, depth - 1),
                   _random_expr(rng, names, depth - 1))
    if roll < 0.65 and names:
        return Var(rng.choice(names))
    return Const(rng.randrange(16))


def _random_phrase(rng: random.Random, kind: str, pools) -> Phrase:
    if kind == "txn":
        domain = rng.choice(DOMAINS)
        internal = pools[(domain, "internal")]
        assigns = tuple(
            (rng.choice(internal), _random_expr(rng, internal, 2))
            for _ in range(rng.randint(1, 2)))
        return Txn(domain, assigns)
    if kind not in _MOVES:
        raise ValueError(f"unknown phrase kind {kind!r}")
    cls, (tdom, tkind), (sdom, skind) = _MOVES[kind]
    own = () if tdom else (rng.choice(DOMAINS),)
    tdom, sdom = (tdom, sdom) if tdom else own * 2
    return cls(*own, rng.choice(pools[tdom, tkind]), rng.choice(pools[sdom, skind]))


# -- suite driver ------------------------------------------------------------------

@dataclass(frozen=True)
class NiSuiteReport:
    programs: int
    pairs: tuple[tuple[str, str], ...]
    draws_per_pair: int
    trials: int
    failures: tuple[tuple[int, tuple[str, str], int, tuple[str, str]], ...]
    seed: int

    @property
    def passed(self) -> bool:
        return not self.failures


def run_ni_suite(decls: Sequence[VarDecl], conn: LagoisConnection,
                 programs: int, max_len: int, seed: int,
                 draws: int = 3) -> NiSuiteReport:
    """Generate `programs` well-typed programs and run every adversary pair
    with `draws` independent store draws each.  Trials are independent and
    deterministically seeded, so the aggregate does not depend on execution
    order."""
    pairs = adversary_pairs(conn)
    base = random.Random(seed)
    failures = []
    trials = 0
    for p_idx in range(programs):
        length = base.randrange(max_len + 1)
        prog = gen_well_typed(decls, conn, length, base.getrandbits(48))
        _require_well_typed(prog, conn)
        steps = _compile(prog)
        for pair_idx, pair in enumerate(pairs):
            split = _split(prog, conn, pair)
            for draw in range(draws):
                trial_seed = ((seed + 1) * 1_000_003 + p_idx * 7919
                              + pair_idx * 101 + draw)
                result = _trial(steps, split, pair, trial_seed)
                trials += 1
                if not result.passed:
                    failures.append((p_idx, pair, trial_seed, result.distinguishing))
    return NiSuiteReport(programs, tuple(pairs), draws, trials,
                         tuple(failures), seed)


# -- text format --------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|:=|[+;]")


def parse_program(text: str) -> Program:
    """Parse the one-statement-per-line program format ('#' starts a comment)."""
    decls: list[VarDecl] = []
    body: list[Phrase] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            _parse_line(line, decls, body)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        except (IndexError, ValueError):
            raise ParseError(f"line {lineno}: cannot parse {line!r}") from None
    try:
        return Program(tuple(decls), tuple(body))
    except FlowError as exc:
        raise ParseError(str(exc)) from None


def _parse_line(line: str, decls: list[VarDecl], body: list[Phrase]) -> None:
    head, *rest = line.split()
    if head == "var":
        domain, name, colon, cls, kind = rest
        if colon != ":" or kind not in KINDS or domain not in DOMAINS:
            raise ParseError(f"malformed declaration {line!r}")
        decls.append(VarDecl(name, domain, kind, cls))
    elif head == "t":
        domain = rest[0]
        if domain not in DOMAINS:
            raise ParseError(f"bad domain {domain!r}")
        prefix, inner = line.split("{", 1)
        if prefix.split() != ["t", domain]:
            raise ParseError("transaction must start with 't <domain> {'")
        if not inner.rstrip().endswith("}"):
            raise ParseError("transaction body must close with '}' on the same line")
        inner = inner.rstrip()[:-1]
        assigns = []
        for stmt in inner.split(";"):
            if not stmt.strip():
                continue
            target, expr_src = stmt.split(":=", 1)
            assigns.append((target.strip(), _parse_expr(expr_src)))
        if not assigns:
            raise ParseError("empty transaction")
        body.append(Txn(domain, tuple(assigns)))
    elif head in _MOVES:
        cls, (tdom, _), _ = _MOVES[head]
        if len(rest) != (3 if tdom is None else 2):
            raise ParseError(f"cannot parse {line!r}")
        body.append(cls(*rest))
    else:
        raise ParseError(f"unknown statement {head!r}")


def _parse_expr(src: str) -> Expr:
    tokens = _TOKEN_RE.findall(src)
    if "".join(tokens) != "".join(src.split()):
        raise ParseError(f"bad expression {src.strip()!r}")
    if not tokens:
        raise ParseError("empty expression")
    terms = []
    expect_term = True
    for tok in tokens:
        if expect_term:
            if tok == "+" or tok == ";":
                raise ParseError(f"bad expression {src.strip()!r}")
            terms.append(Const(int(tok)) if tok.isdigit() else Var(tok))
            expect_term = False
        else:
            if tok != "+":
                raise ParseError(f"bad expression {src.strip()!r}")
            expect_term = True
    if expect_term:
        raise ParseError(f"bad expression {src.strip()!r}")
    # Pair up neighbours until one term is left: the tree is log2(terms) deep,
    # so recursive walkers (dataclass equality, hash and repr among them)
    # handle a sum of any length.  Addition is associative, so the shape does
    # not change the value.
    while len(terms) > 1:
        paired = [Add(terms[i], terms[i + 1]) for i in range(0, len(terms) - 1, 2)]
        terms = paired + terms[2 * len(paired):]
    return terms[0]


def store_pair_from_dict(data: Mapping) -> StorePair:
    if not isinstance(data, Mapping) or set(data) != {"left", "right"}:
        raise StoreDomainError('store document must be {"left": {...}, "right": {...}}')
    return StorePair(_store_side(data, "left"), _store_side(data, "right"))


def _store_side(data: Mapping, side: str) -> dict[str, int]:
    values = data[side]
    if not isinstance(values, Mapping):
        raise StoreDomainError(f"store side {side!r} must be an object of integers")
    for name, value in values.items():
        # bool is a subclass of int, but true is not a stored integer
        if type(value) is not int:
            raise StoreDomainError(f"store value {side}.{name} must be an integer, "
                                   f"got {value!r}")
    return {str(k): v for k, v in values.items()}


def store_pair_to_dict(sp: StorePair) -> dict:
    return {"left": dict(sorted(sp.left.items())),
            "right": dict(sorted(sp.right.items()))}
