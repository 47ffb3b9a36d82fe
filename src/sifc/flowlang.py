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

The five phrase kinds are declared once, in the table `_PHRASES` that `_read`,
the generator and the parser read.  `_read` alone reads a phrase, and its
reading feeds the checker, the typer and the compiler.  Typing decides each
premise by one mask test on the lattices' bit rows (`_rows`); the
non-interference harness then runs well-typed programs from pairs of stores
that agree below an adversary's level and checks the final stores still
agree there.

Execution runs a compiled body: a flat list of steps, one per variable
update, each a copy or a sum of a constant and variables mod 2^16.  The
suite pays per program for one reading of each phrase, made as the generator
accepts it, one typecheck and one flattening of those readings, one low/high
split per adversary pair (a bit test per declaration) and one pass over all
its trials: that pass draws every store from SplitMix64 at once, packs both
runs of every trial into lanes of one int per variable, runs the steps once
over them and compares the runs with one XOR and one mask.  The generator
draws each choice of a phrase from one float of a seeded `random.Random`.
"""

from __future__ import annotations

import random
import re
from functools import lru_cache
from itertools import count
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from .connection import LagoisConnection
from .errors import (DuplicateVariable, FlowError, FlowTypeError, GenerationStall, IllTyped,
                     KindMismatch, ParseError, StoreDomainError, UndeclaredVariable)
from .lattice import Record, UnknownClass, _check_document

VALUE_MODULUS = 2 ** 16  # stores hold wrap-around integers

DOMAINS = ("L", "M")
_SIDE = {"L": 0, "M": 1}
_SIDE_NAMES = ("left", "right")
KINDS = ("internal", "export", "import")


# -- syntax -------------------------------------------------------------------

class Const(Record):
    __slots__ = ("value",)


class Var(Record):
    __slots__ = ("name",)


class Add(Record):
    __slots__ = ("lhs", "rhs")  # each an Expr


Expr = Const | Var | Add


class VarDecl(Record):
    """domain is "L" or "M", kind one of KINDS, cls a security class in that
    domain's lattice."""
    __slots__ = ("name", "domain", "kind", "cls")


class Txn(Record):
    __slots__ = ("domain", "assigns")  # assigns: tuple[tuple[str, Expr], ...]


class Rd(Record):
    __slots__ = ("domain", "z", "y")


class Wr(Record):
    __slots__ = ("domain", "x", "z")


class Trl(Record):
    """Left import := right export."""
    __slots__ = ("y", "x")


class Tlr(Record):
    """Right import := left export."""
    __slots__ = ("y", "x")


Phrase = Txn | Rd | Wr | Trl | Tlr

# The phrase kinds, each once: word -> (class, target, sources), each end a (side, kind)
# whose side (0 L, 1 M) None is the phrase's own domain, passed first to its class.
_PHRASES = {"txn": (Txn, (None, "internal"), (None, "internal")),
            "rd": (Rd, (None, "internal"), (None, "import")),
            "wr": (Wr, (None, "export"), (None, "internal")),
            "trl": (Trl, (0, "import"), (1, "export")),
            "tlr": (Tlr, (1, "import"), (0, "export"))}
PHRASE_KINDS = tuple(_PHRASES)

# A phrase's reading: its word, the side and kind of its target and of its
# sources, and its updates in order, each (target, source), whose source is a
# variable name or a transaction's (const, names), const plus those variables
# mod 2^16.  `_WORDS` gives a phrase class's word and a copy's getter of its ends.
Source = str | tuple[int, tuple[str, ...]]
Reading = tuple[str, int, str, int, str, tuple[tuple[str, Source], ...]]
_WORDS = {cls: (word, None if cls is Txn else attrgetter(*cls.__match_args__[-2:]))
          for word, (cls, _, _) in _PHRASES.items()}


def _read(p: Phrase, at: str = "") -> Reading:
    """The reading of `p`: a transaction's right-hand side is its `_linear`,
    or a copy if it is one variable alone (stored values are reduced).  A
    FlowError prefixed `at` if `p` is no phrase, its domain is not L or M or a sum is bad."""
    word, ends = _WORDS.get(p.__class__, (None, None))
    if word is None:
        raise FlowError(f"{at}unknown phrase {p!r}")
    _, (tside, tkind), (sside, skind) = _PHRASES[word]
    if tside is None:
        if p.domain not in DOMAINS:
            raise FlowError(f"{at}bad domain {p.domain!r}")
        tside = sside = _SIDE[p.domain]
    updates = (ends(p),) if ends else tuple([
        (target, names[0] if const == 0 and len(names) == 1 else (const, names))
        for target, e in p.assigns for const, names in (_linear(e, at),)])
    return word, tside, tkind, sside, skind, updates


def _names(source: Source) -> tuple[str, ...]:
    """The variables a source reads, in order."""
    return (source,) if source.__class__ is str else source[1]


class PhraseType(Record):
    __slots__ = ("left", "right")


class StorePair(Record):
    __slots__ = ("left", "right")  # each a dict[str, int]


def _linear(e: Expr, at: str) -> tuple[int, tuple[str, ...]]:
    """Flatten a sum into its constant and its variables; addition mod 2^16 is associative, so
    evaluating the flat sum gives the nested one.  The walk keeps its own stack, so no sum is
    too deep for it.  A node not an int Const, str Var or Add is a FlowError prefixed `at`."""
    const, names, todo = 0, [], [e]
    while todo:
        e = todo.pop()
        if isinstance(e, Const) and e.value.__class__ is int:
            const += e.value
        elif isinstance(e, Var) and e.name.__class__ is str:
            names.append(e.name)
        elif isinstance(e, Add):
            todo += (e.rhs, e.lhs)
        else:
            raise FlowError(f"{at}bad expression {e!r}")
    return const % VALUE_MODULUS, tuple(names)


class Program(Record):
    """decls and body are the tuples read; env maps each name to its declaration and
    readings holds each phrase's `_read`, neither a field."""
    __slots__ = ("decls", "body", "env", "readings")
    __match_args__ = ("decls", "body")

    def __init__(self, decls: tuple[VarDecl, ...], body: tuple[Phrase, ...]):
        env: dict[str, VarDecl] = {}
        for d in (decls := _tuple("decls", decls)):
            if not isinstance(d, VarDecl):
                raise FlowError(f"unknown declaration {d!r}")
            if d.name.__class__ is not str or d.cls.__class__ is not str:
                raise FlowError(f"name and class must be strings in {d!r}")
            if d.domain not in DOMAINS:
                raise FlowError(f"bad domain {d.domain!r} for {d.name!r}")
            if d.kind not in KINDS:
                raise FlowError(f"bad kind {d.kind!r} for {d.name!r}")
            if d.name in env:
                raise DuplicateVariable(f"variable {d.name!r} declared twice")
            env[d.name] = d
        body = _tuple("body", body)
        readings = tuple(_check_phrase(env, p, idx) for idx, p in enumerate(body))
        for name, value in zip(self.__slots__, (decls, body, env, readings)):
            object.__setattr__(self, name, value)


def _check_phrase(env: Mapping[str, VarDecl], p: Phrase, idx: int | None) -> Reading:
    """The `_read` of `p`, once `env` declares each of its variables, every
    update's target and then its sources, with the domain and kind its place
    needs; else a FlowError naming phrase `idx`, if given."""
    at = "" if idx is None else f"phrase {idx}: "
    if p.__class__ is Txn and p.domain in DOMAINS and not (isinstance(p.assigns, (tuple, list))
            and all(isinstance(a, (tuple, list)) and len(a) == 2 for a in p.assigns)):
        raise FlowError(f"{at}bad assignments {p.assigns!r}")
    reading = word, tside, tkind, sside, skind, updates = _read(p, at)
    for target, source in updates:
        reads = _names(source) if word == "txn" else (source,)  # a copy's source is one name
        for name, side, kind in [(target, tside, tkind), *((v, sside, skind) for v in reads)]:
            d = env.get(name) if isinstance(name, str) else None
            if d is None:
                raise UndeclaredVariable(f"{at}variable {name!r} is not declared")
            if d.domain != DOMAINS[side] or d.kind != kind:
                raise KindMismatch(f"{at}{name!r} is a {d.domain} {d.kind} variable, "
                                   f"needs a {DOMAINS[side]} {kind} one")
    return reading


# -- execution ----------------------------------------------------------------

# A compiled body is a flat list of steps (dst, target, src, source): store
# `dst` (0 left, 1 right) gets `target` := `source` read in store `src`.
Step = tuple[int, str, int, Source]


def _compile(prog: Program) -> list[Step]:
    """The program's readings flattened into steps, one per update."""
    return [(tside, target, sside, source) for _, tside, _, sside, _, updates in prog.readings
            for target, source in updates]


def _run(steps: list[Step], stores: tuple[dict[str, int], dict[str, int]],
         rep: int, mask: int) -> None:
    """Apply the steps in order to the (left, right) stores, in place.  A
    store may pack many runs' values, each below 2^16, into lanes: `rep` has
    1 in each lane and `mask` 2^16 - 1, and every lane must hold a sum."""
    for dst, target, src, source in steps:
        read = stores[src]
        if source.__class__ is str:
            stores[dst][target] = read[source]
        else:
            const, names = source
            stores[dst][target] = (const * rep + sum(map(read.__getitem__, names))) & mask


def exec_program(prog: Program, init: StorePair) -> StorePair:
    """Fold the phrase semantics over a copy of the initial store pair.

    Transactions apply their assignments in listed order, each reading the
    store as left by the previous assignment; every other phrase updates
    exactly one variable.  Store values are checked as `store_pair_from_dict`
    checks them.
    """
    stores = _store_side(init.left, "left"), _store_side(init.right, "right")
    if [set(init.left), set(init.right)] != [{d.name for d in prog.decls if d.domain == side}
                                             for side in DOMAINS]:
        raise StoreDomainError("initial stores must cover exactly the declared variables")
    stores = tuple({k: v % VALUE_MODULUS for k, v in st.items()} for st in stores)
    _run(_compile(prog), stores, 1, VALUE_MODULUS - 1)
    return StorePair(*stores)


# -- typing ---------------------------------------------------------------------

def _rows(env: Mapping[str, VarDecl], conn: LagoisConnection, names: Iterable[str]) -> dict:
    """Each of `names`, declared in `env`, to the up and down rows of its class and
    the up row of the class that a crossing copy carries it to; the one check that
    a declared class is in its side's lattice (UnknownClass, the first in order)."""
    sides = [(lat._up, lat._down, there._up, carry._table) for lat, there, carry
             in ((conn.left, conn.right, conn.alpha), (conn.right, conn.left, conn.gamma))]
    rows = {}
    for name in names:
        d = env[name]
        up, down, carried, carry = sides[_SIDE[d.domain]]
        if d.cls not in up:
            raise UnknownClass(d.cls, f"declaration of {d.name!r}")
        rows[name] = up[d.cls], down[d.cls], carried[carry[d.cls]]
    return rows


def _premise(rows: dict, reading: Reading) -> tuple[int, int]:
    """The up row of the join of what a phrase reads, carried if it crosses,
    and the down row of the meet of what it writes, each an AND of rows (-1
    for none), on its target side; its premise holds iff they share a class."""
    _, tside, _, sside, _, updates = reading
    up = down = -1
    for target, source in updates:
        down &= rows[target][1]
        for v in _names(source):
            up &= rows[v][0 if sside == tside else 2]
    return up, down


def _fold(rows: dict, conn: LagoisConnection, indices, readings: Iterable[Reading]) -> PhraseType:
    """The meet of the readings' types, one AND of down rows per side and phrase, named
    at the end; FlowTypeError, numbered by `indices`, for the first failing premise."""
    lats = conn.left, conn.right
    meets = [lat._down[lat.top] for lat in lats]
    for index, reading in zip(indices, readings):
        word, tside, _, sside, _, updates = reading
        lat, (up, down) = lats[tside], _premise(rows, reading)
        if not up & down:
            raise FlowTypeError(word, lat._by_up[up], lat._by_down[down], index)
        meets[tside] &= lat._down[lat._by_up.get(up, lat.bottom)] if word == "txn" else down
        if sside != tside:  # a crossing copy reports its source's class on its side
            meets[sside] &= rows[updates[0][1]][1]
    return PhraseType(*(lat._by_down[meet] for lat, meet in zip(lats, meets)))


def typecheck_phrase(env: Mapping[str, VarDecl], conn: LagoisConnection,
                     p: Phrase, index: int | None = None) -> PhraseType:
    """Type one phrase, or raise FlowTypeError if its premise fails.

    Its ends are read off `_PHRASES`.  A transaction's premise is that the join
    of what it reads flows to the meet of what it writes; a copy's, named by its
    word, that the source's class, through gamma (into L) or alpha (into M) if it
    crosses, flows to the target's.  The type is what the phrase reports in
    each domain: a transaction the join of what it reads (the bottom if
    nothing), a copy each moved variable's class on its side, the target's
    where they share one, and the lattice's top on a side it leaves free (the
    identity of the sequence meet).  No premise reads a phrase type.  The
    phrase is first checked against `env` as `Program` checks its body, with
    the same errors, then the classes of the declarations it touches (`_rows`)."""
    reading = _check_phrase(env, p, index)
    names = [v for target, source in reading[5] for v in (target, *_names(source))]
    return _fold(_rows(env, conn, names), conn, (index,), (reading,))


def typecheck(prog: Program, conn: LagoisConnection) -> PhraseType:
    """Meet-fold of the phrase types; the empty program types at the tops.  One
    `_rows` table checks every declared class and decides every premise."""
    return _fold(_rows(prog.env, conn, prog.env), conn, count(), prog.readings)


def lint_transfer_classes(prog: Program, conn: LagoisConnection) -> list[str]:
    """Flag export/import variables whose class is not a budpoint.  Such
    classes still typecheck (the maps are total), but they sit outside the
    negotiated transfer structure."""
    _rows(prog.env, conn, prog.env)
    buds = {"L": conn.budpoints_left, "M": conn.budpoints_right}
    return [f"{d.name}: transfer class {d.cls!r} is not a budpoint" for d in prog.decls
            if d.kind != "internal" and d.cls not in buds[d.domain]]


# -- non-interference harness ----------------------------------------------------

def adversary_pairs(conn: LagoisConnection) -> list[tuple[str, str]]:
    """All observation levels (l, m) that mirror each other across the
    connection: gamma(m) = l and alpha(l) = m.  These are exactly the
    budpoint pairs."""
    return [(l, conn.alpha._table[l]) for l in conn.budpoints_left]


class NiTrialResult(Record):
    """distinguishing is (side, variable) or None; initial and final are the
    two runs' store pairs, or None when the trial keeps no stores."""
    __slots__ = ("passed", "pair", "seed", "distinguishing", "initial", "final")


def _lows(prog: Program, conn: LagoisConnection, pair: tuple[str, str]) -> bytes:
    """Per declaration, in order: 255 if it is at or below the adversary pair
    (low), else 0 (high): one bit test in its side's level's down row.  A pair
    that is not a list or tuple of two class names is a FlowError."""
    if not (isinstance(pair, (tuple, list)) and len(pair) == 2
            and isinstance(pair[0], str) and isinstance(pair[1], str)):
        raise FlowError(f"adversary pair must be two class names, got {pair!r}")
    lats = conn.left, conn.right
    try:
        at = [(lat._bit, lat._down[level]) for lat, level in zip(lats, pair)]
        return bytes([255 if bit[d.cls] & down else 0
                      for d in prog.decls for bit, down in (at[_SIDE[d.domain]],)])
    except KeyError as exc:
        raise UnknownClass(exc.args[0], f"{lats[0].name} or {lats[1].name}") from None


_PASS = 64  # trials per pass of `_trials`, so its ints stay O(declarations)


@lru_cache(maxsize=64)  # keyed by (outputs per seed, seeds)
def _mix_consts(n: int, seeds: int) -> tuple[int, int, int, int]:
    """Counter offsets, and 64, 16 and 1 low bits set per 128-bit lane, output-major."""
    one = int.from_bytes((b"\1" + bytes(15)) * (n * seeds), "little")
    gammas = ((i + 1) * 0x9E3779B97F4A7C15 % 2 ** 64 for i in range(n))
    gammas = b"".join(g.to_bytes(16, "little") * seeds for g in gammas)
    return int.from_bytes(gammas, "little"), one * (2 ** 64 - 1), one * 0xFFFF, one


def _trials(prog: Program, trials: Sequence[tuple[bytes, int]],
            keep_stores: bool = False) -> list:
    """Run a program's trials, each (`_lows` bytes, seed), `_PASS` at a time.

    A trial's runs a and b start from SplitMix64 (Steele, Lea & Flood, OOPSLA
    2014) at `seed mod 2^64`: declaration i takes output z_i mod 2^16, plus,
    if high, 1 + (z_i >> 16) mod (2^16 - 1) in run b.  A pass mixes all its
    outputs in the 128-bit lanes of one int and keeps runs a and b in the two
    64-bit halves of each; a variable's lanes of every trial form one int, so
    the steps run once for all (SIMD within a register: Fisher & Dietz, LCPC
    1998), and one XOR and one mask compare every low variable.  A half holds
    any sum of fewer than 2^48 values below 2^16 without carry.  Returns each
    trial's witness, the first low variable (side, name) whose final values
    differ, or None; with `keep_stores`, (witness, initial, final), each an
    (a, b) pair of stores."""
    steps = _compile(prog)
    places = [(_SIDE[d.domain], d.name) for d in prog.decls]
    n, out = len(places), []

    def lane(stores, k):  # the store pair of run k
        return StorePair(*({x: v >> 64 * k & 0xFFFF for x, v in st.items()} for st in stores))
    for at in range(0, len(trials), _PASS):
        t = len(chunk := trials[at:at + _PASS])
        size, span = 16 * n * t, 16 * t  # bytes of all runs, of a variable's
        low = bytearray(size)  # 0xFFFF in the b halves of low variables
        for j, (lows, _) in enumerate(chunk):
            low[16 * j + 8::span] = low[16 * j + 9::span] = lows
        low = int.from_bytes(low, "little")
        offsets, m64, m16, one = _mix_consts(n, t)
        z = b"".join((seed % 2 ** 64).to_bytes(16, "little") for _, seed in chunk)
        z = (int.from_bytes(z * n, "little") + offsets) & m64
        z = ((z ^ z >> 30) & m64) * 0xBF58476D1CE4E5B9 & m64
        z = ((z ^ z >> 27) & m64) * 0x94D049BB133111EB & m64
        z ^= z >> 31
        s = (z >> 16 & m16) + (z >> 32 & m16) + (z >> 48 & m16)  # as 2^16 = 1 mod
        s = (s & m16) + (s >> 16 & m16)  # 2^16 - 1, the sum of three digits, folded
        s -= (s + one >> 16 & one) * 0xFFFF
        a = z & m16
        runs = a | (a + s + one & m16) << 64  # run b as if every variable were high
        runs = (runs ^ (runs ^ runs << 64) & low).to_bytes(size, "little")
        stores = ({}, {})
        for i, (side, name) in enumerate(places):
            stores[side][name] = int.from_bytes(runs[span * i:span * (i + 1)], "little")
        initial = (dict(stores[0]), dict(stores[1]))
        rep = int.from_bytes((b"\1" + bytes(7)) * 2 * t, "little")
        _run(steps, stores, rep, rep * 0xFFFF)
        final = int.from_bytes(b"".join(stores[side][name].to_bytes(span, "little")
                                        for side, name in places), "little")
        diff = (final ^ final >> 64) & low >> 64  # in the a halves of low variables
        witness = [None] * t
        if diff:  # per trial, the first variable whose half is not 0
            diff = (diff | diff >> 8).to_bytes(size, "little")
            named = [(_SIDE_NAMES[side], name) for side, name in places] + [None]
            witness = [named[n - len(diff[16 * j::span].lstrip(b"\0"))] for j in range(t)]
        out += [(witness[j], *((lane(st, 2 * j), lane(st, 2 * j + 1)) for st in (initial, stores)))
                for j in range(t)] if keep_stores else witness
    return out


def draw_store_pairs(prog: Program, conn: LagoisConnection,
                     pair: tuple[str, str], seed: int) -> tuple[StorePair, StorePair]:
    """Two initial store pairs that agree on every variable at or below the
    adversary pair and differ everywhere else."""
    _require_count("seed", seed, None)
    return _trials(prog, [(_lows(prog, conn, pair), seed)], keep_stores=True)[0][1]


def low_variables(prog: Program, conn: LagoisConnection,
                  pair: tuple[str, str]) -> list[tuple[str, str]]:
    return [(_SIDE_NAMES[_SIDE[d.domain]], d.name)
            for d, low in zip(prog.decls, _lows(prog, conn, pair)) if low]


def _require_well_typed(prog: Program, conn: LagoisConnection) -> None:
    try:
        typecheck(prog, conn)
    except FlowTypeError as exc:
        raise IllTyped(exc) from exc


def ni_trial(prog: Program, conn: LagoisConnection, pair: tuple[str, str],
             seed: int, keep_stores: bool = False) -> NiTrialResult:
    """One non-interference experiment at the given adversary pair.

    Draws two low-agreeing stores, executes both, and passes iff the final
    stores still agree on every low variable.  Refuses ill-typed programs.
    A failure carries both runs' initial and final stores."""
    _require_count("seed", seed, None)
    _require_well_typed(prog, conn)
    [(distinguishing, *stores)] = _trials(prog, [(_lows(prog, conn, pair), seed)], True)
    return NiTrialResult(distinguishing is None, pair, seed, distinguishing,
                         *(stores if distinguishing or keep_stores else (None, None)))


# -- well-typed program generation -------------------------------------------------

def gen_well_typed(decls: Sequence[VarDecl], conn: LagoisConnection,
                   length: int, seed: int,
                   kinds: Sequence[str] = PHRASE_KINDS,
                   stall_limit: int = 10_000) -> Program:
    """Rejection-sample random phrases until the body reaches `length`, keeping each whose
    premise holds: a mask test on one `_rows` table, which checks every declared class.  Each
    choice takes one float r() of `random.Random(seed)`; a pick among n items, seq[int(r() * n)],
    is uniform up to a bias of at most n * 2^-53.  Raises FlowError unless `length` >= 0,
    `seed` and `stall_limit` >= 1 are ints, ValueError if `kinds` is empty or holds an unknown
    kind, both before any draw, and GenerationStall after `stall_limit` consecutive rejections."""
    _require_count("length", length)
    _require_count("seed", seed, None)
    _require_count("stall_limit", stall_limit, 1)
    prog = Program(decls, ())
    rows = _rows(prog.env, conn, prog.env)
    pools = {(side, k): [v.name for v in prog.decls if v.domain == d and v.kind == k]
             for side, d in enumerate(DOMAINS) for k in KINDS}
    for (side, kind), pool in pools.items():
        if not pool:
            raise FlowError(f"need at least one {kind} variable in domain {DOMAINS[side]}")

    r, kinds = random.Random(seed).random, tuple(kinds)
    if not kinds:
        raise ValueError("gen_well_typed needs at least one phrase kind")
    if unknown := [kind for kind in kinds if kind not in PHRASE_KINDS]:
        raise ValueError(f"unknown phrase kind {unknown[0]!r}")
    body, readings, rejections = [], [], 0
    while len(body) < length:
        p = _random_phrase(r, kinds[int(r() * len(kinds))], pools)
        up, down = _premise(rows, reading := _read(p))  # its variables come from the pools
        if up & down:
            body.append(p)
            readings.append(reading)
            rejections = 0
        elif (rejections := rejections + 1) >= stall_limit:
            raise GenerationStall(f"{stall_limit} consecutive rejections; the declared "
                                  f"classes cannot satisfy the requested phrase kinds")
    object.__setattr__(prog, "body", tuple(body))  # each phrase drawn from its kind's pool
    object.__setattr__(prog, "readings", tuple(readings))
    return prog


def _require_count(name: str, count, least: int | None = 0) -> None:
    """A count is an int, not a bool, of at least `least` if that is given (a seed has no
    bound); anything else is a FlowError."""
    if not isinstance(count, int) or isinstance(count, bool):
        raise FlowError(f"{name} must be an integer, got {count!r}")
    if least is not None and count < least:
        raise FlowError(f"{name} must be at least {least}, got {count}")


def _tuple(name: str, items) -> tuple:
    if not hasattr(items, "__iter__"):
        raise FlowError(f"{name} must be iterable, got {items!r}")
    return tuple(items)


def _random_expr(r, names: list[str], depth: int) -> Expr:
    roll = r()
    if depth > 0 and roll < 0.3:
        return Add(_random_expr(r, names, depth - 1), _random_expr(r, names, depth - 1))
    if roll < 0.65 and names:
        return Var(names[int(r() * len(names))])
    return Const(int(r() * 16))


def _random_phrase(r, kind: str, pools) -> Phrase:
    cls, (tside, tkind), (sside, skind) = _PHRASES[kind]
    if own := tside is None:  # drawn, and passed first to the class
        tside = sside = int(r() * 2)
    targets, sources = pools[tside, tkind], pools[sside, skind]
    if cls is Txn:
        assigns = tuple((targets[int(r() * len(targets))], _random_expr(r, sources, 2))
                        for _ in range(1 + (r() < 0.5)))
        return Txn(DOMAINS[tside], assigns)
    target, source = targets[int(r() * len(targets))], sources[int(r() * len(sources))]
    return cls(DOMAINS[tside], target, source) if own else cls(target, source)


# -- suite driver ------------------------------------------------------------------

class NiSuiteReport(Record):
    """Each failure is (program index, pair, trial seed, distinguishing)."""
    __slots__ = ("programs", "pairs", "draws_per_pair", "trials", "failures", "seed")

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
    for name, count in (("programs", programs), ("max_len", max_len), ("draws", draws)):
        _require_count(name, count)
    _require_count("seed", seed, None)
    decls, pairs = _tuple("decls", decls), adversary_pairs(conn)
    if not programs:  # check the declarations as the first program would
        gen_well_typed(decls, conn, 0, seed)
    base, failures = random.Random(seed), []
    for p_idx in range(programs):
        length = base.randrange(max_len + 1)
        prog = gen_well_typed(decls, conn, length, base.getrandbits(48))
        _require_well_typed(prog, conn)
        runs = [(pair, lows, (seed + 1) * 1_000_003 + p_idx * 7919 + pair_idx * 101 + draw)
                for pair_idx, pair in enumerate(pairs)
                for lows in (_lows(prog, conn, pair),) for draw in range(draws)]
        failures += [(p_idx, pair, trial_seed, witness) for (pair, _, trial_seed), witness
                     in zip(runs, _trials(prog, [run[1:] for run in runs])) if witness]
    return NiSuiteReport(programs, tuple(pairs), draws, programs * len(pairs) * draws,
                         tuple(failures), seed)


# -- text format --------------------------------------------------------------------

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"  # a variable name; a term is one or an ASCII numeral
_NAME_RE, _TERM_RE = re.compile(_NAME), re.compile(rf"([0-9]+)|{_NAME}")


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
        if (colon != ":" or kind not in KINDS or domain not in DOMAINS
                or not _NAME_RE.fullmatch(name)):
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
    elif head in _PHRASES and head != "txn":  # a transaction's head is `t`
        cls = _PHRASES[head][0]
        if len(rest) != len(cls.__match_args__):
            raise ParseError(f"cannot parse {line!r}")
        body.append(cls(*rest))
    else:
        raise ParseError(f"unknown statement {head!r}")


def _parse_expr(src: str) -> Expr:
    """A sum of terms: `+` between each two, whitespace around each."""
    if not src.strip():
        raise ParseError("empty expression")
    terms = []
    for term in src.split("+"):
        m = _TERM_RE.fullmatch(term.strip())
        if m is None:
            raise ParseError(f"bad expression {src.strip()!r}")
        terms.append(Const(int(m[0])) if m[1] else Var(m[0]))
    # Pair up neighbours until one term is left: the tree is log2(terms) deep,
    # so recursive walkers (record equality, hash and repr among them)
    # handle a sum of any length.  Addition is associative, so the shape does
    # not change the value.
    while len(terms) > 1:
        paired = [Add(terms[i], terms[i + 1]) for i in range(0, len(terms) - 1, 2)]
        terms = paired + terms[2 * len(paired):]
    return terms[0]


def store_pair_from_dict(data: Mapping) -> StorePair:
    _check_document(data, ("left", "right"), (), StoreDomainError, "store")
    return StorePair(_store_side(data["left"], "left"), _store_side(data["right"], "right"))


def _store_side(values, side: str) -> dict[str, int]:
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
