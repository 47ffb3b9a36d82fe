"""Finite bounded security lattices, kept as bit rows.

A lattice is built from a class list and an arbitrary set of ordered pairs
(lower, upper).  The pairs need not form a Hasse diagram; the reflexive-
transitive closure is computed and redundant pairs are tolerated.

Bit-vector encoding (Ait-Kaci et al., TOPLAS 1989): each class keeps its bit and
its up-set and down-set as int masks, closed by one Tarjan SCC pass and one
sweep in O(classes + pairs) ORs.  leq is one mask test; join(a, b) is the class
whose up-set is up(a) & up(b), meets alike.  A finite poset with a top and every
pairwise meet is a lattice (Davey & Priestley, Introduction to Lattices and
Order, 2002, ch. 2).  A comparable pair meets at its lower member, so the top
and one meet lookup per incomparable pair prove it.  `_order_rows` checks,
indexes and closes the names and pairs of lattices and hierarchies alike.
Constructors check their arguments, and a document reader only its keys.

`Record`, the base of every immutable record of sifc, `_check_document`, the
key check of every document, and `_read_text`, the one reader of documents and
programs, live here too, as each command loads this module anyway.
"""

from __future__ import annotations

import json
import re
from functools import reduce
from itertools import compress
from typing import Callable, Container, Iterable, Iterator, Mapping, NoReturn, Sequence

from .errors import (BadClassName, CycleError, DuplicateClass, LatticeError, NotALattice,
                     UnknownClass)

CLASS_NAME_RE = re.compile(r"[A-Za-z0-9_()+-]+\Z")


class Lattice:
    """A finite bounded lattice over named security classes.

    Immutable after construction.  Each class keeps its bit and its closed up
    row and down row as int masks; `leq` is one mask test, and `join`/`meet`
    look up the class whose up (down) row is the AND of two rows.  Use
    :func:`build_lattice`: this constructor takes closed, antisymmetric rows
    and proves them a lattice by the top and the meet of each incomparable
    pair (Davey & Priestley 2002, ch. 2), or raises NotALattice.
    """

    __slots__ = ("name", "classes", "covers", "top", "bottom",
                 "_bit", "_up", "_down", "_by_up", "_by_down")
    _unknown = UnknownClass  # the error for a name outside the order

    def __init__(self, name: str, classes: tuple[str, ...], covers: tuple[tuple[str, str], ...],
                 up_rows: Sequence[int], down_rows: Sequence[int]):
        # Antisymmetry makes the rows distinct, so each mask names one class.  The
        # meet of a and b is the class whose down row is down(a) & down(b), if any;
        # only an incomparable j > i needs the lookup: a bit above i in neither row.
        by_up, by_down = dict(zip(up_rows, classes)), dict(zip(down_rows, classes))
        everything = (1 << len(classes)) - 1
        if everything not in by_down or not all(
                d & e in by_down for i, (u, d) in enumerate(zip(up_rows, down_rows))
                for e in _members((everything ^ (u | d)) & -2 << i, down_rows)):
            _raise_missing_bound(classes, up_rows, down_rows, by_up, by_down)
        self.name, self.classes, self.covers = name, classes, covers
        self._bit = {c: 1 << i for i, c in enumerate(classes)}
        self._up = dict(zip(classes, up_rows))
        self._down = dict(zip(classes, down_rows))
        self._by_up, self._by_down = by_up, by_down
        self.top, self.bottom = by_down[everything], by_up[everything]

    # -- queries ----------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return isinstance(name, str) and name in self._bit

    def __len__(self) -> int:
        return len(self.classes)

    def index(self, name: str) -> int:
        try:
            return self._bit[name].bit_length() - 1
        except (KeyError, TypeError):
            _miss(self, (name,), self.name)

    def leq(self, a: str, b: str) -> bool:
        """True iff a is permitted to flow to b (a is below-or-equal b)."""
        try:
            return self._up[a] & self._bit[b] != 0
        except (KeyError, TypeError):
            _miss(self, (a, b), self.name)

    def join(self, a: str, b: str) -> str:
        try:
            return self._by_up[self._up[a] & self._up[b]]
        except (KeyError, TypeError):
            _miss(self, (a, b), self.name)

    def meet(self, a: str, b: str) -> str:
        try:
            return self._by_down[self._down[a] & self._down[b]]
        except (KeyError, TypeError):
            _miss(self, (a, b), self.name)

    def join_all(self, items: Iterable[str]) -> str:
        return reduce(self.join, items, self.bottom)

    def meet_all(self, items: Iterable[str]) -> str:
        return reduce(self.meet, items, self.top)

    def upset(self, a: str) -> frozenset[str]:
        """All classes above-or-equal a."""
        return self._set(self._up, a)

    def downset(self, a: str) -> frozenset[str]:
        """All classes below-or-equal a."""
        return self._set(self._down, a)

    def _set(self, rows: Mapping[str, int], a: str) -> frozenset[str]:
        try:
            return frozenset(_members(rows[a], self.classes))
        except (KeyError, TypeError):
            _miss(self, (a,), self.name)

    def sorted_by_index(self, names: Iterable[str]) -> tuple[str, ...]:
        """Deterministic ordering: by position in the class declaration list."""
        return tuple(sorted(names, key=self.index))

    # -- structure --------------------------------------------------------

    def order_pairs(self) -> frozenset[tuple[str, str]]:
        return frozenset((a, b) for a, u in self._up.items() for b in _members(u, self.classes))

    def __eq__(self, other) -> bool:
        # Structural: same order pairs, whose reflexive ones name every class.
        # The display name and the particular cover presentation do not matter.
        if other is self:
            return True
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.order_pairs() == other.order_pairs()

    def __hash__(self) -> int:
        return hash(frozenset(self._bit))

    def __repr__(self) -> str:
        return f"Lattice({self.name!r}, {len(self.classes)} classes)"

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "classes": list(self.classes),
            "covers": [[a, b] for a, b in self.covers],
        }

    @staticmethod
    def from_dict(data: Mapping) -> "Lattice":
        _check_document(data, ("name", "classes", "covers"), (), LatticeError, "lattice")
        return build_lattice(data["name"], data["classes"], data["covers"])


def _check_document(doc, required: Sequence[str], optional: Sequence[str],
                   error: type[Exception], what: str) -> None:
    """Require a JSON object with every `required` key and no key that is
    neither required nor `optional`; raise `error` naming the first offender."""
    if not isinstance(doc, Mapping):
        raise error(f"{what} must be a JSON object")
    for key in (*required, *doc):
        if key not in doc:
            raise error(f"{what} missing {key!r}")
        if key not in required and key not in optional:
            raise error(f"{what} has unknown key {key!r}")


def build_lattice(name: str, classes: Sequence[str],
                  covers: Iterable[tuple[str, str]]) -> Lattice:
    """Validate and build a lattice from classes and a (lower, upper) pair set.

    Raises LatticeError for a name that is not a string, classes not in a list or tuple,
    covers that are not pairs of names or no class at all, BadClassName, DuplicateClass and
    UnknownClass (`_order_rows`) on malformed input, CycleError if the closure is not
    antisymmetric and NotALattice if a pair lacks a unique join or meet.
    """
    if not isinstance(name, str):
        raise LatticeError("lattice name must be a string")
    if not isinstance(classes, (list, tuple)):
        raise LatticeError("classes must be a list of class names")
    classes = tuple(classes)
    up_rows, down_rows, pairs = _order_rows(classes, covers, CLASS_NAME_RE, (
        lambda: LatticeError("covers must be pairs [lower, upper] of class names"),
        BadClassName, DuplicateClass, lambda c: UnknownClass(c, f"covers of lattice {name!r}")))
    cover_list = tuple(dict.fromkeys((lo, hi) for lo, hi in pairs))  # first occurrences, in order

    # The lowest mutual bit above i names the first cyclic (i < j) pair in declaration order.
    for i, (u, d) in enumerate(zip(up_rows, down_rows)):
        if mutual := u & d & -2 << i:  # the bits above i
            raise CycleError((classes[i], next(_members(mutual, classes))))

    return Lattice(name, classes, cover_list, up_rows, down_rows)


def _raise_missing_bound(classes: Sequence[str], up_rows: Sequence[int], down_rows: Sequence[int],
                         by_up: Container[int], by_down: Container[int]) -> NoReturn:
    """Raise NotALattice for the first pair (i <= j) in declaration order,
    join checked before meet, that lacks a least upper or greatest lower
    bound, naming its minimal common upper (maximal common lower) bounds."""
    bounds = (("join", up_rows, by_up), ("meet", down_rows, by_down))
    for i, a in enumerate(classes):
        for j in range(i, len(classes)):
            for kind, rows, by_row in bounds:
                common = rows[i] & rows[j]
                if common not in by_row:
                    below = lambda v, u: rows[v] >> u & 1  # v <= u, dually for meets
                    extrema = _extrema([k for k in range(len(classes)) if common >> k & 1], below)
                    raise NotALattice(kind, (a, classes[j]),
                                      tuple(sorted(classes[k] for k in extrema)))
    raise LatticeError("a lattice needs at least one class")  # no class, so no pair and no top


def _order_rows(names: Sequence[str], pairs: Iterable, pattern: re.Pattern,
                errors: Sequence[Callable[..., Exception]]) -> tuple[list[int], list[int], list]:
    """The up and down `_closure_rows` of the (lower, upper) pairs over `names`, and the
    pairs as a list.  Of errors = (malformed, bad_name, duplicate, unknown), it raises
    malformed() for pairs that are not an iterable of two-string arrays; then, name by
    name, bad_name(c) if c is not a string `pattern` matches and duplicate(c) for a
    repeat; then unknown(end) for the first pair end, lower end first, naming no member."""
    malformed, bad_name, duplicate, unknown = errors
    try:
        pairs = list(pairs)
    except TypeError:  # not iterable
        raise malformed() from None
    if not all(isinstance(p, (list, tuple)) and len(p) == 2 and isinstance(p[0], str)
               and isinstance(p[1], str) for p in pairs):
        raise malformed()
    index: dict[str, int] = {}
    for c in names:
        if not isinstance(c, str) or not pattern.match(c):
            raise bad_name(c)
        if c in index:
            raise duplicate(c)
        index[c] = len(index)
    try:
        edges = [(index[lo], index[hi]) for lo, hi in pairs]
    except KeyError as exc:
        raise unknown(exc.args[0]) from None
    return (*_closure_rows(len(names), edges), pairs)


def _closure_rows(n: int, edges: Iterable[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """Reflexive-transitive closure of a relation on range(n), bit j of up[i] and bit i of
    down[j] set iff j is reachable from i.  One iterative Tarjan pass (SIAM J. Comput. 1,
    1972) finishes components successors first, each up row its members' bits OR their
    successors' rows (0 inside the component); one sweep in reverse, predecessors first,
    ORs each down row onto the successors'.  O(V + E) ORs each; a cycle shares one row."""
    succ: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        succ[i].append(j)
    order, low, up, down, finished = [0] * n, [0] * n, [0] * n, [0] * n, []
    for root in range(n):
        if order[root]:
            continue
        stack, work = [root], [(root, iter(succ[root]), 0)]  # (vertex, successors left, slot)
        order[root] = low[root] = 1  # 1 + stack slot, ordered as discovery while open
        while work:
            v, it, at = work[-1]
            for w in it:
                if not order[w]:
                    work.append((w, iter(succ[w]), len(stack)))
                    stack.append(w)
                    order[w] = low[w] = len(stack)
                    break
                if order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if low[v] < order[v]:  # v's component goes on below it on the stack
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                    continue
                finished.append(members := stack[at:])
                del stack[at:]
                row = 0
                for w in members:
                    row |= 1 << w
                    for x in succ[w]:
                        row |= up[x]
                for w in members:
                    up[w], order[w] = row, n + 1  # finished: above every open order
    for members in reversed(finished):
        row = 0
        for w in members:
            row |= 1 << w | down[w]
        for w in members:
            down[w] = row
            for x in succ[w]:
                down[x] |= row
    return up, down


def _members(mask: int, names: Sequence[str]) -> Iterator[str]:
    """The names whose index bit is set in mask, in index order."""
    return compress(names, bin(mask)[:1:-1].encode().replace(b"0", b"\0"))  # digits, low first


def _extrema(items: Sequence, below: Callable[[object, object], object]) -> list:
    """The minimal elements of items, in input order, where below(v, u) says
    v <= u; passing the converse order yields the maximal elements."""
    return [u for u in items if not any(v != u and below(v, u) for v in items)]


def _miss(order, names: Iterable, where: str = "") -> NoReturn:
    """Called where a read by name failed: raise `order._unknown` for the first of `names` the
    order lacks, hashable or not; if it has them all, the miss is a bug in sifc: re-raise it."""
    if missing := [n for n in names if not isinstance(n, str) or n not in order._bit]:
        raise order._unknown(missing[0], where) from None
    raise


class Record:
    """Base of sifc's records: immutable slotted classes whose fields are their
    `__slots__`, or their `__match_args__` where more slots follow.  Once per class
    this writes an `__init__` over the fields, unless the class has its own.  The
    rest is written here, once, over the field tuple, as `dataclasses` would: the
    repr `Name(field=value, ...)`, `==` only within one class, the hash, and copy
    and pickle through `__init__`.  Assignment and deletion raise AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls):
        names = cls.__match_args__ = cls.__dict__.get("__match_args__", cls.__slots__)
        if "__init__" not in cls.__dict__:
            space = {f"_set_{n}": cls.__dict__[n].__set__ for n in names}  # the slots' own setters
            exec(f"def __init__(self, {', '.join(names)}):\n"
                 + "".join(f" _set_{n}(self, {n})\n" for n in names), space)
            space["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
            cls.__init__ = space["__init__"]

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__match_args__))

    def __eq__(self, other):
        return (self._values() == other._values() if other.__class__ is self.__class__
                else NotImplemented)

    def __hash__(self) -> int:  # the tuple spelled out: no extra frame at the deepest field
        return hash(tuple(map(self.__getattribute__, self.__match_args__)))

    def __repr__(self) -> str:  # one %r per field: a frame per nesting level, no more
        shown = ", ".join([f"{n}=%r" for n in self.__match_args__])
        return f"{self.__class__.__qualname__}({shown})" % self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild a record through its __init__
        return self.__class__, self._values()


def load_lattice(path: str) -> Lattice:
    return Lattice.from_dict(_read_json(path))


def _read_json(path: str):
    return _read_text(path, _loads)


def _read_text(path: str, parse: Callable[[str], object]):
    """parse(the file's UTF-8 text), for documents and programs alike.  A NUL in the path,
    a number too long to convert or nesting too deep to parse is an OSError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise
    except (ValueError, RecursionError) as exc:
        raise OSError(f"cannot read {path!r}: {exc}") from None


# One escape in a JSON string: a surrogate pair, a lone surrogate (group 1),
# any other \uXXXX, or a backslash and one character.
_ESCAPE_RE = re.compile(r"\\(?:u[dD][89abAB][0-9a-fA-F]{2}\\u[dD][c-fC-F][0-9a-fA-F]{2}"
                        r"|u([dD][89a-fA-F][0-9a-fA-F]{2})|u[0-9a-fA-F]{4}|.)")


def _loads(text: str):
    """json.loads, but a key given twice in one object is a JSONDecodeError at the first
    repeat, found by a scan of braces and strings (a key where a colon follows: group 2).
    Then a lone surrogate escape, which decodes to a string that no UTF-8 output can
    print, is a JSONDecodeError where the escape stands."""
    def unique(pairs: list) -> dict:
        if len(obj := dict(pairs)) < len(pairs):
            seen: list[set] = []  # the keys of each open object
            for token in re.finditer(r'("(?:[^"\\]|\\.)*")(\s*:)?|[{}]', text):
                if token[0] == "{":
                    seen.append(set())
                elif token[0] == "}":
                    seen.pop()
                elif token[2]:
                    if (key := json.loads(token[1])) in seen[-1]:
                        raise json.JSONDecodeError(f"repeated key {key!r}", text, token.start())
                    seen[-1].add(key)
        return obj
    doc = json.loads(text, object_pairs_hook=unique)
    if lone := next((m for m in _ESCAPE_RE.finditer(text) if m[1]), None):
        raise json.JSONDecodeError(f"lone surrogate \\u{lone[1]} is not a character",
                                   text, lone.start())
    return doc
