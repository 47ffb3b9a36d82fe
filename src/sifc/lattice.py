"""Finite bounded security lattices with precomputed order, join and meet tables.

A lattice is built from a class list and an arbitrary set of ordered pairs
(lower, upper).  The pairs need not form a Hasse diagram; the reflexive-
transitive closure is computed and redundant pairs are tolerated.  After
construction every order query is a table lookup.

Construction uses the bit-vector encoding of Ait-Kaci et al. (TOPLAS 1989):
up-sets are int bitmasks closed by Warshall over bit rows (O(n^2) big-int
operations), and join(a, b) is the class whose up-set is up(a) & up(b), meets
alike with down-sets, so the tables fill with O(n^2) dict lookups.
"""

from __future__ import annotations

import json
import re
from itertools import compress
from typing import Callable, Collection, Iterable, Mapping, Sequence

CLASS_NAME_RE = re.compile(r"[A-Za-z0-9_()+-]+\Z")


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
        self.kind = kind
        self.pair = pair
        self.candidates = candidates


class Lattice:
    """A finite bounded lattice over named security classes.

    Immutable after construction; `leq`, `join` and `meet` are pure table
    reads.  Use :func:`build_lattice` to construct one.
    """

    __slots__ = ("name", "classes", "covers", "top", "bottom",
                 "_index", "_up", "_down", "_join", "_meet")

    def __init__(self, name: str, classes: tuple[str, ...], covers: tuple[tuple[str, str], ...],
                 up: dict[str, frozenset[str]], down: dict[str, frozenset[str]],
                 join_table: dict[tuple[str, str], str], meet_table: dict[tuple[str, str], str],
                 top: str, bottom: str):
        self.name = name
        self.classes = classes
        self.covers = covers
        self._index = {c: i for i, c in enumerate(classes)}
        self._up = up
        self._down = down
        self._join = join_table
        self._meet = meet_table
        self.top = top
        self.bottom = bottom

    # -- queries ----------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.classes)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownClass(name, self.name) from None

    def leq(self, a: str, b: str) -> bool:
        """True iff a is permitted to flow to b (a is below-or-equal b)."""
        up = self._up
        ua = up.get(a)
        if ua is None:
            raise UnknownClass(a, self.name)
        if b not in up:
            raise UnknownClass(b, self.name)
        return b in ua

    def join(self, a: str, b: str) -> str:
        try:
            return self._join[(a, b)]
        except KeyError:
            raise UnknownClass(a if a not in self._index else b, self.name) from None

    def meet(self, a: str, b: str) -> str:
        try:
            return self._meet[(a, b)]
        except KeyError:
            raise UnknownClass(a if a not in self._index else b, self.name) from None

    def join_all(self, items: Iterable[str]) -> str:
        out = self.bottom
        for c in items:
            out = self.join(out, c)
        return out

    def meet_all(self, items: Iterable[str]) -> str:
        out = self.top
        for c in items:
            out = self.meet(out, c)
        return out

    def upset(self, a: str) -> frozenset[str]:
        """All classes above-or-equal a."""
        try:
            return self._up[a]
        except KeyError:
            raise UnknownClass(a, self.name) from None

    def downset(self, a: str) -> frozenset[str]:
        """All classes below-or-equal a."""
        try:
            return self._down[a]
        except KeyError:
            raise UnknownClass(a, self.name) from None

    def sorted_by_index(self, names: Iterable[str]) -> tuple[str, ...]:
        """Deterministic ordering: by position in the class declaration list."""
        return tuple(sorted(names, key=self.index))

    # -- structure --------------------------------------------------------

    def order_pairs(self) -> frozenset[tuple[str, str]]:
        return frozenset((a, b) for a in self.classes for b in self._up[a])

    def __eq__(self, other) -> bool:
        # Structural: same class set and same order.  The display name and the
        # particular cover presentation do not matter.
        if other is self:
            return True
        if not isinstance(other, Lattice):
            return NotImplemented
        return (set(self.classes) == set(other.classes)
                and self.order_pairs() == other.order_pairs())

    def __hash__(self) -> int:
        return hash(frozenset(self.classes))

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
        name, classes, covers = data["name"], data["classes"], data["covers"]
        if not isinstance(name, str):
            raise LatticeError("lattice name must be a string")
        if not _is_names(classes):
            raise LatticeError("classes must be a list of class names")
        if not _is_names(covers, pairs=True):
            raise LatticeError("covers must be pairs [lower, upper] of class names")
        return build_lattice(name, classes, covers)


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


def _is_names(value, pairs: bool = False) -> bool:
    """A JSON array of strings, or of two-string arrays if `pairs`.  A string
    is iterable too, but splitting one would invent names."""
    return isinstance(value, (list, tuple)) and all(
        _is_names(v) and len(v) == 2 if pairs else isinstance(v, str) for v in value)


def build_lattice(name: str, classes: Sequence[str],
                  covers: Iterable[tuple[str, str]]) -> Lattice:
    """Validate and build a lattice from classes and a (lower, upper) pair set.

    Raises DuplicateClass, BadClassName, UnknownClass on malformed input;
    CycleError when the closure is not antisymmetric; NotALattice when some
    pair of classes lacks a unique join or meet.
    """
    classes = tuple(classes)
    if not classes:
        raise LatticeError("a lattice needs at least one class")
    seen = set()
    for c in classes:
        if not isinstance(c, str) or not CLASS_NAME_RE.match(c):
            raise BadClassName(c)
        if c in seen:
            raise DuplicateClass(c)
        seen.add(c)

    cover_list: list[tuple[str, str]] = []
    cover_seen = set()
    for lo, hi in covers:
        if lo not in seen:
            raise UnknownClass(lo, f"covers of lattice {name!r}")
        if hi not in seen:
            raise UnknownClass(hi, f"covers of lattice {name!r}")
        if (lo, hi) not in cover_seen:
            cover_seen.add((lo, hi))
            cover_list.append((lo, hi))

    n = len(classes)
    index = {c: i for i, c in enumerate(classes)}
    up_rows = _closure_rows(n, ((index[lo], index[hi]) for lo, hi in cover_list))
    down_rows = _transpose(up_rows)  # down-sets are the converse relation

    # The lowest mutual bit above i names the first cyclic (i < j) pair in declaration order.
    for i, (u, d) in enumerate(zip(up_rows, down_rows)):
        mutual = (u & d) >> (i + 1)
        if mutual:
            j = i + (mutual & -mutual).bit_length()
            raise CycleError((classes[i], classes[j]))

    up = {c: _members(u, classes) for c, u in zip(classes, up_rows)}
    down = {c: _members(d, classes) for c, d in zip(classes, down_rows)}

    # Antisymmetry makes the rows distinct, so each mask names one class.  A
    # least upper bound of a and b is exactly a class whose up-set is the set
    # of common upper bounds, so a lookup miss means "not a lattice".
    by_up = dict(zip(up_rows, classes))
    by_down = dict(zip(down_rows, classes))
    join_table: dict[tuple[str, str], str] = {}
    meet_table: dict[tuple[str, str], str] = {}
    for i, a in enumerate(classes):
        ua, da = up_rows[i], down_rows[i]
        for j in range(i, n):
            b = classes[j]
            lub = by_up.get(ua & up_rows[j])
            if lub is None:
                raise NotALattice("join", (a, b),
                                  tuple(sorted(_extrema(up[a] & up[b], up.get))))
            join_table[(a, b)] = join_table[(b, a)] = lub
            glb = by_down.get(da & down_rows[j])
            if glb is None:
                raise NotALattice("meet", (a, b),
                                  tuple(sorted(_extrema(down[a] & down[b], down.get))))
            meet_table[(a, b)] = meet_table[(b, a)] = glb

    everything = (1 << n) - 1
    return Lattice(name, classes, tuple(cover_list), up, down,
                   join_table, meet_table, by_down[everything], by_up[everything])


def _closure_rows(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Reflexive-transitive closure of a relation on range(n): bit j of row i
    is set iff j is reachable from i.  Warshall over bit rows, so self-loops
    and cycles (pre-orders) need no special case."""
    rows = [1 << i for i in range(n)]
    for i, j in edges:
        rows[i] |= 1 << j
    for k in range(n):
        bit, row_k = 1 << k, rows[k]
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= row_k
    return rows


def _transpose(rows: Sequence[int]) -> list[int]:
    """The converse of a relation on range(len(rows)) given by bit rows: bit
    i of row j is set iff bit j of row i is.  Transposes the bit matrix by
    its binary digits, one string per row."""
    n = len(rows)
    digits = [format(r, f"0{n}b") for r in reversed(rows)]
    return [int("".join(col), 2) for col in zip(*digits)][::-1]


def _members(mask: int, names: Sequence[str]) -> frozenset[str]:
    """The names whose index bit is set in mask."""
    return frozenset(compress(names, map("1".__eq__, reversed(bin(mask)))))


def _extrema(items: Collection[str], up: Callable[[str], frozenset[str]]) -> list[str]:
    """The minimal elements of items, in input order, given each element's
    up-set; passing down-sets instead yields the maximal elements."""
    return [u for u in items if not any(v != u and u in up(v) for v in items)]


def load_lattice(path: str) -> Lattice:
    with open(path, "r", encoding="utf-8") as fh:
        return Lattice.from_dict(json.load(fh))
