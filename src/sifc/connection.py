"""Verified connections between two security lattices.

A connection is a quadruple (L, alpha, gamma, M) of order-preserving maps
alpha: L -> M and gamma: M -> L satisfying

    LC1   l <= gamma(alpha(l))            for every l in L
    LC2   m <= alpha(gamma(m))            for every m in M
    LC3   alpha . gamma . alpha = alpha   pointwise
    LC4   gamma . alpha . gamma = gamma   pointwise

Such a pair of maps lets data flow between the two lattices in both
directions without ever widening what an observer inside either domain may
learn.  The image classes gamma[M] and alpha[L] (the *budpoints*) are
order-isomorphic and carry the whole inter-domain agreement; every other
class is represented by the least budpoint above it.  The laws and every map
check read the lattices' bit rows: x <= y is up[x] & bit[y], and LC3 and LC4
compare up rows, equality by antisymmetry.  An acts-for hierarchy (`sifc.dlm`)
keeps the same rows, so the law checker takes two hierarchies as it takes two
lattices.

Besides verification this module synthesises the right map from the left one
when it exists, builds connections from closure-operator agreements, chains
connections across a middle lattice, decomposes a connection into two
insertions around an isomorphism, and re-establishes a connection after a
coarsening of the left map.
"""

from __future__ import annotations

from contextlib import suppress
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import (AdjointError, CoarsenError, ComposeError, LatticeMismatch, MapError,
                     NotClosure, NotIso, NotLagois, NotMonotone, NotSemiInverse, PartialMap)
from .lattice import Lattice, Record, UnknownClass, _closure_rows, _extrema, _members, _miss

class Violation(Record):
    """One failed connection condition together with a replayable witness."""
    __slots__ = ("condition", "witness")

    def to_json(self) -> dict:
        return {"condition": self.condition, "witness": list(self.witness)}


class MonotoneMap:
    """A total order-preserving function between two lattices."""

    __slots__ = ("source", "target", "_table")

    def __init__(self, source: Lattice, target: Lattice, table: Mapping[str, str],
                 where: str = "map"):
        _require_total(source, target, table, where)
        if broken := next(_unordered(source.covers, table, target), None):
            raise NotMonotone(broken, where)
        self.source, self.target, self._table = source, target, dict(table)

    def __call__(self, c: str) -> str:
        try:
            return self._table[c]
        except (KeyError, TypeError):
            _miss(self.source, (c,), "map domain")

    def mapping(self) -> dict[str, str]:
        """The underlying table, keyed in source declaration order."""
        return {c: self._table[c] for c in self.source.classes}

    def image(self) -> tuple[str, ...]:
        return tuple(sorted(set(self._table.values()), key=self.target._bit.__getitem__))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonotoneMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self._table == other._table)

    def __hash__(self) -> int:
        return hash((self.source, self.target, frozenset(self._table.items())))

    def __repr__(self) -> str:
        return f"MonotoneMap({self.source.name} -> {self.target.name})"


class LagoisConnection(Record):
    """A verified connection: the quadruple (L, alpha, gamma, M).

    budpoints_left is gamma[M] in left declaration order, budpoints_right is
    alpha[L]; kernels group classes that share an image.  Each is read off
    the maps when first asked for and kept, so the maps must not change.
    Only :func:`check_connection` and the constructors in this module build
    these, each having proved the laws, so the constructors trust the ones
    they take.
    """
    __slots__ = ("left", "right", "alpha", "gamma", "__dict__")  # derived fields in __dict__
    __match_args__ = ("left", "right", "alpha", "gamma")

    budpoints_left = cached_property(lambda self: self.gamma.image())
    budpoints_right = cached_property(lambda self: self.alpha.image())
    kernel_left = cached_property(lambda self: tuple(_preimages(self.alpha).values()))
    kernel_right = cached_property(lambda self: tuple(_preimages(self.gamma).values()))

    def __repr__(self) -> str:
        return (f"LagoisConnection({self.left.name} <-> {self.right.name}, "
                f"{len(self.gamma.image())} budpoint pairs)")

    def transpose(self) -> "LagoisConnection":
        """The same agreement viewed from the other domain."""
        return LagoisConnection(self.right, self.left, self.gamma, self.alpha)

    def round_trip_left(self, c: str) -> str:
        return self.gamma(self.alpha(c))

    def round_trip_right(self, c: str) -> str:
        return self.alpha(self.gamma(c))

    def to_dict(self) -> dict:
        return {
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
            "alpha": self.alpha.mapping(),
            "gamma": self.gamma.mapping(),
        }


def connection_violations(left: Lattice, right: Lattice,
                          alpha: Mapping[str, str],
                          gamma: Mapping[str, str]) -> list[Violation]:
    """Evaluate order preservation and LC1-LC4, collecting every violation.

    Raises PartialMap/UnknownClass for maps that are not even total functions
    between the two class sets; those are input errors, not check outcomes.
    Runtime is linear in the lattice sizes plus the cover counts.
    """
    return _law_violations(left, left.covers, right, right.covers, alpha, gamma)


def _law_violations(left, lpairs: Iterable[tuple[str, str]], right,
                    rpairs: Iterable[tuple[str, str]], alpha: Mapping[str, str],
                    gamma: Mapping[str, str]) -> list[Violation]:
    """Order preservation and LC1-LC4 between two orders, lattices or hierarchies, on
    their closed bit rows, x <= y iff _up[x] & _bit[y], after `_require_total` of both
    maps.  Preservation is checked on each side's pairs (lo, hi) with lo <= hi, and LC3
    and LC4 compare up rows, equality on a lattice and mutual order on a pre-order."""
    _require_total(left, right, alpha, "alpha")
    _require_total(right, left, gamma, "gamma")
    lup, lbit, rup, rbit = left._up, left._bit, right._up, right._bit
    out = [Violation("Monotone-alpha", p) for p in _unordered(lpairs, alpha, right)]
    out += [Violation("Monotone-gamma", p) for p in _unordered(rpairs, gamma, left)]
    out += [Violation("LC1", (l,)) for l in lbit if not lup[l] & lbit[gamma[alpha[l]]]]
    out += [Violation("LC2", (m,)) for m in rbit if not rup[m] & rbit[alpha[gamma[m]]]]
    out += [Violation("LC3", (l,)) for l in lbit if rup[alpha[gamma[alpha[l]]]] != rup[alpha[l]]]
    out += [Violation("LC4", (m,)) for m in rbit if lup[gamma[alpha[gamma[m]]]] != lup[gamma[m]]]
    return out


def _unordered(pairs: Iterable[tuple[str, str]], table: Mapping[str, str],
               target) -> Iterator[tuple[str, str]]:
    """The pairs (lo, hi), lazily in order, with table[lo] <= table[hi] false in `target`."""
    up, bit = target._up, target._bit
    return ((lo, hi) for lo, hi in pairs if not up[table[lo]] & bit[table[hi]])


def _require_total(source, target, table: Mapping[str, str], where: str) -> None:
    """Require `table` to map exactly the names of `source`, in declaration order, into
    `target`: PartialMap lists the unmapped names in order; then one key per name and only
    `target._bit` names as values pass, or else `source._unknown` names the first stray."""
    if not isinstance(table, Mapping):
        raise MapError(f"{where} must be a mapping from names to names")
    names = source._bit
    if missing := tuple(c for c in names if c not in table):
        raise PartialMap(missing, where)
    with suppress(TypeError):  # an unhashable value is named below
        if len(table) == len(names) and target._bit.keys() >= set(table.values()):
            return
    for key, value in table.items():
        if key not in source._bit:
            raise source._unknown(key, f"{where} domain")
        if not isinstance(value, str) or value not in target._bit:
            raise source._unknown(value, f"{where} range")


def _preimages(f: MonotoneMap) -> dict[str, tuple[str, ...]]:
    """Each image of f to its block of source classes, in order of first members."""
    blocks: dict[str, list[str]] = {}
    for c in f.source.classes:
        blocks.setdefault(f._table[c], []).append(c)
    return {m: tuple(block) for m, block in blocks.items()}


def check_connection(left: Lattice, right: Lattice,
                     alpha: Mapping[str, str],
                     gamma: Mapping[str, str]) -> LagoisConnection:
    """Verify a raw map pair; return the connection or raise NotLagois with
    every violation found."""
    violations = connection_violations(left, right, alpha, gamma)
    if violations:
        raise NotLagois(violations)
    return _assemble(left, right, alpha, gamma)


def _assemble(left: Lattice, right: Lattice, alpha: Mapping[str, str],
              gamma: Mapping[str, str]) -> LagoisConnection:
    """The connection over maps already proven total, in range, monotone and
    LC1-LC4, by connection_violations or by the caller's own preconditions."""
    return LagoisConnection(left, right, _proven_map(left, right, alpha),
                            _proven_map(right, left, gamma))


def _proven_map(source: Lattice, target: Lattice, table: Mapping[str, str]) -> MonotoneMap:
    """A MonotoneMap over a table already proven total, in range and
    order-preserving, built without re-checking."""
    out = MonotoneMap.__new__(MonotoneMap)
    out.source, out.target, out._table = source, target, dict(table)
    return out


def identity_connection(lat: Lattice) -> LagoisConnection:
    ident = {c: c for c in lat.classes}
    return _assemble(lat, lat, ident, ident)


def budpoint_representative(conn: LagoisConnection, side: str, c: str) -> str:
    """The least budpoint above c: gamma(alpha(c)) on the left side,
    alpha(gamma(c)) on the right."""
    if side == "left":
        return conn.round_trip_left(c)
    if side == "right":
        return conn.round_trip_right(c)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


# -- tightness ------------------------------------------------------------

class TightnessReport(Record):
    __slots__ = ("passed", "failures", "subsets_checked")


def check_tightness(conn: LagoisConnection) -> TightnessReport:
    """Check that each round trip lands on the least budpoint above its argument.

    It does on a verified connection: the round trip is a closure operator
    (monotone, increasing by LC1, idempotent by LC3) whose closed elements are
    the budpoints, and the closure of c is the meet of those above c.  As the
    budpoints are the maps' images, the round trip r of c is one, so one mask
    test per class decides it: c <= r, and r is below every budpoint above c.
    That fixes the top and each meet of two budpoints, so the budpoints are
    meet-closed with no subset enumerated.  `subsets_checked` counts classes.
    """
    failures, alpha, gamma = [], conn.alpha._table, conn.gamma._table
    for side, lat, a, g, buds in (("left", conn.left, alpha, gamma, conn.budpoints_left),
                                  ("right", conn.right, gamma, alpha, conn.budpoints_right)):
        up, bit, budmask = lat._up, lat._bit, sum(map(lat._bit.__getitem__, buds))  # distinct
        failures += [f"{side}:{c}: round trip is not the meet of dominating budpoints"
                     for c in lat.classes
                     if not up[c] & bit[r := g[a[c]]] or up[c] & budmask & ~up[r]]
    return TightnessReport(not failures, tuple(failures), len(alpha) + len(gamma))  # classes


# -- adjoint synthesis -----------------------------------------------------

def find_adjoint(alpha: MonotoneMap) -> MonotoneMap:
    """Synthesise the unique right map making (L, alpha, gamma, M) a verified
    connection, or raise AdjointError naming the first failed condition.

    The three conditions, checked in dependency order on the bit rows:
      1. every nonempty preimage of alpha has a largest member, the one in the AND of its up rows;
      2. for every m, the image classes above m have a smallest member, the one below their
         meet, whose down row one sweep of M's covers ANDs up by up row (an int), tops first;
      3. the largest-preimage elements, ordered as in L, mirror the image order
         exactly (an isomorphism onto alpha[L]); given 1 and 2, iff on M's covers.
    The map is then gamma(m) = largest preimage of (least image class above m).
    It is monotone by 2 and 3, and not re-checked: alpha(gamma(m)) is least
    above m (LC2, LC4), gamma(alpha(l)) the largest preimage of alpha(l) (LC1, LC3).
    """
    left, right = alpha.source, alpha.target
    rup, rbit, blocks = right._up, right._bit, _blocks(alpha)
    image_mask = sum(map(rbit.__getitem__, blocks))

    if m := next((m for m in _members(image_mask, right.classes) if not blocks[m][1]), None):
        raise AdjointError(1, (m,), f"preimage {list(_members(blocks[m][0], left.classes))} "
                                    "has no largest member")
    largest = {m: left.classes[top.bit_length() - 1] for m, (_, top) in blocks.items()}

    meet_row = {m: right._down[m] if rbit[m] & image_mask else -1 for m in right.classes}
    for lo, hi in sorted(right.covers, key=lambda p: rup[p[0]]):  # a superset row is larger
        meet_row[lo] &= meet_row[hi]
    least = {m: rup[m] & image_mask & meet_row[m] for m in right.classes}
    if m := next((m for m in right.classes if not least[m]), None):
        if not (above := list(_members(rup[m] & image_mask, right.classes))):
            raise AdjointError(2, (m,), "no image class above it")
        raise AdjointError(2, (m,), "image classes above it have no smallest member (minimal "
                                    f"ones: {_extrema(above, lambda v, u: rup[v] & rbit[u])})")
    gamma = {m: largest[right.classes[b.bit_length() - 1]] for m, b in least.items()}

    if any(_unordered(right.covers, gamma, left)):
        image_pairs = ((m1, m2) for m1 in _members(image_mask, right.classes)
                       for m2 in _members(rup[m1] & image_mask, right.classes))
        raise AdjointError(3, next(_unordered(image_pairs, largest, left)),
                           "largest-preimage elements do not mirror the image order")

    return _proven_map(right, left, gamma)


def _blocks(f: MonotoneMap) -> dict[str, tuple[int, int]]:
    """Each image of f, by first member, to its block's bits and its largest member's bit, or 0."""
    up, table, blocks = f.source._up, f._table, {}
    for c, b in f.source._bit.items():
        bits, common = blocks.get(m := table[c], (0, -1))
        blocks[m] = bits | b, common & up[c]
    return {m: (bits, bits & common) for m, (bits, common) in blocks.items()}


# -- ab-initio construction -------------------------------------------------

def build_from_closures(left: Lattice, right: Lattice,
                        c: Mapping[str, str], i: Mapping[str, str],
                        h: Mapping[str, str]) -> LagoisConnection:
    """Build a connection from closure operators c on L and i on M whose
    images are order-isomorphic via h: the maps are h.c and inverse(h).i.
    Idempotent c and i fix their images, so each image is its fixed classes, and h
    is an order isomorphism, so the round trips are c and i: LC1-LC4 hold unchecked."""
    _require_closure(left, c, "c")
    _require_closure(right, i, "i")
    image_c = tuple(x for x in left.classes if c[x] == x)
    image_i = tuple(x for x in right.classes if i[x] == x)
    if not isinstance(h, Mapping):
        raise MapError("h must be a mapping from names to names")
    for key, value in h.items():
        for name, where in ((key, "h domain"), (value, "h range")):
            if not isinstance(name, str):
                raise UnknownClass(name, where)
    if set(h.keys()) != set(image_c):
        raise NotIso("h must be defined exactly on the image of c",
                     tuple(sorted(set(h.keys()) ^ set(image_c))))
    if set(h.values()) != set(image_i) or len(set(h.values())) != len(h):
        raise NotIso("h must map one-to-one onto the image of i",
                     tuple(sorted(set(h.values()) ^ set(image_i))))
    for a in image_c:
        for b in image_c:
            if bool(left._up[a] & left._bit[b]) != bool(right._up[h[a]] & right._bit[h[b]]):
                raise NotIso("h does not preserve and reflect order", (a, b))

    h_inv = {v: k for k, v in h.items()}
    alpha = {l: h[c[l]] for l in left.classes}
    gamma = {m: h_inv[i[m]] for m in right.classes}
    return _assemble(left, right, alpha, gamma)


def _require_closure(lat: Lattice, table: Mapping[str, str], name: str) -> None:
    _require_total(lat, lat, table, name)
    if broken := next(_unordered(lat.covers, table, lat), None):
        raise NotClosure(name, "monotone", broken[0])
    if x := next((x for x in lat.classes if not lat._up[x] & lat._bit[table[x]]), None):
        raise NotClosure(name, "increasing", x)
    if x := next((x for x in lat.classes if table[table[x]] != table[x]), None):
        raise NotClosure(name, "idempotent", x)


# -- composition -------------------------------------------------------------

class Composition(Record):
    """admitted_by is "image-subset" or "containment-conditions"."""
    __slots__ = ("connection", "admitted_by")


def compose(ab: LagoisConnection, bc: LagoisConnection) -> Composition:
    """Chain two connections sharing a middle lattice.

    The chained maps are a valid connection exactly when each outer image is
    closed under the other connection's round trip through the middle
    lattice; a one-sided subset relation between the two middle images is a
    sufficient shortcut.  Composites always satisfy LC1 and LC2, and the two
    closure checks give LC3 and LC4, so the result is not re-verified.
    """
    if ab.right != bc.left:
        raise LatticeMismatch("middle lattices differ; cannot compose")

    a1, g1, a2, g2 = ab.alpha._table, ab.gamma._table, bc.alpha._table, bc.gamma._table
    image_a, image_g = set(ab.budpoints_right), set(bc.budpoints_left)
    if x := next((x for x in ab.budpoints_right if g2[a2[x]] not in image_a), None):
        raise ComposeError("left", x)
    if y := next((y for y in bc.budpoints_left if a1[g1[y]] not in image_g), None):
        raise ComposeError("right", y)

    admitted = ("image-subset" if image_g <= image_a or image_a <= image_g
                else "containment-conditions")
    alpha = {l: a2[a1[l]] for l in ab.left.classes}
    gamma = {q: g1[g2[q]] for q in bc.right.classes}
    return Composition(_assemble(ab.left, bc.right, alpha, gamma), admitted)


# -- decomposition ------------------------------------------------------------

class Decomposition(Record):
    """insertion_left . iso . insertion_right recover the original maps.

    insertion_left runs L onto its budpoints (round trip one way, inclusion
    back); iso is the mutually inverse budpoint bijection; insertion_right
    embeds the right budpoints into M with the round trip as its inverse leg.
    """
    __slots__ = ("insertion_left", "iso", "insertion_right")

    def recomposed_alpha(self, c: str) -> str:
        return self.insertion_right.alpha(self.iso[0](self.insertion_left.alpha(c)))

    def recomposed_gamma(self, c: str) -> str:
        return self.insertion_left.gamma(self.iso[1](self.insertion_right.gamma(c)))


def sublattice(lat: Lattice, subset: Iterable[str], name: str) -> Lattice:
    """lat restricted to subset, each row the subset's bits of its parent row, so
    still closed and antisymmetric; every strict order pair is a cover."""
    if not lat._bit.keys() >= (members := set(subset)):
        raise UnknownClass(next(c for c in members if c not in lat._bit), lat.name)
    subset = tuple(c for c in lat.classes if c in members)
    pos = [(lat._bit[b], 1 << k) for k, b in enumerate(subset)]  # (parent bit, own bit)
    up_rows, down_rows = ([sum(new for old, new in pos if rows[c] & old) for c in subset]
                          for rows in (lat._up, lat._down))
    covers = tuple((a, b) for a, u in zip(subset, up_rows) for b in _members(u, subset) if b != a)
    return Lattice(name, subset, covers, up_rows, down_rows)


def decompose(conn: LagoisConnection) -> Decomposition:
    """Split a connection into two insertions around the budpoint iso.  Each
    insertion pairs a round trip, a closure operator by LC1 and LC4 (LC2 and
    LC3), with the inclusion of its image: a connection, not re-verified.
    The iso legs are alpha and gamma on the budpoints, mutually inverse there
    by LC4 (gamma(alpha(gamma(m))) = gamma(m)) and LC3, so not re-checked.
    Each budpoint lattice is closed from an edge (b, rt(c)) per cover (b, c) from a
    budpoint b: if b < b', a covers path from b starts (b, c), so b < rt(c) <= b'."""
    a, g = conn.alpha._table, conn.gamma._table
    r1, r2 = {l: g[a[l]] for l in conn.left.classes}, {m: a[g[m]] for m in conn.right.classes}
    stars = []
    for lat, buds, rt in ((conn.left, conn.budpoints_left, r1),
                          (conn.right, conn.budpoints_right, r2)):
        pos = {b: k for k, b in enumerate(buds)}
        covers = tuple(dict.fromkeys((b, rt[c]) for b, c in lat.covers if b in pos))
        stars.append(Lattice(f"{lat.name}*", buds, covers,
                             *_closure_rows(len(buds), [(pos[b], pos[c]) for b, c in covers])))
    lstar, mstar = stars
    insertion_left = _assemble(conn.left, lstar, r1, {b: b for b in lstar.classes})
    i1 = _proven_map(lstar, mstar, {b: a[b] for b in lstar.classes})
    i2 = _proven_map(mstar, lstar, {b: g[b] for b in mstar.classes})
    insertion_right = _assemble(mstar, conn.right, {b: b for b in mstar.classes}, r2)
    return Decomposition(insertion_left, (i1, i2), insertion_right)


# -- maintenance --------------------------------------------------------------

def coarsen(conn: LagoisConnection, alpha2: MonotoneMap) -> LagoisConnection:
    """Replace alpha with a coarser map and rebuild the right map as
    gamma . alpha' . gamma.

    alpha' must merge whole kernel blocks of alpha, each merged block must have
    a largest member, one bit test (`_blocks`), and alpha' must send the block
    where alpha sent that largest member.  These imply the laws, not re-verified:
    a merged block's largest member r is the largest of its alpha-block, so
    gamma(alpha(r)) = r and gamma'(alpha'(l)) = r >= l; LC2-LC4 follow.
    """
    if alpha2.source != conn.left or alpha2.target != conn.right:
        raise LatticeMismatch("replacement map must connect the same lattices")

    new, old, g = alpha2._table, conn.alpha._table, conn.gamma._table
    for a, *rest in conn.kernel_left:
        if b := next((c for c in rest if new[c] != new[a]), None):
            raise CoarsenError("not-refinement", (a, b),
                               f"{a!r} and {b!r} shared an image before but not after")

    for bits, top in _blocks(alpha2).values():
        if not top:
            block = tuple(_members(bits, conn.left.classes))
            raise CoarsenError("no-largest-element", block,
                               f"merged class {list(block)} has no largest member")
        rep = conn.left.classes[top.bit_length() - 1]
        if new[rep] != old[rep]:
            raise CoarsenError("representative-mismatch", (rep,),
                               f"largest member {rep!r} must keep its old image "
                               f"{old[rep]!r}, got {new[rep]!r}")

    gamma2 = {m: g[new[g[m]]] for m in conn.right.classes}
    return _assemble(conn.left, conn.right, alpha2.mapping(), gamma2)


def semi_inverse_connection(alpha1: MonotoneMap, gamma1: MonotoneMap) -> LagoisConnection:
    """Given alpha with a semi-inverse (alpha . gamma . alpha = alpha), build
    the candidate pair (alpha, gamma . alpha . gamma) and verify it.

    The construction always restores the two composition identities, but not
    necessarily LC1/LC2; verification runs in full and NotLagois reports any
    residual violations.
    """
    if gamma1.source != alpha1.target or gamma1.target != alpha1.source:
        raise LatticeMismatch("gamma must run opposite to alpha")
    a, g = alpha1._table, gamma1._table
    for l in alpha1.source.classes:
        if a[g[a[l]]] != a[l]:
            raise NotSemiInverse(l)
    gamma2 = {m: g[a[g[m]]] for m in gamma1.source.classes}
    return check_connection(alpha1.source, alpha1.target, alpha1.mapping(), gamma2)
