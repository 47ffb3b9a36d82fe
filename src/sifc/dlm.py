"""Decentralized labels over acts-for hierarchies, and their transport across
a connection between two hierarchies.

Principals are ordered by a reflexive-transitive acts-for relation (a
pre-order: mutual acts-for is allowed).  A policy is an owner together with a
reader set; a label is a conjunction of policies.  Relabeling L1 -> L2 is
permitted when every policy of L1 is subsumed by some policy of L2 (Myers and
Liskov, TOSEM 2000); labels are joined by set union.

The order is decided on a lattice's bit rows, under p <= q iff q acts for p:
each principal has a bit, a down row of the principals it acts for and an up
row of those that act for it.  Policy j subsumes policy i iff down[j.owner]
has i.owner's bit and E_j & ~U_i == 0, where E_j is the OR of the bits of j's
effective readers (its readers and its owner) and U_i the OR of the up rows of
i's: every effective reader of j then acts for some effective reader of i.
The masks are built per call from the labels, in O(readers) dict reads per
policy.  An unknown principal surfaces as a missing key, read in the order
the principals were always checked: the first label before the second, each
policy's owner before its readers.  A cross-domain decision reads its masks
through the principal maps: a connection keeps each hierarchy's bit, down
and up dicts keyed by the other side's principals through alpha or gamma,
built once in O(principals), so lifting a policy costs the same dict reads
as reading it at home and no lifted label is built.

A connection between two hierarchies is checked on these rows by the law
checker of `sifc.connection`, which takes the two orders as it takes two
lattices; equal up rows mean mutual acts-for.  It lifts to labels pointwise:
each policy's owner and readers are pushed through the principal maps.  Each
lifted law holds for every label iff its principal law holds: subsumption
compares owners and effective readers by acts-for and the lifted maps act on
each of them alone, so a principal law carries to every label, and a failure
at p (or p <= q) shows on the owner-only labels {p:} (and {q:}), as
{p:} <= {q:} iff q acts for p.  Declassification transports across the
connection for authority sets that mirror each other.
"""

from __future__ import annotations

import random
import re
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .connection import Violation, _law_violations
from .errors import (AuthorityMismatch, CorollaryViolation, DlmError, LabelSyntaxError,
                     NotLagoisHierarchy, UnknownPrincipal)
from .lattice import Record, _check_document, _members, _miss, _order_rows

TOP = "TOP"
BOT = "BOT"

PRINCIPAL_RE = re.compile(r"[A-Za-z0-9_]+\Z")


class PrincipalsHierarchy:
    """A finite set of principals under the acts-for pre-order, with TOP
    acting for everyone and everyone acting for BOT.

    It keeps a lattice's rows under the order p <= q iff q acts for p: principal
    i has bit 1 << i, `_up[p]` has the bit of every principal acting for p and
    `_down[p]` the bit of every principal p acts for."""

    __slots__ = ("principals", "edges", "_bit", "_up", "_down")
    _unknown = UnknownPrincipal  # the error for a name outside the order

    def __init__(self, principals: Sequence[str], acts_for_edges: Iterable[tuple[str, str]]):
        if not isinstance(principals, (list, tuple)):  # a string would split into letters
            raise DlmError("principals must be a list of principal names")
        names = [*principals, *(p for p in (TOP, BOT) if p not in principals)]
        downs, ups, edges = _order_rows(names, acts_for_edges, PRINCIPAL_RE, (
            lambda: DlmError("acts_for must be pairs [principal, principal]"),
            lambda p: DlmError(f"invalid principal name {p!r}"),
            lambda p: DlmError(f"duplicate principal {p!r}"), UnknownPrincipal))

        # Close the declared edges (p acts for q) only: a down row gains BOT's, and
        # is everyone if it then holds TOP; an up row gains TOP's, likewise with BOT.
        for closed, via, absorbing in ((downs, BOT, TOP), (ups, TOP, BOT)):
            base, bit = closed[names.index(via)], 1 << names.index(absorbing)
            closed[:] = [(1 << len(names)) - 1 if (r | base) & bit else r | base for r in closed]

        self.principals = tuple(names)
        self.edges = tuple((p, q) for p, q in edges)
        self._bit = {p: 1 << i for i, p in enumerate(names)}
        self._up = dict(zip(names, ups))
        self._down = dict(zip(names, downs))

    def __contains__(self, name: str) -> bool:
        return isinstance(name, str) and name in self._bit

    def acts_for(self, p: str, q: str) -> bool:
        """True iff p may perform any action q may (p is at least as trusted)."""
        try:
            return self._down[p] & self._bit[q] != 0
        except (KeyError, TypeError):
            _miss(self, (p, q))

    def equiv(self, p: str, q: str) -> bool:
        return self.acts_for(p, q) and self.acts_for(q, p)

    def to_dict(self) -> dict:
        return {"principals": [p for p in self.principals if p not in (TOP, BOT)],
                "acts_for": [[p, q] for p, q in self.edges]}

    @staticmethod
    def from_dict(data: Mapping) -> "PrincipalsHierarchy":
        _check_document(data, ("principals",), ("acts_for",), DlmError, "hierarchy")
        return PrincipalsHierarchy(data["principals"], data.get("acts_for", []))

    def __repr__(self) -> str:
        return f"PrincipalsHierarchy({len(self.principals)} principals)"


class Policy(Record):
    __slots__ = ("owner", "readers")  # str, frozenset[str]

    def __str__(self) -> str:
        readers = ", ".join(sorted(self.readers))
        return f"{self.owner}: {readers}" if readers else f"{self.owner}:"


class Label(Record):
    __slots__ = ("policies",)  # frozenset[Policy]

    @staticmethod
    def of(*policies: Policy) -> "Label":
        return Label(frozenset(policies))

    @staticmethod
    def empty() -> "Label":
        return Label(frozenset())

    def __str__(self) -> str:
        return format_label(self)


def policy(owner: str, *readers: str) -> Policy:
    return Policy(owner, frozenset(readers))


def _masks(policies: Iterable[Policy], owners: Mapping[str, int],
           readers: Mapping[str, int]) -> list[tuple[int, int]]:
    """Per policy, the owner's mask and the OR of its effective readers'
    masks: (bit, U) from h._bit and h._up for the lower side of the order,
    (down, E) from h._down and h._bit for the upper side.  Each owner is read
    before its readers, so the first KeyError names the first unknown
    principal in that order."""
    out = []
    for pol in policies:
        mask = readers[pol.owner]
        for r in pol.readers:
            mask |= readers[r]
        out.append((owners[pol.owner], mask))
    return out


def _subsumed(below: list[tuple[int, int]], above: list[tuple[int, int]]) -> bool:
    """The one decision loop: every lower policy (bit, U) is subsumed by some
    upper policy (down, E), i.e. down & bit != 0 and E & ~U == 0.  Both lists
    come from `_masks`; an authority adds its owner-only policies to `above`
    as (down, bit)."""
    for owner, cover in below:
        for down, readers in above:
            if down & owner and not readers & ~cover:
                break
        else:
            return False
    return True


def policy_leq(h: PrincipalsHierarchy, i: Policy, j: Policy) -> bool:
    """j subsumes i: j's owner acts for i's owner and every effective reader
    of j acts for some effective reader of i."""
    return label_leq(h, Label.of(i), Label.of(j))


def label_leq(h: PrincipalsHierarchy, l1: Label, l2: Label) -> bool:
    try:
        return _subsumed(_masks(l1.policies, h._bit, h._up),
                         _masks(l2.policies, h._down, h._bit))
    except KeyError:  # the first unknown principal in the order `_masks` reads them
        _miss(h, chain(*((p.owner, *p.readers) for p in chain(l1.policies, l2.policies))))


def label_equiv(h: PrincipalsHierarchy, l1: Label, l2: Label) -> bool:
    return label_leq(h, l1, l2) and label_leq(h, l2, l1)


def label_join(l1: Label, l2: Label) -> Label:
    return Label(l1.policies | l2.policies)


# -- label literals -------------------------------------------------------------

def parse_label(src: str) -> Label:
    """Parse '{o1: r1, r2; o2: r4}'; '{}' is the empty label, '{o:}' owner-only.
    A non-blank reader list names a principal between every two commas."""
    text = src.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise LabelSyntaxError(f"label must be brace-delimited: {src!r}")
    inner = text[1:-1].strip()
    if not inner:
        return Label.empty()
    policies = []
    for part in inner.split(";"):
        if ":" not in part:
            raise LabelSyntaxError(f"policy needs 'owner:' in {part.strip()!r}")
        owner, readers_src = part.split(":", 1)
        owner = owner.strip()
        if not PRINCIPAL_RE.match(owner):
            raise LabelSyntaxError(f"bad owner {owner!r}")
        readers = [r.strip() for r in readers_src.split(",")] if readers_src.strip() else []
        for r in readers:
            if not r:
                raise LabelSyntaxError(f"empty reader name in {part.strip()!r}")
            if not PRINCIPAL_RE.match(r):
                raise LabelSyntaxError(f"bad reader {r!r}")
        policies.append(Policy(owner, frozenset(readers)))
    return Label(frozenset(policies))


def format_label(label: Label) -> str:
    if not label.policies:
        return "{}"
    parts = [str(p) for p in sorted(label.policies,
                                    key=lambda p: (p.owner, sorted(p.readers)))]
    return "{" + "; ".join(parts) + "}"


# -- connections between hierarchies ----------------------------------------------

def hierarchy_violations(left: PrincipalsHierarchy, right: PrincipalsHierarchy,
                         alpha: Mapping[str, str],
                         gamma: Mapping[str, str]) -> list[Violation]:
    """Connection laws over the acts-for pre-orders by the lattice checker, p <= q
    iff q acts for p.  Monotonicity is checked on every related pair, and equal up
    rows mean mutual acts-for."""
    lpairs, rpairs = ([(p, q) for p in h.principals for q in _members(h._up[p], h.principals)]
                      for h in (left, right))
    return _law_violations(left, lpairs, right, rpairs, alpha, gamma)


class PrincipalMapPair(Record):
    """A verified connection between two principals hierarchies.  The maps
    are composed with the hierarchies' masks at the first cross-domain
    decision and kept, so a pair's maps must not change after that."""
    __slots__ = ("left", "right", "alpha", "gamma", "__dict__")  # _through is kept in __dict__
    __match_args__ = ("left", "right", "alpha", "gamma")

    @staticmethod
    def check(left: PrincipalsHierarchy, right: PrincipalsHierarchy,
              alpha: Mapping[str, str], gamma: Mapping[str, str]) -> "PrincipalMapPair":
        violations = hierarchy_violations(left, right, alpha, gamma)
        if violations:
            raise NotLagoisHierarchy(violations)
        return PrincipalMapPair(left, right, dict(alpha), dict(gamma))

    def budpoint_pairs(self) -> list[tuple[str, str]]:
        return [(p, self.alpha[p]) for p in self.left.principals
                if self.gamma[self.alpha[p]] == p]

    @cached_property
    def _through(self) -> dict[str, tuple[dict, dict, dict]]:
        """Per direction, the far hierarchy's bit, down row and up row dicts keyed
        by the near principals through the map ('lr': alpha into right), in
        O(principals).  A principal that the map leaves out or sends outside
        the far hierarchy has no key, so reading it raises KeyError."""
        out = {}
        for direction, table, far in (("lr", self.alpha, self.right),
                                      ("rl", self.gamma, self.left)):
            sent = [(p, q) for p, q in table.items() if q in far._bit]
            out[direction] = tuple({p: masks[q] for p, q in sent}
                                   for masks in (far._bit, far._down, far._up))
        return out


def lift_label(pm: PrincipalMapPair, direction: str, label: Label) -> Label:
    """Map a label pointwise through the principal maps: 'lr' pushes a left
    label right through alpha, 'rl' pulls a right label left through gamma."""
    if direction == "lr":
        table = pm.alpha
    elif direction == "rl":
        table = pm.gamma
    else:
        raise ValueError(f"direction must be 'lr' or 'rl', got {direction!r}")
    try:
        return Label(frozenset([
            Policy(table[p.owner], frozenset(map(table.__getitem__, p.readers)))
            for p in label.policies]))
    except KeyError as exc:  # a verified map covers exactly its domain's principals
        raise UnknownPrincipal(exc.args[0]) from None


# -- lifted laws --------------------------------------------------------------------

_LIFTED = {"Monotone-alpha": "1a", "Monotone-gamma": "1b", "LC1": "2a",
           "LC2": "2b", "LC3": "3a", "LC4": "3b"}


class LiftedReport(Record):
    """failures are (property, witness) pairs; checks count per property."""
    __slots__ = ("passed", "samples", "seed", "checks", "failures")


def random_label(rng: random.Random, principals: Sequence[str]) -> Label:
    """Policy count geometric with mean two (capped at four), readers uniform
    subsets of at most three.  Covers the empty label."""
    count = 1
    while count < 4 and rng.random() < 0.5:
        count += 1
    if rng.random() < 0.1:
        count = 0
    policies = []
    for _ in range(count):
        owner = rng.choice(principals)
        size = rng.randint(0, min(3, len(principals)))
        readers = frozenset(rng.sample(list(principals), size))
        policies.append(Policy(owner, readers))
    return Label(frozenset(policies))


def check_lifted_connection(pm: PrincipalMapPair, samples: int,
                            seed: int) -> LiftedReport:
    """Decide the six lifted laws for every label: both lifted maps monotone
    (1a/1b), both round trips increasing (2a/2b), and both composition
    identities up to label equivalence (3a/3b).

    By the singleton argument of the module docstring this is exactly
    `hierarchy_violations`, its conditions renamed and each witness written
    as owner-only labels ({p:}, or {lo:} <= {hi:} for monotonicity).
    `checks` counts the related pairs on each side for 1a/1b and the
    principals on each side for the rest; `samples` and `seed` are only
    echoed."""
    failures = tuple((_LIFTED[v.condition], " <= ".join(f"{{{p}:}}" for p in v.witness))
                     for v in hierarchy_violations(pm.left, pm.right, pm.alpha, pm.gamma))
    pairs = [sum(row.bit_count() for row in h._down.values()) for h in (pm.left, pm.right)]
    sizes = [len(h.principals) for h in (pm.left, pm.right)]
    checks = {"1a": pairs[0], "1b": pairs[1], "2a": sizes[0], "2b": sizes[1],
              "3a": sizes[0], "3b": sizes[1]}
    return LiftedReport(not failures, samples, seed, checks, failures)


# -- declassification ------------------------------------------------------------------

def authority_label(authority: Iterable[str]) -> Label:
    return Label(frozenset(Policy(p, frozenset()) for p in authority))


def declassify_check(h: PrincipalsHierarchy, authority: Iterable[str],
                     l1: Label, l2: Label) -> bool:
    """May data labeled l1 be released at l2 by owners in `authority`?
    True iff l1 flows to l2 joined with the authority's owner-only label."""
    if isinstance(authority, str):  # a string would split into letters
        raise DlmError("authority must be principal names, not a string")
    try:
        authority = list(authority)
        return _subsumed(_masks(l1.policies, h._bit, h._up),
                         _masks(l2.policies, h._down, h._bit)
                         + [(h._down[p], h._bit[p]) for p in authority])
    except (KeyError, TypeError):
        if not isinstance(authority, list):  # list() raised: not iterable
            raise DlmError(f"authority must be principal names, not {authority!r}") from None
        # Named as a full scan always has: the authority, l1, then l2 joined with the authority.
        joined = l2.policies | authority_label(p for p in authority if isinstance(p, str)).policies
        _miss(h, chain(authority, *((p.owner, *p.readers) for p in chain(l1.policies, joined))))


class CrossDeclassifyResult(Record):
    """near_side is the verdict in the label's home domain, far_side the one
    evaluated across the connection."""
    __slots__ = ("allowed", "near_side", "far_side", "direction")


def cross_declassify_check(pm: PrincipalMapPair,
                           authority_left: Iterable[str],
                           authority_right: Iterable[str],
                           l1: Label, l2: Label,
                           direction: str = "lr") -> CrossDeclassifyResult:
    """Evaluate a declassification across the connection from both ends.

    For direction 'lr', l1 lives in the left domain and l2 in the right:
    the left view asks whether l1 declassifies to the pulled-back l2, the
    right view whether the pushed-forward l1 declassifies to l2.  The two
    verdicts must agree when the authority sets mirror each other and the
    labels stay on transfer principals; disagreement raises
    CorollaryViolation.

    Each side is decided on masks, l2 (near) or l1 (far) read through the
    maps by `PrincipalMapPair._through`, as `declassify_check` decides the
    labels `lift_label` builds; an unknown principal is named as they name it.
    """
    if isinstance(authority_left, str) or isinstance(authority_right, str):
        raise DlmError("authority must be principal names, not a string")
    try:
        a_left, a_right = sorted(set(authority_left)), sorted(set(authority_right))
        for p in a_left:
            if p not in pm.left._bit:
                raise UnknownPrincipal(p)
        for q in a_right:
            if q not in pm.right._bit:
                raise UnknownPrincipal(q)
        if {pm.alpha[p] for p in a_left} != set(a_right):
            raise AuthorityMismatch("alpha image of the left authority must equal "
                                    "the right authority")
        if {pm.gamma[q] for q in a_right} != set(a_left):
            raise AuthorityMismatch("gamma image of the right authority must equal "
                                    "the left authority")
    except KeyError as exc:  # a hand-built pair whose map leaves the principal out
        raise UnknownPrincipal(exc.args[0]) from None
    except TypeError:  # a malformed authority, named as declassify_check names it, or a bug
        for h, authority in ((pm.left, authority_left), (pm.right, authority_right)):
            declassify_check(h, authority, Label.empty(), Label.empty())
        raise

    if direction == "lr":
        near_h, far_h, a_near, a_far, back = pm.left, pm.right, a_left, a_right, "rl"
    elif direction == "rl":
        near_h, far_h, a_near, a_far, back = pm.right, pm.left, a_right, a_left, "lr"
    else:
        raise ValueError(f"direction must be 'lr' or 'rl', got {direction!r}")
    push_bit, _, push_up = pm._through[direction]
    _, pull_down, pull_up = pm._through[back]  # E of up rows: U is up-closed, so alike

    try:
        near = _subsumed(_masks(l1.policies, near_h._bit, near_h._up),
                         _masks(l2.policies, pull_down, pull_up)
                         + [(near_h._down[p], near_h._bit[p]) for p in a_near])
        far = _subsumed(_masks(l1.policies, push_bit, push_up),
                        _masks(l2.policies, far_h._down, far_h._bit)
                        + [(far_h._down[p], far_h._bit[p]) for p in a_far])
    except KeyError:
        # Name the unknown principal as the lifted labels always have: l2
        # pulled back, the near check, l1 pushed forward, the far check.  If
        # they name none, the KeyError is a bug here and propagates.
        declassify_check(near_h, a_near, l1, lift_label(pm, back, l2))
        declassify_check(far_h, a_far, lift_label(pm, direction, l1), l2)
        raise

    if near != far:
        raise CorollaryViolation(
            f"cross-domain declassification verdicts disagree for "
            f"{format_label(l1)} -> {format_label(l2)} ({direction}): "
            f"near={near}, far={far}")
    return CrossDeclassifyResult(near, near, far, direction)
