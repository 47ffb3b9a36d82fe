"""Decentralized labels over acts-for hierarchies, and their transport across
a connection between two hierarchies.

Principals are ordered by a reflexive-transitive acts-for relation (a
pre-order: mutual acts-for is allowed).  A policy is an owner together with a
reader set; a label is a conjunction of policies.  Relabeling L1 -> L2 is
permitted when every policy of L1 is subsumed by some policy of L2 (Myers and
Liskov, TOSEM 2000); labels are joined by set union.

The order is decided on bit masks.  Each principal has a bit, the row of the
principals it acts for (its closure row) and the column of the principals
that act for it.  Policy j subsumes policy i iff row[j.owner] has i.owner's
bit and E_j & ~U_i == 0, where E_j is the OR of the bits of j's effective
readers (its readers and its owner) and U_i the OR of the columns of i's:
every effective reader of j then acts for some effective reader of i.  The
masks are built per call from the labels, in O(readers) dict reads per
policy.  An unknown principal surfaces as a missing key, read in the order
the principals were always checked: the first label before the second, each
policy's owner before its readers.  A cross-domain decision reads its masks
through the principal maps: a connection keeps each hierarchy's bit, row and
column dicts keyed by the other side's principals through alpha or gamma,
built once in O(principals), so lifting a policy costs the same dict reads
as reading it at home and no lifted label is built.

A connection between two hierarchies is checked by the same law evaluator as
one between two lattices (`sifc.connection`), reading p <= q as "q acts for
p" and comparing the composition identities up to mutual acts-for.  It lifts
to labels pointwise: each policy's owner and readers are pushed through the
principal maps.  Each lifted law holds for every label iff its principal law
holds: subsumption compares owners and effective readers by acts-for and the
lifted maps act on each of them alone, so a principal law carries to every
label, and a failure at p (or p <= q) shows on the owner-only labels {p:}
(and {q:}), as {p:} <= {q:} iff q acts for p.  Declassification transports
across the connection for authority sets that mirror each other.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .connection import Violation, _law_violations, _require_total
from .lattice import _check_document, _closure_rows, _is_names, _transpose

TOP = "TOP"
BOT = "BOT"

PRINCIPAL_RE = re.compile(r"[A-Za-z0-9_]+\Z")


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

    def __init__(self, detail: str):
        super().__init__(detail)


class PrincipalsHierarchy:
    """A finite set of principals under the acts-for pre-order, with TOP
    acting for everyone and everyone acting for BOT.

    Principal i has bit 1 << i; `_row[p]` has the bit of every principal p
    acts for and `_col[p]` the bit of every principal acting for p."""

    __slots__ = ("principals", "edges", "_bit", "_row", "_col")

    def __init__(self, principals: Sequence[str], acts_for_edges: Iterable[tuple[str, str]]):
        names = list(principals)
        for required in (TOP, BOT):
            if required not in names:
                names.append(required)
        seen = set()
        for p in names:
            if not PRINCIPAL_RE.match(p or ""):
                raise DlmError(f"invalid principal name {p!r}")
            if p in seen:
                raise DlmError(f"duplicate principal {p!r}")
            seen.add(p)
        edges = []
        for p, q in acts_for_edges:
            if p not in seen:
                raise UnknownPrincipal(p)
            if q not in seen:
                raise UnknownPrincipal(q)
            edges.append((p, q))

        index = {p: i for i, p in enumerate(names)}
        pairs = edges + [(TOP, p) for p in names] + [(p, BOT) for p in names]  # p acts for q
        rows = _closure_rows(len(names), [(index[p], index[q]) for p, q in pairs])

        self.principals = tuple(names)
        self.edges = tuple(edges)
        self._bit = {p: 1 << i for i, p in enumerate(names)}
        self._row = dict(zip(names, rows))
        self._col = dict(zip(names, _transpose(rows)))

    def __contains__(self, name: str) -> bool:
        return name in self._bit

    def acts_for(self, p: str, q: str) -> bool:
        """True iff p may perform any action q may (p is at least as trusted)."""
        try:
            return self._row[p] & self._bit[q] != 0
        except KeyError as exc:
            raise UnknownPrincipal(exc.args[0]) from None

    def equiv(self, p: str, q: str) -> bool:
        return self.acts_for(p, q) and self.acts_for(q, p)

    def to_dict(self) -> dict:
        return {"principals": [p for p in self.principals if p not in (TOP, BOT)],
                "acts_for": [[p, q] for p, q in self.edges]}

    @staticmethod
    def from_dict(data: Mapping) -> "PrincipalsHierarchy":
        _check_document(data, ("principals",), ("acts_for",), DlmError, "hierarchy")
        principals, edges = data["principals"], data.get("acts_for", [])
        if not _is_names(principals):
            raise DlmError("principals must be a list of principal names")
        if not _is_names(edges, pairs=True):
            raise DlmError("acts_for must be pairs [principal, principal]")
        return PrincipalsHierarchy(principals, edges)

    def __repr__(self) -> str:
        return f"PrincipalsHierarchy({len(self.principals)} principals)"


@dataclass(frozen=True, order=True)
class Policy:
    owner: str
    readers: frozenset[str]

    def __str__(self) -> str:
        readers = ", ".join(sorted(self.readers))
        return f"{self.owner}: {readers}" if readers else f"{self.owner}:"


@dataclass(frozen=True)
class Label:
    policies: frozenset[Policy]

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
    masks: (bit, U) from h._bit and h._col for the lower side of the order,
    (row, E) from h._row and h._bit for the upper side.  Each owner is read
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
    upper policy (row, E), i.e. row & bit != 0 and E & ~U == 0.  Both lists
    come from `_masks`; an authority adds its owner-only policies to `above`
    as (row, bit)."""
    for owner, cover in below:
        for row, readers in above:
            if row & owner and not readers & ~cover:
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
        return _subsumed(_masks(l1.policies, h._bit, h._col),
                         _masks(l2.policies, h._row, h._bit))
    except KeyError as exc:
        raise UnknownPrincipal(exc.args[0]) from None


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
    """Connection laws over the acts-for pre-orders, by the lattice checker
    with p <= q read as "q acts for p".  Monotonicity is checked on every
    related pair and the two composition identities compare up to mutual
    acts-for (plain equality on partial orders)."""
    _require_total(left, right, alpha, "alpha", left.principals, UnknownPrincipal)
    _require_total(right, left, gamma, "gamma", right.principals, UnknownPrincipal)

    def side(h: PrincipalsHierarchy) -> tuple:
        names, bit, row, col = h.principals, h._bit, h._row, h._col
        return (names, [(p, q) for p in names for q in names if col[p] & bit[q]],
                lambda p, q: col[p] & bit[q] != 0,
                lambda p, q: row[p] & col[p] & bit[q] != 0)

    return _law_violations(side(left), side(right), alpha, gamma)


@dataclass(frozen=True)
class PrincipalMapPair:
    """A verified connection between two principals hierarchies.  The maps
    are composed with the hierarchies' masks at the first cross-domain
    decision and kept, so a pair's maps must not change after that."""
    left: PrincipalsHierarchy
    right: PrincipalsHierarchy
    alpha: Mapping[str, str]
    gamma: Mapping[str, str]

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
        """Per direction, the far hierarchy's bit, row and column dicts keyed
        by the near principals through the map ('lr': alpha into right), in
        O(principals).  A principal that the map leaves out or sends outside
        the far hierarchy has no key, so reading it raises KeyError."""
        out = {}
        for direction, table, far in (("lr", self.alpha, self.right),
                                      ("rl", self.gamma, self.left)):
            sent = [(p, q) for p, q in table.items() if q in far]
            out[direction] = tuple({p: masks[q] for p, q in sent}
                                   for masks in (far._bit, far._row, far._col))
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


@dataclass(frozen=True)
class LiftedReport:
    passed: bool
    samples: int
    seed: int
    checks: dict[str, int]
    failures: tuple[tuple[str, str], ...]  # (property, witness)


def random_label(rng: random.Random, principals: Sequence[str],
                 max_policies: int = 4, max_readers: int = 3) -> Label:
    """Policy count geometric with mean two (capped), readers uniform small
    subsets.  Covers the empty label."""
    count = 1
    while count < max_policies and rng.random() < 0.5:
        count += 1
    if rng.random() < 0.1:
        count = 0
    policies = []
    for _ in range(count):
        owner = rng.choice(principals)
        size = rng.randint(0, min(max_readers, len(principals)))
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
    pairs = [sum(row.bit_count() for row in h._row.values()) for h in (pm.left, pm.right)]
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
    authority = list(authority)
    try:
        return _subsumed(_masks(l1.policies, h._bit, h._col),
                         _masks(l2.policies, h._row, h._bit)
                         + [(h._row[p], h._bit[p]) for p in authority])
    except KeyError as exc:
        # Name the principal a full scan has always named: the authority,
        # then l1, then l2 joined with the authority's owner-only label.
        joined = label_join(l2, authority_label(authority)).policies
        scan = chain(authority, *((p.owner, *p.readers) for p in chain(l1.policies, joined)))
        raise UnknownPrincipal(next((n for n in scan if n not in h), exc.args[0])) from None


@dataclass(frozen=True)
class CrossDeclassifyResult:
    allowed: bool
    near_side: bool   # verdict evaluated in the label's home domain
    far_side: bool    # verdict evaluated across the connection
    direction: str


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
    a_left = sorted(set(authority_left))
    a_right = sorted(set(authority_right))
    for p in a_left:
        if p not in pm.left:
            raise UnknownPrincipal(p)
    for q in a_right:
        if q not in pm.right:
            raise UnknownPrincipal(q)
    try:
        if {pm.alpha[p] for p in a_left} != set(a_right):
            raise AuthorityMismatch("alpha image of the left authority must equal "
                                    "the right authority")
        if {pm.gamma[q] for q in a_right} != set(a_left):
            raise AuthorityMismatch("gamma image of the right authority must equal "
                                    "the left authority")
    except KeyError as exc:  # a hand-built pair whose map leaves the principal out
        raise UnknownPrincipal(exc.args[0]) from None

    if direction == "lr":
        near_h, far_h, a_near, a_far, back = pm.left, pm.right, a_left, a_right, "rl"
    elif direction == "rl":
        near_h, far_h, a_near, a_far, back = pm.right, pm.left, a_right, a_left, "lr"
    else:
        raise ValueError(f"direction must be 'lr' or 'rl', got {direction!r}")
    push_bit, _, push_col = pm._through[direction]
    _, pull_row, pull_bit = pm._through[back]

    try:
        near = _subsumed(_masks(l1.policies, near_h._bit, near_h._col),
                         _masks(l2.policies, pull_row, pull_bit)
                         + [(near_h._row[p], near_h._bit[p]) for p in a_near])
        far = _subsumed(_masks(l1.policies, push_bit, push_col),
                        _masks(l2.policies, far_h._row, far_h._bit)
                        + [(far_h._row[p], far_h._bit[p]) for p in a_far])
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
