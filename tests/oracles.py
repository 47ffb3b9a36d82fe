"""Independent brute-force oracles used to cross-check the library.

Everything here recomputes order structure from raw class lists and cover
pairs with plain DFS/enumeration, deliberately avoiding the library's bit
rows.  `closure_rows` is Warshall's closure over bit rows, the reference for
the library's linear-time closure.  The one exception, `reference_sublattice`,
rebuilds a restriction through `build_lattice` as the reference for
`connection.sublattice`.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import chain, combinations, product
from operator import or_

from sifc import flowlang
from sifc.dlm import random_label
from sifc.flowlang import Add, Const, Rd, StorePair, Trl, Txn, Var, Wr
from sifc.lattice import build_lattice


def reach_table(classes, covers) -> dict[str, set[str]]:
    """Reflexive-transitive reachability over covers, by DFS per class."""
    succ = {c: [] for c in classes}
    for lo, hi in covers:
        succ[lo].append(hi)
    table = {}
    for c in classes:
        seen = {c}
        stack = [c]
        while stack:
            cur = stack.pop()
            for nxt in succ[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        table[c] = seen
    return table


def closure_rows(n: int, edges) -> list[int]:
    """Reflexive-transitive closure of a relation on range(n) by Warshall's
    algorithm (J. ACM 9, 1962) over bit rows: bit j of row i is set iff j is
    reachable from i.  Self-loops and cycles need no special case."""
    rows = [1 << i for i in range(n)]
    for i, j in edges:
        rows[i] |= 1 << j
    for k in range(n):
        bit, row_k = 1 << k, rows[k]
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= row_k
    return rows


def converse_rows(rows) -> list[int]:
    """The transpose of a bit matrix: bit i of row j is set iff bit j of row i is."""
    return [sum((row >> j & 1) << i for i, row in enumerate(rows)) for j in range(len(rows))]


def brute_leq(classes, covers, a, b) -> bool:
    return b in reach_table(classes, covers)[a]


def brute_bounds(classes, reach, a, b, upper: bool):
    """All common upper (or lower) bounds of a and b."""
    if upper:
        return [c for c in classes if c in reach[a] and c in reach[b]]
    return [c for c in classes if a in reach[c] and b in reach[c]]


def brute_join(classes, reach, a, b):
    """Unique least common upper bound, or None."""
    ubs = brute_bounds(classes, reach, a, b, upper=True)
    least = [u for u in ubs if all(v in reach[u] for v in ubs)]
    return least[0] if len(least) == 1 else None


def brute_meet(classes, reach, a, b):
    lbs = brute_bounds(classes, reach, a, b, upper=False)
    greatest = [u for u in lbs if all(u in reach[v] for v in lbs)]
    return greatest[0] if len(greatest) == 1 else None


def brute_is_lattice(classes, covers) -> bool:
    reach = reach_table(classes, covers)
    for a in classes:
        for b in classes:
            if a in reach[b] and b in reach[a] and a != b:
                return False
            if brute_join(classes, reach, a, b) is None:
                return False
            if brute_meet(classes, reach, a, b) is None:
                return False
    return True


def brute_lattice_error(classes, covers):
    """The error build_lattice must raise, or None for a lattice.

    ("cycle", pair, ()) names the first mutually-below pair (i < j) in
    declaration order.  Otherwise ("join" | "meet", pair, candidates) names
    the first pair (i <= j), join checked before meet, that lacks a unique
    bound; candidates are the minimal common upper (maximal common lower)
    bounds, sorted by name.
    """
    classes = list(classes)
    reach = reach_table(classes, covers)
    for i, a in enumerate(classes):
        for b in classes[i + 1:]:
            if b in reach[a] and a in reach[b]:
                return ("cycle", (a, b), ())
    for i, a in enumerate(classes):
        for b in classes[i:]:
            if brute_join(classes, reach, a, b) is None:
                ubs = brute_bounds(classes, reach, a, b, upper=True)
                return ("join", (a, b), tuple(sorted(
                    u for u in ubs if not any(v != u and u in reach[v] for v in ubs))))
            if brute_meet(classes, reach, a, b) is None:
                lbs = brute_bounds(classes, reach, a, b, upper=False)
                return ("meet", (a, b), tuple(sorted(
                    u for u in lbs if not any(v != u and v in reach[u] for v in lbs))))
    return None


def reference_sublattice(lat, subset, name):
    """The restriction of lat to subset, rebuilt from scratch: build_lattice
    over every strict leq pair of the subset, in lat's declaration order.
    connection.sublattice keeps the subset's digits of lat's rows instead."""
    subset = lat.sorted_by_index(set(subset))
    covers = [(a, b) for a in subset for b in subset if a != b and lat.leq(a, b)]
    return build_lattice(name, subset, covers)


class BrutePoset:
    """Self-contained order oracle for one lattice or pre-order description."""

    def __init__(self, classes, covers):
        self.classes = list(classes)
        self.reach = reach_table(self.classes, covers)

    def leq(self, a, b):
        return b in self.reach[a]

    def equiv(self, a, b):
        """Mutually below each other: equality on a partial order."""
        return b in self.reach[a] and a in self.reach[b]

    def meet(self, items):
        """The greatest lower bound of items (the top for no items)."""
        lbs = [c for c in self.classes if all(self.leq(c, s) for s in items)]
        return next(u for u in lbs if all(self.leq(v, u) for v in lbs))

    def join(self, items):
        """The least upper bound of items (the bottom for no items)."""
        ubs = [c for c in self.classes if all(self.leq(s, c) for s in items)]
        return next(u for u in ubs if all(self.leq(u, v) for v in ubs))


def brute_lagois_violations(lposet: BrutePoset, rposet: BrutePoset,
                            alpha: dict, gamma: dict) -> list[tuple[str, tuple]]:
    """Direct quantifier evaluation of order-preservation and the four
    connection laws.  Returns [(condition, witness), ...].  The two
    composition identities compare up to mutual order, which on a partial
    order is plain equality and on a pre-order is equivalence."""
    out = []
    for a in lposet.classes:
        for b in lposet.classes:
            if lposet.leq(a, b) and not rposet.leq(alpha[a], alpha[b]):
                out.append(("Monotone-alpha", (a, b)))
    for a in rposet.classes:
        for b in rposet.classes:
            if rposet.leq(a, b) and not lposet.leq(gamma[a], gamma[b]):
                out.append(("Monotone-gamma", (a, b)))
    for l in lposet.classes:
        if not lposet.leq(l, gamma[alpha[l]]):
            out.append(("LC1", (l,)))
    for m in rposet.classes:
        if not rposet.leq(m, alpha[gamma[m]]):
            out.append(("LC2", (m,)))
    for l in lposet.classes:
        if not rposet.equiv(alpha[gamma[alpha[l]]], alpha[l]):
            out.append(("LC3", (l,)))
    for m in rposet.classes:
        if not lposet.equiv(gamma[alpha[gamma[m]]], gamma[m]):
            out.append(("LC4", (m,)))
    return out


def brute_tightness_passed(lposet: BrutePoset, rposet: BrutePoset,
                           alpha: dict, gamma: dict,
                           buds_left, buds_right) -> bool:
    """Tightness by its definition, over every subset S of each side's
    budpoints: meet(S) is a budpoint, and the least budpoint above join(S)
    exists and is the round trip of join(S); and for every class c the round
    trip of c is the meet of the budpoints above c."""
    return (_brute_tight_side(lposet, alpha, gamma, buds_left)
            and _brute_tight_side(rposet, gamma, alpha, buds_right))


def brute_tightness_failures(lposet: BrutePoset, rposet: BrutePoset,
                             alpha: dict, gamma: dict, buds_left, buds_right) -> list[str]:
    """The failure lines of check_tightness, in its order, by the definition:
    on each side every class whose round trip is not the meet of the
    budpoints above it."""
    out = []
    for side, poset, there, back, buds in (("left", lposet, alpha, gamma, list(buds_left)),
                                           ("right", rposet, gamma, alpha, list(buds_right))):
        out += [f"{side}:{c}: round trip is not the meet of dominating budpoints"
                for c in poset.classes
                if back[there[c]] != poset.meet([b for b in buds if poset.leq(c, b)])]
    return out


def _brute_tight_side(poset: BrutePoset, there: dict, back: dict, buds) -> bool:
    buds = list(buds)
    for c in poset.classes:
        if back[there[c]] != poset.meet([b for b in buds if poset.leq(c, b)]):
            return False
    for k in range(len(buds) + 1):
        for subset in combinations(buds, k):
            if poset.meet(subset) not in buds:
                return False
            j = poset.join(subset)
            above = [b for b in buds if poset.leq(j, b)]
            least = [u for u in above if all(poset.leq(u, v) for v in above)]
            if least != [back[there[j]]]:
                return False
    return True


def brute_is_lagois(lposet: BrutePoset, rposet: BrutePoset,
                    alpha: dict, gamma: dict) -> bool:
    for a in lposet.classes:
        for b in lposet.classes:
            if lposet.leq(a, b) and not rposet.leq(alpha[a], alpha[b]):
                return False
    for a in rposet.classes:
        for b in rposet.classes:
            if rposet.leq(a, b) and not lposet.leq(gamma[a], gamma[b]):
                return False
    for l in lposet.classes:
        if not lposet.leq(l, gamma[alpha[l]]):
            return False
        if alpha[gamma[alpha[l]]] != alpha[l]:
            return False
    for m in rposet.classes:
        if not rposet.leq(m, alpha[gamma[m]]):
            return False
        if gamma[alpha[gamma[m]]] != gamma[m]:
            return False
    return True


def brute_adjoints_exhaustive(lposet: BrutePoset, rposet: BrutePoset,
                              alpha: dict) -> list[dict]:
    """All right maps gamma (ranging over every function M -> L) that make
    (L, alpha, gamma, M) pass the direct check.  |L|^|M| candidates, tested
    with index tables so the full sweep stays fast."""
    lcl, mcl = lposet.classes, rposet.classes
    nl, nm = len(lcl), len(mcl)
    lleq = [[b in lposet.reach[a] for b in lcl] for a in lcl]
    mleq = [[b in rposet.reach[a] for b in mcl] for a in mcl]
    midx = {c: i for i, c in enumerate(mcl)}
    a_of = [midx[alpha[c]] for c in lcl]
    strict_m = [(i, j) for i in range(nm) for j in range(nm)
                if i != j and mleq[i][j]]
    found = []
    for g in product(range(nl), repeat=nm):
        if any(not lleq[g[i]][g[j]] for i, j in strict_m):
            continue
        if any(not lleq[li][g[a_of[li]]] for li in range(nl)):
            continue  # LC1
        if any(not mleq[mi][a_of[g[mi]]] for mi in range(nm)):
            continue  # LC2
        if any(a_of[g[a_of[li]]] != a_of[li] for li in range(nl)):
            continue  # LC3
        if any(g[a_of[g[mi]]] != g[mi] for mi in range(nm)):
            continue  # LC4
        found.append({mcl[mi]: lcl[g[mi]] for mi in range(nm)})
    return found


def brute_adjoints_monotone(lposet: BrutePoset, rposet: BrutePoset,
                            alpha: dict) -> list[dict]:
    """Same search restricted to monotone candidates, generated by
    backtracking over a linear extension of M."""
    order = sorted(rposet.classes, key=lambda c: len(rposet.reach[c]), reverse=True)
    found = []
    assignment: dict[str, str] = {}

    def assign(i: int):
        if i == len(order):
            gamma = dict(assignment)
            if brute_is_lagois(lposet, rposet, alpha, gamma):
                found.append(gamma)
            return
        m = order[i]
        for cand in lposet.classes:
            ok = True
            for prev in order[:i]:
                if rposet.leq(prev, m) and not lposet.leq(assignment[prev], cand):
                    ok = False
                    break
                if rposet.leq(m, prev) and not lposet.leq(cand, assignment[prev]):
                    ok = False
                    break
            if ok:
                assignment[m] = cand
                assign(i + 1)
                del assignment[m]

    assign(0)
    return found


# -- transfer language ----------------------------------------------------------

VALUE_MODULUS = 2 ** 16


def brute_phrase_type(env, lposet: BrutePoset, rposet: BrutePoset, alpha, gamma, p):
    """The typing rules of one phrase as written, over reach sets and the map
    tables: its premise (rule, lower, upper), whether lower <= upper holds,
    and the (left, right) type it reports.  A transaction's premise is the
    join of the classes it reads against the meet of those it writes, and it
    reports that join; a copy's is its source's class, through gamma into L
    or alpha into M if it crosses, against its target's, and it reports each
    moved variable's class on its side.  A side a phrase leaves free reports
    the top."""
    def reads(e):
        if isinstance(e, Var):
            return [e.name]
        return reads(e.lhs) + reads(e.rhs) if isinstance(e, Add) else []

    cls = {name: d.cls for name, d in env.items()}
    posets = {"L": lposet, "M": rposet}
    if isinstance(p, Txn):
        poset = posets[p.domain]
        lower = poset.join([cls[v] for _, e in p.assigns for v in reads(e)])
        rule, upper = "txn", poset.meet([cls[t] for t, _ in p.assigns])
        ends = {p.domain: lower}
    elif isinstance(p, (Rd, Wr)):
        target, source = (p.z, p.y) if isinstance(p, Rd) else (p.x, p.z)
        poset, rule = posets[p.domain], type(p).__name__.lower()
        lower, upper = cls[source], cls[target]
        ends = {p.domain: upper}
    else:  # Trl into L through gamma, Tlr into M through alpha
        into, carry, rule = ("L", gamma, "trl") if isinstance(p, Trl) else ("M", alpha, "tlr")
        poset, lower, upper = posets[into], carry[cls[p.x]], cls[p.y]
        ends = {into: upper, "LM".replace(into, ""): cls[p.x]}
    reported = tuple(ends.get(side, posets[side].meet([])) for side in "LM")
    return (rule, lower, upper), poset.leq(lower, upper), reported


def brute_typecheck(prog, lposet: BrutePoset, rposet: BrutePoset, alpha, gamma):
    """The meet, side by side, of the types of a program's phrases (the tops
    for none), or ("ill-typed", rule, lower, upper, index) for the first
    phrase whose premise fails."""
    left, right = lposet.meet([]), rposet.meet([])
    for index, p in enumerate(prog.body):
        premise, holds, (l, r) = brute_phrase_type(prog.env, lposet, rposet, alpha, gamma, p)
        if not holds:
            return ("ill-typed", *premise, index)
        left, right = lposet.meet([left, l]), rposet.meet([right, r])
    return left, right


def interpret(prog, init):
    """Run a program phrase by phrase on reduced copies of the initial
    stores, evaluating each right-hand side as a tree."""
    def value(e, store):
        if isinstance(e, Const):
            return e.value % VALUE_MODULUS
        if isinstance(e, Add):
            return (value(e.lhs, store) + value(e.rhs, store)) % VALUE_MODULUS
        return store[e.name]

    stores = {"L": {k: v % VALUE_MODULUS for k, v in init.left.items()},
              "M": {k: v % VALUE_MODULUS for k, v in init.right.items()}}
    for p in prog.body:
        if isinstance(p, Txn):
            for target, e in p.assigns:
                stores[p.domain][target] = value(e, stores[p.domain])
        elif isinstance(p, Rd):
            stores[p.domain][p.z] = stores[p.domain][p.y]
        elif isinstance(p, Wr):
            stores[p.domain][p.x] = stores[p.domain][p.z]
        elif isinstance(p, Trl):
            stores["L"][p.y] = stores["M"][p.x]
        else:
            stores["M"][p.y] = stores["L"][p.x]
    return StorePair(stores["L"], stores["M"])


def affine_finals(prog) -> dict[str, tuple[int, dict[str, int]]]:
    """Every variable's final value as an affine function of the initial
    store: (constant, {initial variable: nonzero coefficient}), mod 2^16.
    Programs are straight-line copies and sums, so this is exact."""
    def form(e):
        if isinstance(e, Const):
            return e.value % VALUE_MODULUS, {}
        if isinstance(e, Var):
            return forms[e.name]
        (c1, k1), (c2, k2) = form(e.lhs), form(e.rhs)
        coef = dict(k1)
        for v, k in k2.items():
            coef[v] = (coef.get(v, 0) + k) % VALUE_MODULUS
        return (c1 + c2) % VALUE_MODULUS, {v: k for v, k in coef.items() if k}

    forms = {d.name: (0, {d.name: 1}) for d in prog.decls}  # names are unique
    for p in prog.body:
        if isinstance(p, Txn):
            for target, e in p.assigns:
                forms[target] = form(e)
        elif isinstance(p, Rd):
            forms[p.z] = forms[p.y]
        elif isinstance(p, Wr):
            forms[p.x] = forms[p.z]
        else:  # Trl, Tlr
            forms[p.y] = forms[p.x]
    return forms


def ni_leak(prog, lposet: BrutePoset, rposet: BrutePoset, pair):
    """Decide non-interference at the adversary pair exactly.  Returns the
    first low variable (in declaration order) whose final value has a
    nonzero coefficient on a high initial variable, with that variable, or
    None.  Changing that input by 1 changes that output: a replayable
    witness.  With no such coefficient, low outputs are functions of low
    inputs only, so every low-agreeing pair of stores ends low-agreeing."""
    low = {d.name for d in prog.decls
           if (lposet.leq(d.cls, pair[0]) if d.domain == "L" else rposet.leq(d.cls, pair[1]))}
    forms = affine_finals(prog)
    for d in prog.decls:
        if d.name in low:
            for v in forms[d.name][1]:
                if v not in low:
                    return d.name, v
    return None


def splitmix64(seed: int, n: int) -> list[int]:
    """The first n outputs of SplitMix64 (Steele, Lea & Flood, OOPSLA 2014)
    from state `seed mod 2^64`, one step at a time, as the paper writes it."""
    mask = 2 ** 64 - 1
    state, out = seed & mask, []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def reference_trial(prog, lposet: BrutePoset, rposet: BrutePoset, pair, seed: int):
    """One non-interference trial as the harness defines it, from the paper
    form of SplitMix64 and the tree interpreter: declaration i takes output
    z_i, its value mod 2^16 starts both runs, and a high one (not at or below
    the adversary pair) adds 1 + (z_i >> 16) mod (2^16 - 1) in the second.
    Returns (distinguishing, (a, b) initial stores, (a, b) final stores), where
    distinguishing is the first low (side, name) whose final values differ,
    in declaration order, or None."""
    stores = ({"L": {}, "M": {}}, {"L": {}, "M": {}})
    low = {}
    for d, z in zip(prog.decls, splitmix64(seed, len(prog.decls))):
        poset, level = (lposet, pair[0]) if d.domain == "L" else (rposet, pair[1])
        low[d.name] = poset.leq(d.cls, level)
        value = z % VALUE_MODULUS
        stores[0][d.domain][d.name] = value
        stores[1][d.domain][d.name] = value if low[d.name] else \
            (value + 1 + (z >> 16) % (VALUE_MODULUS - 1)) % VALUE_MODULUS
    initial = tuple(StorePair(st["L"], st["M"]) for st in stores)
    final = tuple(interpret(prog, st) for st in initial)
    sides = {"L": "left", "M": "right"}
    distinguishing = next(((sides[d.domain], d.name) for d in prog.decls if low[d.name]
                           and getattr(final[0], sides[d.domain])[d.name]
                           != getattr(final[1], sides[d.domain])[d.name]), None)
    return distinguishing, initial, final


def reference_ni_suite(decls, conn, programs: int, max_len: int, seed: int,
                       draws: int = 3):
    """The suite loop as first written: the public `ni_trial` for every
    trial, so each trial typechecks, splits and runs the program afresh.
    Library functions are looked up at call time, so monkeypatches apply."""
    pairs = flowlang.adversary_pairs(conn)
    base = random.Random(seed)
    failures = []
    trials = 0
    for p_idx in range(programs):
        length = base.randrange(max_len + 1)
        prog = flowlang.gen_well_typed(decls, conn, length, base.getrandbits(48))
        for pair_idx, pair in enumerate(pairs):
            for draw in range(draws):
                trial_seed = ((seed + 1) * 1_000_003 + p_idx * 7919
                              + pair_idx * 101 + draw)
                result = flowlang.ni_trial(prog, conn, pair, trial_seed)
                trials += 1
                if not result.passed:
                    failures.append((p_idx, pair, trial_seed, result.distinguishing))
    return flowlang.NiSuiteReport(programs, tuple(pairs), draws, trials,
                                  tuple(failures), seed)


# -- decentralized labels -------------------------------------------------------

class BruteLabels:
    """The relabeling order of Myers and Liskov (TOSEM 2000) by its
    definition, over brute-force acts-for reachability; uses no library code.

    A label is an iterable of policies (owner, readers).  Policy j subsumes
    i iff j's owner acts for i's owner and every effective reader (reader or
    owner) of j acts for some effective reader of i."""

    def __init__(self, principals, edges):
        names = list(principals) + [b for b in ("TOP", "BOT") if b not in principals]
        self.acts = reach_table(names, [*edges, *(("TOP", p) for p in names),
                                        *((p, "BOT") for p in names)])

    def acts_for(self, p, q):
        return q in self.acts[p]

    def policy_leq(self, i, j):
        (owner_i, readers_i), (owner_j, readers_j) = i, j
        effective_i = {owner_i, *readers_i}
        return self.acts_for(owner_j, owner_i) and all(
            any(self.acts_for(rj, ri) for ri in effective_i) for rj in {owner_j, *readers_j})

    def label_leq(self, l1, l2):
        return all(any(self.policy_leq(i, j) for j in l2) for i in l1)

    def declassify(self, authority, l1, l2):
        """l1 flows to l2 plus an owner-only policy per authority principal."""
        return self.label_leq(l1, [*l2, *((a, ()) for a in authority)])


def brute_lift(table, label):
    """Push every owner and reader of a label through a principal map."""
    return [(table[owner], frozenset(table[r] for r in readers)) for owner, readers in label]


def related_label(rng, brute: BruteLabels, principals, base):
    """A label above `base` in the relabeling order, by adding a policy,
    dropping a reader, or moving an owner up to a principal acting for it."""
    policies = set(base)
    move = rng.randrange(3)
    if move == 0 or not policies:
        size = rng.randint(0, min(3, len(principals)))
        policies.add((rng.choice(principals), frozenset(rng.sample(principals, size))))
        return list(policies)
    owner, readers = victim = rng.choice(sorted(policies, key=lambda p: (p[0], sorted(p[1]))))
    if move == 1 and readers:
        policies.discard(victim)
        policies.add((owner, frozenset(sorted(readers)[1:])))
    elif move == 2:
        policies.discard(victim)
        policies.add((rng.choice([p for p in principals if brute.acts_for(p, owner)]), readers))
    return list(policies)


def _lifted_sides(pm):
    """(suffix, source oracle, target oracle, source principals, push, pull)
    for the left-to-right laws ('a') and the right-to-left ones ('b')."""
    left, right = (BruteLabels(h.principals, h.edges) for h in (pm.left, pm.right))
    return (("a", left, right, list(pm.left.principals), pm.alpha, pm.gamma),
            ("b", right, left, list(pm.right.principals), pm.gamma, pm.alpha))


def sampled_lifted_failures(pm, samples: int, seed: int):
    """The six lifted laws on sampled labels, by the definition: on each
    side every owner-only singleton, the empty label and random labels up to
    `samples`, each also against a related label above it for monotonicity.
    Returns (property, label or (lower, upper)) per failure."""
    rng = random.Random(seed)
    failures = []
    for suffix, src, dst, pool, push, pull in _lifted_sides(pm):
        labels = [[(p, frozenset())] for p in pool] + [[]]
        while len(labels) < samples:
            labels.append([(p.owner, p.readers) for p in random_label(rng, pool).policies])
        for lab in labels:
            there = brute_lift(push, lab)
            back = brute_lift(pull, there)
            again = brute_lift(push, back)
            if not src.label_leq(lab, back):
                failures.append(("2" + suffix, lab))
            if not (dst.label_leq(there, again) and dst.label_leq(again, there)):
                failures.append(("3" + suffix, lab))
            bigger = related_label(rng, src, pool, lab)
            if src.label_leq(lab, bigger) and not dst.label_leq(there, brute_lift(push, bigger)):
                failures.append(("1" + suffix, (lab, bigger)))
    return failures


def one_policy_order(brute: BruteLabels):
    """`brute.label_leq` on labels of exactly one policy, as (key, leq).  A
    key is (owner, E, U) with E the bit mask of the effective readers and U
    that of the principals acting for one of them: (o, R) <= (o2, R2) iff o2
    acts for o and E2 lies within U, which is the definition's inner `any`
    gathered once per lower label."""
    bit = {p: 1 << i for i, p in enumerate(brute.acts)}
    up = {q: sum(bit[p] for p in bit if brute.acts_for(p, q)) for q in bit}

    def key(label):
        [(owner, readers)] = label
        effective = {owner, *readers}
        covered = 0
        for r in effective:
            covered |= up[r]
        return owner, sum(bit[r] for r in effective), covered

    def leq(lo, hi):
        return brute.acts_for(hi[0], lo[0]) and not hi[1] & ~lo[2]

    return key, leq


def rows_above(brute: BruteLabels, keys):
    """Per key, the bit set of the indices j with `leq(key, keys[j])` in the
    order of `one_policy_order`: the keys whose owner acts for its owner,
    less those with an effective reader it does not cover."""
    owned, reading = {}, {}  # owner -> its keys; principal bit -> keys reading it
    for j, (owner, effective, _) in enumerate(keys):
        owned[owner] = owned.get(owner, 0) | 1 << j
        while effective:
            low = effective & -effective
            reading[low] = reading.get(low, 0) | 1 << j
            effective ^= low
    above = {owner: reduce(or_, (mask for o, mask in owned.items() if brute.acts_for(o, owner)), 0)
             for owner in owned}
    uncovered = {covered: reduce(or_, (mask for b, mask in reading.items() if not b & covered), 0)
                 for _, _, covered in keys}
    return [above[owner] & ~uncovered[covered] for owner, _, covered in keys]


def one_policy_lifted_failures(pm, max_readers: int | None = None) -> set[str]:
    """The lifted laws that fail on some label of at most one policy (and at
    most `max_readers` readers) over the principals of `pm`, by the
    definition in the order of `one_policy_order`: 2a-3b on every such
    label, 1a/1b on every pair of them, as one bit set per label of the
    labels above it before and after lifting.  The empty label is left out
    of the pairs: it is below every label and lifts to itself.  Exponential
    in the principals unless `max_readers` is set."""
    failed = set()
    for suffix, src, dst, pool, push, pull in _lifted_sides(pm):
        (src_key, src_leq), (dst_key, dst_leq) = one_policy_order(src), one_policy_order(dst)
        most = len(pool) if max_readers is None else max_readers
        heres, theres = [], []
        for owner in pool:
            for readers in chain.from_iterable(combinations(pool, k) for k in range(most + 1)):
                label = [(owner, frozenset(readers))]
                back = brute_lift(pull, brute_lift(push, label))
                here, there = src_key(label), dst_key(brute_lift(push, label))
                again = dst_key(brute_lift(push, back))
                if not src_leq(here, src_key(back)):
                    failed.add("2" + suffix)
                if not (dst_leq(there, again) and dst_leq(again, there)):
                    failed.add("3" + suffix)
                heres.append(here)
                theres.append(there)
        if any(up & ~up_there for up, up_there in zip(rows_above(src, heres),
                                                      rows_above(dst, theres))):
            failed.add("1" + suffix)
    return failed
