"""Seeded input generators for the benchmark.

Everything here is plain Python over bitmasks and never calls into `sifc`,
so the expectations it returns were not produced by the code under test.

Lattice agreements are valid by design: a random lattice L, a random
closure c on L, and M = image(c) x chain(k).  The closure i on M sends
(y, j) to (y, top of chain) and h pairs y with (y, top), so
`build_from_closures(L, M, c, i, h)` gives alpha(x) = (c(x), top) and
gamma(y, j) = y without any search for an order isomorphism.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


# -- lattices ------------------------------------------------------------------

def _shape(rng: random.Random, n: int, fresh) -> tuple[list[int], list[tuple[int, int]], int, int]:
    """Cover edges of a random lattice with exactly n nodes.

    Returns (nodes, covers, bottom, top).  Every construction (chain of two,
    vertical stack, horizontal sum between a new bottom and top, direct
    product) maps lattices to lattices, so no rejection is needed.
    """
    if n == 1:
        x = fresh()
        return [x], [], x, x
    if n == 2:
        a, b = fresh(), fresh()
        return [a, b], [(a, b)], a, b
    factors = [a for a in range(2, n) if n % a == 0 and 2 <= n // a]
    roll = rng.random()
    if factors and roll < 0.3:
        a = rng.choice(factors)
        na, ca, ba, ta = _shape(rng, a, fresh)
        nb, cb, bb, tb = _shape(rng, n // a, fresh)
        pair = {(u, v): fresh() for u in na for v in nb}
        covers = [(pair[(x, v)], pair[(y, v)]) for (x, y) in ca for v in nb]
        covers += [(pair[(u, x)], pair[(u, y)]) for (x, y) in cb for u in na]
        return list(pair.values()), covers, pair[(ba, bb)], pair[(ta, tb)]
    if n >= 4 and roll < 0.65:
        bot, top = fresh(), fresh()
        k = rng.randint(1, n - 3)
        na, ca, ba, ta = _shape(rng, k, fresh)
        nb, cb, bb, tb = _shape(rng, n - 2 - k, fresh)
        covers = ca + cb + [(bot, ba), (bot, bb), (ta, top), (tb, top)]
        return [bot] + na + nb + [top], covers, bot, top
    k = rng.randint(1, n - 1)
    na, ca, ba, ta = _shape(rng, k, fresh)
    nb, cb, bb, tb = _shape(rng, n - k, fresh)
    return na + nb, ca + cb + [(ta, bb)], ba, tb


@dataclass
class Order:
    """A finite lattice as bitmasks: bit j of up[i] is set iff i <= j."""
    names: list[str]
    covers: list[tuple[int, int]]
    up: list[int]
    down: list[int]

    def __post_init__(self):
        self._meet_of = {m: i for i, m in enumerate(self.down)}
        self.top = self._meet_of[(1 << len(self.names)) - 1]

    def meet_mask(self, mask: int) -> int:
        """Greatest lower bound of the elements whose bits are set in mask."""
        down = (1 << len(self.names)) - 1
        while mask:
            low = mask & -mask
            down &= self.down[low.bit_length() - 1]
            mask ^= low
        return self._meet_of[down]


def _order(names: list[str], covers: list[tuple[int, int]]) -> Order:
    n = len(names)
    succ: list[list[int]] = [[] for _ in range(n)]
    for lo, hi in covers:
        succ[lo].append(hi)
    up = [0] * n
    seen = [False] * n

    def close(v: int) -> int:
        if not seen[v]:
            seen[v] = True
            mask = 1 << v
            for w in succ[v]:
                mask |= close(w)
            up[v] = mask
        return up[v]

    for v in range(n):
        close(v)
    down = [0] * n
    for a in range(n):
        mask = up[a]
        while mask:
            low = mask & -mask
            down[low.bit_length() - 1] |= 1 << a
            mask ^= low
    return Order(names, covers, up, down)


BLOCK = 8


def random_lattice(rng: random.Random, n: int) -> Order:
    """A vertical stack of n // BLOCK random blocks of BLOCK nodes each,
    with classes named c0 .. c<n-1>.

    Stacking keeps the height, and with it the cost of building the order,
    close to n / BLOCK block heights for every seed; the blocks vary the
    local shape.
    """
    counter = [0]

    def fresh() -> int:
        counter[0] += 1
        return counter[0] - 1

    nodes, covers, below = [], [], None
    for _ in range(n // BLOCK):
        bn, bc, bot, top = _shape(rng, BLOCK, fresh)
        nodes += bn
        covers += bc + ([(below, bot)] if below is not None else [])
        below = top
    perm = list(range(n))
    rng.shuffle(perm)  # declaration order is not a linear extension
    index = {node: perm[i] for i, node in enumerate(nodes)}
    names = [f"c{i}" for i in range(n)]
    return _order(names, [(index[a], index[b]) for a, b in covers])


def random_closed_subset(rng: random.Random, lat: Order, size: int,
                         within: int | None = None) -> int:
    """A random meet-closed subset (as a mask) that contains the top and has
    `size` members when the pool allows, drawn from `within` (default: every
    element).  Candidates whose closure would overshoot are skipped."""
    pool = (1 << len(lat.names)) - 1 if within is None else within
    chosen = 1 << lat.top
    candidates = [i for i in range(len(lat.names)) if pool >> i & 1]
    rng.shuffle(candidates)
    for x in candidates:
        if chosen.bit_count() >= size:
            break
        # S u {x} closes to S u {x meet s : s in S}, because S is meet-closed.
        grown, mask = chosen, chosen
        while mask:
            low = mask & -mask
            grown |= 1 << lat.meet_mask(low | 1 << x)
            mask ^= low
        if grown.bit_count() <= size:
            chosen = grown
    return chosen


def closure_of(lat: Order, closed: int) -> list[int]:
    """x -> least member of the meet-closed set above x."""
    return [lat.meet_mask(lat.up[x] & closed) for x in range(len(lat.names))]


def _doc(name: str, lat: Order) -> dict:
    return {"name": name, "classes": list(lat.names),
            "covers": [[lat.names[a], lat.names[b]] for a, b in lat.covers]}


# -- lattice agreements ---------------------------------------------------------

@dataclass
class Agreement:
    """JSON documents for one connection plus every expected result."""
    n: int
    left_doc: dict
    right_doc: dict
    alpha: dict[str, str]
    gamma: dict[str, str]
    closure: dict[str, str]     # c = gamma . alpha, also compose's two maps
    alpha2: dict[str, str]      # a coarsening of alpha
    gamma2: dict[str, str]      # the right map coarsen must rebuild


def random_agreement(rng: random.Random, n: int) -> Agreement:
    lat = random_lattice(rng, n)
    closed = random_closed_subset(rng, lat, size=n // 8)
    c = closure_of(lat, closed)
    image = [x for x in range(n) if closed >> x & 1]
    k = 3  # right sizes 3n/8 never equal a left size

    # M = image(c) x chain(k); element (y, j) is named r<y>_<j>.
    def rname(y: int, j: int) -> str:
        return f"r{lat.names[y][1:]}_{j}"

    right_names = [rname(y, j) for y in image for j in range(k)]
    right_covers = []
    for x in image:
        above = lat.up[x] & closed & ~(1 << x)
        for y in image:
            if above >> y & 1 and lat.down[y] & above == 1 << y:
                right_covers += [(rname(x, j), rname(y, j)) for j in range(k)]
        right_covers += [(rname(x, j), rname(x, j + 1)) for j in range(k - 1)]

    coarse = random_closed_subset(rng, lat, size=n // 16, within=closed)
    c2 = closure_of(lat, coarse)
    names = lat.names
    return Agreement(
        n=n,
        left_doc=_doc(f"L{n}", lat),
        right_doc={"name": f"M{n}", "classes": right_names,
                   "covers": [list(pair) for pair in right_covers]},
        alpha={names[x]: rname(c[x], k - 1) for x in range(n)},
        gamma={rname(y, j): names[y] for y in image for j in range(k)},
        closure={names[x]: names[c[x]] for x in range(n)},
        alpha2={names[x]: rname(c2[x], k - 1) for x in range(n)},
        gamma2={rname(y, j): names[c2[y]] for y in image for j in range(k)},
    )


# -- decentralized labels -----------------------------------------------------------

def wide_principal_pair(left: dict, right: dict, alpha: dict, gamma: dict,
                        copies: int) -> tuple[dict, dict, dict, dict]:
    """`copies` disjoint copies of a principal-map pair that share TOP and BOT.

    Each copy renames every named principal p to p_<i>; TOP and BOT stay.
    """
    def rename(p: str, i: int) -> str:
        return p if p in ("TOP", "BOT") else f"{p}_{i}"

    def hierarchy(doc: dict) -> dict:
        return {"principals": [rename(p, i) for i in range(copies)
                               for p in doc["principals"]],
                "acts_for": [[rename(p, i), rename(q, i)] for i in range(copies)
                             for p, q in doc["acts_for"]]}

    def table(m: dict) -> dict:
        return {rename(p, i): rename(q, i) for i in range(copies)
                for p, q in m.items()}

    return hierarchy(left), hierarchy(right), table(alpha), table(gamma)


def random_label(rng: random.Random, principals: list[str],
                 max_policies: int = 4, max_readers: int = 8) -> list[tuple[str, list[str]]]:
    """Policies as (owner, readers); between one and max_policies of them."""
    out = []
    for _ in range(rng.randint(1, max_policies)):
        size = rng.randint(0, min(max_readers, len(principals)))
        out.append((rng.choice(principals), rng.sample(principals, size)))
    return out


def label_above(rng: random.Random, acts_for: dict[str, set[str]],
                principals: list[str],
                base: list[tuple[str, list[str]]]) -> list[tuple[str, list[str]]]:
    """A label that the relabeling rule must accept from `base`: every
    policy of base is matched by one whose owner acts for the old owner and
    whose readers each act for an old effective reader; one unrelated policy
    may be added."""
    out = []
    for owner, readers in base:
        uppers = [p for p in principals if owner in acts_for[p]]
        new_readers = set()
        for r in readers:
            if rng.random() < 0.7:
                new_readers.add(rng.choice([p for p in principals if r in acts_for[p]]))
        out.append((rng.choice(uppers), sorted(new_readers)))
    if rng.random() < 0.5:
        out.append((rng.choice(principals),
                    rng.sample(principals, rng.randint(0, min(3, len(principals))))))
    rng.shuffle(out)
    return out
