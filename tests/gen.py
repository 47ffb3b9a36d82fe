"""Seeded random generators for lattices, monotone maps, closure operators
and (unchecked) transfer-language programs."""

from __future__ import annotations

import itertools
import random

from sifc.lattice import Lattice, LatticeError, build_lattice


def monotone_maps(source: Lattice, target: Lattice):
    """Every order-preserving table from source to target."""
    pairs = [(a, b) for a in source.classes for b in source.upset(a)]
    for images in itertools.product(target.classes, repeat=len(source)):
        table = dict(zip(source.classes, images))
        if all(target.leq(table[a], table[b]) for a, b in pairs):
            yield table


def random_lattice(rng: random.Random, max_classes: int = 6,
                   min_classes: int = 1) -> Lattice:
    """Rejection-sample a lattice on up to max_classes classes."""
    while True:
        n = rng.randint(min_classes, max_classes)
        names = [f"c{i}" for i in range(n)]
        covers = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    covers.append((names[i], names[j]))
        try:
            return build_lattice(f"rand{rng.randrange(1 << 30)}", names, covers)
        except LatticeError:
            continue


def _rand_cover_structure(rng: random.Random, n: int, counter: list[int]):
    """Recursively build cover edges for a lattice with exactly n elements.

    Returns (nodes, covers, bottom, top).  Mixes vertical stacking, bounded
    antichains and direct products so repeated draws vary in shape.
    """

    def fresh():
        counter[0] += 1
        return f"n{counter[0]}"

    if n == 1:
        x = fresh()
        return [x], [], x, x
    if n == 2:
        a, b = fresh(), fresh()
        return [a, b], [(a, b)], a, b

    choices = ["stack", "diamond"]
    factors = [(a, n // a) for a in range(2, n) if n % a == 0]
    if factors:
        choices.append("product")
    pick = rng.choice(choices)

    if pick == "diamond":
        bot, top = fresh(), fresh()
        mids = [fresh() for _ in range(n - 2)]
        covers = [(bot, m) for m in mids] + [(m, top) for m in mids]
        if not mids:
            covers = [(bot, top)]
        return [bot] + mids + [top], covers, bot, top

    if pick == "product":
        a, b = rng.choice(factors)
        nodes_a, covers_a, bot_a, top_a = _rand_cover_structure(rng, a, counter)
        nodes_b, covers_b, bot_b, top_b = _rand_cover_structure(rng, b, counter)
        pair_name = {(u, v): fresh() for u in nodes_a for v in nodes_b}
        covers = []
        for (u, v), name in pair_name.items():
            for (x, y) in covers_a:
                if x == u:
                    covers.append((name, pair_name[(y, v)]))
            for (x, y) in covers_b:
                if x == v:
                    covers.append((name, pair_name[(u, y)]))
        nodes = list(pair_name.values())
        return nodes, covers, pair_name[(bot_a, bot_b)], pair_name[(top_a, top_b)]

    # stack: everything in the lower part below everything in the upper part
    k = rng.randint(1, n - 1)
    nodes_a, covers_a, bot_a, top_a = _rand_cover_structure(rng, k, counter)
    nodes_b, covers_b, bot_b, top_b = _rand_cover_structure(rng, n - k, counter)
    covers = covers_a + covers_b + [(top_a, bot_b)]
    return nodes_a + nodes_b, covers, bot_a, top_b


def random_lattice_exact(rng: random.Random, n: int, name: str = "") -> Lattice:
    """Random lattice with exactly n classes, built constructively."""
    nodes, covers, _, _ = _rand_cover_structure(rng, n, [0])
    rename = {old: f"c{i}" for i, old in enumerate(rng.sample(nodes, len(nodes)))}
    classes = sorted(rename.values(), key=lambda c: int(c[1:]))
    covers = [(rename[a], rename[b]) for a, b in covers]
    return build_lattice(name or f"rand{n}", classes, covers)


def random_monotone_map(rng: random.Random, source: Lattice,
                        target: Lattice) -> dict[str, str]:
    """Random order-preserving total map, assigned along a linear extension."""
    extension = sorted(source.classes, key=lambda c: len(source.downset(c)))
    table: dict[str, str] = {}
    for c in extension:
        floor = target.bottom
        for d in table:
            if source.leq(d, c):
                floor = target.join(floor, table[d])
        candidates = target.sorted_by_index(target.upset(floor))
        table[c] = rng.choice(candidates)
    return table


def find_order_iso(left: Lattice, image_left, right: Lattice,
                   image_right) -> dict[str, str] | None:
    """Brute-force search for an order isomorphism between two small subsets."""
    import itertools
    for perm in itertools.permutations(image_right):
        cand = dict(zip(image_left, perm))
        if all(left.leq(a, b) == right.leq(cand[a], cand[b])
               for a in image_left for b in image_left):
            return cand
    return None


def random_connection(rng: random.Random, max_classes: int = 6):
    """Random verified connection, built from random closure operators with
    order-isomorphic images (resampled until the images match)."""
    from sifc.connection import build_from_closures
    while True:
        left = random_lattice(rng, max_classes=max_classes)
        right = random_lattice(rng, max_classes=max_classes)
        c = random_closure(rng, left)
        i = random_closure(rng, right)
        image_c = left.sorted_by_index(set(c.values()))
        image_i = right.sorted_by_index(set(i.values()))
        if len(image_c) != len(image_i):
            continue
        iso = find_order_iso(left, image_c, right, image_i)
        if iso is None:
            continue
        return build_from_closures(left, right, c, i, iso)


def random_closure(rng: random.Random, lat: Lattice) -> dict[str, str]:
    """Random closure operator, as the closure induced by a random
    meet-closed subset containing the top."""
    chosen = {lat.top}
    for c in lat.classes:
        if rng.random() < 0.5:
            chosen.add(c)
    while True:
        extra = {lat.meet(a, b) for a in chosen for b in chosen} - chosen
        if not extra:
            break
        chosen |= extra
    table = {}
    for c in lat.classes:
        table[c] = lat.meet_all(s for s in chosen if lat.leq(c, s))
    return table


def random_expr(rng: random.Random, names: list[str], depth: int = 3):
    """A sum tree over `names` and constants, some past 2^16, with repeats."""
    from sifc.flowlang import Add, Const, Var
    roll = rng.random()
    if depth > 0 and roll < 0.4:
        return Add(random_expr(rng, names, depth - 1), random_expr(rng, names, depth - 1))
    if roll < 0.75:
        return Var(rng.choice(names))
    return Const(rng.choice((0, 1, rng.randrange(2 ** 17))))


def random_phrase(rng: random.Random, decls):
    """One well-formed phrase over `decls` (which declare every domain and
    kind), with no typing premise checked."""
    from sifc.flowlang import Rd, Tlr, Trl, Txn, Wr

    def pick(domain, kind):
        return rng.choice([d.name for d in decls if d.domain == domain and d.kind == kind])

    kind, domain = rng.choice(("txn", "rd", "wr", "trl", "tlr")), rng.choice("LM")
    if kind == "txn":
        internal = [d.name for d in decls if d.domain == domain and d.kind == "internal"]
        return Txn(domain, tuple((rng.choice(internal), random_expr(rng, internal))
                                 for _ in range(rng.randint(1, 3))))
    if kind == "rd":
        return Rd(domain, pick(domain, "internal"), pick(domain, "import"))
    if kind == "wr":
        return Wr(domain, pick(domain, "export"), pick(domain, "internal"))
    if kind == "trl":
        return Trl(pick("L", "import"), pick("M", "export"))
    return Tlr(pick("M", "import"), pick("L", "export"))


def random_program(rng: random.Random, decls, length: int):
    """A well-formed program of `length` random phrases, not typechecked."""
    from sifc.flowlang import Program
    return Program(tuple(decls), tuple(random_phrase(rng, decls) for _ in range(length)))
