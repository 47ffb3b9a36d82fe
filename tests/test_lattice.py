"""Lattice construction, queries, and algebraic laws."""

import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sifc.cli import main
from sifc.lattice import (BadClassName, CycleError, DuplicateClass, Lattice, LatticeError,
                          NotALattice, UnknownClass, _closure_rows, build_lattice,
                          load_lattice)

from fixtures import (COLLEGE_CLASSES, COLLEGE_COVERS, UNIVERSITY_CLASSES,
                      college, university)
from gen import random_lattice, random_lattice_exact
from oracles import (brute_join, brute_lattice_error, brute_meet, closure_rows, converse_rows,
                     reach_table)


def test_college_builds():
    lat = college()
    assert lat.top == "top1"
    assert lat.bottom == "bot1"
    assert len(lat) == 7


def test_one_point_lattice():
    lat = build_lattice("unit", ["x"], [])
    assert lat.top == "x" == lat.bottom
    assert lat.leq("x", "x")
    assert lat.join("x", "x") == "x"


def test_truncated_college_is_not_a_lattice():
    # Remove CollegePrincipal and top1: Dean(F) and Dean(S) keep no common
    # upper bound, which the brute-force oracle confirms.
    classes = [c for c in COLLEGE_CLASSES if c not in ("CollegePrincipal", "top1")]
    covers = [p for p in COLLEGE_COVERS
              if p[0] in classes and p[1] in classes]
    reach = reach_table(classes, covers)
    assert brute_join(classes, reach, "Dean(F)", "Dean(S)") is None
    with pytest.raises(NotALattice) as exc:
        build_lattice("truncated", classes, covers)
    bad = exc.value.pair
    assert brute_join(classes, reach, bad[0], bad[1]) is None


def test_duplicate_class_rejected():
    with pytest.raises(DuplicateClass):
        build_lattice("dup", ["a", "b", "a"], [("a", "b")])


def test_bad_name_rejected():
    with pytest.raises(BadClassName):
        build_lattice("bad", ["a b"], [])
    with pytest.raises(BadClassName):
        build_lattice("bad", [""], [])
    with pytest.raises(BadClassName):
        build_lattice("bad", [5], [])


def test_unknown_cover_endpoint_rejected():
    with pytest.raises(UnknownClass):
        build_lattice("u", ["a"], [("a", "z")])
    # the first offender: pairs in order, each lower end before its upper end
    for covers, name in (([("y", "z")], "y"), ([("a", "z"), ("y", "a")], "z")):
        with pytest.raises(UnknownClass) as exc:
            build_lattice("u", ["a"], covers)
        assert str(exc.value) == f"unknown class {name!r} in covers of lattice 'u'"


@pytest.mark.parametrize("pair", [("a", "b", "c"), ("a",), "ab", 5],
                         ids=["three", "one", "string", "number"])
def test_a_cover_that_is_not_two_names_is_rejected(pair):
    # A string is not split into its letters, and the covers are checked
    # before the class names, as `Lattice.from_dict` checks them.
    for classes in (["a", "b", "c"], ["a b"]):
        with pytest.raises(LatticeError) as exc:
            build_lattice("p", classes, [("a", "b"), pair])
        assert type(exc.value) is LatticeError
        assert str(exc.value) == "covers must be pairs [lower, upper] of class names"


@pytest.mark.parametrize("covers", [None, 7, True], ids=["null", "number", "bool"])
def test_covers_that_are_not_a_collection_are_rejected(covers):
    # Checked before the class names, as a cover that is not two names is.
    for classes in (["a", "b"], ["a b"]):
        with pytest.raises(LatticeError) as exc:
            build_lattice("p", classes, covers)
        assert type(exc.value) is LatticeError
        assert str(exc.value) == "covers must be pairs [lower, upper] of class names"


def test_covers_may_be_any_iterable():
    lat = build_lattice("g", ["a", "b"], (pair for pair in [("a", "b")]))
    assert lat.covers == (("a", "b"),) and lat.leq("a", "b")


def test_an_empty_class_list_is_rejected():
    with pytest.raises(LatticeError) as exc:
        build_lattice("e", [], [])
    assert type(exc.value) is LatticeError
    assert str(exc.value) == "a lattice needs at least one class"
    # With covers, their first end is the first offender: it names no class.
    with pytest.raises(UnknownClass) as exc:
        build_lattice("e", [], [("a", "b")])
    assert str(exc.value) == "unknown class 'a' in covers of lattice 'e'"
    with pytest.raises(LatticeError, match="^a lattice needs at least one class$"):
        Lattice.from_dict({"name": "e", "classes": [], "covers": []})


@pytest.mark.parametrize("classes", ["ab", None, 0, True],
                         ids=["string", "null", "zero", "bool"])
def test_classes_that_are_not_a_list_are_rejected(classes):
    # A string is not split into one-letter classes, and nothing else escapes as TypeError.
    with pytest.raises(LatticeError) as exc:
        build_lattice("L", classes, [("a", "b")])
    assert type(exc.value) is LatticeError
    assert str(exc.value) == "classes must be a list of class names"


@pytest.mark.parametrize("name", [5, None])
def test_a_lattice_name_that_is_not_a_string_is_rejected(name):
    with pytest.raises(LatticeError) as exc:
        build_lattice(name, ["a"], [])
    assert type(exc.value) is LatticeError
    assert str(exc.value) == "lattice name must be a string"


def test_a_document_gets_the_constructor_checks_in_its_order():
    # A non-string class is a BadClassName, and malformed covers come before it.
    with pytest.raises(BadClassName) as exc:
        Lattice.from_dict({"name": "L", "classes": ["a", 5], "covers": []})
    assert str(exc.value) == "invalid class name 5 (must match [A-Za-z0-9_()+-]+)"
    with pytest.raises(LatticeError) as exc:
        Lattice.from_dict({"name": "L", "classes": ["a", 5], "covers": "ab"})
    assert str(exc.value) == "covers must be pairs [lower, upper] of class names"


def test_covers_keep_each_pair_once_in_first_order():
    lat = build_lattice("d", ["a", "b", "c"], [["b", "c"], ("a", "b"), ("b", "c"), ["a", "b"]])
    assert lat.covers == (("b", "c"), ("a", "b"))


def test_cycle_rejected():
    with pytest.raises(CycleError):
        build_lattice("cyc", ["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])


def test_redundant_covers_tolerated():
    lat = build_lattice("chain", ["a", "b", "c"],
                        [("a", "b"), ("b", "c"), ("a", "c"), ("a", "c")])
    assert lat.leq("a", "c")
    assert lat.join("a", "c") == "c"


def test_reflexive_cover_tolerated():
    # (a, a) is redundant, not a cycle
    lat = build_lattice("chain", ["a", "b"], [("a", "a"), ("a", "b")])
    assert lat.top == "b"


def test_leq_matches_brute_force_reachability():
    lat = college()
    reach = reach_table(COLLEGE_CLASSES, COLLEGE_COVERS)
    for a in COLLEGE_CLASSES:
        for b in COLLEGE_CLASSES:
            assert lat.leq(a, b) == (b in reach[a])


def test_college_order_facts():
    lat = college()
    assert lat.leq("Student", "CollegePrincipal")
    assert not lat.leq("Dean(F)", "Dean(S)")
    assert not lat.leq("Dean(S)", "Dean(F)")
    for x in COLLEGE_CLASSES:
        assert lat.leq(x, x)


def test_college_join_meet_against_oracle():
    lat = college()
    reach = reach_table(COLLEGE_CLASSES, COLLEGE_COVERS)
    for a in COLLEGE_CLASSES:
        for b in COLLEGE_CLASSES:
            assert lat.join(a, b) == brute_join(COLLEGE_CLASSES, reach, a, b)
            assert lat.meet(a, b) == brute_meet(COLLEGE_CLASSES, reach, a, b)
    assert lat.join("Dean(F)", "Dean(S)") == "CollegePrincipal"
    assert lat.meet("Dean(F)", "Dean(S)") == "Student"


def test_unit_laws():
    lat = college()
    for x in COLLEGE_CLASSES:
        assert lat.join(x, lat.bottom) == x
        assert lat.meet(x, lat.top) == x


def test_unknown_class_errors():
    lat = college()
    with pytest.raises(UnknownClass):
        lat.leq("Student", "nope")
    with pytest.raises(UnknownClass):
        lat.leq("nope", "Student")
    with pytest.raises(UnknownClass):
        lat.join("nope", "Student")
    with pytest.raises(UnknownClass):
        lat.meet("Student", "nope")
    for query in (lat.upset, lat.downset):
        with pytest.raises(UnknownClass) as exc:
            query("nope")
        assert str(exc.value) == "unknown class 'nope' in College"


@settings(max_examples=200)
@given(st.sampled_from(COLLEGE_CLASSES), st.sampled_from(COLLEGE_CLASSES),
       st.sampled_from(COLLEGE_CLASSES))
def test_lattice_algebra_laws(a, b, c):
    lat = college()
    assert lat.join(a, b) == lat.join(b, a)
    assert lat.meet(a, b) == lat.meet(b, a)
    assert lat.join(lat.join(a, b), c) == lat.join(a, lat.join(b, c))
    assert lat.meet(lat.meet(a, b), c) == lat.meet(a, lat.meet(b, c))
    assert lat.join(a, lat.meet(a, b)) == a
    assert lat.meet(a, lat.join(a, b)) == a
    assert lat.join(a, a) == a and lat.meet(a, a) == a


@settings(max_examples=200)
@given(st.sampled_from(UNIVERSITY_CLASSES), st.sampled_from(UNIVERSITY_CLASSES))
def test_order_join_meet_consistency(a, b):
    lat = university()
    assert lat.leq(a, b) == (lat.join(a, b) == b)
    assert lat.leq(a, b) == (lat.meet(a, b) == a)


def test_random_lattices_agree_with_oracle():
    rng = random.Random(7)
    for _ in range(40):
        lat = random_lattice(rng, max_classes=6)
        reach = reach_table(lat.classes, lat.covers)
        for a, b in itertools.product(lat.classes, repeat=2):
            assert lat.leq(a, b) == (b in reach[a])
            assert lat.join(a, b) == brute_join(list(lat.classes), reach, a, b)
            assert lat.meet(a, b) == brute_meet(list(lat.classes), reach, a, b)


def test_serialization_round_trip():
    lat = college()
    again = Lattice.from_dict(lat.to_dict())
    assert again == lat
    assert again.classes == lat.classes
    assert again.to_dict() == lat.to_dict()


def test_load_lattice_reads_the_fixture_file():
    lat = load_lattice(str(Path(__file__).resolve().parent.parent / "fixtures" / "college.json"))
    assert lat == college()
    assert lat.classes == college().classes


@pytest.mark.parametrize("text,key,repeat", [
    ('{"name": "A", "classes": ["a"], "covers": [], "name": "B"}', "name", '"name": "B"'),
    ('{"name": "A", "classes": ["a"], "covers": [], "na\\u006de": "B"}', "name", '"na\\u'),
    ('{"name": "A", "classes": ["a"], "covers": [{"b": 1}, {"b": 2, "b": 3}]}', "b", '"b": 3'),
], ids=["plain", "escaped", "nested"])
def test_load_lattice_rejects_a_key_given_twice(tmp_path, text, key, repeat):
    doc = tmp_path / "lattice.json"
    doc.write_text(text)
    with pytest.raises(json.JSONDecodeError) as exc:
        load_lattice(str(doc))
    assert (exc.value.msg, exc.value.pos) == (f"repeated key {key!r}", text.index(repeat))


@pytest.mark.parametrize("name,content", [
    ("lattice.json", r'{"name": "\ud800", "classes": ["a"], "covers": []}'.encode()),
    ("lattice.json", b"[" * 100_000 + b"]" * 100_000),
    ("lattice.json", b'{"name": 1' + b"0" * 5000 + b', "classes": ["a"], "covers": []}'),
    ("lattice.json", b'{"name": "A", "classes": ["a"], "covers": [], "name": "B"}'),
    ("lattice.json", bytes(range(128, 256))),
    ("lattice\0.json", None),  # no file: the path cannot name one
], ids=["lone-surrogate", "nesting-too-deep", "number-too-long", "repeated-key",
        "invalid-utf8", "nul-in-path"])
def test_load_lattice_rejects_what_check_lattice_rejects(tmp_path, capsys, name, content):
    # one reader behind both: the library raises the error the CLI reports
    doc = tmp_path / name
    if content is not None:
        doc.write_bytes(content)
    assert main(["check-lattice", str(doc)]) == 2
    report = json.loads(capsys.readouterr().out)
    with pytest.raises(Exception) as exc:
        load_lattice(str(doc))
    assert (type(exc.value).__name__, str(exc.value)) == (report["error"], report["message"])


@pytest.mark.parametrize("doc", [
    {"name": "s", "classes": "ab", "covers": [["a", "b"]]},
    {"name": "s", "classes": ["a", "b"], "covers": ["ab"]},
    {"name": "s", "classes": ["a", "b"], "covers": "ab"},
])
def test_from_dict_rejects_strings_for_lists(doc):
    # a string is iterable, but splitting it into characters would invent
    # classes or covers the document never named
    with pytest.raises(LatticeError):
        Lattice.from_dict(doc)


def test_structural_equality_ignores_name_and_presentation():
    a = build_lattice("one", ["x", "y"], [("x", "y")])
    b = build_lattice("two", ["y", "x"], [("x", "y"), ("x", "y")])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b, college()}) == 2
    c = build_lattice("three", ["x", "y", "z"], [("x", "y"), ("y", "z")])
    assert a != c
    assert a == a and not a != a


@pytest.mark.parametrize("seed", range(3))
def test_equality_matches_oracle_in_every_declaration_order(seed):
    # Lattices over c0..c(n-1) of one size: in one declaration order they are
    # compared row by row, in a shuffled one by their order pairs.
    rng = random.Random(seed)
    seen = Counter()
    for _ in range(150):
        n = rng.randint(1, 5)
        a, b = (random_lattice(rng, max_classes=n, min_classes=n) for _ in range(2))
        shuffled = build_lattice("s", rng.sample(b.classes, n), rng.sample(b.covers, len(b.covers)))
        for x, y in ((a, b), (a, shuffled)):
            reach_x, reach_y = (reach_table(z.classes, z.covers) for z in (x, y))
            expected = reach_x == reach_y
            assert (x == y, x != y, y == x) == (expected, not expected, expected)
            seen[x.classes == y.classes, expected] += 1
    assert len(seen) == 4


# -- differential tests of the bit-vector kernel -------------------------------

def _assert_matches_oracle(lat, classes, covers):
    """Every table of lat against brute-force reachability over the raw input."""
    classes = list(classes)
    reach = reach_table(classes, covers)
    for a in classes:
        assert type(lat.upset(a)) is type(lat.downset(a)) is frozenset
        assert lat.upset(a) == reach[a]
        assert lat.downset(a) == {c for c in classes if a in reach[c]}
    for a, b in itertools.product(classes, repeat=2):
        assert lat.join(a, b) == brute_join(classes, reach, a, b)
        assert lat.meet(a, b) == brute_meet(classes, reach, a, b)
    assert reach[lat.bottom] == set(classes)
    assert all(lat.top in reach[c] for c in classes)


def _random_covers(rng, names, density, back=0.0, loops=0.0, dups=0.0):
    """Cover pairs over names: forward pairs along a hidden linear order with
    probability `density`, plus backward pairs (which may close cycles),
    self-loops and repeats of earlier pairs, all shuffled."""
    order = rng.sample(names, len(names))
    covers = []
    for i, a in enumerate(order):
        for b in order[i + 1:]:
            if rng.random() < density:
                covers.append((a, b))
            if rng.random() < back:
                covers.append((b, a))
        if rng.random() < loops:
            covers.append((a, a))
    if covers:
        covers += [rng.choice(covers) for _ in range(int(dups * len(covers)))]
    rng.shuffle(covers)
    return covers


@pytest.mark.parametrize("seed", range(2))
def test_kernel_matches_oracle_on_random_lattices(seed):
    # Each lattice is rebuilt from a messier presentation of the same order:
    # shuffled declaration, redundant transitive pairs, self-loops, repeats.
    rng = random.Random(seed)
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 48, 64):
        base = random_lattice_exact(rng, n)
        classes = rng.sample(base.classes, n)
        covers = list(base.covers)
        covers += [(a, rng.choice(sorted(base.upset(a)))) for a in rng.sample(classes, n // 2)]
        covers += [(a, a) for a in rng.sample(classes, n // 3)]
        covers += rng.sample(covers, len(covers) // 4)
        rng.shuffle(covers)
        lat = build_lattice("messy", classes, covers)
        assert lat == base
        _assert_matches_oracle(lat, classes, covers)


@pytest.mark.parametrize("seed", range(4))
def test_kernel_outcome_matches_oracle_on_random_posets(seed):
    # The oracle replays the reference loop order, so the raised pair,
    # kind, candidates and message must agree exactly.
    rng = random.Random(100 + seed)
    outcomes = Counter()
    for _ in range(80):
        n = rng.choice((2, 3, 4, 5, 6, 8, 12, 16, 24, 32, 48, 64))
        names = [f"p{i}" for i in range(n)]
        covers = _random_covers(rng, names, density=rng.choice((0.05, 0.2, 0.5, 0.9)),
                                back=rng.choice((0.0, 0.0, 0.002, 0.02)),
                                loops=rng.choice((0.0, 0.1)), dups=rng.choice((0.0, 0.3)))
        outcomes[_assert_outcome_matches_oracle(names, covers)] += 1
    assert set(outcomes) == {"lattice", "cycle", "join", "meet"}, outcomes


def _assert_outcome_matches_oracle(classes, covers) -> str:
    """build_lattice raises exactly the error brute_lattice_error names (type,
    kind, pair, candidates and message) or builds the oracle's lattice; returns
    the outcome's kind ("lattice", "cycle", "join" or "meet")."""
    expected = brute_lattice_error(classes, covers)
    if expected is None:
        _assert_matches_oracle(build_lattice("p", classes, covers), classes, covers)
        return "lattice"
    kind, pair, candidates = expected
    if kind == "cycle":
        with pytest.raises(CycleError) as exc:
            build_lattice("p", classes, covers)
        assert str(exc.value) == str(CycleError(pair))
    else:
        with pytest.raises(NotALattice) as exc:
            build_lattice("p", classes, covers)
        assert type(exc.value) is NotALattice
        assert (exc.value.kind, exc.value.candidates) == (kind, candidates)
        assert str(exc.value) == str(NotALattice(kind, pair, candidates))
    assert exc.value.pair == pair
    return kind


def _every_relation(names, pairs):
    """Each subset of `pairs` (index pairs into names) as a cover list."""
    for keep in itertools.product((False, True), repeat=len(pairs)):
        yield [(names[i], names[j]) for (i, j), k in zip(pairs, keep) if k]


def test_build_lattice_matches_oracle_on_every_small_relation():
    # Bounded-exhaustive: every relation without self-loops on 1-4 classes,
    # and every relation on 5 classes that extends the declaration order.
    outcomes = Counter()
    for n in range(1, 5):
        names = [f"c{i}" for i in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for covers in _every_relation(names, pairs):
            outcomes[_assert_outcome_matches_oracle(names, covers)] += 1
    names = [f"c{i}" for i in range(5)]
    for covers in _every_relation(names, list(itertools.combinations(range(5), 2))):
        outcomes[_assert_outcome_matches_oracle(names, covers)] += 1
    assert sum(outcomes.values()) == 4165 + 1024
    assert sum(outcomes.values()) - outcomes["lattice"] == 4836, outcomes


# The meets-only proof: a finite poset with a top in which every pair has a
# meet is a lattice.  Each case below breaks one half of that, and the
# fallback scan must still name the oracle's first pair.

def test_every_meet_but_no_top_is_not_a_lattice():
    # Two maximal classes over a common bottom: every pair has a meet, and
    # the maximal pair has no common upper bound at all.
    classes, covers = ["x", "b", "y"], [("b", "x"), ("b", "y")]
    assert brute_lattice_error(classes, covers) == ("join", ("x", "y"), ())
    assert _assert_outcome_matches_oracle(classes, covers) == "join"


def test_top_and_every_join_but_a_missing_meet_is_not_a_lattice():
    # Two minimal classes under a top: every join exists, and the pair that
    # lacks a meet is the last one the proof reaches.
    classes, covers = ["t", "c", "d"], [("c", "t"), ("d", "t")]
    assert brute_lattice_error(classes, covers) == ("meet", ("c", "d"), ())
    assert _assert_outcome_matches_oracle(classes, covers) == "meet"


def test_missing_meet_found_by_the_proof_reported_as_the_first_missing_join():
    # Top and bottom exist, c and d (the last pair) have two maximal common
    # lower bounds; the scan reaches the pair (a, b) first, which lacks a join.
    classes = ["0", "t", "a", "b", "c", "d"]
    covers = [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
              ("c", "t"), ("d", "t")]
    assert brute_lattice_error(classes, covers) == ("join", ("a", "b"), ("c", "d"))
    assert _assert_outcome_matches_oracle(classes, covers) == "join"


def test_one_class_lattice_matches_oracle():
    assert _assert_outcome_matches_oracle(["x"], []) == "lattice"
    assert _assert_outcome_matches_oracle(["x"], [("x", "x")]) == "lattice"
    lat = build_lattice("unit", ["x"], [("x", "x")])
    assert (lat.top, lat.bottom, lat.covers) == ("x", "x", (("x", "x"),))
    assert lat.upset("x") == lat.downset("x") == frozenset({"x"})
    assert lat.order_pairs() == {("x", "x")}


def test_cycle_error_names_first_pair_in_declaration_order():
    classes = ["x", "c", "b", "a"]
    covers = [("a", "b"), ("b", "c"), ("c", "a"), ("x", "a")]
    assert brute_lattice_error(classes, covers) == ("cycle", ("c", "b"), ())
    with pytest.raises(CycleError) as exc:
        build_lattice("cyc", classes, covers)
    assert exc.value.pair == ("c", "b")


def test_self_loop_cover_on_inner_class():
    # A self-loop is redundant wherever it sits, not only on a minimal class.
    lat = Lattice.from_dict({"name": "loop", "classes": ["a", "b", "c"],
                             "covers": [["b", "b"], ["a", "b"], ["b", "c"]]})
    assert (lat.bottom, lat.top) == ("a", "c")
    assert lat == build_lattice("chain", ["a", "b", "c"], [("a", "b"), ("b", "c")])
    _assert_matches_oracle(lat, lat.classes, lat.covers)


def test_chain_of_256_classes():
    rng = random.Random(3)
    names = [f"c{i}" for i in range(256)]
    lat = build_lattice("chain", rng.sample(names, 256),
                        [(names[i], names[i + 1]) for i in range(255)])
    assert (lat.bottom, lat.top) == ("c0", "c255")
    for _ in range(500):
        i, j = rng.randrange(256), rng.randrange(256)
        assert lat.join(names[i], names[j]) == names[max(i, j)]
        assert lat.meet(names[i], names[j]) == names[min(i, j)]
        assert lat.leq(names[i], names[j]) == (i <= j)


def test_boolean_lattice_of_256_elements():
    # Subsets of 8 atoms, named by their bitmask; join is union, meet intersection.
    rng = random.Random(4)
    name = [f"s{m}" for m in range(256)]
    covers = [(name[m], name[m | 1 << k]) for m in range(256) for k in range(8)
              if not m >> k & 1]
    lat = build_lattice("boolean", name, covers)
    assert (lat.bottom, lat.top) == ("s0", "s255")
    for _ in range(500):
        a, b = rng.randrange(256), rng.randrange(256)
        assert lat.join(name[a], name[b]) == name[a | b]
        assert lat.meet(name[a], name[b]) == name[a & b]
        assert lat.leq(name[a], name[b]) == (a & b == a)


# -- the linear-time closure against Warshall -----------------------------------

def _random_relation(rng, n):
    """Random edges on range(n) with cycles, self-loops and repeated edges."""
    edges = [(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randint(0, int(rng.choice((0.02, 0.1, 0.4)) * n * n) + 2))]
    edges += [(i, i) for i in rng.sample(range(n), rng.randint(0, n // 4))]
    edges += rng.sample(edges, len(edges) // 3)
    rng.shuffle(edges)
    return edges


@pytest.mark.parametrize("seed", range(3))
def test_closure_rows_match_warshall_on_random_relations(seed):
    rng = random.Random(1300 + seed)
    cyclic = 0
    for _ in range(200):
        n = rng.randint(1, 64)
        edges = _random_relation(rng, n)
        up = closure_rows(n, edges)
        # One Tarjan pass gives the up rows; the sweep after it, the down rows.
        assert _closure_rows(n, edges) == (up, converse_rows(up))
        cyclic += any(up[i] >> j & 1 and up[j] >> i & 1 for i, j in edges if i != j)
    assert cyclic > 20


@pytest.mark.parametrize("seed", range(2))
def test_cycle_error_pair_matches_oracle_on_cyclic_relations(seed):
    # Every relation here has at least one cycle through two classes; a cycle
    # shares one row, and the first (i < j) pair of it is the one named.
    rng = random.Random(1310 + seed)
    for _ in range(100):
        n = rng.randint(2, 48)
        names = [f"q{i}" for i in range(n)]
        a, b = rng.sample(range(n), 2)
        edges = _random_relation(rng, n) + [(a, b), (b, a)]
        covers = [(names[i], names[j]) for i, j in edges]
        kind, pair, _ = brute_lattice_error(names, covers)
        assert kind == "cycle"
        with pytest.raises(CycleError) as exc:
            build_lattice("cyc", names, covers)
        assert exc.value.pair == pair
        assert str(exc.value) == str(CycleError(pair))


def test_lattice_rows_are_the_warshall_closure():
    rng = random.Random(1320)
    for n in (1, 2, 5, 17, 40, 64):
        lat = random_lattice_exact(rng, n)
        index = {c: i for i, c in enumerate(lat.classes)}
        up = closure_rows(n, [(index[a], index[b]) for a, b in lat.covers])
        assert [lat._up[c] for c in lat.classes] == up
        assert [lat._down[c] for c in lat.classes] == converse_rows(up)


@pytest.mark.parametrize("top_first", [False, True])
def test_closure_of_a_3000_class_chain_needs_no_recursion(top_first):
    # A depth-first closure that recursed would pass the interpreter's
    # recursion limit here.  The chain runs order[0] -> order[1] -> ...; the
    # test below builds the lattice over it.
    n = 3000
    order = list(range(n))[::-1] if top_first else list(range(n))
    up, down = _closure_rows(n, [(order[k], order[k + 1]) for k in range(n - 1)])
    for k in (0, 1, n // 2, n - 2, n - 1):
        assert up[order[k]] == sum(1 << v for v in order[k:])
        assert down[order[k]] == sum(1 << v for v in order[:k + 1])


@pytest.mark.parametrize("top_first", [False, True])
def test_a_3000_class_chain_builds_as_a_lattice(top_first):
    # Every pair of a chain is comparable, so the proof looks up no meet.
    n = 3000
    names = [f"c{i}" for i in range(n)]
    lat = build_lattice("chain", names[::-1] if top_first else names,
                        [(names[k], names[k + 1]) for k in range(n - 1)])
    assert (lat.bottom, lat.top) == ("c0", f"c{n - 1}")
    for i, j in ((0, n - 1), (17, 2000), (n // 2, n // 2 + 1), (2999, 1)):
        assert lat.meet(names[i], names[j]) == names[min(i, j)]
        assert lat.join(names[i], names[j]) == names[max(i, j)]


def test_wide_antichain_matches_oracle():
    # M_12: twelve pairwise incomparable atoms between a bottom and a top, so
    # the proof looks up nearly every pair.  Two classes under a5 and a6 then
    # give that pair two maximal lower bounds: a missing meet under a top.
    atoms = [f"a{i}" for i in range(12)]
    covers = [p for a in atoms for p in (("0", a), (a, "1"))]
    assert _assert_outcome_matches_oracle(["0", *atoms, "1"], covers) == "lattice"
    extra = [(lo, hi) for lo in ("m1", "m2") for hi in ("a5", "a6")]
    classes, covers = ["0", *atoms, "1", "m1", "m2"], covers + extra + [("0", "m1"), ("0", "m2")]
    assert brute_lattice_error(classes, covers) == ("meet", ("a5", "a6"), ("m1", "m2"))
    assert _assert_outcome_matches_oracle(classes, covers) == "meet"
