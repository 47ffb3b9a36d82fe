"""Verification, synthesis, composition, decomposition and maintenance of
connections between two lattices."""

import itertools
import json
import random
import re
from collections import Counter

import pytest

import sifc.connection as connection_module
import sifc.lattice as lattice_module
from sifc.connection import (AdjointError, CoarsenError, ComposeError, Decomposition,
                             LagoisConnection, LatticeMismatch, MapError, MonotoneMap,
                             NotClosure, NotIso, NotLagois, NotMonotone, NotSemiInverse,
                             PartialMap,
                             build_from_closures, check_connection, check_tightness, coarsen,
                             compose, connection_violations, decompose,
                             budpoint_representative, find_adjoint, _proven_map,
                             identity_connection, semi_inverse_connection, sublattice)
from sifc.dlm import (Label, Policy, PrincipalMapPair, PrincipalsHierarchy, UnknownPrincipal,
                      check_lifted_connection, cross_declassify_check, declassify_check,
                      label_leq, lift_label)
from sifc.flowlang import (adversary_pairs, exec_program, lint_transfer_classes, ni_trial,
                           parse_program, run_ni_suite, store_pair_from_dict, typecheck)
from sifc.lattice import Lattice, NotALattice, Record, UnknownClass, build_lattice

import fixtures as fx
from gen import (find_order_iso, monotone_maps, random_closure, random_connection,
                 random_lattice, random_lattice_exact, random_monotone_map)
from oracles import (BrutePoset, brute_adjoints_exhaustive,
                     brute_adjoints_monotone, brute_lagois_violations,
                     brute_tightness_failures, brute_tightness_passed, reference_sublattice)
from test_readme import COMMANDS, EXPECTED_RUNS, readme_run


@pytest.fixture(scope="module")
def cu():
    return fx.college_university()


# -- verification -----------------------------------------------------------

def test_fixture_connection_verifies(cu):
    assert cu.budpoints_left == fx.CU_BUDPOINTS_LEFT
    assert cu.budpoints_right == fx.CU_BUDPOINTS_RIGHT


def test_budpoints_are_round_trip_fixed_points(cu):
    left_fixed = tuple(l for l in cu.left.classes if cu.round_trip_left(l) == l)
    right_fixed = tuple(m for m in cu.right.classes if cu.round_trip_right(m) == m)
    assert left_fixed == cu.budpoints_left
    assert right_fixed == cu.budpoints_right


def test_connections_are_hashable():
    # Equal connections rebuilt from the same documents hash alike, so they
    # can key a dict or share a set.
    a, b = fx.college_university(), fx.college_university()
    assert a is not b and a == b
    assert hash(a) == hash(b)
    assert len({a, b, a.transpose()}) == 2


def test_budpoints_and_kernels_are_read_off_the_maps_when_first_asked_for(monkeypatch):
    grouped, imaged, masked = [], [], []
    real, blocks = connection_module._preimages, connection_module._blocks
    image = MonotoneMap.image
    monkeypatch.setattr(connection_module, "_preimages", lambda f: grouped.append(f) or real(f))
    monkeypatch.setattr(MonotoneMap, "image", lambda f: imaged.append(f) or image(f))
    monkeypatch.setattr(connection_module, "_blocks", lambda f: masked.append(f) or blocks(f))
    # One op of the construction benchmark groups one map by name, the kernel
    # that coarsen reads, and two on the bit rows: find_adjoint's alpha and
    # coarsen's replacement map.  It reads three images: both budpoint sets of
    # the connection, kept for check_tightness, and the left budpoints of its
    # transposed view.
    conn = check_connection(fx.college(), fx.university(), fx.CU_ALPHA, fx.CU_GAMMA)
    coarse = MonotoneMap(conn.left, conn.right, fx.CU_ALPHA_COARSE)
    find_adjoint(conn.alpha)
    parts = decompose(conn)
    made = [compose(conn, conn.transpose()).connection, parts.insertion_left,
            parts.insertion_right, coarsen(conn, coarse)]
    assert check_tightness(conn).passed
    assert grouped == [conn.alpha] and masked == [conn.alpha, coarse]
    assert imaged == [conn.gamma, conn.alpha, conn.alpha]
    # A constructed connection groups nothing until one of its kernels is read,
    # and then only that map, once; equality and hash ignore what was read.
    for out in made:
        equal = LagoisConnection(out.left, out.right, out.alpha, out.gamma)
        shown, hashed = repr(out), hash(out)
        del grouped[:]
        assert (out.budpoints_left, out.budpoints_right) == (out.gamma.image(), out.alpha.image())
        assert grouped == []
        kernel = out.kernel_left
        assert grouped == [out.alpha] and out.kernel_left is kernel
        assert out.kernel_right is out.kernel_right and grouped == [out.alpha, out.gamma]
        assert (repr(out), out, hash(out)) == (shown, equal, hashed) and hash(equal) == hashed
        assert set(vars(out)) == {"budpoints_left", "budpoints_right", "kernel_left",
                                  "kernel_right"}
        assert not vars(equal)


def test_one_op_closes_each_lattice_once_and_calls_no_map(monkeypatch):
    # One op of the construction benchmark: each lattice it builds is closed
    # by one `_closure_rows` call, the two it reads and decompose's two budpoint
    # lattices, and the constructors read the map tables rather than calling
    # the maps.  They and the closure builder decide every order test on the
    # bit rows, never by name through `Lattice.leq`.
    docs = fx.college().to_dict(), fx.university().to_dict()
    closed, built, called, compared = [], [], [], []
    closure_rows, build = lattice_module._closure_rows, lattice_module.build_lattice
    for module in (lattice_module, connection_module):
        monkeypatch.setattr(module, "_closure_rows",
                            lambda n, edges: closed.append(n) or closure_rows(n, edges))
    monkeypatch.setattr(lattice_module, "build_lattice",
                        lambda *args: built.append(args[0]) or build(*args))
    monkeypatch.setattr(MonotoneMap, "__call__", lambda f, c: called.append(c))
    monkeypatch.setattr(Lattice, "leq", lambda lat, a, b: compared.append((a, b)))
    left, right = map(Lattice.from_dict, docs)
    conn = check_connection(left, right, fx.CU_ALPHA, fx.CU_GAMMA)
    assert find_adjoint(conn.alpha).mapping() == fx.CU_GAMMA
    composed = compose(conn, conn.transpose()).connection
    parts = decompose(conn)
    coarse = coarsen(conn, MonotoneMap(left, right, fx.CU_ALPHA_COARSE))
    assert check_tightness(conn).passed and check_tightness(coarse).passed
    semi = semi_inverse_connection(conn.alpha, conn.gamma)
    assert (closed, built) == ([len(left), len(right), len(fx.CU_BUDPOINTS_LEFT),
                                len(fx.CU_BUDPOINTS_RIGHT)], [left.name, right.name])
    doc = json.loads((fx.ROOT / "fixtures" / "dorm-college-closures.json").read_text())
    dorm, college = (lattice_module.load_lattice(str(fx.ROOT / "fixtures" / doc[side]))
                     for side in ("left", "right"))
    closures = build_from_closures(dorm, college, doc["c"], doc["i"], doc["h"])
    assert called == [] and compared == []
    monkeypatch.undo()
    assert closures == fx.dorm_college()
    assert semi == conn and composed.alpha.mapping() == {
        l: conn.round_trip_left(l) for l in left.classes}
    assert all(parts.recomposed_alpha(l) == conn.alpha(l) for l in left.classes)


# Every query by name, a layer for callers only: sifc reads its orders by row.
BY_NAME = ((Lattice, ("index", "leq", "join", "meet", "join_all", "meet_all", "upset", "downset",
                      "sorted_by_index", "__contains__")),
           (MonotoneMap, ("__call__",)),
           (PrincipalsHierarchy, ("acts_for", "equiv", "__contains__")),
           (LagoisConnection, ("round_trip_left", "round_trip_right")),
           (Decomposition, ("recomposed_alpha", "recomposed_gamma")),
           (connection_module, ("budpoint_representative",)))


def _forbid_by_name(monkeypatch):
    for owner, names in BY_NAME:
        for name in names:
            def forbidden(*args, name=name):
                raise AssertionError(f"sifc called {name} by name")
            monkeypatch.setattr(owner, name, forbidden)


def _data(out):
    """A result as plain data: lattices and maps by content, records field by field."""
    if isinstance(out, Lattice):
        return out.name, out.classes, out.covers, out.order_pairs()
    if isinstance(out, MonotoneMap):
        return out.mapping(), out.image()
    if isinstance(out, Record):
        return type(out).__name__, tuple(_data(getattr(out, f)) for f in out.__match_args__)
    if isinstance(out, (tuple, list)):
        return tuple(map(_data, out))
    return out


def _fresh(arg):
    """A connection or a principal map pair rebuilt with nothing derived read yet."""
    if isinstance(arg, (LagoisConnection, PrincipalMapPair)):
        return type(arg)(*(getattr(arg, field) for field in arg.__match_args__))
    return arg


def _outcome(call):
    """f(*args) of the call (f, *args), over fresh connections, as data."""
    f, *args = call
    try:
        return "ok", _data(f(*map(_fresh, args)))
    except Exception as exc:  # each verdict and input error, by class and message
        return "error", type(exc).__name__, str(exc)


def _adjoint(left, right, alpha):
    return find_adjoint(MonotoneMap(left, right, alpha))


def _library_calls(small_lattices, small_pairs, small_connections) -> list:
    """Calls (f, *args) of every constructor, to each success and fail verdict, of the
    typer, the NI harness, the executor and the three label decisions."""
    docs = [json.loads((fx.ROOT / "fixtures" / f).read_text()) for f in ("college.json",
                                                                          "dorm.json")]
    docs += [{"name": "cycle", "classes": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]},
             {"name": "no-top", "classes": ["b", "x", "y"], "covers": [["b", "x"], ["b", "y"]]},
             {"name": "stray", "classes": ["a"], "covers": [["a", "z"]]}]
    calls = [(Lattice.from_dict, doc) for doc in docs]
    calls += [(check_connection, *pair) for pair in small_pairs[::5]]
    calls += [(_adjoint, *pair[:3]) for pair in small_pairs[::23]]
    calls += [(semi_inverse_connection, MonotoneMap(l, r, a), MonotoneMap(r, l, g))
              for l, r, a, g in small_pairs[::37]]
    right = build_lattice("m", ["b", "z", "y", "x", "t"],
                          [("b", "z"), ("z", "y"), ("z", "x"), ("y", "t"), ("x", "t")])
    left = build_lattice("l", ["l0", "l1", "l2", "l3"],
                         [("l0", "l1"), ("l0", "l2"), ("l1", "l3"), ("l2", "l3")])
    calls.append((_adjoint, left, right, {"l0": "b", "l1": "y", "l2": "x", "l3": "t"}))
    for conn in small_connections:
        a, g = conn.alpha.mapping(), conn.gamma.mapping()
        trips = {l: g[a[l]] for l in a}, {m: a[g[m]] for m in g}
        calls += [(f, conn) for f in (decompose, check_tightness, adversary_pairs)]
        iso = {l: a[l] for l in conn.budpoints_left}
        calls += [(identity_connection, conn.left),
                  (build_from_closures, conn.left, conn.right, *trips, iso)]
        calls += [(coarsen, conn, MonotoneMap(conn.left, conn.right, alpha2))
                  for alpha2 in monotone_maps(conn.left, conn.right)]
    calls += [(compose, ab, bc) for ab, bc in itertools.product(small_connections, repeat=2)
              if ab.right is bc.left][::3]
    rng = random.Random(1302)
    for _ in range(200):
        left, right = random_lattice(rng, max_classes=5), random_lattice(rng, max_classes=5)
        c, i = _random_operator(rng, left), _random_operator(rng, right)
        image_c = [x for x in left.classes if x in c.values()]
        image_i = [x for x in right.classes if x in i.values()]
        h = dict(zip(image_c, rng.sample(image_i, min(len(image_c), len(image_i)))))
        calls.append((build_from_closures, left, right, c, i, h))
    cu = fx.college_university()
    calls += [(MonotoneMap, cu.left, cu.right, table) for table in (
        fx.CU_ALPHA, None, {"bot1": "bot2"}, dict(fx.CU_ALPHA, Student="top2"),
        dict(fx.CU_ALPHA, top1="top9"), dict(fx.CU_ALPHA, top9="top2"))]
    calls += [(compose, cu, cu), (coarsen, cu, cu.gamma),
              (semi_inverse_connection, cu.alpha, cu.alpha),
              (check_tightness, fx.forged_two_point())]
    calls += [(sublattice, lat, subset, "sub") for lat in small_lattices
              for k in range(1, len(lat) + 1) for subset in itertools.combinations(lat.classes, k)]
    calls.append((sublattice, cu.left, ["top1", "nope"], "sub"))

    text = (fx.ROOT / "fixtures" / "pipeline.sif").read_text()
    prog = parse_program(text)
    store = json.loads((fx.ROOT / "fixtures" / "pipeline-store.json").read_text())
    init = store_pair_from_dict(store)
    calls += [(typecheck, prog, cu), (exec_program, prog, init),
              (run_ni_suite, fx.ni_decls(), cu, 4, 6, 7), (lint_transfer_classes, prog, cu)]
    calls += [(ni_trial, prog, cu, pair, seed) for pair in adversary_pairs(cu) for seed in (1, 2)]
    calls += [(typecheck, parse_program(text + extra), cu) for extra in (
        "var M my0 : bot2 import\ntlr my0 lx1\n", "var L lq : Nope internal\n")]

    pm = fx.principal_map_pair()
    calls += [(PrincipalMapPair.check, pm.left, pm.right, pm.alpha, gamma)
              for gamma in (pm.gamma, dict(pm.gamma, vice="BOT"))]
    calls.append((check_lifted_connection, pm, 0, 0))
    empty = Label.empty()
    for authority in (None, 3, [["fac"]], ["fac", 3], [3], ["fac"], ["zz"]):
        calls += [(declassify_check, pm.left, authority, empty, empty),
                  (cross_declassify_check, pm, authority, [], empty, empty),
                  (cross_declassify_check, pm, ["fac"], authority, empty, empty, "rl")]
    rng = random.Random(35)
    for h in (pm.left, pm.right):
        names = [*h.principals, "zz"]
        for _ in range(60):
            l1, l2 = (Label(frozenset(Policy(rng.choice(names), frozenset(rng.sample(names, 2)))
                                      for _ in range(rng.randint(0, 2)))) for _ in "12")
            authority = rng.sample(names, rng.randint(0, 2))
            calls += [(label_leq, h, l1, l2), (declassify_check, h, authority, l1, l2),
                      (lift_label, pm, "lr" if h is pm.left else "rl", l1)]
            near = [p for p in authority if p in ("fac", "uni_fac")]  # budpoints: mirrored
            far = [{"fac": "uni_fac", "uni_fac": "fac"}[p] for p in near]
            calls.append((cross_declassify_check, pm, *((near, far) if h is pm.left else
                                                        (far, near)), l1, l2,
                          "lr" if h is pm.left else "rl"))
    return calls


def test_no_sifc_code_reads_an_order_by_name(monkeypatch, small_lattices, small_pairs,
                                             small_connections):
    # Each call gives the same outcome, result or error, with every query by name
    # made to raise, and so do the README commands run in-process through `main`.
    calls = _library_calls(small_lattices, small_pairs, small_connections)
    expected = [_outcome(call) for call in calls]
    runs = json.loads(EXPECTED_RUNS.read_text(encoding="utf-8"))
    _forbid_by_name(monkeypatch)
    assert [_outcome(call) for call in calls] == expected
    monkeypatch.chdir(fx.ROOT)
    monkeypatch.delenv("SIFC_SEED", raising=False)
    for argv in (["--format", "json", *argv] for argv in COMMANDS):
        assert readme_run(argv) == runs[" ".join(argv)]
    # Every fail verdict and input error of the constructors and decisions is among them.
    errors = [" ".join(o[1:]) for o in expected if o[0] == "error"]
    for needle in ("CycleError", "NotALattice", "UnknownClass", "PartialMap", "NotMonotone",
                   "MapError", "LatticeMismatch", "NotLagois ", "condition (1)", "no image class",
                   "no smallest member (minimal ones: ['y', 'x'])", "condition (3)",
                   "(no-largest-element)", "(not-refinement)", "(representative-mismatch)",
                   "left connection's alpha", "right connection's gamma", "monotone fails",
                   "increasing fails", "idempotent fails", "defined exactly", "one-to-one",
                   "preserve and reflect", "NotSemiInverse", "FlowTypeError",
                   "NotLagoisHierarchy", "AuthorityMismatch", "DlmError", "UnknownPrincipal"):
        assert any(needle in error for error in errors), needle


def test_kernels_partition_classes(cu):
    flat = [c for block in cu.kernel_left for c in block]
    assert sorted(flat) == sorted(cu.left.classes)
    for block in cu.kernel_left:
        assert len({cu.alpha(c) for c in block}) == 1


def test_identity_connection():
    lat = fx.college()
    conn = identity_connection(lat)
    assert conn.budpoints_left == lat.classes
    assert conn.budpoints_right == lat.classes


def test_two_chain_lc2_violation():
    two_l = build_lattice("l", ["l0", "l1"], [("l0", "l1")])
    two_m = build_lattice("m", ["m0", "m1"], [("m0", "m1")])
    alpha = {"l0": "m0", "l1": "m0"}
    gamma = {"m0": "l1", "m1": "l1"}
    violations = connection_violations(two_l, two_m, alpha, gamma)
    assert violations == [v for v in violations]  # deterministic list
    assert [(v.condition, v.witness) for v in violations] == [("LC2", ("m1",))]
    with pytest.raises(NotLagois):
        check_connection(two_l, two_m, alpha, gamma)


def test_edited_gamma_reports_single_lc2_violation():
    gamma = dict(fx.CU_GAMMA, ViceChancellor="CollegePrincipal")
    violations = connection_violations(fx.college(), fx.university(), fx.CU_ALPHA, gamma)
    assert [(v.condition, v.witness) for v in violations] == [("LC2", ("ViceChancellor",))]


@pytest.mark.parametrize("bad", ["nope", None, 3, ["x"], {}],
                         ids=["missing", "none", "int", "list", "dict"])
def test_every_query_by_name_names_an_unknown_argument(cu, bad):
    # Hashable or not, in either place, and first if both are unknown: the error
    # names it, and no query reports a TypeError.  Membership answers False.
    lat, parts, h = cu.left, decompose(cu), fx.principal_map_pair().left
    queries = [(lat.index, bad), (lat.upset, bad), (lat.downset, bad), (lat.meet_all, [bad]),
               (lat.join_all, ["top1", bad]), (lat.sorted_by_index, ["top1", bad])]
    queries += [(query, *args) for query in (lat.leq, lat.join, lat.meet)
                for args in ((bad, "top1"), ("top1", bad), (bad, "other"))]
    maps = [(cu.alpha, bad), (cu.gamma, bad), (cu.round_trip_left, bad), (cu.round_trip_right, bad),
            (budpoint_representative, cu, "left", bad), (parts.recomposed_alpha, bad),
            (parts.recomposed_gamma, bad)]
    principals = [(query, *args) for query in (h.acts_for, h.equiv)
                  for args in ((bad, "fac"), ("fac", bad), (bad, "other"))]
    for calls, error, message in ((queries, UnknownClass, f"unknown class {bad!r} in College"),
                                  (maps, UnknownClass, f"unknown class {bad!r} in map domain"),
                                  (principals, UnknownPrincipal, f"unknown principal {bad!r}")):
        for query, *args in calls:
            with pytest.raises(error) as exc:
                query(*args)
            assert (exc.value.name, str(exc.value)) == (bad, message)
    assert bad not in lat and bad not in h


def test_a_miss_on_names_that_the_order_holds_is_a_bug_and_propagates():
    # Only a bug in sifc misses a row of a name the order has: the KeyError or
    # TypeError propagates as it is, and is not blamed on the argument.
    lat = fx.college()
    lat._by_up = lat._by_down = {}
    for query in (lat.join, lat.meet):
        with pytest.raises(KeyError) as exc:
            query("Student", "Faculty")
        assert type(exc.value) is KeyError
    pm = fx.principal_map_pair()
    h = PrincipalsHierarchy(pm.left.principals, pm.left.edges)
    h._up = {}
    l1, l2 = Label.of(Policy("stu", frozenset())), Label.empty()
    for call in (lambda: label_leq(h, l1, l2), lambda: declassify_check(h, ["fac"], l1, l2)):
        with pytest.raises(KeyError) as exc:
            call()
        assert not isinstance(exc.value, UnknownPrincipal)
    pm = PrincipalMapPair(pm.left, pm.right, None, pm.gamma)  # no alpha to read
    with pytest.raises(TypeError):
        cross_declassify_check(pm, ["fac"], ["uni_fac"], l2, l2)


def test_partial_map_rejected():
    alpha = dict(fx.CU_ALPHA)
    del alpha["Student"]
    with pytest.raises(PartialMap):
        connection_violations(fx.college(), fx.university(), alpha, fx.CU_GAMMA)


@pytest.mark.parametrize("side", ["alpha", "gamma"])
def test_maps_that_are_not_maps_of_names_are_rejected(side):
    maps = {"alpha": fx.CU_ALPHA, "gamma": fx.CU_GAMMA}
    top = {"alpha": "top1", "gamma": "top2"}[side]
    not_a_map = f"{side} must be a mapping from names to names"
    for table, error, message in (
            (None, MapError, not_a_map), (["x"], MapError, not_a_map),
            (dict(maps[side], **{top: ["x"]}), UnknownClass,
             f"unknown class ['x'] in {side} range"),
            (dict(maps[side], **{top: None}), UnknownClass,
             f"unknown class None in {side} range")):
        with pytest.raises(error) as exc:
            check_connection(fx.college(), fx.university(), **(maps | {side: table}))
        assert str(exc.value) == message
        if side == "alpha":
            with pytest.raises(error) as exc:
                MonotoneMap(fx.college(), fx.university(), table, "alpha")
            assert str(exc.value) == message


def _first_offender_cases(table, valid, bad):
    """Tables with a stray key "zz", a value `bad` out of range at the first key, or
    both, each way round, and the offender each names first: (table, name, half).
    `valid` is a target name, so a table whose only fault is the stray key has as many
    values in range as a total map, and one key more."""
    first = next(iter(table))
    wrong, unhashable = dict(table, **{first: bad}), dict(table, **{first: [bad]})
    return (({"zz": valid, **wrong}, "zz", "domain"), ({**wrong, "zz": valid}, bad, "range"),
            ({"zz": valid, **unhashable}, "zz", "domain"),
            ({**unhashable, "zz": valid}, [bad], "range"),
            ({**table, "zz": valid}, "zz", "domain"), ({"zz": valid, **table}, "zz", "domain"),
            (wrong, bad, "range"), (unhashable, [bad], "range"))


@pytest.mark.parametrize("via", ["connection_violations", "MonotoneMap", "build_from_closures",
                                 "PrincipalMapPair.check"])
def test_a_map_check_names_its_first_offender_in_table_order(via):
    # A total table with only target names as values is accepted at once; any
    # other is read in table order, so a stray key and a value out of range
    # name whichever comes first, and a stray key alone is caught by the count.
    pm = fx.principal_map_pair()
    where, table, valid, call, error, noun = {
        "connection_violations": ("alpha", fx.CU_ALPHA, "top2", lambda t: connection_violations(
            fx.college(), fx.university(), t, fx.CU_GAMMA), UnknownClass, "class"),
        "MonotoneMap": ("alpha", fx.CU_ALPHA, "top2", lambda t: MonotoneMap(
            fx.college(), fx.university(), t, "alpha"), UnknownClass, "class"),
        "build_from_closures": ("c", fx.DC_CLOSURE_LEFT, "top0", lambda t: build_from_closures(
            fx.dorm(), fx.college(), t, fx.DC_CLOSURE_RIGHT, fx.DC_ISO), UnknownClass, "class"),
        "PrincipalMapPair.check": ("gamma", fx.PM_GAMMA, "TOP", lambda t: PrincipalMapPair.check(
            pm.left, pm.right, fx.PM_ALPHA, t), UnknownPrincipal, "principal"),
    }[via]
    call(dict(table))  # the table itself passes
    for bad_table, name, half in _first_offender_cases(table, valid, "top9"):
        with pytest.raises(error) as exc:
            call(bad_table)
        assert type(exc.value) is error and exc.value.name == name
        assert str(exc.value) == f"unknown {noun} {name!r} in {where} {half}"


@pytest.mark.parametrize("name", ["c", "i"])
def test_closures_that_are_not_maps_of_names_are_rejected(name):
    closures = {"c": fx.DC_CLOSURE_LEFT, "i": fx.DC_CLOSURE_RIGHT}
    top = {"c": "top0", "i": "top1"}[name]
    for table, error, message in (
            (None, MapError, f"{name} must be a mapping from names to names"),
            (dict(closures[name], **{top: ["x"]}), UnknownClass,
             f"unknown class ['x'] in {name} range")):
        with pytest.raises(error) as exc:
            build_from_closures(fx.dorm(), fx.college(), **(closures | {name: table}),
                                h=fx.DC_ISO)
        assert str(exc.value) == message


def test_an_iso_that_is_not_a_map_of_names_is_rejected():
    # Checked before the NotIso checks: {5: "top1"} also leaves out the image of c.
    not_a_map = "h must be a mapping from names to names"
    top_c = fx.DC_CLOSURE_LEFT["top0"]
    for h, error, message in (
            (None, MapError, not_a_map), (["x"], MapError, not_a_map), ("ab", MapError, not_a_map),
            (dict(fx.DC_ISO, **{top_c: ["x"]}), UnknownClass, "unknown class ['x'] in h range"),
            (dict(fx.DC_ISO, **{top_c: None}), UnknownClass, "unknown class None in h range"),
            ({5: "top1"}, UnknownClass, "unknown class 5 in h domain"),
            ({None: "top1", **fx.DC_ISO}, UnknownClass, "unknown class None in h domain")):
        with pytest.raises(error) as exc:
            build_from_closures(fx.dorm(), fx.college(), fx.DC_CLOSURE_LEFT,
                                fx.DC_CLOSURE_RIGHT, h)
        assert type(exc.value) is error and str(exc.value) == message


def test_all_violations_collected():
    # Swap gamma into nonsense: monotonicity and several laws break at once.
    lat = build_lattice("c3", ["a", "b", "c"], [("a", "b"), ("b", "c")])
    alpha = {"a": "a", "b": "b", "c": "c"}
    gamma = {"a": "c", "b": "b", "c": "a"}
    violations = connection_violations(lat, lat, alpha, gamma)
    conditions = {v.condition for v in violations}
    assert "Monotone-gamma" in conditions
    assert len(violations) > 1


def _assert_violations_match_oracle(mine, brute):
    """LC1-LC4 lists agree exactly; monotonicity is checked on covers only,
    so its witnesses are a subset of the all-pairs ones, empty together."""
    mine = [(v.condition, v.witness) for v in mine]
    for cond in ("Monotone-alpha", "Monotone-gamma"):
        ours = [v for v in mine if v[0] == cond]
        theirs = [v for v in brute if v[0] == cond]
        assert set(ours) <= set(theirs) and bool(ours) == bool(theirs)
    laws = ("LC1", "LC2", "LC3", "LC4")
    assert [v for v in mine if v[0] in laws] == [v for v in brute if v[0] in laws]


def test_check_agrees_with_brute_force_on_random_instances():
    rng = random.Random(2024)
    agree_pass = agree_fail = not_monotone = 0
    for _ in range(150):
        left = random_lattice(rng, max_classes=5)
        right = random_lattice(rng, max_classes=5)
        lposet = BrutePoset(left.classes, left.covers)
        rposet = BrutePoset(right.classes, right.covers)
        alpha = random_monotone_map(rng, left, right)
        gamma = random_monotone_map(rng, right, left)
        mine = connection_violations(left, right, alpha, gamma)
        _assert_violations_match_oracle(
            mine, brute_lagois_violations(lposet, rposet, alpha, gamma))
        if mine:
            agree_fail += 1
        else:
            agree_pass += 1
        # arbitrary maps exercise the monotonicity witnesses too
        alpha = {c: rng.choice(right.classes) for c in left.classes}
        gamma = {c: rng.choice(left.classes) for c in right.classes}
        mine = connection_violations(left, right, alpha, gamma)
        _assert_violations_match_oracle(
            mine, brute_lagois_violations(lposet, rposet, alpha, gamma))
        not_monotone += any(v.condition.startswith("Monotone") for v in mine)
    assert agree_fail > 0 and agree_pass > 0  # the sample exercised both outcomes
    assert not_monotone > 0


def _replays(left, right, alpha, gamma, v):
    """A violation's witness must reproduce the failure it names."""
    if v.condition == "Monotone-alpha":
        a, b = v.witness
        return left.leq(a, b) and not right.leq(alpha[a], alpha[b])
    if v.condition == "Monotone-gamma":
        a, b = v.witness
        return right.leq(a, b) and not left.leq(gamma[a], gamma[b])
    if v.condition == "LC1":
        return not left.leq(v.witness[0], gamma[alpha[v.witness[0]]])
    if v.condition == "LC2":
        return not right.leq(v.witness[0], alpha[gamma[v.witness[0]]])
    if v.condition == "LC3":
        l = v.witness[0]
        return alpha[gamma[alpha[l]]] != alpha[l]
    if v.condition == "LC4":
        m = v.witness[0]
        return gamma[alpha[gamma[m]]] != gamma[m]
    return False


def test_violation_witnesses_replay():
    rng = random.Random(58)
    replayed = 0
    for _ in range(120):
        left = random_lattice(rng, max_classes=5)
        right = random_lattice(rng, max_classes=5)
        alpha = random_monotone_map(rng, left, right)
        gamma = random_monotone_map(rng, right, left)
        for v in connection_violations(left, right, alpha, gamma):
            assert _replays(left, right, alpha, gamma, v), v
            replayed += 1
    assert replayed > 50


def test_security_precision_convergence_conditions(cu):
    left, right = cu.left, cu.right
    # SC1/SC2 restate LC1/LC2 verbatim.
    for l in left.classes:
        assert left.leq(l, cu.round_trip_left(l))
    for m in right.classes:
        assert right.leq(m, cu.round_trip_right(m))
    # PC1/PC2: on image classes, each map is the join of the other's preimage.
    for l in cu.gamma.image():
        assert cu.alpha(l) == right.join_all(
            m for m in right.classes if cu.gamma(m) == l)
    for m in cu.alpha.image():
        assert cu.gamma(m) == left.join_all(
            l for l in left.classes if cu.alpha(l) == m)
    # CC1/CC2: the round trips are idempotent with the budpoints as their
    # exact fixed-point sets.
    for l in left.classes:
        assert cu.round_trip_left(cu.round_trip_left(l)) == cu.round_trip_left(l)
    for m in right.classes:
        assert cu.round_trip_right(cu.round_trip_right(m)) == cu.round_trip_right(m)
    assert set(cu.budpoints_left) == {cu.round_trip_left(l) for l in left.classes}
    assert set(cu.budpoints_right) == {cu.round_trip_right(m) for m in right.classes}


# -- representatives and tightness -------------------------------------------

def test_representatives(cu):
    assert budpoint_representative(cu, "left", "Student") == "Faculty"
    assert budpoint_representative(cu, "right", "ViceChancellor") == "top2"
    for b in cu.budpoints_left:
        assert budpoint_representative(cu, "left", b) == b
    # the representative dominates and is the least budpoint above
    for l in cu.left.classes:
        rep = budpoint_representative(cu, "left", l)
        assert cu.left.leq(l, rep)
        above = [b for b in cu.budpoints_left if cu.left.leq(l, b)]
        assert rep == cu.left.meet_all(above)


def test_tightness_fixture(cu):
    report = check_tightness(cu)
    assert report.passed, report.failures
    assert report.subsets_checked == 13  # one dominating-budpoint set per class: 7 + 6
    # spot value: the representative of Dean(S) is the meet of the budpoints
    # above it
    above = [b for b in cu.budpoints_left if cu.left.leq("Dean(S)", b)]
    assert sorted(above) == ["CollegePrincipal", "top1"]
    assert cu.round_trip_left("Dean(S)") == "CollegePrincipal"


def test_tightness_random_connections():
    rng = random.Random(5)
    for _ in range(25):
        conn = _random_connection(rng)
        report = check_tightness(conn)
        assert report.passed, report.failures


def _unverified(left, right, alpha, gamma):
    """A LagoisConnection record over raw tables, built without verification;
    its budpoints are the images of the maps, as on every record."""
    return LagoisConnection(left, right, _proven_map(left, right, alpha),
                            _proven_map(right, left, gamma))


def _meet_escapes(conn) -> bool:
    """Whether the top or the meet of two budpoints of a side is not a budpoint:
    what check_tightness no longer tests, since its round-trip test implies it."""
    return any(lat.top not in buds
               or any(lat.meet(x, y) not in buds for x, y in itertools.combinations(buds, 2))
               for lat, buds in ((conn.left, conn.budpoints_left),
                                 (conn.right, conn.budpoints_right)))


def test_tightness_agrees_with_brute_force_on_unverified_connections():
    rng = random.Random(31)
    outcomes, escapes = {True: 0, False: 0}, 0
    for i in range(300):
        left = random_lattice(rng, max_classes=7)
        right = random_lattice(rng, max_classes=7)
        if i % 2:
            alpha = random_monotone_map(rng, left, right)
            gamma = random_monotone_map(rng, right, left)
        else:
            alpha = {c: rng.choice(right.classes) for c in left.classes}
            gamma = {c: rng.choice(left.classes) for c in right.classes}
        conn = _unverified(left, right, alpha, gamma)
        report = check_tightness(conn)
        oracle = (BrutePoset(left.classes, left.covers), BrutePoset(right.classes, right.covers),
                  alpha, gamma, conn.budpoints_left, conn.budpoints_right)
        assert report.passed == brute_tightness_passed(*oracle), (alpha, gamma, report.failures)
        assert report.failures == tuple(brute_tightness_failures(*oracle))
        assert report.passed == (not report.failures)
        assert report.subsets_checked == len(left.classes) + len(right.classes)
        outcomes[report.passed] += 1
        if _meet_escapes(conn):  # the round-trip test fails there too
            assert not report.passed
            escapes += 1
    assert outcomes[True] > 0 and outcomes[False] > 0
    assert escapes > 0


def test_tightness_fails_when_round_trip_is_not_the_least_budpoint_above():
    # gamma is onto the chain, so its budpoints are meet-closed, but alpha
    # sends lo to the top: the round trip of lo overshoots the budpoint lo.
    chain = build_lattice("chain", ["lo", "hi"], [("lo", "hi")])
    alpha, gamma = {"lo": "hi", "hi": "hi"}, {"lo": "lo", "hi": "hi"}
    conn = _unverified(chain, chain, alpha, gamma)
    report = check_tightness(conn)
    assert report.failures == (
        "left:lo: round trip is not the meet of dominating budpoints",)
    assert not report.passed
    poset = BrutePoset(chain.classes, chain.covers)
    assert not brute_tightness_passed(poset, poset, alpha, gamma,
                                      conn.budpoints_left, conn.budpoints_right)


def test_tightness_agrees_with_brute_force_on_every_small_monotone_pair(small_pairs):
    # Every small monotone pair: the verdict and each failure line match the
    # oracle, which meets every subset of budpoints, and every pair whose
    # budpoints are not meet-closed fails the round-trip test.
    posets = {lat: _poset(lat) for lat in {left for left, *_ in small_pairs}}
    passing = escapes = 0
    for left, right, alpha, gamma in small_pairs:
        conn = _unverified(left, right, alpha, gamma)
        report = check_tightness(conn)
        oracle = (posets[left], posets[right], alpha, gamma,
                  conn.budpoints_left, conn.budpoints_right)
        assert report.passed == brute_tightness_passed(*oracle)
        assert report.failures == tuple(brute_tightness_failures(*oracle))
        passing += report.passed
        if _meet_escapes(conn):
            assert not report.passed
            escapes += 1
    assert (passing, escapes) == (145, 4077)


def test_violations_match_brute_force_on_every_small_monotone_pair(small_pairs):
    posets = {lat: _poset(lat) for lat in {left for left, *_ in small_pairs}}
    connections = 0
    for left, right, alpha, gamma in small_pairs:
        mine = [(v.condition, v.witness) for v in connection_violations(left, right, alpha, gamma)]
        assert mine == brute_lagois_violations(posets[left], posets[right], alpha, gamma), \
            (alpha, gamma)
        connections += not mine
    assert connections == 145


def test_every_small_connection_synthesises_decomposes_and_composes(small_connections):
    # On each connection among the small pairs: find_adjoint recovers gamma,
    # decompose recomposes both maps, composing with the transpose gives the
    # directly checked round trip gamma . alpha in both directions, and the
    # adversary pairs are the levels that the round trip fixes.
    for conn in small_connections:
        left, alpha, gamma = conn.left, conn.alpha.mapping(), conn.gamma.mapping()
        assert find_adjoint(conn.alpha) == conn.gamma
        assert adversary_pairs(conn) == [(l, alpha[l]) for l in left.classes
                                         if gamma[alpha[l]] == l]
        dec = decompose(conn)
        assert {l: dec.recomposed_alpha(l) for l in left.classes} == alpha
        assert {m: dec.recomposed_gamma(m) for m in conn.right.classes} == gamma
        chained = {l: gamma[alpha[l]] for l in left.classes}
        assert connection_violations(left, left, chained, chained) == []
        composite = compose(conn, conn.transpose()).connection
        assert composite.alpha.mapping() == composite.gamma.mapping() == chained


def _random_connection(rng, max_classes=6):
    return random_connection(rng, max_classes)


# -- adjoint synthesis --------------------------------------------------------

def test_find_adjoint_reproduces_fixture_gamma(cu):
    gamma = find_adjoint(cu.alpha)
    assert gamma.mapping() == fx.CU_GAMMA


def test_find_adjoint_identity():
    lat = fx.college()
    ident = MonotoneMap(lat, lat, {c: c for c in lat.classes})
    assert find_adjoint(ident).mapping() == {c: c for c in lat.classes}


def test_find_adjoint_diamond_to_chain_fails_condition_one():
    diamond = build_lattice("d", ["b", "x", "y", "t"],
                            [("b", "x"), ("b", "y"), ("x", "t"), ("y", "t")])
    chain = build_lattice("m", ["m0", "m1", "m2"], [("m0", "m1"), ("m1", "m2")])
    alpha = MonotoneMap(diamond, chain, {"b": "m0", "x": "m1", "y": "m1", "t": "m2"})
    with pytest.raises(AdjointError) as exc:
        find_adjoint(alpha)
    assert exc.value.condition == 1
    assert exc.value.witness == ("m1",)
    # brute force over all |L|^|M| = 64 candidate maps confirms none works
    lposet = BrutePoset(diamond.classes, diamond.covers)
    rposet = BrutePoset(chain.classes, chain.covers)
    assert brute_adjoints_exhaustive(lposet, rposet, alpha.mapping()) == []


def test_find_adjoint_condition_two_names_minimal_candidates_in_declaration_order():
    # y is declared before x, so declaration order differs from name order
    right = build_lattice("m", ["b", "z", "y", "x", "t"],
                          [("b", "z"), ("z", "y"), ("z", "x"), ("y", "t"), ("x", "t")])
    left = build_lattice("l", ["l0", "l1", "l2", "l3"],
                         [("l0", "l1"), ("l0", "l2"), ("l1", "l3"), ("l2", "l3")])
    alpha = MonotoneMap(left, right, {"l0": "b", "l1": "y", "l2": "x", "l3": "t"})
    with pytest.raises(AdjointError) as exc:
        find_adjoint(alpha)
    assert exc.value.condition == 2
    assert exc.value.witness == ("z",)
    assert str(exc.value) == ("no adjoint: condition (2) fails at z: image classes "
                              "above it have no smallest member (minimal ones: ['y', 'x'])")


def test_adjoint_uniqueness_on_fixture(cu):
    # the two maps determine each other: synthesising from gamma (on the
    # transposed connection) recovers alpha
    back = find_adjoint(cu.gamma)
    assert back.mapping() == fx.CU_ALPHA


def test_oracle_variants_agree_on_tiny_instances():
    # the pruned monotone search must find exactly what the full sweep finds
    rng = random.Random(77)
    for _ in range(20):
        left = random_lattice(rng, max_classes=4)
        right = random_lattice(rng, max_classes=4)
        alpha = random_monotone_map(rng, left, right)
        lp = BrutePoset(left.classes, left.covers)
        rp = BrutePoset(right.classes, right.covers)
        full = brute_adjoints_exhaustive(lp, rp, alpha)
        pruned = brute_adjoints_monotone(lp, rp, alpha)
        assert sorted(full, key=sorted) == sorted(pruned, key=sorted)


def test_maps_determine_each_other_on_random_connections():
    # synthesis from either map of a verified connection recovers the other
    rng = random.Random(12)
    for _ in range(25):
        conn = _random_connection(rng)
        assert find_adjoint(conn.alpha).mapping() == conn.gamma.mapping()
        assert find_adjoint(conn.gamma).mapping() == conn.alpha.mapping()


def test_find_adjoint_agrees_with_oracle_on_random_maps():
    rng = random.Random(99)
    successes = failures = 0
    for _ in range(60):
        left = random_lattice(rng, max_classes=5)
        right = random_lattice(rng, max_classes=5)
        alpha = random_monotone_map(rng, left, right)
        amap = MonotoneMap(left, right, alpha)
        found = brute_adjoints_monotone(BrutePoset(left.classes, left.covers),
                                        BrutePoset(right.classes, right.covers),
                                        alpha)
        try:
            gamma = find_adjoint(amap)
        except AdjointError:
            assert found == []
            failures += 1
        else:
            assert gamma.mapping() in found
            assert len(found) == 1  # adjoints are unique
            successes += 1
    assert successes > 0 and failures > 0


# -- ab-initio construction ---------------------------------------------------

def test_build_from_closures_dorm_college():
    conn = build_from_closures(fx.dorm(), fx.college(),
                               fx.DC_CLOSURE_LEFT, fx.DC_CLOSURE_RIGHT, fx.DC_ISO)
    assert conn.alpha.mapping() == fx.DC_ALPHA
    assert conn.gamma.mapping() == fx.DC_GAMMA
    assert conn.budpoints_left == ("bot0", "Student", "HouseMaster", "top0")


def test_build_from_closures_identity():
    lat = fx.college()
    ident = {c: c for c in lat.classes}
    conn = build_from_closures(lat, lat, ident, ident, ident)
    assert conn.alpha.mapping() == ident
    assert conn.gamma.mapping() == ident


def test_build_from_closures_everything_to_top():
    left, right = fx.dorm(), fx.college()
    c = {x: left.top for x in left.classes}
    i = {x: right.top for x in right.classes}
    conn = build_from_closures(left, right, c, i, {left.top: right.top})
    assert set(conn.alpha.mapping().values()) == {right.top}
    assert set(conn.gamma.mapping().values()) == {left.top}


def test_every_connection_arises_from_its_round_trip_closures():
    # the round trips are closure operators with isomorphic images, and
    # rebuilding from them recovers the original maps exactly
    rng = random.Random(23)
    for _ in range(25):
        conn = _random_connection(rng)
        c = {l: conn.round_trip_left(l) for l in conn.left.classes}
        i = {m: conn.round_trip_right(m) for m in conn.right.classes}
        h = {b: conn.alpha(b) for b in conn.budpoints_left}
        rebuilt = build_from_closures(conn.left, conn.right, c, i, h)
        assert rebuilt.alpha.mapping() == conn.alpha.mapping()
        assert rebuilt.gamma.mapping() == conn.gamma.mapping()


def test_build_from_closures_rejects_non_closure():
    left, right = fx.dorm(), fx.college()
    bad = dict(fx.DC_CLOSURE_LEFT, Caretaker="Assistant")  # not increasing
    with pytest.raises(Exception) as exc:
        build_from_closures(left, right, bad, fx.DC_CLOSURE_RIGHT, fx.DC_ISO)
    assert "closure" in str(exc.value)


def test_build_from_closures_rejects_non_iso():
    left, right = fx.dorm(), fx.college()
    bad_iso = dict(fx.DC_ISO)
    bad_iso["Student"], bad_iso["HouseMaster"] = bad_iso["HouseMaster"], bad_iso["Student"]
    with pytest.raises(NotIso):
        build_from_closures(left, right, fx.DC_CLOSURE_LEFT, fx.DC_CLOSURE_RIGHT, bad_iso)


# -- composition ---------------------------------------------------------------

def test_compose_chain_fixture(cu):
    dc = fx.dorm_college_chain()
    result = compose(dc, cu)
    conn = result.connection
    assert conn.alpha("Caretaker") == "Dean(Colleges)"
    assert conn.gamma("Chancellor") == "top0"
    # path through the middle lattice: Caretaker -> Dean(S) -> Dean(Colleges)
    assert dc.alpha("Caretaker") == "Dean(S)"
    assert cu.alpha("Dean(S)") == "Dean(Colleges)"


def test_compose_with_identity_is_pointwise_equal(cu):
    result = compose(cu, identity_connection(fx.university()))
    assert result.connection.alpha.mapping() == cu.alpha.mapping()
    assert result.connection.gamma.mapping() == cu.gamma.mapping()
    assert result.admitted_by == "image-subset"


def test_compose_ab_initio_with_fixture_is_rejected(cu):
    # The ab-initio Dorm/College agreement pins the College images to
    # {bot1, Student, Dean(S), top1}, which the College/University round trip
    # leaves (Student maps back to Faculty).  Both the containment check and
    # the direct verification of the chained maps must refuse it.
    dc = fx.dorm_college()
    with pytest.raises(ComposeError) as exc:
        compose(dc, cu)
    assert exc.value.side == "left"
    chained_alpha = {l: cu.alpha(dc.alpha(l)) for l in dc.left.classes}
    chained_gamma = {q: dc.gamma(cu.gamma(q)) for q in cu.right.classes}
    assert connection_violations(dc.left, cu.right, chained_alpha, chained_gamma)


def test_compose_mismatched_lattices():
    dc = fx.dorm_college()
    with pytest.raises(LatticeMismatch):
        compose(dc, fx.dorm_college())  # middle is College, left is Dorm


def test_compose_random_agreement_with_direct_check():
    # whenever compose succeeds the composite passes verification, and when
    # it raises the directly-chained maps fail verification too
    rng = random.Random(31)
    accepted = rejected = 0
    for _ in range(40):
        ab = _random_connection(rng, max_classes=5)
        # reuse ab.right as the middle lattice
        mid = ab.right
        c = random_closure(rng, mid)
        image_c = mid.sorted_by_index(set(c.values()))
        q = random_lattice(rng, max_classes=5)
        i = random_closure(rng, q)
        image_i = q.sorted_by_index(set(i.values()))
        if len(image_c) != len(image_i):
            continue
        iso = find_order_iso(mid, image_c, q, image_i)
        if iso is None:
            continue
        bc = build_from_closures(mid, q, c, i, iso)
        chained_alpha = {l: bc.alpha(ab.alpha(l)) for l in ab.left.classes}
        chained_gamma = {x: ab.gamma(bc.gamma(x)) for x in bc.right.classes}
        direct = connection_violations(ab.left, bc.right, chained_alpha, chained_gamma)
        try:
            result = compose(ab, bc)
        except ComposeError:
            rejected += 1
            assert direct, "compose refused a chain the direct check accepts"
        else:
            accepted += 1
            assert not direct
            assert result.connection.alpha.mapping() == chained_alpha
    assert accepted > 0


# -- decomposition --------------------------------------------------------------

def test_decompose_fixture(cu):
    dec = decompose(cu)
    assert dec.insertion_left.right.classes == fx.CU_BUDPOINTS_LEFT
    assert dec.insertion_right.left.classes == fx.CU_BUDPOINTS_RIGHT
    i1, i2 = dec.iso
    for b in fx.CU_BUDPOINTS_LEFT:
        assert i2(i1(b)) == b
    for b in fx.CU_BUDPOINTS_RIGHT:
        assert i1(i2(b)) == b
    for l in cu.left.classes:
        assert dec.recomposed_alpha(l) == cu.alpha(l)
    for m in cu.right.classes:
        assert dec.recomposed_gamma(m) == cu.gamma(m)


def test_decompose_identity():
    lat = fx.university()
    dec = decompose(identity_connection(lat))
    assert dec.insertion_left.alpha.mapping() == {c: c for c in lat.classes}
    assert dec.iso[0].mapping() == {c: c for c in lat.classes}


def test_decompose_dorm_college_budpoints():
    dec = decompose(fx.dorm_college())
    assert dec.insertion_left.right.classes == ("bot0", "Student", "HouseMaster", "top0")


def test_decompose_round_trip_random():
    rng = random.Random(17)
    for _ in range(30):
        conn = _random_connection(rng)
        dec = decompose(conn)
        for l in conn.left.classes:
            assert dec.recomposed_alpha(l) == conn.alpha(l)
        for m in conn.right.classes:
            assert dec.recomposed_gamma(m) == conn.gamma(m)


def _assert_sublattice_matches_reference(lat, subset) -> str:
    """sublattice builds what reference_sublattice builds (classes, covers,
    order, top, bottom and every query) or raises its exact NotALattice;
    returns "lattice", "join" or "meet"."""
    try:
        expected = reference_sublattice(lat, subset, "sub")
    except NotALattice as exc:
        with pytest.raises(NotALattice) as got:
            sublattice(lat, subset, "sub")
        assert (got.value.kind, got.value.pair, got.value.candidates, str(got.value)) == \
            (exc.kind, exc.pair, exc.candidates, str(exc))
        return exc.kind
    got = sublattice(lat, subset, "sub")
    assert (got.name, got.classes, got.covers, got.top, got.bottom) == \
        (expected.name, expected.classes, expected.covers, expected.top, expected.bottom)
    assert got.order_pairs() == expected.order_pairs()
    for a, b in itertools.product(got.classes, repeat=2):
        assert (got.leq(a, b), got.join(a, b), got.meet(a, b)) == \
            (expected.leq(a, b), expected.join(a, b), expected.meet(a, b))
    return "lattice"


def test_sublattice_matches_reference_construction():
    # A meet-closed subset that holds the top is a lattice; an arbitrary
    # subset often is not, and must fail naming the reference's first pair.
    rng = random.Random(29)
    outcomes = Counter()
    for _ in range(120):
        lat = random_lattice_exact(rng, rng.randint(1, 40))
        picked = set(rng.sample(lat.classes, rng.randint(1, len(lat))))
        closed = picked | {lat.top}
        while more := {lat.meet(a, b) for a in closed for b in closed} - closed:
            closed |= more
        assert _assert_sublattice_matches_reference(lat, closed) == "lattice"
        outcomes[_assert_sublattice_matches_reference(lat, picked)] += 1
    assert set(outcomes) == {"lattice", "join", "meet"}, outcomes
    with pytest.raises(UnknownClass):
        sublattice(fx.college(), ["top1", "nope"], "sub")


# -- maintenance -----------------------------------------------------------------

def test_coarsen_fixture(cu):
    alpha2 = MonotoneMap(cu.left, cu.right, fx.CU_ALPHA_COARSE)
    out = coarsen(cu, alpha2)
    assert out.gamma("UnivFac") == "CollegePrincipal"
    assert out.alpha.mapping() == fx.CU_ALPHA_COARSE


def test_coarsen_by_equality_returns_same_maps(cu):
    out = coarsen(cu, cu.alpha)
    assert out.alpha.mapping() == cu.alpha.mapping()
    assert out.gamma.mapping() == cu.gamma.mapping()


def test_coarsen_representative_mismatch(cu):
    # merge {bot1} with {Student, Faculty} but keep the merged image at bot2:
    # the largest member Faculty maps to UnivFac under the old alpha.
    alpha2 = dict(fx.CU_ALPHA, Student="bot2", Faculty="bot2")
    with pytest.raises(CoarsenError) as exc:
        coarsen(cu, MonotoneMap(cu.left, cu.right, alpha2))
    assert exc.value.kind == "representative-mismatch"
    assert exc.value.witness == ("Faculty",)


def test_coarsen_not_refinement(cu):
    # split the {Student, Faculty} kernel block: Student now maps elsewhere
    alpha2 = dict(fx.CU_ALPHA, Student="bot2")
    with pytest.raises(CoarsenError) as exc:
        coarsen(cu, MonotoneMap(cu.left, cu.right, alpha2))
    assert exc.value.kind == "not-refinement"


def test_coarsen_no_largest_element():
    # two isomorphic diamonds connected by the identity; merging the
    # incomparable middle pair gives a class with no largest member
    covers = [("b", "x"), ("b", "y"), ("x", "t"), ("y", "t")]
    dia1 = build_lattice("d1", ["b", "x", "y", "t"], covers)
    dia2 = build_lattice("d2", ["b2", "x2", "y2", "t2"],
                         [("b2", "x2"), ("b2", "y2"), ("x2", "t2"), ("y2", "t2")])
    alpha = {"b": "b2", "x": "x2", "y": "y2", "t": "t2"}
    gamma = {"b2": "b", "x2": "x", "y2": "y", "t2": "t"}
    conn = check_connection(dia1, dia2, alpha, gamma)
    alpha2 = dict(alpha, y="x2")  # merges {x, y}, which has no largest member
    with pytest.raises(CoarsenError) as exc:
        coarsen(conn, MonotoneMap(dia1, dia2, alpha2))
    assert exc.value.kind == "no-largest-element"
    assert set(exc.value.witness) == {"x", "y"}


def test_semi_inverse_on_verified_pair_returns_same_gamma(cu):
    out = semi_inverse_connection(cu.alpha, cu.gamma)
    assert out.gamma.mapping() == cu.gamma.mapping()


def test_semi_inverse_identity():
    lat = fx.college()
    ident = MonotoneMap(lat, lat, {c: c for c in lat.classes})
    out = semi_inverse_connection(ident, ident)
    assert out.alpha.mapping() == out.gamma.mapping()


def test_semi_inverse_rejects_non_semi_inverse(cu):
    # constant-bottom gamma is monotone but alpha.gamma.alpha collapses to
    # the bottom image
    gamma_bad = {m: "bot1" for m in cu.right.classes}
    with pytest.raises(NotSemiInverse) as exc:
        semi_inverse_connection(cu.alpha, MonotoneMap(cu.right, cu.left, gamma_bad))
    assert exc.value.witness == "Student"


def test_semi_inverse_construction_restores_composition_laws_only(cu):
    # Moving gamma(ViceChancellor) down to CollegePrincipal keeps the
    # semi-inverse identity (ViceChancellor is outside the alpha image), and
    # the rebuilt map evaluates pointwise to gamma except at ViceChancellor.
    # The result satisfies both composition identities but fails LC2 at
    # ViceChancellor, so verification must refuse it.
    gamma0 = dict(fx.CU_GAMMA, ViceChancellor="CollegePrincipal")
    g0 = MonotoneMap(cu.right, cu.left, gamma0)
    for l in cu.left.classes:
        assert cu.alpha(g0(cu.alpha(l))) == cu.alpha(l)
    rebuilt = {m: g0(cu.alpha(g0(m))) for m in cu.right.classes}
    assert rebuilt == dict(fx.CU_GAMMA, ViceChancellor="CollegePrincipal")
    alpha_m = cu.alpha.mapping()
    for l in cu.left.classes:  # composition identities hold
        assert alpha_m[rebuilt[alpha_m[l]]] == alpha_m[l]
    for m in cu.right.classes:
        assert rebuilt[alpha_m[rebuilt[m]]] == rebuilt[m]
    with pytest.raises(NotLagois) as exc:
        semi_inverse_connection(cu.alpha, g0)
    assert [(v.condition, v.witness) for v in exc.value.violations] == \
        [("LC2", ("ViceChancellor",))]


# -- constructors skip the re-check: differential against the full checker -----
#
# find_adjoint, build_from_closures, identity_connection, compose, decompose
# and coarsen build their results without running connection_violations,
# because their own preconditions imply the laws.  Each output must still pass
# the full checker and equal the record check_connection builds, and each
# planted precondition failure must raise the error that the preconditions,
# evaluated here over brute-force orders, name: type, fields and message.

def _brute_blocks(classes, table):
    """Classes grouped by image, blocks ordered by their first member."""
    firsts = [c for i, c in enumerate(classes) if table[c] not in map(table.get, classes[:i])]
    return tuple(tuple(c for c in classes if table[c] == table[f]) for f in firsts)


def _assert_proven(conn):
    """conn and its transpose pass the full checker and are the records
    check_connection builds: budpoints are the images in declaration order,
    kernels the image blocks."""
    for view in (conn, conn.transpose()):
        alpha, gamma = view.alpha.mapping(), view.gamma.mapping()
        assert connection_violations(view.left, view.right, alpha, gamma) == []
        assert view == check_connection(view.left, view.right, alpha, gamma)
        assert view.budpoints_left == tuple(c for c in view.left.classes if c in gamma.values())
        assert view.budpoints_right == tuple(c for c in view.right.classes
                                             if c in alpha.values())
        assert view.kernel_left == _brute_blocks(view.left.classes, alpha)
        assert view.kernel_right == _brute_blocks(view.right.classes, gamma)


def _assert_raises_as(expected, call):
    with pytest.raises(type(expected)) as exc:
        call()
    assert type(exc.value) is type(expected)
    assert vars(exc.value) == vars(expected)
    assert str(exc.value) == str(expected)


def _poset(lat):
    return BrutePoset(lat.classes, lat.covers)


def _largest(poset, items):
    return next((u for u in items if all(poset.leq(v, u) for v in items)), None)


def _closure_connection(rng, left, right):
    """A connection from random closures on left and right with isomorphic
    images (resampled until they are)."""
    while True:
        c, i = random_closure(rng, left), random_closure(rng, right)
        image_c = left.sorted_by_index(set(c.values()))
        image_i = right.sorted_by_index(set(i.values()))
        h = find_order_iso(left, image_c, right, image_i) if len(image_c) == len(image_i) else None
        if h is not None:
            return build_from_closures(left, right, c, i, h)


def _random_lattices(rng, k, hi=6):
    return [random_lattice_exact(rng, rng.randint(2, hi)) for _ in range(k)]


def _planted_adjoint_error(lp, rp, alpha):
    """The AdjointError that conditions 1-3 name for alpha, or None."""
    image = [m for m in rp.classes if m in alpha.values()]
    largest = {}
    for m in image:
        members = [l for l in lp.classes if alpha[l] == m]
        largest[m] = _largest(lp, members)
        if largest[m] is None:
            return AdjointError(1, (m,), f"preimage {members} has no largest member")
    for m in rp.classes:
        above = [t for t in image if rp.leq(m, t)]
        if not above:
            return AdjointError(2, (m,), "no image class above it")
        if not any(all(rp.leq(u, v) for v in above) for u in above):
            minimal = [u for u in above if not any(v != u and rp.leq(v, u) for v in above)]
            return AdjointError(2, (m,), f"image classes above it have no smallest member "
                                         f"(minimal ones: {minimal})")
    for m1, m2 in itertools.product(image, repeat=2):
        if rp.leq(m1, m2) and not lp.leq(largest[m1], largest[m2]):
            return AdjointError(3, (m1, m2),
                                "largest-preimage elements do not mirror the image order")
    return None


DIAMOND = build_lattice("d", ["b", "x", "y", "t"],
                        [("b", "x"), ("b", "y"), ("x", "t"), ("y", "t")])


def _diamond_without_meet(rng, right):
    """A monotone map of DIAMOND into right that sends x and y to an incomparable pair
    whose meet is not the bottom, b to the bottom and t to the top, or None if right
    has no such pair.  The image classes above that meet have no smallest member,
    and every block is one class, so only condition 2 fails, past its emptiness test."""
    pairs = [(x, y) for x, y in itertools.combinations(right.classes, 2)
             if not right.leq(x, y) and not right.leq(y, x) and right.meet(x, y) != right.bottom]
    if pairs:
        x, y = rng.choice(pairs)
        return {"b": right.bottom, "x": x, "y": y, "t": right.top}
    return None


def test_find_adjoint_output_passes_the_full_check():
    # Random monotone maps almost never reach condition 2's "no smallest member",
    # so the last draws plant it; each failure kind must occur.
    rng = random.Random(1301)
    outcomes = Counter()
    for k in range(360):
        if k >= 300:
            right = random_lattice_exact(rng, rng.randint(5, 9))
            left, alpha = DIAMOND, _diamond_without_meet(rng, right)
            if alpha is None:
                continue
        elif k % 4 == 0:
            conn = _closure_connection(rng, *_random_lattices(rng, 2))
            left, right, alpha = conn.left, conn.right, conn.alpha.mapping()
        else:
            left, right = _random_lattices(rng, 2, hi=8)
            alpha = random_monotone_map(rng, left, right)
        amap = MonotoneMap(left, right, alpha)
        expected = _planted_adjoint_error(_poset(left), _poset(right), alpha)
        if expected is not None:
            _assert_raises_as(expected, lambda: find_adjoint(amap))
            kind = str(expected.condition)
            if expected.condition == 2:
                kind += "-no-least" if "smallest" in str(expected) else "-empty"
            outcomes[kind] += 1
            continue
        gamma = find_adjoint(amap)
        assert gamma == MonotoneMap(right, left, gamma.mapping())
        assert connection_violations(left, right, alpha, gamma.mapping()) == []
        outcomes["ok"] += 1
    assert set(outcomes) == {"ok", "1", "2-empty", "2-no-least", "3"}, outcomes


def _planted_closure_error(lat, table, name):
    """The NotClosure that the closure laws, in their order, name for table."""
    poset = _poset(lat)
    for lo, hi in lat.covers:
        if not poset.leq(table[lo], table[hi]):
            return NotClosure(name, "monotone", lo)
    for law, holds in (("increasing", lambda x: poset.leq(x, table[x])),
                       ("idempotent", lambda x: table[table[x]] == table[x])):
        for x in lat.classes:
            if not holds(x):
                return NotClosure(name, law, x)
    return None


def _planted_iso_error(left, right, image_c, image_i, h):
    """The NotIso that the three checks on h, in their order, name."""
    if set(h) != set(image_c):
        return NotIso("h must be defined exactly on the image of c",
                      tuple(sorted(set(h) ^ set(image_c))))
    if set(h.values()) != set(image_i) or len(set(h.values())) != len(h):
        return NotIso("h must map one-to-one onto the image of i",
                      tuple(sorted(set(h.values()) ^ set(image_i))))
    lp, rp = _poset(left), _poset(right)
    for a, b in itertools.product(image_c, repeat=2):
        if lp.leq(a, b) != rp.leq(h[a], h[b]):
            return NotIso("h does not preserve and reflect order", (a, b))
    return None


def _random_operator(rng, lat):
    """A closure operator, or a random monotone or arbitrary table on lat."""
    roll = rng.random()
    if roll < 0.75:
        return random_closure(rng, lat)
    if roll < 0.85:
        return random_monotone_map(rng, lat, lat)
    return {x: rng.choice(lat.classes) for x in lat.classes}


def test_build_from_closures_and_identity_outputs_pass_the_full_check():
    rng = random.Random(1302)
    outcomes = Counter()
    for _ in range(400):
        left, right = random_lattice(rng, max_classes=5), random_lattice(rng, max_classes=5)
        _assert_proven(identity_connection(left))
        c, i = _random_operator(rng, left), _random_operator(rng, right)
        image_c = [x for x in left.classes if x in c.values()]
        image_i = [x for x in right.classes if x in i.values()]
        h = find_order_iso(left, image_c, right, image_i) if len(image_c) == len(image_i) else None
        if h is None or rng.random() < 0.2:
            h = dict(zip(image_c, rng.sample(image_i, min(len(image_c), len(image_i)))))
            if rng.random() < 0.3:
                h[rng.choice(left.classes)] = rng.choice(right.classes)
        expected = (_planted_closure_error(left, c, "c") or _planted_closure_error(right, i, "i")
                    or _planted_iso_error(left, right, image_c, image_i, h))
        if expected is not None:
            _assert_raises_as(expected, lambda: build_from_closures(left, right, c, i, h))
            detail = expected.law if isinstance(expected, NotClosure) else str(expected)
            outcomes[type(expected).__name__, detail.split(" (witness")[0]] += 1
            continue
        _assert_proven(build_from_closures(left, right, c, i, h))
        outcomes["ok", ""] += 1
    assert len(outcomes) == 7, outcomes  # ok, three closure laws, three iso checks


def _planted_compose_error(ab, bc):
    """The ComposeError that the two closure-of-image checks name, or None."""
    mid = ab.right.classes
    image_a, image_g = set(ab.alpha.mapping().values()), set(bc.gamma.mapping().values())
    for x in (x for x in mid if x in image_a):
        if bc.gamma(bc.alpha(x)) not in image_a:
            return ComposeError("left", x)
    for y in (y for y in mid if y in image_g):
        if ab.alpha(ab.gamma(y)) not in image_g:
            return ComposeError("right", y)
    return None


def test_compose_output_passes_the_full_check():
    rng = random.Random(1303)
    outcomes = Counter()
    for _ in range(150):
        left, mid, right = _random_lattices(rng, 3)
        ab, bc = _closure_connection(rng, left, mid), _closure_connection(rng, mid, right)
        expected = _planted_compose_error(ab, bc)
        if expected is not None:
            _assert_raises_as(expected, lambda: compose(ab, bc))
            outcomes[expected.side] += 1
            continue
        _assert_proven(compose(ab, bc).connection)
        outcomes["ok"] += 1
    assert set(outcomes) == {"ok", "left", "right"}, outcomes


def test_decompose_insertions_pass_the_full_check():
    # Each budpoint lattice is the one `sublattice` builds on the budpoints (classes,
    # order, top, bottom and every query); only its covers differ, the round-trip edges.
    rng = random.Random(1304)
    for _ in range(60):
        conn = _closure_connection(rng, *_random_lattices(rng, 2, hi=8))
        dec = decompose(conn)
        _assert_proven(dec.insertion_left)
        _assert_proven(dec.insertion_right)
        i1, i2 = dec.iso
        assert i1 == MonotoneMap(i1.source, i1.target, i1.mapping())
        assert i2 == MonotoneMap(i2.source, i2.target, i2.mapping())
        for got, lat, buds in ((dec.insertion_left.right, conn.left, conn.budpoints_left),
                               (dec.insertion_right.left, conn.right, conn.budpoints_right)):
            want = sublattice(lat, buds, f"{lat.name}*")
            assert (got.name, got.classes, got.top, got.bottom) == \
                (want.name, want.classes, want.top, want.bottom)
            assert got.order_pairs() == want.order_pairs()
            for a, b in itertools.product(got.classes, repeat=2):
                assert (got.leq(a, b), got.join(a, b), got.meet(a, b)) == \
                    (want.leq(a, b), want.join(a, b), want.meet(a, b))


def _planted_coarsen_error(conn, alpha2):
    """The CoarsenError that coarsen's three conditions, in order, name."""
    left, alpha = conn.left, conn.alpha.mapping()
    for block in _brute_blocks(left.classes, alpha):
        b = next((c for c in block if alpha2[c] != alpha2[block[0]]), None)
        if b is not None:
            return CoarsenError("not-refinement", (block[0], b),
                                f"{block[0]!r} and {b!r} shared an image before but not after")
    for block in _brute_blocks(left.classes, alpha2):
        rep = _largest(_poset(left), block)
        if rep is None:
            return CoarsenError("no-largest-element", block,
                                f"merged class {list(block)} has no largest member")
        if alpha2[rep] != alpha[rep]:
            return CoarsenError("representative-mismatch", (rep,),
                                f"largest member {rep!r} must keep its old image "
                                f"{alpha[rep]!r}, got {alpha2[rep]!r}")
    return None


def test_coarsen_output_passes_the_full_check():
    rng = random.Random(1305)
    outcomes = Counter()
    for k in range(300):
        conn = _closure_connection(rng, *_random_lattices(rng, 2))
        left, right = conn.left, conn.right
        if k % 3 == 0:
            alpha2 = random_monotone_map(rng, left, right)
        else:  # merge whole alpha-blocks: send each through a monotone map on M
            f = random_monotone_map(rng, right, right)
            alpha2 = {l: f[conn.alpha(l)] for l in left.classes}
        amap = MonotoneMap(left, right, alpha2)
        expected = _planted_coarsen_error(conn, alpha2)
        if expected is not None:
            _assert_raises_as(expected, lambda: coarsen(conn, amap))
            outcomes[expected.kind] += 1
            continue
        _assert_proven(coarsen(conn, amap))
        outcomes["ok"] += 1
    assert set(outcomes) == {"ok", "not-refinement", "no-largest-element",
                             "representative-mismatch"}, outcomes


# -- bounded-exhaustive: every small instance of each constructor -------------------
#
# Over the small lattices, each constructor either returns what the direct
# check builds or raises the error its preconditions, evaluated here over
# brute-force orders, name.

def test_find_adjoint_on_every_small_monotone_alpha(small_lattices, small_connections):
    # an alpha with an adjoint belongs to exactly one small connection
    gammas = {conn.alpha: conn.gamma for conn in small_connections}
    posets = {lat: _poset(lat) for lat in small_lattices}
    outcomes = Counter()
    for left, right in itertools.product(small_lattices, repeat=2):
        for alpha in monotone_maps(left, right):
            amap = MonotoneMap(left, right, alpha)
            expected = _planted_adjoint_error(posets[left], posets[right], alpha)
            if expected is None:
                assert find_adjoint(amap) == gammas.pop(amap)
            else:
                _assert_raises_as(expected, lambda: find_adjoint(amap))
            outcomes[expected is None] += 1
    assert (outcomes, gammas) == (Counter({True: 145, False: 143}), {})


def test_compose_on_every_small_pair_sharing_a_middle_lattice(small_connections):
    # compose returns the chained maps, proven, exactly when they form a
    # connection; otherwise it fails the closure check that the oracle names
    outcomes = Counter()
    for ab, bc in itertools.product(small_connections, repeat=2):
        if ab.right is not bc.left:
            continue
        alpha = {l: bc.alpha(ab.alpha(l)) for l in ab.left.classes}
        gamma = {q: ab.gamma(bc.gamma(q)) for q in bc.right.classes}
        expected = _planted_compose_error(ab, bc)
        if expected is None:
            result = compose(ab, bc)
            image_a, image_g = set(ab.alpha.mapping().values()), set(bc.gamma.mapping().values())
            assert result.admitted_by == ("image-subset" if image_a <= image_g or image_g <= image_a
                                          else "containment-conditions")
            assert (result.connection.alpha.mapping(), result.connection.gamma.mapping()) == \
                (alpha, gamma)
            _assert_proven(result.connection)
        else:
            _assert_raises_as(expected, lambda: compose(ab, bc))
            assert connection_violations(ab.left, bc.right, alpha, gamma) != []
        outcomes[expected is None] += 1
    assert outcomes == Counter({True: 4123, False: 1656})


def test_coarsen_on_every_small_map_that_merges_whole_kernel_blocks(small_connections):
    outcomes = Counter()
    for conn in small_connections:
        blocks = _brute_blocks(conn.left.classes, conn.alpha.mapping())
        for alpha2 in monotone_maps(conn.left, conn.right):
            if any(alpha2[c] != alpha2[block[0]] for block in blocks for c in block):
                continue
            amap = MonotoneMap(conn.left, conn.right, alpha2)
            expected = _planted_coarsen_error(conn, alpha2)
            if expected is None:
                out = coarsen(conn, amap)
                gamma2 = {m: conn.gamma(alpha2[conn.gamma(m)]) for m in conn.right.classes}
                assert (out.alpha.mapping(), out.gamma.mapping()) == (alpha2, gamma2)
                _assert_proven(out)
            else:
                _assert_raises_as(expected, lambda: coarsen(conn, amap))
            outcomes[expected is None] += 1
    assert outcomes == Counter({True: 353, False: 1084})


def test_sublattice_on_every_nonempty_subset_of_the_small_lattices(small_lattices):
    # each subset is given in reverse declaration order; the three that are no
    # lattice are the diamond's {x, y}, alone or with bot or top
    outcomes = Counter(_assert_sublattice_matches_reference(lat, subset[::-1])
                       for lat in small_lattices for k in range(1, len(lat) + 1)
                       for subset in itertools.combinations(lat.classes, k))
    assert outcomes == Counter(lattice=38, join=2, meet=1)


# -- input checks of maps and constructors ---------------------------------------

def test_monotone_map_rejects_an_order_reversal(cu):
    table = dict(fx.CU_ALPHA, Student="top2")
    with pytest.raises(NotMonotone) as exc:
        MonotoneMap(cu.left, cu.right, table, "alpha")
    assert exc.value.pair == ("Student", "Faculty")
    assert str(exc.value) == "alpha is not order-preserving at 'Student' <= 'Faculty'"


def test_map_values_outside_the_target_are_unknown_classes(cu):
    table = dict(fx.CU_ALPHA, top1="top9")
    with pytest.raises(UnknownClass) as exc:
        MonotoneMap(cu.left, cu.right, table, "alpha")
    assert str(exc.value) == "unknown class 'top9' in alpha range"
    with pytest.raises(UnknownClass) as exc:
        check_connection(cu.left, cu.right, table, fx.CU_GAMMA)
    assert str(exc.value) == "unknown class 'top9' in alpha range"


def test_monotone_map_call_rejects_unknown_class(cu):
    with pytest.raises(UnknownClass) as exc:
        cu.alpha("nope")
    assert str(exc.value) == "unknown class 'nope' in map domain"


def test_coarsen_rejects_a_map_between_other_lattices(cu):
    ident = MonotoneMap(cu.left, cu.left, {c: c for c in cu.left.classes})
    with pytest.raises(LatticeMismatch):
        coarsen(cu, ident)


def test_semi_inverse_rejects_a_gamma_that_does_not_run_back(cu):
    with pytest.raises(LatticeMismatch):
        semi_inverse_connection(cu.alpha, cu.alpha)


def test_budpoint_representative_rejects_a_bad_side(cu):
    with pytest.raises(ValueError) as exc:
        budpoint_representative(cu, "middle", "Student")
    assert str(exc.value) == "side must be 'left' or 'right', got 'middle'"
