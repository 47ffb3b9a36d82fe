"""Execution semantics, security typing, and the non-interference harness."""

import itertools
import random
from functools import reduce

import pytest

from sifc.flowlang import (Add, Const, DuplicateVariable, FlowError,
                           FlowTypeError, GenerationStall, IllTyped,
                           KindMismatch, ParseError, PhraseType, Program, Rd,
                           StoreDomainError, StorePair, Tlr, Trl, Txn,
                           UndeclaredVariable, Var, VarDecl, Wr,
                           adversary_pairs, draw_store_pairs, exec_program,
                           gen_well_typed, lint_transfer_classes,
                           low_variables, ni_trial, parse_program,
                           run_ni_suite, store_pair_from_dict, store_pair_to_dict,
                           typecheck, typecheck_phrase)
from sifc import flowlang
from sifc.lattice import UnknownClass

import fixtures as fx
from gen import random_phrase, random_program
from oracles import (BrutePoset, affine_finals, brute_typecheck, interpret, ni_leak,
                     reference_ni_suite, reference_trial, splitmix64)


@pytest.fixture(scope="module")
def cu():
    return fx.college_university()


DECLS = (
    VarDecl("lz1", "L", "internal", "Student"),
    VarDecl("lz2", "L", "internal", "Faculty"),
    VarDecl("lz3", "L", "internal", "CollegePrincipal"),
    VarDecl("lx1", "L", "export", "Faculty"),
    VarDecl("lx2", "L", "export", "CollegePrincipal"),
    VarDecl("ly1", "L", "import", "Faculty"),
    VarDecl("ly2", "L", "import", "top1"),
    VarDecl("mz1", "M", "internal", "UnivFac"),
    VarDecl("mz2", "M", "internal", "Dean(Colleges)"),
    VarDecl("mx1", "M", "export", "UnivFac"),
    VarDecl("mx2", "M", "export", "Dean(Colleges)"),
    VarDecl("my1", "M", "import", "Dean(Colleges)"),
    VarDecl("my2", "M", "import", "top2"),
)


def zero_store(prog: Program) -> StorePair:
    return StorePair({d.name: 0 for d in prog.decls if d.domain == "L"},
                     {d.name: 0 for d in prog.decls if d.domain == "M"})


# -- program well-formedness ---------------------------------------------------

@pytest.mark.parametrize("decl,message", [
    (VarDecl("a", "X", "internal", "Student"), "bad domain 'X' for 'a'"),
    (VarDecl("a", "L", "inward", "Student"), "bad kind 'inward' for 'a'"),
], ids=["domain", "kind"])
def test_program_rejects_a_bad_declaration(decl, message):
    with pytest.raises(FlowError) as exc:
        Program((decl,), ())
    assert str(exc.value) == message


def test_non_phrases_are_rejected(cu):
    with pytest.raises(FlowError) as exc:
        Program(DECLS, ("lz1",))
    assert str(exc.value) == "phrase 0: unknown phrase 'lz1'"
    with pytest.raises(FlowError) as exc:
        typecheck_phrase(Program(DECLS, ()).env, cu, ("rd", "L", "lz1", "ly1"))
    assert str(exc.value) == "unknown phrase ('rd', 'L', 'lz1', 'ly1')"


def test_declarations_are_read_once_and_must_be_declarations(cu):
    # A one-shot iterable of declarations gives the program and the report
    # the tuple gives; anything else in its place is an input error.
    assert gen_well_typed(iter(DECLS), cu, 6, 3) == gen_well_typed(DECLS, cu, 6, 3)
    assert run_ni_suite(iter(DECLS), cu, 3, 6, 5) == run_ni_suite(DECLS, cu, 3, 6, 5)
    for bad in (("lz0", "L", "internal", "Student"), "lz0", None):
        decls = (*DECLS[:3], bad, *DECLS[3:])
        for build in (lambda: Program(decls, ()), lambda: gen_well_typed(decls, cu, 2, 0),
                      lambda: run_ni_suite(decls, cu, 1, 2, 0)):
            with pytest.raises(FlowError) as exc:
                build()
            assert str(exc.value) == f"unknown declaration {bad!r}"


def test_an_empty_suite_checks_the_declarations_the_first_program_would(cu, monkeypatch):
    # With no program to generate, a suite still rejects each declaration set
    # that its first program rejects, with the same error, before any draw.
    cases = ((*DECLS[:3], ("lz0", "L", "internal", "Student"), *DECLS[3:]),
             (VarDecl("a", "L", "internal", "Nope"), *DECLS),
             tuple(d for d in DECLS if d.kind != "export"))
    first = []
    for decls in cases:
        with pytest.raises((FlowError, UnknownClass)) as exc:
            run_ni_suite(decls, cu, 1, 2, 0)
        first.append((type(exc.value), str(exc.value)))
    assert [message for _, message in first] == [
        "unknown declaration ('lz0', 'L', 'internal', 'Student')",
        "unknown class 'Nope' in declaration of 'a'",
        "need at least one export variable in domain L"]
    monkeypatch.setattr(flowlang.random, "Random", None)  # a draw would fail
    for decls, want in zip(cases, first):
        with pytest.raises((FlowError, UnknownClass)) as exc:
            run_ni_suite(decls, cu, 0, 2, 0)
        assert (type(exc.value), str(exc.value)) == want


def test_a_program_keeps_the_tuples_it_read(cu):
    # Any iterables of declarations and phrases give the program the tuples give:
    # equal, hashable alike, with the same low variables and the same trial.
    body = (Tlr("my1", "lx1"),)
    want = Program(DECLS, body)
    for decls, phrases in ((iter(DECLS), body), (list(DECLS), list(body)),
                           (DECLS, iter(body))):
        prog = Program(decls, phrases)
        assert (prog.decls, prog.body) == (DECLS, body)
        assert prog == want and hash(prog) == hash(want)
        for pair in adversary_pairs(cu):
            assert low_variables(prog, cu, pair) == low_variables(want, cu, pair)
            assert ni_trial(prog, cu, pair, 3) == ni_trial(want, cu, pair, 3)


def test_declarations_and_bodies_must_be_iterable(cu, monkeypatch):
    # Checked before any draw: with `random.Random` gone, a draw would fail.
    monkeypatch.setattr(flowlang.random, "Random", None)
    for bad in (None, 3):
        for build, what in ((lambda: Program(bad, ()), "decls"),
                            (lambda: Program(DECLS, bad), "body"),
                            (lambda: gen_well_typed(bad, cu, 2, 0), "decls"),
                            (lambda: run_ni_suite(bad, cu, 0, 2, 0), "decls"),
                            (lambda: run_ni_suite(bad, cu, 3, 2, 0), "decls")):
            with pytest.raises(FlowError) as exc:
                build()
            assert type(exc.value) is FlowError
            assert str(exc.value) == f"{what} must be iterable, got {bad!r}"


def test_a_malformed_phrase_or_declaration_is_an_input_error(cu):
    # Each shape is an input error, through Program (numbered after one good
    # phrase) and typecheck_phrase (numbered or not); none is reinterpreted.
    env, good = Program(DECLS, ()).env, Wr("L", "lx1", "lz1")
    bad_assigns = "bad assignments "
    for p, error, message in (
            (Txn("L", None), FlowError, bad_assigns + "None"),
            (Txn("L", "ab"), FlowError, bad_assigns + "'ab'"),
            (Txn("L", (("a", "b", "c"),)), FlowError, bad_assigns + "(('a', 'b', 'c'),)"),
            (Txn("L", ("ab",)), FlowError, bad_assigns + "('ab',)"),
            (Txn("L", (("lz1", 3),)), FlowError, "bad expression 3"),
            (Txn("L", (("lz1", "lz2"),)), FlowError, "bad expression 'lz2'"),
            (Txn("L", (("lz1", Add(Var("lz2"), None)),)), FlowError, "bad expression None"),
            (Txn("L", (("lz1", Const("x")),)), FlowError, "bad expression Const(value='x')"),
            (Txn("L", (("lz1", Const(1.5)),)), FlowError, "bad expression Const(value=1.5)"),
            (Txn("L", (("lz1", Const(True)),)), FlowError, "bad expression Const(value=True)"),
            (Txn("L", (("lz1", Var(3)),)), FlowError, "bad expression Var(name=3)"),
            (Txn("L", (("lz1", Var(("a", ("lz2",)))),)), FlowError,
             "bad expression Var(name=('a', ('lz2',)))"),
            (Txn("L", ((["x"], Const(1)),)), UndeclaredVariable, "variable ['x'] is not declared"),
            (Rd("L", ["x"], "ly1"), UndeclaredVariable, "variable ['x'] is not declared"),
            (Rd("L", "lz1", ["x"]), UndeclaredVariable, "variable ['x'] is not declared"),
            (Rd("L", "lz1", 3), UndeclaredVariable, "variable 3 is not declared"),
            (Rd("L", "lz1", ("a", ("ly1",))), UndeclaredVariable,
             "variable ('a', ('ly1',)) is not declared"),
            (Trl("ly1", 5), UndeclaredVariable, "variable 5 is not declared"),
            # already input errors, with their messages kept
            (Rd("L", 3, "ly1"), UndeclaredVariable, "variable 3 is not declared"),
            (Txn("X", None), FlowError, "bad domain 'X'")):
        for call, at in ((lambda: Program(DECLS, (good, p)), "phrase 1: "),
                         (lambda: typecheck_phrase(env, cu, p, 4), "phrase 4: "),
                         (lambda: typecheck_phrase(env, cu, p), "")):
            with pytest.raises(FlowError) as exc:
                call()
            assert (type(exc.value), str(exc.value)) == (error, at + message), p
    for d in (VarDecl(3, "L", "internal", "Student"), VarDecl("a", "L", "internal", ["x"]),
              VarDecl(("a",), "L", "internal", "Student")):
        with pytest.raises(FlowError) as exc:
            Program((*DECLS, d), ())
        assert str(exc.value) == f"name and class must be strings in {d!r}"


def test_gen_well_typed_rejects_an_unknown_phrase_kind(cu):
    with pytest.raises(ValueError) as exc:
        gen_well_typed(DECLS, cu, 3, seed=0, kinds=("txm",))
    assert str(exc.value) == "unknown phrase kind 'txm'"
    # A string is not split into kinds, the first unknown kind is named, and
    # the kinds are checked before any phrase is drawn.
    for kinds, message in (("txn", "unknown phrase kind 't'"),
                           (("rd", "txm", "zz"), "unknown phrase kind 'txm'"),
                           ((), "gen_well_typed needs at least one phrase kind")):
        for length in (0, 3):
            with pytest.raises(ValueError) as exc:
                gen_well_typed(DECLS, cu, length, seed=0, kinds=kinds)
            assert str(exc.value) == message


def test_duplicate_variable():
    with pytest.raises(DuplicateVariable):
        Program((VarDecl("a", "L", "internal", "x"),
                 VarDecl("a", "M", "internal", "y")), ())


def test_undeclared_variable():
    with pytest.raises(UndeclaredVariable):
        Program(DECLS, (Rd("L", "nope", "ly1"),))


def test_kind_mismatch():
    with pytest.raises(KindMismatch):
        Program(DECLS, (Rd("L", "lz1", "lx1"),))  # lx1 is an export
    with pytest.raises(KindMismatch):
        Program(DECLS, (Trl("my1", "mx1"),))  # my1 lives in M, not L
    with pytest.raises(KindMismatch):
        Program(DECLS, (Txn("L", (("lx1", Const(1)),)),))  # txn writes export


# -- execution -------------------------------------------------------------------

def test_exec_transfer_left_to_right():
    prog = Program(DECLS, (Tlr("my1", "lx1"),))
    init = zero_store(prog)
    init.left["lx1"] = 5
    out = exec_program(prog, init)
    assert out.right["my1"] == 5
    unchanged = {k: v for k, v in out.left.items()}
    assert unchanged == init.left


def test_exec_empty_program_returns_init():
    prog = Program(DECLS, ())
    init = zero_store(prog)
    init.left["lz1"] = 9
    out = exec_program(prog, init)
    assert out == init
    assert out is not init  # fresh stores


def test_exec_three_step_transfer():
    # wr L lx1 lz1 ; tlr my1 lx1 ; rd M mz2 my1 moves lz1's value into mz2
    prog = Program(DECLS, (Wr("L", "lx1", "lz1"), Tlr("my1", "lx1"),
                           Rd("M", "mz2", "my1")))
    init = zero_store(prog)
    init.left["lz1"] = 7
    out = exec_program(prog, init)
    assert out.right["mz2"] == 7


def test_exec_txn_assignments_are_sequential():
    prog = Program(DECLS, (Txn("L", (("lz2", Add(Var("lz1"), Const(1))),
                                     ("lz3", Add(Var("lz2"), Var("lz2"))))),))
    init = zero_store(prog)
    init.left["lz1"] = 3
    out = exec_program(prog, init)
    assert out.left["lz2"] == 4
    assert out.left["lz3"] == 8  # reads the updated lz2


def test_exec_wraps_values():
    prog = Program(DECLS, (Txn("L", (("lz1", Add(Var("lz1"), Const(1))),)),))
    init = zero_store(prog)
    init.left["lz1"] = 2 ** 16 - 1
    out = exec_program(prog, init)
    assert out.left["lz1"] == 0


def test_deep_sums_need_no_recursion(cu):
    # Both far deeper than the interpreter's recursion limit as a chain.
    chain = Var("lz1")
    for _ in range(4_999):
        chain = Add(chain, Const(1))
    prog = Program(DECLS, (Txn("L", (("lz1", chain),)),))
    typecheck(prog, cu)
    init = zero_store(prog)
    init.left["lz1"] = 5
    assert exec_program(prog, init).left["lz1"] == 5 + 4_999
    src = "var L a : Student internal\nt L { a := " + " + ".join(["a", "2"] * 2_500) + " }\n"
    parsed, again = parse_program(src), parse_program(src)
    assert parsed == again
    assert hash(parsed.body[0]) == hash(again.body[0]) and repr(parsed)


def test_exec_domain_preservation_and_frame():
    rng = random.Random(0)
    conn = fx.college_university()
    for _ in range(25):
        prog = gen_well_typed(DECLS, conn, rng.randrange(12), rng.getrandbits(32))
        init = StorePair({d.name: rng.randrange(100) for d in DECLS if d.domain == "L"},
                         {d.name: rng.randrange(100) for d in DECLS if d.domain == "M"})
        out = exec_program(prog, init)
        assert set(out.left) == set(init.left)
        assert set(out.right) == set(init.right)
        assigned = set()
        for p in prog.body:
            if isinstance(p, Txn):
                assigned |= {t for t, _ in p.assigns}
            elif isinstance(p, Rd):
                assigned.add(p.z)
            elif isinstance(p, Wr):
                assigned.add(p.x)
            else:
                assigned.add(p.y)
        for name, value in itertools.chain(init.left.items(), init.right.items()):
            if name not in assigned:
                final = out.left.get(name, out.right.get(name))
                assert final == value


def test_exec_rejects_bad_store():
    prog = Program(DECLS, ())
    with pytest.raises(StoreDomainError):
        exec_program(prog, StorePair({"lz1": 0}, {}))


@pytest.mark.parametrize("doc", [
    {"left": {"lz1": 7.9}, "right": {}},
    {"left": {"lz1": True}, "right": {}},
    {"left": {}, "right": {"mz1": "3"}},
    {"left": [], "right": {}},
    {"left": {}, "right": None},
])
def test_store_document_rejects_non_integers(doc):
    with pytest.raises(StoreDomainError):
        store_pair_from_dict(doc)


@pytest.mark.parametrize("doc,message", [
    ([{"left": {}}, {"right": {}}], "store must be a JSON object"),
    ({"left": {}}, "store missing 'right'"),
    ({"left": {}, "right": {}, "extra": {}}, "store has unknown key 'extra'"),
], ids=["list", "no-right", "extra-key"])
def test_store_document_keys_are_checked_as_every_document_keys_are(doc, message):
    with pytest.raises(StoreDomainError) as exc:
        store_pair_from_dict(doc)
    assert str(exc.value) == message


@pytest.mark.parametrize("side,name,value", [
    ("left", "lz1", 7.9), ("right", "mz1", "3"), ("left", "lz2", True),
], ids=["float", "string", "bool"])
def test_exec_program_rejects_what_the_store_document_rejects(side, name, value):
    # the library boundary checks values as `sifc run` does: a float or a
    # string would crash the engine and True would run as 1
    prog = Program(DECLS, (Tlr("my1", "lx1"),))
    stores = store_pair_to_dict(zero_store(prog))
    stores[side][name] = value
    with pytest.raises(StoreDomainError) as document:
        store_pair_from_dict(stores)
    with pytest.raises(StoreDomainError) as library:
        exec_program(prog, StorePair(stores["left"], stores["right"]))
    assert str(library.value) == str(document.value) == (
        f"store value {side}.{name} must be an integer, got {value!r}")


# -- typing ----------------------------------------------------------------------

def test_trl_within_level_types(cu):
    env = Program(DECLS, ()).env
    t = typecheck_phrase(env, cu, Trl("ly1", "mx1"))
    # gamma(UnivFac) = Faculty flows to the Faculty-classified import
    assert t == PhraseType("Faculty", "UnivFac")


def test_trl_below_level_rejected(cu):
    decls = DECLS + (VarDecl("ly0", "L", "import", "Student"),)
    env = Program(decls, ()).env
    with pytest.raises(FlowTypeError) as exc:
        typecheck_phrase(env, cu, Trl("ly0", "mx1"))
    assert exc.value.rule == "trl"
    assert (exc.value.lower, exc.value.upper) == ("Faculty", "Student")


def test_rd_reflexive_gives_top_other_component(cu):
    env = Program(DECLS, ()).env
    t = typecheck_phrase(env, cu, Rd("L", "lz2", "ly1"))
    assert t == PhraseType("Faculty", "top2")


def test_txn_join_of_reads_bounded_by_meet_of_writes(cu):
    env = Program(DECLS, ()).env
    t = typecheck_phrase(env, cu, Txn("L", (("lz3", Var("lz2")),)))
    assert t == PhraseType("Faculty", "top2")
    with pytest.raises(FlowTypeError) as exc:
        typecheck_phrase(env, cu, Txn("L", (("lz1", Var("lz3")),)))
    assert exc.value.rule == "txn"


def test_sequence_type_is_componentwise_meet(cu):
    # phrases typed (Faculty, top2) and (CollegePrincipal, UnivFac) meet at
    # (Faculty, UnivFac)
    prog = Program(DECLS, (Rd("L", "lz2", "ly1"),          # (Faculty, top2)
                           Txn("M", (("mz1", Var("mz1")),))))  # (top1, UnivFac)
    t1 = typecheck_phrase(prog.env, cu, prog.body[0])
    assert (t1.left, t1.right) == ("Faculty", "top2")
    combined = typecheck(prog, cu)
    assert combined.left == "Faculty"
    assert combined.right == "UnivFac"


def test_empty_program_types_at_tops(cu):
    assert typecheck(Program(DECLS, ()), cu) == PhraseType("top1", "top2")


def test_pipeline_example_is_well_typed(cu):
    prog = Program(DECLS, (Wr("L", "lx1", "lz1"), Tlr("my1", "lx1"),
                           Rd("M", "mz2", "my1")))
    t = typecheck(prog, cu)
    assert t == PhraseType("Faculty", "Dean(Colleges)")


def test_typecheck_reports_phrase_index(cu):
    decls = DECLS + (VarDecl("ly0", "L", "import", "Student"),)
    prog = Program(decls, (Wr("L", "lx1", "lz1"), Trl("ly0", "mx1")))
    with pytest.raises(FlowTypeError) as exc:
        typecheck(prog, cu)
    assert exc.value.index == 1


@pytest.mark.parametrize("phrase", [Rd("X", "mz2", "my1"), Wr("X", "mx2", "mz2"),
                                    Txn("X", (("mz1", Var("mz2")),))],
                         ids=["rd", "wr", "txn"])
def test_typecheck_phrase_rejects_a_bad_domain(cu, phrase):
    # The phrase's variables are all M's; only the domain is wrong, and it
    # must not be read as M.
    with pytest.raises(FlowError, match="bad domain 'X'"):
        typecheck_phrase(Program(DECLS, ()).env, cu, phrase)


def _outcome(call):
    """A call's result, or the type and message of the FlowError it raised."""
    try:
        return call()
    except FlowError as exc:  # FlowTypeError included
        return type(exc), str(exc)


def test_typecheck_phrase_checks_variables_as_program_does(cu):
    # every copy and one-assignment transaction over the declared names and
    # one undeclared name, with the phrase domains L, M and a bad one
    names = [d.name for d in DECLS] + ["nope"]
    pairs = list(itertools.product(names, repeat=2))
    phrases = [cls(domain, a, b) for cls in (Rd, Wr) for domain in "LMX" for a, b in pairs]
    phrases += [cls(a, b) for cls in (Trl, Tlr) for a, b in pairs]
    phrases += [Txn(domain, ((a, Add(Var(b), Const(1))),)) for domain in "LMX" for a, b in pairs]
    phrases += [Txn("X", ()), Txn("L", ((names[0], Const(1)), ("nope", Var(names[1]))))]
    env = Program(DECLS, ()).env
    kinds = set()
    for p in phrases:
        try:
            prog = Program(DECLS, (p,))
        except FlowError as exc:
            expected = type(exc), str(exc)
        else:
            expected = _outcome(lambda: typecheck(prog, cu))
        assert _outcome(lambda: typecheck_phrase(env, cu, p, 0)) == expected, p
        kinds.add(expected[0] if isinstance(expected, tuple) else PhraseType)
    assert kinds == {UndeclaredVariable, KindMismatch, FlowError, FlowTypeError, PhraseType}


def test_unknown_class_in_decl(cu):
    prog = Program((VarDecl("a", "L", "internal", "Wizard"),) + DECLS, ())
    with pytest.raises(UnknownClass):
        typecheck(prog, cu)


def test_typecheck_phrase_checks_the_classes_of_the_declarations_it_touches(cu):
    # The one declared-class check, applied to the phrase's variables only:
    # a phrase that reads or writes a class its lattice lacks is an input
    # error, in or across a domain, and any other phrase types as without it.
    wizards = (VarDecl("lz0", "L", "internal", "Wizard"), VarDecl("mx0", "M", "export", "Wizard"))
    env, plain = Program(wizards + DECLS, ()).env, Program(DECLS, ()).env
    for p, name in ((Txn("L", (("lz0", Const(1)),)), "lz0"),
                    (Txn("L", (("lz1", Var("lz0")),)), "lz0"),
                    (Wr("L", "lx1", "lz0"), "lz0"), (Trl("ly2", "mx0"), "mx0")):
        with pytest.raises(UnknownClass) as exc:
            typecheck_phrase(env, cu, p, 0)
        assert str(exc.value) == f"unknown class 'Wizard' in declaration of {name!r}", p
        with pytest.raises(UnknownClass) as exc:
            typecheck(Program(wizards + DECLS, (p,)), cu)
        assert str(exc.value) == "unknown class 'Wizard' in declaration of 'lz0'", p
    for p in (Wr("L", "lx1", "lz1"), Trl("ly2", "mx1"),
              Txn("L", (("lz3", Add(Var("lz1"), Var("lz2"))),))):
        assert typecheck_phrase(env, cu, p) == typecheck_phrase(plain, cu, p), p
    with pytest.raises(FlowTypeError):
        typecheck_phrase(env, cu, Trl("ly1", "mx2"))


def test_typing_deterministic(cu):
    prog = Program(DECLS, (Wr("L", "lx1", "lz1"), Tlr("my1", "lx1")))
    assert typecheck(prog, cu) == typecheck(prog, cu)


def test_lint_flags_non_budpoint_transfer_classes(cu):
    decls = DECLS + (VarDecl("ly9", "L", "import", "Dean(S)"),)
    warnings = lint_transfer_classes(Program(decls, ()), cu)
    assert warnings == ["ly9: transfer class 'Dean(S)' is not a budpoint"]


# -- adversary pairs ----------------------------------------------------------------

def test_adversary_pairs_fixture(cu):
    assert adversary_pairs(cu) == [("bot1", "bot2"), ("Faculty", "UnivFac"),
                                   ("CollegePrincipal", "Dean(Colleges)"),
                                   ("top1", "top2")]


def test_adversary_pairs_identity():
    from sifc.connection import identity_connection
    lat = fx.college()
    assert adversary_pairs(identity_connection(lat)) == [(c, c) for c in lat.classes]


def test_adversary_pairs_everything_to_top():
    from sifc.connection import build_from_closures
    left, right = fx.dorm(), fx.college()
    conn = build_from_closures(left, right,
                               {x: left.top for x in left.classes},
                               {x: right.top for x in right.classes},
                               {left.top: right.top})
    assert adversary_pairs(conn) == [("top0", "top1")]


# -- non-interference ------------------------------------------------------------------

def test_ni_trial_passes_on_well_typed_pipeline(cu):
    prog = Program(DECLS, (Wr("L", "lx1", "lz1"), Tlr("my1", "lx1"),
                           Rd("M", "mz2", "my1")))
    for seed in range(20):
        result = ni_trial(prog, cu, ("Faculty", "UnivFac"), seed)
        assert result.passed


def test_ni_exhaustive_small_value_domain(cu):
    # exhaustive version of the pipeline check: all store pairs over {0,1,2}
    # on the two variables that matter, agreeing at the adversary pair
    prog = Program(DECLS, (Wr("L", "lx1", "lz1"), Tlr("my1", "lx1"),
                           Rd("M", "mz2", "my1")))
    level_l, level_m = "Faculty", "UnivFac"
    lows = set(low_variables(prog, cu, (level_l, level_m)))
    assert ("left", "lz1") in lows
    base = {d.name: 0 for d in DECLS}
    for a_val, b_val in itertools.product(range(3), repeat=2):
        for high_a, high_b in itertools.product(range(3), repeat=2):
            sa = StorePair({d.name: base[d.name] for d in DECLS if d.domain == "L"},
                           {d.name: base[d.name] for d in DECLS if d.domain == "M"})
            sb = StorePair(dict(sa.left), dict(sa.right))
            sa.left["lz1"] = sb.left["lz1"] = a_val    # low on both sides
            sa.right["my2"] = high_a                   # high import differs
            sb.right["my2"] = high_b
            sa.left["lz3"] = b_val                     # high internal agrees or not
            sb.left["lz3"] = (b_val + 1) % 3
            fa, fb = exec_program(prog, sa), exec_program(prog, sb)
            for side, name in lows:
                assert getattr(fa, side)[name] == getattr(fb, side)[name]


def test_ni_trial_and_draw_store_pairs_take_only_an_int_seed(cu):
    prog, pair = gen_well_typed(DECLS, cu, 4, 0), ("Faculty", "UnivFac")
    for run in (lambda seed: ni_trial(prog, cu, pair, seed, keep_stores=True).initial,
                lambda seed: draw_store_pairs(prog, cu, pair, seed)):
        for bad in (1.5, True, "7", None):
            with pytest.raises(FlowError) as exc:
                run(bad)
            assert str(exc.value) == f"seed must be an integer, got {bad!r}"
        assert run(-1) == run(2 ** 64 - 1) and run(2 ** 64 + 3) == run(3)  # taken mod 2^64


def test_an_adversary_pair_is_two_class_names_read_as_given(cu, monkeypatch):
    # A pair of another length or shape is rejected before any draw, never
    # cut short, split into letters or hashed.
    prog = gen_well_typed(DECLS, cu, 4, 0)
    monkeypatch.setattr(flowlang, "_trials", None)  # a draw would raise TypeError
    for bad in (("Faculty",), ("Faculty", "UnivFac", "x"), "ab", ("Faculty", ["x"])):
        for run in (lambda: ni_trial(prog, cu, bad, 0), lambda: draw_store_pairs(prog, cu, bad, 0),
                    lambda: low_variables(prog, cu, bad)):
            with pytest.raises(FlowError) as exc:
                run()
            assert str(exc.value) == f"adversary pair must be two class names, got {bad!r}"
    assert low_variables(prog, cu, ["Faculty", "UnivFac"]) == \
        low_variables(prog, cu, ("Faculty", "UnivFac"))


def test_ni_trial_refuses_ill_typed(cu):
    decls = DECLS + (VarDecl("ly0", "L", "import", "Student"),)
    prog = Program(decls, (Trl("ly0", "mx1"),))
    with pytest.raises(IllTyped):
        ni_trial(prog, cu, ("Faculty", "UnivFac"), 0)


def test_forced_execution_of_ill_typed_transfer_leaks(cu):
    # The rejected transfer lands UnivFac data in a Student-classified
    # variable.  Running the semantics anyway from two stores that agree on
    # everything a Student-level observer may see, but differ in the right
    # export, leaves that observer with distinguishable stores.
    decls = DECLS + (VarDecl("ly0", "L", "import", "Student"),)
    prog = Program(decls, (Trl("ly0", "mx1"),))
    base_left = {d.name: 0 for d in decls if d.domain == "L"}
    base_right = {d.name: 0 for d in decls if d.domain == "M"}
    sa = StorePair(dict(base_left), dict(base_right, mx1=0))
    sb = StorePair(dict(base_left), dict(base_right, mx1=1))
    student_low = [d.name for d in decls
                   if d.domain == "L" and cu.left.leq(d.cls, "Student")]
    assert "ly0" in student_low
    assert all(sa.left[n] == sb.left[n] for n in student_low)
    fa, fb = exec_program(prog, sa), exec_program(prog, sb)
    assert fa.left["ly0"] != fb.left["ly0"]  # the leak, visible at Student level


def test_ni_trial_failure_carries_both_runs():
    # forge an unverified connection whose gamma understates the transfer
    # class; the typing premise then admits a genuine leak, and the failing
    # trial must report the distinguishing variable with both runs attached
    forged = fx.forged_two_point()
    decls = (VarDecl("z", "L", "internal", "lo"),
             VarDecl("y", "L", "import", "lo"),
             VarDecl("x", "M", "export", "hi2"),
             VarDecl("w", "M", "internal", "lo2"))
    prog = Program(decls, (Trl("y", "x"),))
    typecheck(prog, forged)  # the forged gamma lets this through
    failed = next(r for r in (ni_trial(prog, forged, ("lo", "lo2"), s)
                              for s in range(20)) if not r.passed)
    assert failed.distinguishing == ("left", "y")
    assert failed.initial is not None and failed.final is not None
    fa, fb = failed.final
    assert fa.left["y"] != fb.left["y"]


def test_empty_program_passes_every_pair(cu):
    prog = Program(DECLS, ())
    for pair in adversary_pairs(cu):
        assert ni_trial(prog, cu, pair, 3).passed


def test_ni_suite_deterministic_and_green(cu):
    r1 = run_ni_suite(DECLS, cu, programs=20, max_len=10, seed=42)
    r2 = run_ni_suite(DECLS, cu, programs=20, max_len=10, seed=42)
    assert r1 == r2
    assert r1.passed
    assert r1.trials == 20 * len(r1.pairs) * 3


def _trial_seeds(seed: int, programs: int, pairs: int, draws: int = 3):
    """`run_ni_suite`'s trial seeds, in its loop order."""
    return [(seed + 1) * 1_000_003 + p_idx * 7919 + pair_idx * 101 + draw
            for p_idx in range(programs) for pair_idx in range(pairs)
            for draw in range(draws)]


def _engine_words(n: int, seeds) -> list[list[tuple[int, int]]]:
    """Per seed, the trial engine's (run a, run b) initial values of n high
    variables, v0 to v{n-1}, all drawn in one pass."""
    prog = Program(tuple(VarDecl(f"v{i}", "LM"[i % 2], "internal", "c") for i in range(n)), ())
    out = []
    for _, (a, b), _ in flowlang._trials(prog, [(bytes(n), seed) for seed in seeds], True):
        out.append([(getattr(a, side)[f"v{i}"], getattr(b, side)[f"v{i}"])
                    for i, side in zip(range(n), ("left", "right") * n)])
    return out


def _from_words(words) -> list[tuple[int, int]]:
    """The (run a, run b) values of high variables drawn from these words."""
    return [(z & 0xFFFF, (z + 1 + (z >> 16) % 0xFFFF) & 0xFFFF) for z in words]


def test_store_stream_is_splitmix64():
    # The engine's draws are these functions of the SplitMix64 words, which
    # read all 64 bits of each: the low 16 and the residue of the top 48.
    assert splitmix64(0, 3) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                                0x06C45D188009454F]
    seeds = (0, 1, -1, 2 ** 64 - 1, 2 ** 64)
    for n in range(1, 41):
        for seed, drawn in zip(seeds, _engine_words(n, seeds)):
            assert drawn == _from_words(splitmix64(seed, n)), (seed, n)
    assert _engine_words(5, [-1]) == _engine_words(5, [2 ** 64 - 1])
    trial_seeds = _trial_seeds(7, programs=17, pairs=4)[:200]
    for seed, drawn in zip(trial_seeds, _engine_words(len(DECLS), trial_seeds)):
        assert drawn == _from_words(splitmix64(seed, len(DECLS)))


def test_high_offset_where_the_digit_sum_folds_to_the_modulus():
    # (z >> 16) mod 2^16 - 1 is the sum of three 16-bit digits, folded once;
    # the fold reaches 2^16 - 1 or more in about one word of 20,000, and then
    # needs one subtraction.  Found by search: the words of these seeds do.
    edges = ((2027, 12), (2227, 12), (3000, 4))
    for seed, i in edges:
        z = splitmix64(seed, len(DECLS))[i]
        digits = sum(z >> k & 0xFFFF for k in (16, 32, 48))
        assert (digits & 0xFFFF) + (digits >> 16) >= 0xFFFF
    seeds = [seed for seed, _ in edges]
    for seed, drawn in zip(seeds, _engine_words(len(DECLS), seeds)):
        assert drawn == _from_words(splitmix64(seed, len(DECLS))), seed


def test_store_draws_split_low_and_high_and_replay(cu):
    prog = gen_well_typed(DECLS, cu, 6, seed=3)
    for pair in adversary_pairs(cu):
        low = set(low_variables(prog, cu, pair))
        for seed in range(2000):
            a, b = draw_store_pairs(prog, cu, pair, seed)
            for side in ("left", "right"):
                sa, sb = getattr(a, side), getattr(b, side)
                assert sa.keys() == sb.keys()
                for name, v in sa.items():
                    assert 0 <= v < 2 ** 16 and 0 <= sb[name] < 2 ** 16
                    assert (v == sb[name]) == ((side, name) in low), (pair, seed, name)
            assert ni_trial(prog, cu, pair, seed, keep_stores=True).initial == (a, b)


def test_a_split_names_a_class_that_its_lattice_lacks(cu):
    # An adversary level, or the class of an unchecked declaration, that is
    # not in its side's lattice is an input error, not a KeyError.
    plain, wizard = Program(DECLS, ()), Program((VarDecl("lz0", "L", "internal", "Wizard"),), ())
    for prog, pair in ((plain, ("Wizard", "UnivFac")), (plain, ("Faculty", "Wizard")),
                       (wizard, ("Faculty", "UnivFac"))):
        for split in (low_variables, lambda *args: draw_store_pairs(*args, seed=0)):
            with pytest.raises(UnknownClass) as exc:
                split(prog, cu, pair)
            assert str(exc.value) == "unknown class 'Wizard' in College or University"
    with pytest.raises(UnknownClass) as exc:  # well-typed, so the split names the level
        ni_trial(plain, cu, ("Faculty", "Wizard"), 0)
    assert str(exc.value) == "unknown class 'Wizard' in College or University"


def test_forged_suite_failures_replay_by_seed():
    forged = fx.forged_two_point()
    replayed = 0
    for seed in range(10):
        base = random.Random(seed)
        progs = []
        for _ in range(6):
            length = base.randrange(9)
            progs.append(gen_well_typed(FORGED_DECLS, forged, length, base.getrandbits(48)))
        report = run_ni_suite(FORGED_DECLS, forged, programs=6, max_len=8, seed=seed)
        for p_idx, pair, trial_seed, distinguishing in report.failures:
            result = ni_trial(progs[p_idx], forged, pair, trial_seed)
            assert not result.passed and result.distinguishing == distinguishing
            replayed += 1
    assert replayed > 0


def test_store_and_program_streams_are_pinned(cu):
    # Literals, so a Python whose int, struct or random.Random gave other
    # draws or other programs for the same seed fails here.
    a, b = draw_store_pairs(Program(DECLS, ()), cu, ("Faculty", "UnivFac"), 7)
    assert (a, b) == (
        StorePair({"lz1": 3543, "lz2": 26140, "lz3": 10754, "lx1": 10699, "lx2": 8666,
                   "ly1": 43537, "ly2": 53494},
                  {"mz1": 48894, "mz2": 26465, "mx1": 21353, "mx2": 64235,
                   "my1": 25388, "my2": 45902}),
        StorePair({"lz1": 3543, "lz2": 26140, "lz3": 3021, "lx1": 10699, "lx2": 15155,
                   "ly1": 43537, "ly2": 16678},
                  {"mz1": 48894, "mz2": 58251, "mx1": 21353, "mx2": 703,
                   "my1": 53372, "my2": 15735}))
    report = run_ni_suite(FORGED_DECLS, fx.forged_two_point(), programs=6, max_len=8, seed=1)
    assert report.failures == (
        (2, ("lo", "lo2"), 2015844, ("left", "z")), (2, ("lo", "lo2"), 2015845, ("left", "z")),
        (2, ("lo", "lo2"), 2015846, ("left", "z")), (3, ("lo", "lo2"), 2023763, ("left", "z")),
        (3, ("lo", "lo2"), 2023764, ("left", "z")), (3, ("lo", "lo2"), 2023765, ("left", "z")))
    assert gen_well_typed(DECLS, cu, 5, seed=8).body == (
        Tlr("my2", "lx1"),
        Txn("M", (("mz1", Const(9)), ("mz2", Const(4)))),
        Txn("M", (("mz2", Const(8)),)),
        Txn("L", (("lz2", Add(Const(8), Const(3))),)),
        Rd("L", "lz2", "ly1"))


# -- generation ---------------------------------------------------------------------

def test_gen_length_zero_is_empty(cu):
    prog = gen_well_typed(DECLS, cu, 0, seed=1)
    assert prog.body == ()


@pytest.mark.parametrize("args,message", [
    ((-5, 0), "length must be at least 0, got -5"),
    ((2.5, 0), "length must be an integer, got 2.5"),
    ((True, 0), "length must be an integer, got True"),
    ((3, 0, flowlang.PHRASE_KINDS, 0), "stall_limit must be at least 1, got 0"),
    ((3, 0, flowlang.PHRASE_KINDS, 1.0), "stall_limit must be an integer, got 1.0"),
    ((3, 1.5), "seed must be an integer, got 1.5"),
    ((3, None), "seed must be an integer, got None"),
    ((3, "7"), "seed must be an integer, got '7'"),
    ((3, True), "seed must be an integer, got True"),
], ids=["negative-length", "float-length", "bool-length", "zero-stall", "float-stall",
        "float-seed", "none-seed", "str-seed", "bool-seed"])
def test_gen_rejects_bad_counts(cu, args, message):
    with pytest.raises(FlowError) as exc:
        gen_well_typed(DECLS, cu, *args)
    assert str(exc.value) == message


def test_gen_stall_limit_one_stops_at_the_first_rejection(cu):
    # The least limit: each seed keeps its first `wr` candidate or stalls on it.
    outcomes = set()
    for seed in range(40):
        try:
            outcomes.add(len(gen_well_typed(DECLS, cu, 1, seed, kinds=("wr",),
                                            stall_limit=1).body))
        except GenerationStall as exc:
            assert str(exc).startswith("1 consecutive rejections;")
            outcomes.add("stall")
    assert outcomes == {1, "stall"}


def test_gen_always_typechecks(cu):
    for seed in range(10):
        prog = gen_well_typed(DECLS, cu, 20, seed=seed)
        assert len(prog.body) == 20
        typecheck(prog, cu)  # must not raise


def test_gen_deterministic(cu):
    assert gen_well_typed(DECLS, cu, 15, seed=9) == gen_well_typed(DECLS, cu, 15, seed=9)


@pytest.mark.parametrize("kinds", [flowlang.PHRASE_KINDS, ("rd", "wr"), ("trl", "tlr", "txn")],
                         ids=["all", "rd-wr", "transfers"])
def test_gen_sets_the_body_program_would_check(cu, kinds):
    # The generator sets its body and readings on its own Program without
    # re-checking the phrases; a Program built from scratch must accept them,
    # be equal and read them alike.
    for seed in range(500):
        g = gen_well_typed(DECLS, cu, seed % 21, seed=seed, kinds=kinds)
        rebuilt = Program(DECLS, g.body)
        assert rebuilt == g and rebuilt.env == g.env and rebuilt.readings == g.readings


def test_gen_stalls_when_transfers_cannot_type(cu):
    # Every import class sits strictly below what the maps land on every
    # export: gamma(UnivFac) = Faculty above the Student import, and
    # alpha(Faculty) = UnivFac above the bot2 import.
    decls = (
        VarDecl("lz", "L", "internal", "Student"),
        VarDecl("lx", "L", "export", "Faculty"),
        VarDecl("ly", "L", "import", "Student"),
        VarDecl("mz", "M", "internal", "UnivFac"),
        VarDecl("mx", "M", "export", "UnivFac"),
        VarDecl("my", "M", "import", "bot2"),
    )
    with pytest.raises(GenerationStall):
        gen_well_typed(decls, cu, 1, seed=0, kinds=("trl", "tlr"), stall_limit=2000)


def test_gen_requires_all_kinds(cu):
    with pytest.raises(FlowError):
        gen_well_typed(DECLS[:3], cu, 1, seed=0)


# -- text format ---------------------------------------------------------------------

EXAMPLE_PROGRAM = """\
# three-step pipeline
var L lz1 : Student internal
var L lx1 : Faculty export
var L ly1 : Faculty import
var M my1 : Dean(Colleges) import
var M mz2 : Dean(Colleges) internal
var M mx1 : UnivFac export

t L { lz1 := lz1 + 1 }
wr L lx1 lz1
tlr my1 lx1
rd M mz2 my1
trl ly1 mx1
"""


def test_parse_round_trip_semantics(cu):
    prog = parse_program(EXAMPLE_PROGRAM)
    assert len(prog.body) == 5
    assert prog.body[0] == Txn("L", (("lz1", Add(Var("lz1"), Const(1))),))
    assert prog.body[2] == Tlr("my1", "lx1")
    t = typecheck(prog, cu)
    # meet over (Student,top2), (Faculty,top2), (Faculty,Dean(Colleges)),
    # (top1,Dean(Colleges)), (Faculty,UnivFac)
    assert t == PhraseType("Student", "UnivFac")
    init = StorePair({"lz1": 6, "lx1": 0, "ly1": 0},
                     {"my1": 0, "mz2": 0, "mx1": 3})
    out = exec_program(prog, init)
    assert out.right["mz2"] == 7
    assert out.left["ly1"] == 3


@pytest.mark.parametrize("bad", [
    "var L : Student internal",
    "var X a : Student internal",
    "var L a : Student inward",
    "t L { }",
    "t L { a := }",
    "t L { a := 1 +",
    "t L { a := b ** c }",
    "t L garbage { a := 1 }",
    "t L L { a := 1 }",
    "rd L a",
    "rd L a b c",
    "tlr y",
    "frobnicate a b",
    "wr L a",
    "wr L a b c",
    "trl y",
    "trl y x z",
    "tlr y x z",
    "var L := : Student internal\nt L { a := := }",
    "t L { a := \u0663 }",
    "var L a+b : Student internal",
    "t L { a := + 1 }",
    "t L { a := 1 2 }",
    "t L { a := 1 + }",
    "t X { a := 1 }",
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_program("var L a : Student internal\n" + bad)


def test_parse_reports_line_number():
    with pytest.raises(ParseError) as exc:
        parse_program("var L a : Student internal\nwr L a\n")
    assert "line 2" in str(exc.value)


@pytest.mark.parametrize("text,message", [
    ("var L a : Student internal\nvar M a : UnivFac internal", "variable 'a' declared twice"),
    ("var L a : Student internal\nt L { a := b }", "phrase 0: variable 'b' is not declared"),
    ("var L a : Student internal\nt X { a := 1 }", "line 2: bad domain 'X'"),
    ("var L := : Student internal", "line 1: malformed declaration 'var L := : Student internal'"),
    ("var L a : Student internal\nt L { a := := }", "line 2: bad expression ':='"),
    ("var L a : Student internal\nt L { a := \u0663 }", "line 2: bad expression '\u0663'"),
], ids=["duplicate", "undeclared", "bad-domain", "name-not-an-identifier", "name-as-term",
        "non-ascii-digit"])
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as exc:
        parse_program(text)
    assert str(exc.value) == message


def test_first_undeclared_variable_is_named_whatever_the_string_hashing():
    code = ("import sys\nfrom sifc.flowlang import ParseError, parse_program\n"
            "try:\n    parse_program(sys.argv[1])\nexcept ParseError as exc:\n    print(exc)")
    for seed in "0123":
        proc = fx.run_python(code, "var L a : Student internal\nt L { a := b + c }",
                             PYTHONHASHSEED=seed)
        assert proc.stdout == "phrase 0: variable 'b' is not declared\n", seed


# -- suite loop, executor and the exact non-interference oracle --------------------

def posets(conn):
    return (BrutePoset(conn.left.classes, conn.left.covers),
            BrutePoset(conn.right.classes, conn.right.covers))


# One variable of every (domain, kind) at least, as the generator needs.
FORGED_DECLS = (
    VarDecl("z", "L", "internal", "lo"),
    VarDecl("zh", "L", "internal", "hi"),
    VarDecl("lx", "L", "export", "lo"),
    VarDecl("y", "L", "import", "lo"),
    VarDecl("w", "M", "internal", "lo2"),
    VarDecl("wh", "M", "internal", "hi2"),
    VarDecl("x", "M", "export", "hi2"),
    VarDecl("my", "M", "import", "hi2"),
)


def test_run_ni_suite_matches_reference_loop(cu):
    for seed in range(40):
        draws = 1 + seed % 3
        assert run_ni_suite(DECLS, cu, programs=4, max_len=20, seed=seed, draws=draws) == \
            reference_ni_suite(DECLS, cu, programs=4, max_len=20, seed=seed, draws=draws)


def test_run_ni_suite_matches_reference_loop_where_trials_fail():
    forged = fx.forged_two_point()
    failing = 0
    for seed in range(25):
        report = run_ni_suite(FORGED_DECLS, forged, programs=6, max_len=8, seed=seed)
        assert report == reference_ni_suite(FORGED_DECLS, forged, programs=6,
                                            max_len=8, seed=seed)
        failing += len(report.failures)
    assert failing > 0  # the comparison covers failure tuples and witnesses



def test_run_ni_suite_matches_reference_loop_on_unchecked_programs(cu, monkeypatch):
    # Both loops run random programs with typing switched off, so trials
    # fail at every adversary pair that has low variables.
    monkeypatch.setattr(flowlang, "typecheck", lambda prog, conn: None)
    monkeypatch.setattr(flowlang, "gen_well_typed", lambda decls, conn, length, seed:
                        random_program(random.Random(seed), decls, length))
    failing_pairs = set()
    for seed in range(10):
        report = run_ni_suite(DECLS, cu, programs=5, max_len=6, seed=seed)
        assert report == reference_ni_suite(DECLS, cu, programs=5, max_len=6, seed=seed)
        failing_pairs |= {pair for _, pair, _, _ in report.failures}
    assert len(failing_pairs) == 2  # nothing is low at the bottom pair, nothing high at the top

def test_exec_program_matches_tree_interpreter(cu):
    rng = random.Random(61)
    for _ in range(400):
        prog = random_program(rng, DECLS, rng.randrange(10))
        init = StorePair({d.name: rng.randrange(-2 ** 17, 2 ** 17)
                          for d in DECLS if d.domain == "L"},
                         {d.name: rng.randrange(-2 ** 17, 2 ** 17)
                          for d in DECLS if d.domain == "M"})
        assert exec_program(prog, init) == interpret(prog, init)


def test_well_typed_programs_are_non_interfering_exactly(cu):
    # Soundness of the typing rules, decided exactly rather than sampled: the
    # program stream of criterion 7's suite (seed 2024) and twice as many
    # more, every program at every adversary pair.
    lposet, rposet = posets(cu)
    pairs = adversary_pairs(cu)
    base = random.Random(2024)
    for _ in range(3000):
        length = base.randrange(21)
        prog = gen_well_typed(DECLS, cu, length, base.getrandbits(48))
        for pair in pairs:
            assert ni_leak(prog, lposet, rposet, pair) is None, (prog, pair)


def test_every_small_connection_types_exactly_and_leaks_nothing(small_connections):
    # The paper's soundness on every connection between the small lattices:
    # one variable of each (side, kind, class), 20 seeded well-typed programs
    # of 1-8 phrases each, typed as the rules are written and leaking at no
    # adversary pair.
    rng, programs, leak_checks = random.Random(31), 0, 0
    for conn in small_connections:
        decls = tuple(VarDecl(f"{side.lower()}{kind[:2]}{i}", side, kind, cls)
                      for side, lat in (("L", conn.left), ("M", conn.right))
                      for kind in flowlang.KINDS for i, cls in enumerate(lat.classes))
        brute, pairs = (*posets(conn), conn.alpha.mapping(), conn.gamma.mapping()), \
            adversary_pairs(conn)
        for _ in range(20):
            prog = gen_well_typed(decls, conn, rng.randint(1, 8), rng.getrandbits(48))
            typed = typecheck(prog, conn)
            assert (typed.left, typed.right) == brute_typecheck(prog, *brute), prog.body
            for pair in pairs:
                assert ni_leak(prog, *brute[:2], pair) is None, (prog.body, pair)
            programs, leak_checks = programs + 1, leak_checks + len(pairs)
    assert (len(small_connections), programs, leak_checks) == (145, 2900, 6140)


def test_exact_oracle_finds_the_forged_leaks():
    forged = fx.forged_two_point()
    lposet, rposet = posets(forged)
    leaks = sum(ni_leak(gen_well_typed(FORGED_DECLS, forged, 6, seed),
                        lposet, rposet, ("lo", "lo2")) is not None for seed in range(50))
    assert leaks > 0


def test_trial_verdicts_match_exact_oracle_on_unchecked_programs(cu):
    lposet, rposet = posets(cu)
    rng = random.Random(7)
    leaking = caught = 0
    pairs = adversary_pairs(cu)
    for n in range(600):
        prog = random_program(rng, DECLS, rng.randrange(1, 8))
        # one engine pass over every trial of the program, as run_ni_suite runs them
        witnesses = flowlang._trials(prog, [(flowlang._lows(prog, cu, pair), n * 10 + d)
                                            for pair in pairs for d in range(3)])
        for p_idx, pair in enumerate(pairs):
            leak = ni_leak(prog, lposet, rposet, pair)
            results = witnesses[3 * p_idx:3 * p_idx + 3]
            if leak is None:
                assert all(r is None for r in results), (prog, pair)
                continue
            leaking += 1
            caught += not all(r is None for r in results)
            lows = low_variables(prog, cu, pair)
            for r in results:  # a distinguishing variable depends on a high input
                if r is not None:
                    assert r in lows
                    name = r[1]
                    assert set(affine_finals(prog)[name][1]) - {v for _, v in lows}
            # the oracle's witness replays: that high input moved by 1 moves that output
            out, high = leak
            a = zero_store(prog)
            b = zero_store(prog)
            (b.left if prog.env[high].domain == "L" else b.right)[high] = 1
            fa, fb = interpret(prog, a), interpret(prog, b)
            where = "left" if prog.env[out].domain == "L" else "right"
            assert getattr(fa, where)[out] != getattr(fb, where)[out]
    assert leaking > 0 and caught == leaking  # three draws caught every leak here


def _decls_of_size(n: int) -> tuple[VarDecl, ...]:
    """n declarations shaped as DECLS, cycled under fresh names."""
    return tuple(VarDecl(f"{d.name}_{i}", d.domain, d.kind, d.cls)
                 for i, d in ((i, DECLS[i % len(DECLS)]) for i in range(n)))


def _program_of_size(rng: random.Random, n: int, length: int) -> Program:
    """A random unchecked program over n declarations; below a full set of
    (domain, kind) pairs, transactions over the left internal variables."""
    decls = _decls_of_size(n)
    if n >= len(DECLS):
        return random_program(rng, decls, length)
    internal = [Var(d.name) for d in decls]  # the first two of DECLS are left internals
    body = tuple(Txn("L", ((rng.choice(internal).name,
                            Add(rng.choice(internal), Add(rng.choice(internal), Const(9)))),))
                 for _ in range(length if internal else 0))
    return Program(decls, body)


@pytest.mark.parametrize("t", [1, 2, 3, 12, 13, flowlang._PASS + 1])
def test_trial_engine_matches_reference_trial(cu, t):
    # Each trial of one engine call, at mixed adversary pairs and seeds,
    # against SplitMix64 and the tree interpreter: verdict, witness and both
    # runs' initial and final stores.
    lposet, rposet = posets(cu)
    pairs = adversary_pairs(cu)
    seeds = (0, 1, -1, 2 ** 64 - 1, 2 ** 64, 2 ** 70 + 3)
    rng = random.Random(t)
    failing = 0
    for n in (0, 1, 2, 13, 40):
        for length in (0, 3, 9, 20):
            prog = _program_of_size(rng, n, length)
            chosen = [(pairs[(k * 7 + n) % len(pairs)], seeds[k % len(seeds)] + k // len(seeds))
                      for k in range(t)]
            trials = [(flowlang._lows(prog, cu, pair), seed) for pair, seed in chosen]
            kept = flowlang._trials(prog, trials, keep_stores=True)
            assert [w for w, _, _ in kept] == flowlang._trials(prog, trials)
            for (pair, seed), got in zip(chosen, kept):
                assert got == reference_trial(prog, lposet, rposet, pair, seed), (n, pair, seed)
                failing += got[0] is not None
    assert failing > 0


def test_witness_of_runs_that_differ_in_the_high_byte_only(cu):
    # lz1 (Student, low at Faculty) gets 256 times lz3 (CollegePrincipal,
    # high there): the runs then end equal in lz1's low byte and apart in its
    # high byte, and lz1 must still be the witness, as the reference says.
    lposet, rposet = posets(cu)
    prog = Program(DECLS, (Txn("L", (("lz1", reduce(Add, [Var("lz3")] * 256)),)),))
    pair = ("Faculty", "UnivFac")
    kept = flowlang._trials(prog, [(flowlang._lows(prog, cu, pair), s) for s in range(12)], True)
    for seed, (witness, initial, (fa, fb)) in enumerate(kept):
        assert (fa.left["lz1"] ^ fb.left["lz1"]) & 0xFF == 0
        assert (witness, initial, (fa, fb)) == reference_trial(prog, lposet, rposet, pair, seed)
    assert sum(witness == ("left", "lz1") for witness, _, _ in kept) > 6


@pytest.mark.parametrize("terms", [1, 2, 3, 2 ** 8 - 1, 2 ** 8, 2 ** 16 - 1, 2 ** 16])
def test_lanes_hold_sums_without_carry(terms):
    # The engine's lanes are the 64-bit halves of 128-bit words.  Packed with
    # stores that make each sum as large as it gets (0xFFFF everywhere) next
    # to lanes of zeros and of other values, sums of 2^k - 1 and 2^k terms,
    # past 2^16, 2^24 and 2^32 before the reduction, must leave every lane as
    # the tree interpreter leaves its store, with nothing above its 16 bits.
    xs = [Var(f"z{i}") for i in range(3)]
    decls = tuple(VarDecl(v.name, "L", "internal", "c") for v in xs) + \
        (VarDecl("m", "M", "internal", "c"),)

    def balanced(leaves):
        while len(leaves) > 1:
            leaves = [Add(*leaves[i:i + 2]) if i + 1 < len(leaves) else leaves[i]
                      for i in range(0, len(leaves), 2)]
        return leaves[0]

    big = balanced([Const(0xFFFF)] + [xs[i % 3] for i in range(terms)])
    prog = Program(decls, (Txn("L", (("z0", big), ("z1", Add(Var("z0"), Var("z1"))))),
                           Txn("M", (("m", Add(Var("m"), Const(1))),))))
    rng = random.Random(terms)
    inits = [StorePair({v.name: value for v in xs}, {"m": value})
             for value in (0xFFFF, 0, 0xFFFF, 0xFFFE, 1, 0xFFFF)]
    inits.append(StorePair({v.name: rng.randrange(2 ** 16) for v in xs}, {"m": 0xFFFF}))
    packed = tuple({name: sum(getattr(init, side)[name] << 64 * k for k, init in enumerate(inits))
                    for name in getattr(inits[0], side)} for side in ("left", "right"))
    rep = sum(1 << 64 * k for k in range(len(inits)))
    flowlang._run(flowlang._compile(prog), packed, rep, rep * 0xFFFF)
    for k, init in enumerate(inits):
        lane = StorePair(*({name: v >> 64 * k & (2 ** 64 - 1) for name, v in side.items()}
                           for side in packed))
        assert lane == interpret(prog, init), (terms, k)


@pytest.mark.parametrize("arg", ["programs", "max_len", "draws"])
def test_run_ni_suite_rejects_negative_counts(cu, arg):
    counts = {"programs": 2, "max_len": 3, "draws": 1, arg: -1}
    with pytest.raises(FlowError, match=f"^{arg} must be at least 0, got -1$"):
        run_ni_suite(DECLS, cu, seed=0, **counts)
    for bad in (2.5, True, "3", None):  # a count is an int, and a bool is not one
        counts[arg] = bad
        with pytest.raises(FlowError) as exc:
            run_ni_suite(DECLS, cu, seed=0, **counts)
        assert str(exc.value) == f"{arg} must be an integer, got {bad!r}"
    counts[arg] = 0  # zero stays allowed
    report = run_ni_suite(DECLS, cu, seed=0, **counts)
    assert report.passed and report.trials == (0 if arg != "max_len" else 2 * 4)
    for bad in (1.5, True, "7", None):  # a seed is an int too, of any size
        with pytest.raises(FlowError) as exc:
            run_ni_suite(DECLS, cu, seed=bad, **counts)
        assert str(exc.value) == f"seed must be an integer, got {bad!r}"
    for seed in (-1, 2 ** 64, -2 ** 70):
        assert run_ni_suite(DECLS, cu, seed=seed, **counts).seed == seed


def test_typing_rejects_phrases_that_are_non_interfering(cu):
    # Typing is sound but not complete: report how many single phrases it
    # rejects that no adversary pair can tell apart.
    lposet, rposet = posets(cu)
    rng = random.Random(11)
    pairs = adversary_pairs(cu)
    rejected = rejected_ni = 0
    for _ in range(2000):
        p = random_phrase(rng, DECLS)
        prog = Program(DECLS, (p,))
        ni = all(ni_leak(prog, lposet, rposet, pair) is None for pair in pairs)
        try:
            typecheck_phrase(prog.env, cu, p)
        except FlowTypeError:
            rejected += 1
            rejected_ni += ni
        else:
            assert ni, p
    print(f"typing rejected {rejected} of 2000 phrases; {rejected_ni} of those are NI")
    assert 0 < rejected_ni < rejected


def test_run_ni_suite_typechecks_each_program_once(cu, monkeypatch):
    calls = []
    original = flowlang.typecheck
    monkeypatch.setattr(flowlang, "typecheck",
                        lambda prog, conn: calls.append(prog) or original(prog, conn))
    report = run_ni_suite(DECLS, cu, programs=7, max_len=10, seed=5)
    assert len(calls) == 7
    assert report.trials == 7 * len(report.pairs) * 3


def test_run_ni_suite_refuses_ill_typed(cu, monkeypatch):
    decls = DECLS + (VarDecl("ly0", "L", "import", "Student"),)
    bad = Program(decls, (Trl("ly0", "mx1"),))
    monkeypatch.setattr(flowlang, "gen_well_typed", lambda *args, **kwargs: bad)
    with pytest.raises(IllTyped):
        run_ni_suite(decls, cu, programs=1, max_len=1, seed=0)


def test_phrase_types_report_reads_for_txn_and_writes_for_moves(cu):
    # A transaction reports the join of what it reads, not the meet of what
    # it writes (the Volpano-Smith reading); rd and wr report the class they
    # write; trl and tlr the import's and the export's class, each on its side.
    env = Program(DECLS, ()).env
    reads_two = Txn("L", (("lz3", Add(Var("lz1"), Var("lz2"))),))
    assert typecheck_phrase(env, cu, reads_two) == PhraseType("Faculty", "top2")
    assert typecheck_phrase(env, cu, Txn("L", (("lz3", Const(1)),))) == \
        PhraseType("bot1", "top2")
    assert typecheck_phrase(env, cu, Txn("M", (("mz2", Var("mz1")),))) == \
        PhraseType("top1", "UnivFac")
    assert typecheck_phrase(env, cu, Rd("M", "mz2", "my1")) == \
        PhraseType("top1", "Dean(Colleges)")
    assert typecheck_phrase(env, cu, Wr("L", "lx2", "lz2")) == \
        PhraseType("CollegePrincipal", "top2")
    assert typecheck_phrase(env, cu, Trl("ly2", "mx1")) == PhraseType("top1", "UnivFac")
    assert typecheck_phrase(env, cu, Tlr("my1", "lx1")) == \
        PhraseType("Faculty", "Dean(Colleges)")


def test_every_copy_phrase_types_and_runs_by_its_premise(cu):
    # Every rd, wr, trl and tlr over DECLS, each with its premise written out
    # as (rule, lattice, lower, upper) and the type it reports.  One import at
    # the bottom of M gives tlr failures too.
    decls = DECLS + (VarDecl("my0", "M", "import", cu.right.bottom),)
    cls = {d.name: d.cls for d in decls}
    lat = {"L": cu.left, "M": cu.right}

    def names(domain, kind):
        return [d.name for d in decls if d.domain == domain and d.kind == kind]

    def own(domain, c):
        return PhraseType(c, cu.right.top) if domain == "L" else PhraseType(cu.left.top, c)

    cases = []
    for dom in ("L", "M"):
        for z in names(dom, "internal"):
            for y in names(dom, "import"):
                cases.append((Rd(dom, z, y), "rd", lat[dom], cls[y], cls[z], own(dom, cls[z])))
            for x in names(dom, "export"):
                cases.append((Wr(dom, x, z), "wr", lat[dom], cls[z], cls[x], own(dom, cls[x])))
    for y in names("L", "import"):
        for x in names("M", "export"):
            cases.append((Trl(y, x), "trl", cu.left, cu.gamma(cls[x]), cls[y],
                          PhraseType(cls[y], cls[x])))
    for y in names("M", "import"):
        for x in names("L", "export"):
            cases.append((Tlr(y, x), "tlr", cu.right, cu.alpha(cls[x]), cls[y],
                          PhraseType(cls[x], cls[y])))

    env = Program(decls, ()).env
    # Distinct values, so a step that reads or writes the wrong variable shows.
    init = StorePair({d.name: 100 + i for i, d in enumerate(decls) if d.domain == "L"},
                     {d.name: 100 + i for i, d in enumerate(decls) if d.domain == "M"})
    verdicts = set()
    for p, rule, lattice, lower, upper, reported in cases:
        holds = lattice.leq(lower, upper)
        verdicts.add((rule, holds))
        if holds:
            assert typecheck_phrase(env, cu, p, 4) == reported, p
        else:
            with pytest.raises(FlowTypeError) as exc:
                typecheck_phrase(env, cu, p, 4)
            assert (exc.value.rule, exc.value.lower, exc.value.upper, exc.value.index) == \
                (rule, lower, upper, 4), p
        prog = Program(decls, (p,))
        assert exec_program(prog, init) == interpret(prog, init), p
    assert len(cases) == 32
    assert verdicts == {(rule, holds) for rule in ("rd", "wr", "trl", "tlr")
                        for holds in (True, False)}


# -- typing against the rules as written ---------------------------------------------

def every_phrase(decls):
    """Every copy phrase over `decls`, then every transaction of one or two
    assignments whose right-hand sides each read up to two variables."""
    def names(domain, kind):
        return [d.name for d in decls if d.domain == domain and d.kind == kind]

    for dom in "LM":
        for z in names(dom, "internal"):
            yield from (Rd(dom, z, y) for y in names(dom, "import"))
            yield from (Wr(dom, x, z) for x in names(dom, "export"))
    yield from (Trl(y, x) for y in names("L", "import") for x in names("M", "export"))
    yield from (Tlr(y, x) for y in names("M", "import") for x in names("L", "export"))
    for dom in "LM":
        internal = names(dom, "internal")
        pairs = itertools.combinations_with_replacement(internal, 2)
        sums = [Const(3), *map(Var, internal), *(Add(Var(a), Var(b)) for a, b in pairs)]
        assigns = [(t, e) for t in internal for e in sums]
        yield from (Txn(dom, (a,)) for a in assigns)
        yield from (Txn(dom, (a, b)) for a in assigns for b in assigns)


def random_decls(rng, conn):
    """Two internals and one or two exports and imports per side, of random classes."""
    return tuple(VarDecl(f"{dom}{kind[:3]}{i}", dom, kind, rng.choice(lat.classes))
                 for dom, lat in (("L", conn.left), ("M", conn.right))
                 for kind in flowlang.KINDS
                 for i in range(2 if kind == "internal" else rng.randint(1, 2)))


def test_typing_matches_the_rules_as_written():
    # Bounded-exhaustive: every phrase of `every_phrase` on the fixture
    # connection, the forged one and small random ones, against the oracle
    # over reach sets and map tables; then seeded programs of those phrases
    # against the oracle's meet fold.
    from gen import random_connection
    from oracles import brute_phrase_type, brute_typecheck
    rng = random.Random(25)
    cu = fx.college_university()  # an import at the bottom of M makes tlr fail too
    cases = [(cu, DECLS + (VarDecl("my0", "M", "import", cu.right.bottom),)),
             (fx.forged_two_point(), FORGED_DECLS)]
    while len(cases) < 8:  # most random connections have a one-class side
        conn = random_connection(rng, max_classes=6)
        if min(len(conn.left), len(conn.right)) >= 3:
            cases.append((conn, random_decls(rng, conn)))
    outcomes = set()
    for conn, decls in cases:
        brute = (*posets(conn), conn.alpha.mapping(), conn.gamma.mapping())
        env, phrases = Program(decls, ()).env, list(every_phrase(decls))
        for p in phrases:
            (rule, lower, upper), holds, reported = brute_phrase_type(env, *brute, p)
            outcomes.add((rule, holds))
            if holds:
                assert typecheck_phrase(env, conn, p, 7) == PhraseType(*reported), p
            else:
                with pytest.raises(FlowTypeError) as exc:
                    typecheck_phrase(env, conn, p, 7)
                got = exc.value
                assert (got.rule, got.lower, got.upper, got.index) == (rule, lower, upper, 7), p
        for length in [0, 1, 1, 1, *range(2, 9)] * 8:
            prog = Program(decls, tuple(rng.choice(phrases) for _ in range(length)))
            want = brute_typecheck(prog, *brute)
            try:
                got = typecheck(prog, conn)
                got = got.left, got.right
            except FlowTypeError as exc:
                got = ("ill-typed", exc.rule, exc.lower, exc.upper, exc.index)
            assert got == want, prog.body
    assert outcomes == {(rule, holds) for rule in flowlang.PHRASE_KINDS for holds in (True, False)}
