"""Execution semantics, security typing, and the non-interference harness."""

import itertools
import random

import pytest

from sifc.flowlang import (Add, Const, DuplicateVariable, FlowError,
                           FlowTypeError, GenerationStall, IllTyped,
                           KindMismatch, ParseError, PhraseType, Program, Rd,
                           StoreDomainError, StorePair, Tlr, Trl, Txn,
                           UndeclaredVariable, Var, VarDecl, Wr,
                           adversary_pairs, exec_program, gen_well_typed,
                           lint_transfer_classes, low_variables, ni_trial,
                           parse_program, run_ni_suite, store_pair_from_dict,
                           typecheck, typecheck_phrase)
from sifc import flowlang
from sifc.lattice import UnknownClass

import fixtures as fx
from gen import random_phrase, random_program
from oracles import (BrutePoset, affine_finals, interpret, ni_leak,
                     reference_ni_suite)


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


def test_unknown_class_in_decl(cu):
    prog = Program((VarDecl("a", "L", "internal", "Wizard"),) + DECLS, ())
    with pytest.raises(UnknownClass):
        typecheck(prog, cu)


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


# -- generation ---------------------------------------------------------------------

def test_gen_length_zero_is_empty(cu):
    prog = gen_well_typed(DECLS, cu, 0, seed=1)
    assert prog.body == ()


def test_gen_always_typechecks(cu):
    for seed in range(10):
        prog = gen_well_typed(DECLS, cu, 20, seed=seed)
        assert len(prog.body) == 20
        typecheck(prog, cu)  # must not raise


def test_gen_deterministic(cu):
    assert gen_well_typed(DECLS, cu, 15, seed=9) == gen_well_typed(DECLS, cu, 15, seed=9)


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
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_program("var L a : Student internal\n" + bad)


def test_parse_reports_line_number():
    with pytest.raises(ParseError) as exc:
        parse_program("var L a : Student internal\nwr L a\n")
    assert "line 2" in str(exc.value)


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
    for n in range(600):
        prog = random_program(rng, DECLS, rng.randrange(1, 8))
        steps = flowlang._compile(prog)
        for pair in adversary_pairs(cu):
            leak = ni_leak(prog, lposet, rposet, pair)
            split = flowlang._split(prog, cu, pair)
            results = [flowlang._trial(steps, split, pair, n * 10 + d) for d in range(3)]
            if leak is None:
                assert all(r.passed for r in results), (prog, pair)
                continue
            leaking += 1
            caught += not all(r.passed for r in results)
            lows = low_variables(prog, cu, pair)
            for r in results:  # a distinguishing variable depends on a high input
                if not r.passed:
                    assert r.distinguishing in lows
                    name = r.distinguishing[1]
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
