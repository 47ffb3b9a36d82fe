"""Compare `run_ni_suite` with the reference suite loop over many seeds.

    PYTHONPATH=src:tests python tests/ni_sweep.py

For 300 suite seeds and 1 to 4 draws per adversary pair, runs
`flowlang.run_ni_suite`, which runs all trials of a program in one pass of
the trial engine, and `oracles.reference_ni_suite`, which calls the public
`ni_trial` once per trial, on three families: the fixture connection with
its well-typed programs, the forged connection whose well-typed programs
leak, and unchecked random programs on the fixture connection (typing
switched off, so most adversary pairs fail).  Each program a suite draws
is also typechecked and compared with `oracles.brute_typecheck`, the meet
fold of the typing rules as written (ill-typed programs included, in the
unchecked family).  Prints one line per suite whose reports differ and per
program whose types differ, and nothing when all agree; the exit code is
always 0.
"""

from __future__ import annotations

import random
from unittest import mock

import fixtures as fx
from gen import random_program
from oracles import brute_typecheck, reference_ni_suite
from sifc import flowlang
from test_flowlang import DECLS, FORGED_DECLS, posets

SEEDS = range(300)
DRAWS = range(1, 5)
TYPECHECK = flowlang.typecheck  # the real one, whatever a family patches in


def typed(prog, conn):
    """`typecheck`'s outcome in the oracle's terms."""
    try:
        got = TYPECHECK(prog, conn)
    except flowlang.FlowTypeError as exc:
        return "ill-typed", exc.rule, exc.lower, exc.upper, exc.index
    return got.left, got.right


def sweep(family: str, decls, conn, programs: int, max_len: int) -> int:
    """Print each disagreeing suite and program type of the family; return
    the failing trials."""
    failing, brute = 0, (*posets(conn), conn.alpha.mapping(), conn.gamma.mapping())
    generate = flowlang.gen_well_typed

    def checked(*args):  # the programs do not depend on the draws: check them once
        prog = generate(*args)
        if (got := typed(prog, conn)) != (want := brute_typecheck(prog, *brute)):
            print(f"{family} typing: {prog.body!r}: {got!r} != {want!r}")
        return prog

    for seed in SEEDS:
        for draws in DRAWS:
            gen = checked if draws == 1 else generate
            with mock.patch.object(flowlang, "gen_well_typed", gen):
                got = flowlang.run_ni_suite(decls, conn, programs, max_len, seed, draws)
            want = reference_ni_suite(decls, conn, programs, max_len, seed, draws)
            if got != want:
                print(f"{family} seed={seed} draws={draws}: {got!r} != {want!r}")
            failing += len(got.failures)
    return failing


def main() -> None:
    cu, forged = fx.college_university(), fx.forged_two_point()
    if sweep("fixture", DECLS, cu, programs=2, max_len=20):
        print("fixture: a well-typed program failed a trial")
    if not sweep("forged", FORGED_DECLS, forged, programs=3, max_len=8):
        print("forged: no trial failed, so no witness was compared")
    with mock.patch.object(flowlang, "typecheck", lambda prog, conn: None), \
            mock.patch.object(flowlang, "gen_well_typed", lambda decls, conn, length, seed:
                              random_program(random.Random(seed), decls, length)):
        if not sweep("unchecked", DECLS, cu, programs=2, max_len=6):
            print("unchecked: no trial failed, so no witness was compared")


if __name__ == "__main__":
    main()
