"""Compare `run_ni_suite` with the reference suite loop over many seeds.

    PYTHONPATH=src:tests python tests/ni_sweep.py

For 300 suite seeds and 1 to 4 draws per adversary pair, runs
`flowlang.run_ni_suite`, which runs all trials of a program in one pass of
the trial engine, and `oracles.reference_ni_suite`, which calls the public
`ni_trial` once per trial, on three families: the fixture connection with
its well-typed programs, the forged connection whose well-typed programs
leak, and unchecked random programs on the fixture connection (typing
switched off, so most adversary pairs fail).  Prints one line per suite
whose reports differ and nothing when every report agrees; the exit code is
always 0.
"""

from __future__ import annotations

import random
from unittest import mock

import fixtures as fx
from gen import random_program
from oracles import reference_ni_suite
from sifc import flowlang
from test_flowlang import DECLS, FORGED_DECLS

SEEDS = range(300)
DRAWS = range(1, 5)


def sweep(family: str, decls, conn, programs: int, max_len: int) -> int:
    """Print each disagreeing suite of the family; return the failing trials."""
    failing = 0
    for seed in SEEDS:
        for draws in DRAWS:
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
