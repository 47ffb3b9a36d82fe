"""Time each connection, typing, trial and label layer alone at several sizes, with its growth.

    PYTHONPATH=src python tests/layers.py [--json PATH]

For each n in SIZES, one `bench/gen.random_agreement`, all drawn in size
order from one `random.Random(SEED)`: a left lattice of n classes, a right
one of 3n/8 and n/8 budpoints a side.  Each layer runs alone on it:
`Lattice.from_dict` of each side, `check_connection`, `find_adjoint`,
`compose` with the transpose, `decompose`, `coarsen` to the agreement's
coarser map and `check_tightness`.
Each of the last four gets a fresh connection record, so no budpoint or
kernel is cached.  A cell is the minimum, in ms, of REPEAT single calls
with the garbage collector off, as `timeit` runs them, one in each of
REPEAT rounds over all cells; a record made for a call is made outside its
timer.  Prints one row per size, then one row per
doubling with each layer's growth t(n) / t(n/2); with --json it also writes
{"sizes", "ms", "growth"}, each layer's cells in size order.

Two more tables follow, timed the same way.  `typecheck` and `ni_trial`
(at the first adversary pair) run on one `gen_well_typed` program of each
length in PROGRAM_SIZES over the fixture connection, with the declarations
of `fixtures/pipeline.sif`; `label_leq` compares a label of k policies, one
per owner of the 50-principal `fixtures.wide_principal_map_pair`, with
itself, for k in LABEL_SIZES.  With --json they are written under
"programs" and "labels".

`bench/gen.py` is loaded read-only by its path, under the name `bench_gen`,
so that this script and `tests/gen.py` do not clash.  The name does not
match `test_*.py`, so pytest does not collect it.  Stdlib only.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import random
import sys
import time
from pathlib import Path

from sifc.connection import (LagoisConnection, MonotoneMap, check_connection, check_tightness,
                             coarsen, compose, decompose, find_adjoint)
from sifc.dlm import Label, Policy, label_leq
from sifc.flowlang import adversary_pairs, gen_well_typed, ni_trial, parse_program, typecheck
from sifc.lattice import Lattice

import fixtures as fx  # tests/fixtures.py, next to this script

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
gen = sys.modules[SPEC.name] = importlib.util.module_from_spec(SPEC)  # dataclasses look it up
SPEC.loader.exec_module(gen)
SIZES, REPEAT, SEED = (32, 64, 128, 256, 512, 1024), 25, 7
PROGRAM_SIZES, LABEL_SIZES = (8, 16, 32, 64, 128, 256), (1, 2, 4, 8, 16, 32)


def layers(ag) -> dict:
    """Each layer's name to (make its argument, the call timed on it)."""
    left, right = Lattice.from_dict(ag.left_doc), Lattice.from_dict(ag.right_doc)
    conn = check_connection(left, right, ag.alpha, ag.gamma)
    fresh = lambda: LagoisConnection(left, right, conn.alpha, conn.gamma)  # nothing cached
    alpha2 = MonotoneMap(left, right, ag.alpha2)
    return {
        "from_dict L": (lambda: ag.left_doc, Lattice.from_dict),
        "from_dict R": (lambda: ag.right_doc, Lattice.from_dict),
        "check": (lambda: ag, lambda a: check_connection(left, right, a.alpha, a.gamma)),
        "find_adjoint": (lambda: conn.alpha, find_adjoint),
        "compose": (fresh, lambda c: compose(c, c.transpose())),
        "decompose": (fresh, decompose),
        "coarsen": (fresh, lambda c: coarsen(c, alpha2)),
        "tightness": (fresh, check_tightness),
    }


def program_layers(n: int) -> dict:
    conn = fx.college_university()
    decls = parse_program((ROOT / "fixtures" / "pipeline.sif").read_text()).decls
    prog, pair = gen_well_typed(decls, conn, n, SEED), adversary_pairs(conn)[0]
    return {"typecheck": (lambda: prog, lambda p: typecheck(p, conn)),
            "ni_trial": (lambda: prog, lambda p: ni_trial(p, conn, pair, SEED))}


def label_layers(k: int) -> dict:
    h = fx.wide_principal_map_pair().left
    owners = [p for p in h.principals if p not in ("TOP", "BOT")][:k]
    label = Label(frozenset(Policy(o, frozenset(owners[:3])) for o in owners))
    return {"label_leq": (lambda: label, lambda l: label_leq(h, l, l))}


def call_ms(make, call) -> float:
    arg = make()
    gc.disable()
    try:
        start = time.perf_counter()
        call(arg)
        return (time.perf_counter() - start) * 1e3
    finally:
        gc.enable()


def sweep(sizes=SIZES, make_layers=None) -> dict:
    rng = random.Random(SEED)
    make_layers = make_layers or (lambda n: layers(gen.random_agreement(rng, n)))
    cells = {(n, name): pair for n in sizes for name, pair in make_layers(n).items()}
    best = dict.fromkeys(cells, float("inf"))
    for _ in range(REPEAT):  # each round times every cell, so a slow spell of the host hits all
        for key, (make, call) in cells.items():
            best[key] = min(best[key], call_ms(make, call))
    names = list(dict.fromkeys(name for _, name in cells))
    ms = {name: [round(best[n, name], 3) for n in sizes] for name in names}
    growth = {name: [round(b / a, 2) for a, b in zip(row, row[1:])] for name, row in ms.items()}
    return {"sizes": list(sizes), "ms": ms, "growth": growth}


def table(result: dict) -> str:
    names, sizes = list(result["ms"]), result["sizes"]
    rows = [["n", *names]]
    rows += [[str(n), *(f"{result['ms'][k][i]:.3f}" for k in names)] for i, n in enumerate(sizes)]
    rows += [[f"x{a}->{b}", *(f"{result['growth'][k][i]:.2f}" for k in names)]
             for i, (a, b) in enumerate(zip(sizes, sizes[1:]))]
    widths = [max(map(len, col)) for col in zip(*rows)]
    return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--json", help="also write the table as JSON to this path")
    args = parser.parse_args(argv)
    result = sweep()
    result["programs"] = sweep(PROGRAM_SIZES, program_layers)
    result["labels"] = sweep(LABEL_SIZES, label_layers)
    print("\n\n".join(map(table, (result, result["programs"], result["labels"]))))
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
