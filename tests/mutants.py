"""Plant each catalogued fault in a copy of the checkout and run the tests that must catch it.

    PYTHONPATH=src:tests python tests/mutants.py

Copies the checkout (without .git and caches) to a temporary directory, so
that pyproject's `pythonpath = ["src"]` puts the copy's src/, not the real
one, first.  It runs every named test node id there once, unchanged, where
they must pass.  Then for each entry of MUTANTS it replaces the entry's
snippet in its file, runs the entry's node ids with `pytest -x` in a fresh
interpreter and restores the file.  It prints one line if the unchanged copy
fails, one per mutant that its tests do not kill (they pass), one per entry
whose tests cannot run (pytest exits with neither a pass nor a failure, say
for a node id that no longer exists) and one per stale entry, whose snippet
does not occur exactly once in its file; it prints nothing when every mutant
is killed.  The exit code is always 0.  Stdlib only, plus the pytest the
suite needs anyway.

Mutation analysis: DeMillo, Lipton & Sayward, "Hints on test data selection",
IEEE Computer 11(4), 1978; Jia & Harman, TSE 37(5), 2011.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FLOW, CONN, LAT, DLM = (f"src/sifc/{m}.py" for m in ("flowlang", "connection", "lattice", "dlm"))
TF, TC, TL = "tests/test_flowlang.py", "tests/test_connection.py", "tests/test_lattice.py"

# (file, exact snippet, replacement, test node ids, why the tests must fail)
MUTANTS = [
    (FLOW, '"trl": (Trl, (0, "import"), (1, "export"))',
     '"trl": (Trl, (1, "import"), (1, "export"))',
     [f"{TF}::test_kind_mismatch"],
     "the phrase table puts trl's target on the right side"),
    (FLOW, '"rd": (Rd, (None, "internal"), (None, "import"))',
     '"rd": (Rd, (None, "internal"), (None, "export"))',
     [f"{TF}::test_kind_mismatch"],
     "the phrase table lets rd read an export"),
    (FLOW, "if len(rest) != len(cls.__match_args__):",
     "if len(rest) < len(cls.__match_args__):",
     [f"{TF}::test_parse_errors"],
     "the parser lets a copy line carry an extra word"),
    (FLOW, "        down &= rows[target][1]\n",
     "        down &= rows[target][0 if (tside, sside) == (1, 0) else 1]\n",
     [f"{TF}::test_every_small_connection_types_exactly_and_leaks_nothing"],
     "the tlr premise reads its target's up row in place of its down row"),
    (FLOW, "rows[name] = up[d.cls], down[d.cls], carried[carry[d.cls]]",
     "rows[name] = up[d.cls], down[d.cls], up[d.cls]",
     [f"{TF}::test_trl_below_level_rejected"],
     "a crossing copy is typed without carrying its source through the map"),
    (FLOW, "sum(map(read.__getitem__, names))) & mask",
     "sum(map(read.__getitem__, names)))",
     [f"{TF}::test_exec_wraps_values"],
     "a sum is not reduced mod 2^16 in `_run`"),
    (FLOW, "        s -= (s + one >> 16 & one) * 0xFFFF\n", "",
     [f"{TF}::test_high_offset_where_the_digit_sum_folds_to_the_modulus"],
     "the high offset's digit sum is not folded below 2^16 - 1"),
    (FLOW, "elif isinstance(e, Var) and e.name.__class__ is str:",
     "elif isinstance(e, Var):",
     [f"{TF}::test_a_malformed_phrase_or_declaration_is_an_input_error"],
     "a variable named by a tuple is read as a sum"),
    (FLOW, 'reads = _names(source) if word == "txn" else (source,)',
     "reads = _names(source)",
     [f"{TF}::test_a_malformed_phrase_or_declaration_is_an_input_error"],
     "a copy's tuple source is read as a transaction's sum"),
    (CONN, "if rup[alpha[gamma[alpha[l]]]] != rup[alpha[l]]]",
     "if rup[alpha[gamma[alpha[l]]]] & rup[alpha[l]]]",
     [f"{TC}::test_edited_gamma_reports_single_lc2_violation"],
     "LC3 compares the up rows with & instead of !="),
    (CONN, "if len(table) == len(names) and target._bit.keys() >= set(table.values()):",
     "if target._bit.keys() >= set(table.values()):",
     [f"{TC}::test_a_map_check_names_its_first_offender_in_table_order"],
     "the quick accept of a total map skips its size check"),
    (CONN, "least = {m: rup[m] & image_mask & meet_row[m]",
     "least = {m: right._down[m] & image_mask & meet_row[m]",
     [f"{TC}::test_find_adjoint_reproduces_fixture_gamma"],
     "find_adjoint reads the down row where it needs the up row"),
    (CONN, "if not blocks[m][1]), None):",
     "if not blocks[m][0]), None):",
     [f"{TC}::test_find_adjoint_diamond_to_chain_fails_condition_one"],
     "condition 1 tests the block's bits, not its largest member's bit"),
    (CONN, "meet_row = {m: right._down[m] if rbit[m] & image_mask else -1",
     "meet_row = {m: right._down[m] if rbit[m] else -1",
     [f"{TC}::test_find_adjoint_reproduces_fixture_gamma"],
     "condition 2 ANDs in the down row of a class that is not an image class"),
    (CONN, "key=lambda p: rup[p[0]])",
     "key=lambda p: -rup[p[0]])",
     [f"{TC}::test_find_adjoint_on_every_small_monotone_alpha"],
     "condition 2's sweep runs bottoms first, before the rows it ANDs are done"),
    (CONN, "if any(_unordered(right.covers, gamma, left)):",
     "if any(_unordered(right.covers[:1], gamma, left)):",
     [f"{TC}::test_find_adjoint_on_every_small_monotone_alpha"],
     "condition 3 tests only the first cover of M"),
    (CONN, "(b, rt[c]) for b, c in lat.covers if b in pos",
     "(b, c) for b, c in lat.covers if b in pos",
     [f"{TC}::test_decompose_fixture"],
     "a budpoint lattice's edge ends at the cover's upper end, not at its round trip"),
    (CONN, "        if not top:\n",
     "        if not bits:\n",
     [f"{TC}::test_coarsen_no_largest_element"],
     "coarsen tests the merged block's bits, not its largest member's bit"),
    (CONN, "image_a, image_g = set(ab.budpoints_right), set(bc.budpoints_left)",
     "image_a, image_g = set(ab.budpoints_left), set(bc.budpoints_left)",
     [f"{TC}::test_compose_chain_fixture"],
     "compose reads the first connection's left budpoints"),
    (CONN, "if not up[c] & bit[r := g[a[c]]] or up[c] & budmask & ~up[r]]",
     "if up[c] & budmask & ~up[r := g[a[c]]]]",
     [f"{TC}::test_tightness_agrees_with_brute_force_on_every_small_monotone_pair"],
     "tightness drops the test that the round trip is above its argument"),
    (CONN, "if not up[c] & bit[r := g[a[c]]] or up[c] & budmask & ~up[r]]",
     "if not up[c] & bit[r := g[a[c]]]]",
     [f"{TC}::test_tightness_fails_when_round_trip_is_not_the_least_budpoint_above"],
     "tightness drops the test that the round trip is below every budpoint above"),
    (CONN, "budmask = lat._up, lat._bit, sum(map(lat._bit.__getitem__, buds))",
     "budmask = lat._up, lat._bit, sum(lat._bit.values())",
     [f"{TC}::test_tightness_agrees_with_brute_force_on_every_small_monotone_pair"],
     "tightness takes every class for a budpoint"),
    (CONN, "up[c] & budmask & ~up[r]]",
     "up[c] & budmask & ~lat._down[r]]",
     [f"{TC}::test_tightness_agrees_with_brute_force_on_every_small_monotone_pair"],
     "tightness reads the round trip's down row where it needs its up row"),
    (CONN, "if bool(left._up[a] & left._bit[b]) != bool(right._up[h[a]] & right._bit[h[b]]):",
     "if right._up[h[a]] & right._bit[h[b]] and not left._up[a] & left._bit[b]:",
     [f"{TC}::test_build_from_closures_and_identity_outputs_pass_the_full_check"],
     "build_from_closures tests that h reflects order but not that it preserves it"),
    (CONN, "        if a[g[a[l]]] != a[l]:\n",
     "        if a[g[a[l]]] != a[l] and False:\n",
     [f"{TC}::test_semi_inverse_rejects_non_semi_inverse"],
     "semi_inverse_connection never raises NotSemiInverse"),
    (LAT, "for members in reversed(finished):",
     "for members in finished:",
     [f"{TL}::test_closure_rows_match_warshall_on_random_relations"],
     "the closure sweep runs in finishing order instead of reverse"),
    (LAT, "if other.__class__ is self.__class__",
     "if isinstance(other, Record)",
     ["tests/test_records.py::test_records_of_different_classes_are_never_equal"],
     "records of different classes compare by their fields"),
    (CONN, "key=self.target._bit.__getitem__))",
     "key=self.source._bit.__getitem__))",
     [f"{TC}::test_fixture_connection_verifies"],
     "a map's image is sorted by the source's bits, the wrong order"),
    (CONN, "lambda v, u: rup[v] & rbit[u]",
     "lambda v, u: rup[u] & rbit[v]",
     [f"{TC}::test_find_adjoint_condition_two_names_minimal_candidates_in_declaration_order"],
     "condition 2's message names the maximal image classes above, not the minimal ones"),
    (CONN, "image_c = tuple(x for x in left.classes if c[x] == x)",
     "image_c = tuple(x for x in left.classes if c[x] != x)",
     [f"{TC}::test_build_from_closures_dorm_college"],
     "build_from_closures takes the classes that c moves for its image"),
    (LAT, "raise order._unknown(missing[0], where) from None",
     "raise order._unknown(missing[-1], where) from None",
     [f"{TC}::test_every_query_by_name_names_an_unknown_argument"],
     "the miss helper names the last unknown argument, not the first"),
    (LAT, "    raise\n\n\nclass Record:",
     "    raise order._unknown(None, where) from None\n\n\nclass Record:",
     [f"{TC}::test_a_miss_on_names_that_the_order_holds_is_a_bug_and_propagates"],
     "the miss helper blames an argument when the order holds them all"),
    (LAT, "return isinstance(name, str) and name in self._bit",
     "return name in self._bit",
     [f"{TC}::test_every_query_by_name_names_an_unknown_argument"],
     "a membership test raises TypeError for an unhashable name"),
    (DLM, "_miss(h, chain(authority, *(",
     "_miss(h, chain([p for p in authority if isinstance(p, str)], *(",
     ["tests/test_dlm.py::test_a_malformed_authority_is_named_by_every_declassification"],
     "the authority explanation skips elements that are not strings"),
    (DLM, "if down & owner and not readers & ~cover:",
     "if down & owner and not cover & ~readers:",
     ["tests/test_dlm.py::test_label_leq_examples"],
     "a label decision takes the reader subset the wrong way round"),
]


def run(copy: Path, nodes: list[str]) -> int:
    """pytest's exit code for `nodes` in `copy`, stopping at the first failure."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(copy / "src"), str(copy / "tests")]),
               PYTHONDONTWRITEBYTECODE="1")  # no bytecode that a later mutant could reuse
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *nodes]
    code = subprocess.run(argv, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)  # no examples carried over
    return code


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", "*.egg-info",
            "build"))
        if code := run(copy, sorted({node for *_, nodes, _ in MUTANTS for node in nodes})):
            print(f"the unchanged checkout fails its mutants' tests (pytest exit {code})")
        for file, snippet, replacement, nodes, why in MUTANTS:
            path = copy / file
            text = path.read_text(encoding="utf-8")
            if text.count(snippet) != 1:
                print(f"stale: {file}: snippet occurs {text.count(snippet)} times: {snippet!r}")
                continue
            path.write_text(text.replace(snippet, replacement), encoding="utf-8")
            try:
                code = run(copy, nodes)
            finally:
                path.write_text(text, encoding="utf-8")
            if code == 0:
                print(f"survived: {file}: {why}: {' '.join(nodes)}")
            elif code != 1:
                print(f"cannot run (pytest exit {code}): {file}: {why}: {' '.join(nodes)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
