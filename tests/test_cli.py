"""CLI behavior: exit codes, report shapes, determinism, and agreement with
direct library calls."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import sifc.cli as cli
from sifc.cli import cli_dispatch, main, render
from sifc.connection import find_adjoint, MonotoneMap
from sifc.errors import AdjointError
from sifc.flowlang import parse_program, typecheck

import fixtures as fx

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def path(name: str) -> str:
    return str(FIXTURES / name)


# -- lattice / connection -------------------------------------------------------

def test_check_lattice_pass():
    v = cli_dispatch(["check-lattice", path("college.json")])
    assert v.exit_code == 0
    assert v.details["top"] == "top1"
    assert v.details["bottom"] == "bot1"


def test_check_lattice_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_dispatch(["check-lattice", str(bad)]).exit_code == 2
    assert cli_dispatch(["check-lattice", str(tmp_path / "missing.json")]).exit_code == 2


def test_check_lattice_fail(tmp_path):
    doc = {"name": "bad", "classes": ["a", "b"], "covers": []}
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    v = cli_dispatch(["check-lattice", str(f)])
    assert v.exit_code == 1
    assert v.details["error"] == "NotALattice"


def test_check_connection_pass_matches_library():
    v = cli_dispatch(["check-connection", path("college-univ.json")])
    assert v.exit_code == 0
    conn = fx.college_university()
    assert v.details["budpoints_left"] == list(conn.budpoints_left)
    assert v.details["budpoints_right"] == list(conn.budpoints_right)
    assert v.details["alpha"] == conn.alpha.mapping()


def test_check_connection_violation_lines():
    v = cli_dispatch(["check-connection", path("broken-college-univ.json")])
    assert v.exit_code == 1
    assert v.lines == [{"condition": "LC2", "witness": ["ViceChancellor"]}]
    rendered = render(v, "json")
    assert rendered == '{"condition":"LC2","witness":["ViceChancellor"]}'


def test_check_connection_failure_report(capsys):
    code = main(["check-connection", path("broken-college-univ.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == '{"condition":"LC2","witness":["ViceChancellor"]}\n'
    assert captured.err == "FAIL\n"
    v = cli_dispatch(["check-connection", path("broken-college-univ.json")])
    assert v.details == {"status": "fail", "violations": 1}


@pytest.mark.parametrize("command,doc", [
    ("check-lattice", {"name": "s", "classes": "ab", "covers": [["a", "b"]]}),
    ("dlm check-hierarchy", {"principals": ["a", "b"], "acts_for": ["ab"]}),
])
def test_strings_in_list_positions_are_input_errors(tmp_path, command, doc):
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    v = cli_dispatch(command.split() + [str(f)])
    assert v.exit_code == 2
    assert v.details["error"] in ("LatticeError", "DlmError")


def test_check_connection_tightness_flag():
    v = cli_dispatch(["check-connection", path("college-univ.json"), "--tightness"])
    assert v.exit_code == 0
    # one dominating-budpoint set per class: seven left and six right
    assert v.details["tightness"] == {"passed": True, "subsets_checked": 13,
                                      "failures": []}


def test_check_connection_takes_no_seed():
    with pytest.raises(SystemExit) as exc:
        cli_dispatch(["check-connection", path("college-univ.json"), "--tightness",
                      "--seed", "1"])
    assert exc.value.code == 2


def test_connection_gamma_must_be_an_object(tmp_path):
    doc = json.loads((FIXTURES / "college-univ.json").read_text())
    doc["left"], doc["right"] = path("college.json"), path("university.json")
    doc["gamma"] = list(doc["gamma"].values())
    f = tmp_path / "conn.json"
    f.write_text(json.dumps(doc))
    v = cli_dispatch(["check-connection", str(f)])
    assert v.exit_code == 2
    assert v.details["error"] == "LatticeError"


@pytest.mark.parametrize("key", ["alpha", "gamma"])
def test_principal_maps_must_be_objects(tmp_path, key):
    # a list of pairs is rejected, not read as a map
    doc = json.loads((FIXTURES / "hierarchy-pm.json").read_text())
    doc["left"], doc["right"] = path("left-hierarchy.json"), path("right-hierarchy.json")
    doc[key] = [list(pair) for pair in doc[key].items()]
    f = tmp_path / "pm.json"
    f.write_text(json.dumps(doc))
    v = cli_dispatch(["dlm", "lift", str(f), "{stu: fac}"])
    assert v.exit_code == 2
    assert v.details["error"] == "DlmError"


def test_find_adjoint_matches_library():
    v = cli_dispatch(["find-adjoint", path("college-univ.json")])
    assert v.exit_code == 0
    amap = MonotoneMap(fx.college(), fx.university(), fx.CU_ALPHA)
    assert v.details["gamma"] == find_adjoint(amap).mapping()


def test_find_adjoint_failure_report(tmp_path):
    doc = {
        "left": {"name": "d", "classes": ["b", "x", "y", "t"],
                 "covers": [["b", "x"], ["b", "y"], ["x", "t"], ["y", "t"]]},
        "right": {"name": "m", "classes": ["m0", "m1", "m2"],
                  "covers": [["m0", "m1"], ["m1", "m2"]]},
        "alpha": {"b": "m0", "x": "m1", "y": "m1", "t": "m2"},
    }
    f = tmp_path / "diamond.json"
    f.write_text(json.dumps(doc))
    v = cli_dispatch(["find-adjoint", str(f)])
    assert v.exit_code == 1
    assert v.details["condition"] == 1
    assert v.details["witness"] == ["m1"]


def test_build_from_closures_cli():
    v = cli_dispatch(["build-from-closures", path("dorm-college-closures.json")])
    assert v.exit_code == 0
    assert v.details["alpha"] == fx.DC_ALPHA
    assert v.details["gamma"] == fx.DC_GAMMA


def test_compose_cli():
    v = cli_dispatch(["compose", path("dorm-college-chain.json"),
                      path("college-univ.json")])
    assert v.exit_code == 0
    assert v.details["alpha"]["Caretaker"] == "Dean(Colleges)"
    assert v.details["gamma"]["Chancellor"] == "top0"


def test_compose_rejection():
    v = cli_dispatch(["compose", path("dorm-college.json"),
                      path("college-univ.json")])
    assert v.exit_code == 1
    assert v.details["error"] == "ComposeError"


def test_decompose_cli():
    v = cli_dispatch(["decompose", path("college-univ.json")])
    assert v.exit_code == 0
    assert v.details["budpoints_left"] == list(fx.CU_BUDPOINTS_LEFT)
    assert v.details["iso_forward"] == {"bot1": "bot2", "Faculty": "UnivFac",
                                        "CollegePrincipal": "Dean(Colleges)",
                                        "top1": "top2"}


def test_coarsen_cli():
    v = cli_dispatch(["coarsen", path("college-univ.json"), path("coarse-alpha.json")])
    assert v.exit_code == 0
    assert v.details["gamma"]["UnivFac"] == "CollegePrincipal"


def test_semi_inverse_cli():
    v = cli_dispatch(["semi-inverse", path("college-univ.json")])
    assert v.exit_code == 0
    assert v.details["gamma"] == fx.CU_GAMMA


# -- programs ----------------------------------------------------------------------

def test_typecheck_cli_matches_library():
    v = cli_dispatch(["typecheck", path("pipeline.sif"),
                      "--connection", path("college-univ.json")])
    assert v.exit_code == 0
    prog = parse_program((FIXTURES / "pipeline.sif").read_text())
    t = typecheck(prog, fx.college_university())
    assert v.details["type"] == {"left": t.left, "right": t.right}


def test_typecheck_cli_rejects_ill_typed(tmp_path):
    bad = tmp_path / "bad.sif"
    bad.write_text("var L ly0 : Student import\n"
                   "var M mx1 : UnivFac export\n"
                   "trl ly0 mx1\n")
    v = cli_dispatch(["typecheck", str(bad), "--connection", path("college-univ.json")])
    assert v.exit_code == 1
    assert v.details["rule"] == "trl"
    assert v.details["classes"] == ["Faculty", "Student"]
    assert v.details["phrase_index"] == 0


def test_typecheck_lint():
    v = cli_dispatch(["typecheck", path("pipeline.sif"),
                      "--connection", path("college-univ.json"), "--lint"])
    assert v.exit_code == 0
    assert v.details["lint"] == []


def test_run_cli():
    v = cli_dispatch(["run", path("pipeline.sif"),
                      "--store", path("pipeline-store.json"),
                      "--connection", path("college-univ.json")])
    assert v.exit_code == 0
    assert v.details["final"]["right"]["mz2"] == 7


def test_long_sums_typecheck_and_run(tmp_path, capsys):
    # 1,200 terms: deeper than the interpreter's recursion limit as a chain.
    terms = " + ".join(["a", "1"] * 600)
    prog = tmp_path / "long.sif"
    prog.write_text(f"var L a : Student internal\nt L {{ a := {terms} }}\n")
    store = tmp_path / "store.json"
    store.write_text(json.dumps({"left": {"a": 3}, "right": {}}))
    conn = ["--connection", path("college-univ.json")]
    assert main(["typecheck", str(prog), *conn]) == 0
    assert json.loads(capsys.readouterr().out)["type"]["left"] == "Student"
    assert main(["run", str(prog), "--store", str(store), *conn]) == 0
    assert json.loads(capsys.readouterr().out)["final"]["left"] == {"a": 600 * 3 + 600}


def test_ni_suite_cli_small():
    v = cli_dispatch(["ni-suite", path("pipeline.sif"),
                      "--connection", path("college-univ.json"),
                      "--trials", "5", "--len", "6", "--seed", "3"])
    assert v.exit_code == 0
    assert v.details["seed"] == 3
    assert v.details["failures"] == []
    assert v.details["trials"] == 5 * len(v.details["pairs"]) * 3


def test_ni_suite_with_no_trials_still_checks_the_declarations(tmp_path):
    # --trials 0 rejects an unknown declared class as --trials 1 does.
    bad = tmp_path / "bad.sif"
    bad.write_text(Path(path("pipeline.sif")).read_text().replace(
        "var L lz1 : Student internal", "var L a : Nope internal\nvar L lz1 : Student internal"))
    for trials in ("1", "0"):
        v = cli_dispatch(["ni-suite", str(bad), "--connection", path("college-univ.json"),
                          "--trials", trials])
        assert v.exit_code == 2
        assert v.details["message"] == "unknown class 'Nope' in declaration of 'a'"


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("SIFC_SEED", "17")
    v = cli_dispatch(["ni-suite", path("pipeline.sif"),
                      "--connection", path("college-univ.json"),
                      "--trials", "2", "--len", "3"])
    assert v.details["seed"] == 17
    v = cli_dispatch(["ni-suite", path("pipeline.sif"),
                      "--connection", path("college-univ.json"),
                      "--trials", "2", "--len", "3", "--seed", "4"])
    assert v.details["seed"] == 4


# -- dlm ----------------------------------------------------------------------------

def test_dlm_check_hierarchy():
    v = cli_dispatch(["dlm", "check-hierarchy", path("left-hierarchy.json")])
    assert v.exit_code == 0
    assert "TOP" in v.details["principals"]


def test_dlm_label_leq():
    good = cli_dispatch(["dlm", "label-leq", path("left-hierarchy.json"),
                         "{stu: fac}", "{fac:}"])
    assert good.exit_code == 0 and good.details["holds"] is True
    bad = cli_dispatch(["dlm", "label-leq", path("left-hierarchy.json"),
                        "{fac:}", "{stu:}"])
    assert bad.exit_code == 1 and bad.details["holds"] is False
    # An empty name in a non-blank reader list is an input error, not dropped.
    for label in ("{stu: fac,,}", "{stu:,}", "{stu: ,fac}"):
        empty = cli_dispatch(["dlm", "label-leq", path("left-hierarchy.json"), label, "{fac:}"])
        assert empty.exit_code == 2 and empty.details["error"] == "LabelSyntaxError"
    owner_only = cli_dispatch(["dlm", "label-leq", path("left-hierarchy.json"),
                               "{fac: }", "{fac:}"])
    assert owner_only.exit_code == 0 and owner_only.details["holds"] is True


def test_dlm_lift():
    v = cli_dispatch(["dlm", "lift", path("hierarchy-pm.json"), "{stu: fac}"])
    assert v.exit_code == 0
    assert v.details["label"] == "{uni_fac: uni_fac}"


def test_dlm_check_lifted():
    v = cli_dispatch(["dlm", "check-lifted", path("hierarchy-pm.json"),
                      "--samples", "100", "--seed", "1"])
    assert v.exit_code == 0
    assert v.details["failures"] == []


def test_dlm_check_lifted_is_exact(capsys):
    # --samples and --seed are echoed; the verdict and the counts of exact
    # law evaluations do not depend on them.
    reports = []
    for samples, seed in (("500", "0"), ("3", "77")):
        assert main(["dlm", "check-lifted", path("hierarchy-pm.json"),
                     "--samples", samples, "--seed", seed]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == ('{"status":"pass","samples":500,"seed":0,"checks":{"1a":21,"1b":21,'
                          '"2a":6,"2b":6,"3a":6,"3b":6},"failures":[]}\n')
    assert reports[1] == reports[0].replace('"samples":500,"seed":0', '"samples":3,"seed":77')


def test_dlm_declassify():
    yes = cli_dispatch(["dlm", "declassify", path("left-hierarchy.json"),
                        "{stu:}", "{}", "--authority", "stu"])
    assert yes.exit_code == 0 and yes.details["allowed"] is True
    no = cli_dispatch(["dlm", "declassify", path("left-hierarchy.json"),
                       "{stu:}", "{}"])
    assert no.exit_code == 1 and no.details["allowed"] is False
    blank = cli_dispatch(["dlm", "declassify", path("left-hierarchy.json"),
                          "{stu:}", "{}", "--authority", " "])
    assert blank.exit_code == 1 and blank.details["allowed"] is False
    for authority in ("stu,,", ",stu", "stu, ,fac"):
        empty = cli_dispatch(["dlm", "declassify", path("left-hierarchy.json"),
                              "{stu:}", "{}", "--authority", authority])
        assert empty.exit_code == 2 and empty.details["error"] == "DlmError"


def test_dlm_cross_declassify():
    v = cli_dispatch(["dlm", "cross-declassify", path("hierarchy-pm.json"),
                      "{fac:}", "{}", "--authority-left", "fac",
                      "--authority-right", "uni_fac"])
    assert v.exit_code == 0
    assert v.details["allowed"] is True
    mismatch = cli_dispatch(["dlm", "cross-declassify", path("hierarchy-pm.json"),
                             "{fac:}", "{}", "--authority-left", "fac",
                             "--authority-right", "uni_dean"])
    assert mismatch.exit_code == 2
    for left, right in (("fac,,", "uni_fac"), ("fac", ",uni_fac")):
        empty = cli_dispatch(["dlm", "cross-declassify", path("hierarchy-pm.json"),
                              "{fac:}", "{}", "--authority-left", left,
                              "--authority-right", right])
        assert empty.exit_code == 2 and empty.details["error"] == "DlmError"
    blank = cli_dispatch(["dlm", "cross-declassify", path("hierarchy-pm.json"),
                          "{fac:}", "{}", "--authority-left", "",
                          "--authority-right", " "])
    assert blank.exit_code == 1 and blank.details["allowed"] is False


# -- report mechanics ------------------------------------------------------------------

def test_reports_byte_deterministic():
    a = render(cli_dispatch(["check-connection", path("college-univ.json")]), "json")
    b = render(cli_dispatch(["check-connection", path("college-univ.json")]), "json")
    assert a == b
    # maps serialize in source declaration order
    parsed = json.loads(a)
    assert list(parsed["alpha"].keys()) == list(fx.COLLEGE_CLASSES)


def test_text_format():
    out = render(cli_dispatch(["check-connection", path("broken-college-univ.json")]),
                 "text")
    assert "LC2 violated at ViceChancellor" in out


def test_main_prints_and_exits(capsys):
    code = main(["check-connection", path("college-univ.json")])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["status"] == "pass"
    assert "PASS" in captured.err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli_dispatch(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("name", ["", *cli._COMMANDS], ids=["sifc", *cli._COMMANDS])
def test_help_names_every_argument_the_table_declares(capsys, name):
    # "" is the top-level parser; a group's help names its subcommands
    with pytest.raises(SystemExit) as exc:
        main([*name.split(), "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    declared = [arg if isinstance(arg, str) else arg[0]
                for arg in (cli._COMMANDS[name][2] if name else ())]
    children = [n.rpartition(" ")[2] for n in cli._COMMANDS if n.rpartition(" ")[0] == name]
    for word in declared + children:
        assert re.search(rf"(?<![\w-]){re.escape(word)}(?![\w-])", out), word


def test_console_entry_point():
    # the child imports this checkout's package, installed or not
    src = str(FIXTURES.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "sifc.cli", "check-lattice", path("college.json")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["name"] == "College"


def test_public_names_unchanged():
    import sifc
    assert sifc.__all__ == [
        "Lattice", "build_lattice", "load_lattice",
        "LagoisConnection", "MonotoneMap", "Violation", "budpoint_representative",
        "build_from_closures", "check_connection", "check_tightness", "coarsen",
        "compose", "connection_violations", "decompose", "find_adjoint",
        "identity_connection", "semi_inverse_connection",
        "Program", "StorePair", "VarDecl", "adversary_pairs", "exec_program",
        "gen_well_typed", "ni_trial", "parse_program", "run_ni_suite",
        "typecheck", "typecheck_phrase",
        "Label", "Policy", "PrincipalMapPair", "PrincipalsHierarchy",
        "check_lifted_connection", "cross_declassify_check", "declassify_check",
        "label_equiv", "label_join", "label_leq", "lift_label", "parse_label",
        "__version__",
    ]


# -- the input boundary ------------------------------------------------------------

DOC = "<doc>"  # stands for the written document in an argv


def fixture_doc(name: str, keys: tuple = (), value=None, delete: bool = False):
    """A fixture document, file references made absolute, with the entry at
    `keys` replaced by `value` (or deleted)."""
    doc = json.loads((FIXTURES / name).read_text())
    for side in ("left", "right"):
        if isinstance(doc, dict) and isinstance(doc.get(side), str):
            doc[side] = path(doc[side])
    if keys:
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        if delete:
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = value
    return doc


def with_repeated_key(name: str, key: str) -> bytes:
    """A fixture document as JSON text whose first `key` entry is given twice,
    first with the value 0; a parser where the last one wins reads the fixture."""
    return json.dumps(fixture_doc(name)).replace(f'"{key}": ', f'"{key}": 0, "{key}": ', 1).encode()


def run_with(tmp_path, argv: list[str], content) -> "cli.Verdict":
    """cli_dispatch with DOC in argv replaced by a file holding `content`
    (bytes as they are, anything else as JSON)."""
    f = tmp_path / "doc"
    if isinstance(content, bytes):
        f.write_bytes(content)
    else:
        f.write_text(json.dumps(content))
    return cli_dispatch([str(f) if arg == DOC else arg for arg in argv])



@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("text", [
    r'{"name": "\ud800", "classes": ["a"], "covers": []}',
    r'{"name": "a", "classes": ["a", "\udc00b"], "covers": []}',
    r'{"name": "a", "classes": ["a"], "covers": [], "\udfff": 1}',
    r'{"name": "\\\ud83dx", "classes": ["a"], "covers": []}',
    r'{"name": "\ud83d\ud83d\ude00", "classes": ["a"], "covers": []}',
])
def test_lone_surrogates_are_input_errors(tmp_path, capsys, fmt, text):
    # a lone surrogate decodes to a string no UTF-8 stdout can print
    doc = tmp_path / "lattice.json"
    doc.write_text(text, encoding="ascii")
    assert main(["--format", fmt, "check-lattice", str(doc)]) == 2
    out, err = capsys.readouterr()
    assert "JSONDecodeError" in out
    assert err.startswith("INPUT ERROR: lone surrogate \\u")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_surrogate_pairs_and_escaped_backslashes_load(tmp_path, capsys, fmt):
    doc = tmp_path / "lattice.json"
    doc.write_text(r'{"name": "\ud83d\ude00 \\ud800", "classes": ["a"], "covers": []}',
                   encoding="ascii")
    assert main(["--format", fmt, "check-lattice", str(doc)]) == 0
    out = capsys.readouterr().out
    name = json.loads(out)["name"] if fmt == "json" else out.splitlines()[1]
    assert name.endswith("\U0001F600 \\ud800")


@pytest.mark.parametrize("text,key", [
    ('{"left": {"name": "L", "classes": ["lo", "hi"], "covers": [["lo", "hi"]]}, '
     '"right": {"name": "M", "classes": ["lo2", "hi2"], "covers": [["lo2", "hi2"]]}, '
     '"alpha": {"lo": "hi2", "lo": "lo2", "hi": "hi2"}, "gamma": {"lo2": "lo", "hi2": "hi"}}',
     "lo"),
    ('{"name": "A", "classes": ["a"], "covers": [], "name": "B"}', "name"),
    ('{"left": {"name": "L", "classes": ["a"], "covers": []}, '
     '"right": {"name": "M", "classes": ["b"], "covers": [], "name": "N"}, '
     '"alpha": {"a": "b"}, "gamma": {"b": "a"}}', "name"),
], ids=["connection-alpha", "lattice-name", "second-lattice-name"])
def test_a_key_given_twice_is_an_input_error_at_the_repeat(tmp_path, capsys, text, key):
    # where the last key won, the first document verified lo -> lo2 and the
    # second read the name "B"; the error points at the key's second spelling
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    command = "check-lattice" if text.startswith('{"name"') else "check-connection"
    assert main([command, str(doc)]) == 2
    at = text.rindex(f'"{key}":')
    assert json.loads(capsys.readouterr().out) == {
        "status": "input-error", "error": "JSONDecodeError",
        "message": f"repeated key {key!r}: line 1 column {at + 1} (char {at})"}


def test_input_errors_are_typed():
    assert not {KeyError, TypeError, ValueError} & set(cli._INPUT_ERRORS)


NI_SUITE = ["ni-suite", path("pipeline.sif"), "--connection", path("college-univ.json"),
            "--trials", "2"]
BINARY = bytes(range(128, 256))


@pytest.mark.parametrize("argv,content,env,error", [
    (["check-lattice", DOC], {"name": "s", "classes": ["a", "b"], "covers": [[["a"], "b"]]},
     {}, "LatticeError"),
    (["dlm", "check-hierarchy", DOC], {"principals": ["a", 5]}, {}, "DlmError"),
    (["dlm", "check-hierarchy", DOC], {"principals": ["a", "b"], "acts_for": [[["a"], "b"]]},
     {}, "DlmError"),
    (["check-connection", DOC], fixture_doc("college-univ.json", ("alpha", "bot1"), ["bot2"]),
     {}, "LatticeError"),
    (["dlm", "lift", DOC, "{stu: fac}"],
     fixture_doc("hierarchy-pm.json", ("alpha", "stu"), ["uni_fac"]), {}, "DlmError"),
    (["build-from-closures", DOC], fixture_doc("dorm-college-closures.json", ("i",), delete=True),
     {}, "LatticeError"),
    (["build-from-closures", DOC], list(fixture_doc("dorm-college-closures.json")), {},
     "LatticeError"),
    (["check-connection", DOC], fixture_doc("college-univ.json", ("left",), "college\0.json"),
     {}, "OSError"),
    (["check-lattice", DOC], b'{"name": 1' + b"0" * 5000 + b', "classes": ["a"], "covers": []}',
     {}, "OSError"),
    (["dlm", "check-hierarchy", DOC], b"[" * 100_000 + b"]" * 100_000, {}, "OSError"),
    (["check-lattice", DOC], BINARY, {}, "UnicodeDecodeError"),
    (["typecheck", DOC, "--connection", path("college-univ.json")], BINARY, {},
     "UnicodeDecodeError"),
    ([*NI_SUITE, "--len", "-1"], None, {}, None),
    (NI_SUITE, None, {"SIFC_SEED": "abc"}, None),
    (["find-adjoint", DOC], fixture_doc("college-univ.json", ("alpha", "Student"), "top2"), {},
     "NotMonotone"),
    (["dlm", "check-hierarchy", DOC], {"principals": ["stu", "a-b"]}, {}, "DlmError"),
    (["dlm", "check-hierarchy", DOC], {"principals": ["stu", "fac", "stu"]}, {}, "DlmError"),
    *((argv, with_repeated_key(name, key), {}, "JSONDecodeError") for argv, name, key in (
        (["check-lattice", DOC], "college.json", "name"),
        (["dlm", "check-hierarchy", DOC], "left-hierarchy.json", "principals"),
        (["check-connection", DOC], "college-univ.json", "Student"),
        (["dlm", "lift", DOC, "{stu: fac}"], "hierarchy-pm.json", "stu"),
        (["build-from-closures", DOC], "dorm-college-closures.json", "h"),
        (["coarsen", path("college-univ.json"), DOC], "coarse-alpha.json", "alpha2"),
        (["run", path("pipeline.sif"), "--store", DOC], "pipeline-store.json", "lz1"))),
    *((argv, fixture_doc(name, (key,), value), {}, error)
      for argv, name, key, error in (
          (["check-lattice", DOC], "college.json", "covers", "LatticeError"),
          (["dlm", "check-hierarchy", DOC], "left-hierarchy.json", "acts_for", "DlmError"))
      for value in (None, 0, True)),
    *(([command, path("pipe\0line.sif"), *rest], {}, {}, "OSError") for command, rest in (
        ("typecheck", ["--connection", path("college-univ.json")]),
        ("run", ["--store", path("pipeline-store.json")]),
        ("ni-suite", ["--connection", path("college-univ.json"), "--trials", "2"]))),
], ids=["unhashable-cover", "non-string-principal", "unhashable-edge",
        "unhashable-connection-alpha", "unhashable-principal-alpha", "closures-without-i",
        "closures-list", "nul-in-file-reference", "number-too-long", "nesting-too-deep",
        "binary-lattice", "binary-program",
        "negative-len", "bad-seed-env",
        "non-monotone-alpha", "invalid-principal-name", "duplicate-principal",
        "repeated-lattice-key", "repeated-hierarchy-key", "repeated-connection-key",
        "repeated-principal-map-key", "repeated-closures-key", "repeated-coarsen-key",
        "repeated-store-key", "null-covers", "number-covers", "bool-covers", "null-acts-for",
        "number-acts-for", "bool-acts-for", "nul-in-typecheck-program",
        "nul-in-run-program", "nul-in-ni-suite-program"])
def test_malformed_inputs_are_typed_input_errors(tmp_path, monkeypatch, argv, content, env,
                                                 error):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    if error is None:  # a usage error, reported by argparse
        with pytest.raises(SystemExit) as exc:
            run_with(tmp_path, argv, content)
        assert exc.value.code == 2
    else:
        v = run_with(tmp_path, argv, content)
        assert v.exit_code == 2
        assert v.details["error"] == error


@pytest.mark.parametrize("argv", [
    ["ni-suite", path("pipeline.sif"), "--connection", path("college-univ.json"),
     flag, "-1"] for flag in ("--trials", "--len", "--draws")
] + [["dlm", "check-lifted", path("hierarchy-pm.json"), "--samples", "-1"],
     ["ni-suite", path("pipeline.sif"), "--connection", path("college-univ.json"),
      "--trials", "abc"]])
def test_count_flags_must_be_non_negative(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_dispatch(argv)
    assert exc.value.code == 2
    flag, text = argv[-2:]
    assert capsys.readouterr().err.endswith(
        f"error: argument {flag}: not a non-negative integer: {text!r}\n")


@pytest.mark.parametrize("argv,content", [
    (["coarsen", path("college-univ.json"), DOC], list(fx.COLLEGE_CLASSES)),
    (["build-from-closures", DOC],
     fixture_doc("dorm-college-closures.json", ("c",), list(fx.DORM_CLASSES))),
    (["build-from-closures", DOC],
     fixture_doc("dorm-college-closures.json", ("h",), ["bot0", "Student", "HouseMaster",
                                                         "top0"])),
], ids=["coarsen-list", "closures-c-list", "closures-h-list"])
def test_maps_given_as_lists_are_input_errors(tmp_path, argv, content):
    # each list holds every name the map must cover, so only its type is wrong
    v = run_with(tmp_path, argv, content)
    assert v.exit_code == 2
    assert v.details["error"] == "LatticeError"


@pytest.mark.parametrize("argv,name,extra", [
    (["check-lattice", DOC], "college.json", {}),
    (["dlm", "check-hierarchy", DOC], "left-hierarchy.json", {}),
    (["check-connection", DOC], "college-univ.json", {}),
    (["find-adjoint", DOC], "college-univ.json", {}),  # "gamma" is optional there
    (["dlm", "lift", DOC, "{stu: fac}"], "hierarchy-pm.json", {}),
    (["build-from-closures", DOC], "dorm-college-closures.json", {}),
    (["coarsen", path("college-univ.json"), DOC], "coarse-alpha.json", {}),
    (["run", path("pipeline.sif"), "--store", DOC], "pipeline-store.json", {}),
    (["check-lattice", DOC], "college.json", {"name": 7}),
], ids=["lattice", "hierarchy", "connection", "connection-without-gamma", "principal-map",
        "closures", "wrapped-alpha2", "store", "lattice-name-not-a-string"])
def test_documents_reject_unknown_keys(tmp_path, argv, name, extra):
    doc = fixture_doc(name)
    assert run_with(tmp_path, argv, doc).exit_code == 0
    doc.update(extra or {"comment": "not a key of this document"})
    v = run_with(tmp_path, argv, doc)
    assert v.exit_code == 2
    assert v.details["status"] == "input-error"


@pytest.mark.parametrize("side", ["alpha", "gamma"])
def test_unmapped_principals_are_partial_maps(tmp_path, side):
    doc = fixture_doc("hierarchy-pm.json")
    names = list(doc[side])
    missing = [names[1], names[3]]
    for name in missing:
        del doc[side][name]
    v = run_with(tmp_path, ["dlm", "lift", DOC, "{}"], doc)
    assert v.exit_code == 2
    assert v.details["error"] == "PartialMap"
    assert v.details["message"] == f"{side} leaves {missing} unmapped"


def test_internal_errors_propagate_and_exit_3(monkeypatch, capsys):
    def broken(name):
        raise KeyError("bug")

    argv = ["check-lattice", path("college.json")]
    monkeypatch.setattr(cli, "_load_json", broken)  # a bug inside the handler
    with pytest.raises(KeyError):
        cli_dispatch(argv)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out) == {"status": "internal-error", "error": "KeyError",
                                        "message": "'bug'"}
    assert captured.err.startswith("INTERNAL ERROR: 'bug'\nTraceback")
    assert "KeyError: 'bug'" in captured.err


def _exits_3_with_a_traceback(capsys, argv: list[str]) -> None:
    code, captured = main(argv), capsys.readouterr()
    assert code == 3, captured.out
    assert json.loads(captured.out)["error"] == "KeyError"
    assert "Traceback" in captured.err


def test_a_wrong_lattice_row_read_in_sifc_is_an_internal_error(monkeypatch, capsys):
    # A planted bug: every map's target is its own source, so a connection's
    # budpoints are read off the wrong lattice's rows.  That is a bare KeyError
    # (exit 3), not an UnknownClass blamed on the input (exit 2).
    from sifc import connection
    proven_map = connection._proven_map
    monkeypatch.setattr(connection, "_proven_map",
                        lambda source, target, table: proven_map(source, source, table))
    for argv in (["check-connection", path("college-univ.json")],
                 ["compose", path("dorm-college-chain.json"), path("college-univ.json")]):
        _exits_3_with_a_traceback(capsys, argv)


def test_a_wrong_hierarchy_row_read_in_sifc_is_an_internal_error(monkeypatch, capsys):
    # A planted bug: label masks are read off the other hierarchy's rows, where
    # the label's principals are missing; each is there in the hierarchy given.
    from sifc import dlm
    other = dlm.PrincipalsHierarchy.from_dict(json.loads((FIXTURES / "right-hierarchy.json")
                                                         .read_text()))
    masks = dlm._masks
    monkeypatch.setattr(dlm, "_masks", lambda policies, owners, readers: masks(
        policies, *(other._bit if rows is owners else other._up for rows in (owners, readers))))
    hierarchy = path("left-hierarchy.json")
    for argv in (["dlm", "label-leq", hierarchy, "{stu: fac}", "{fac:}"],
                 ["dlm", "declassify", hierarchy, "{fac: stu}", "{}", "--authority", "fac"]):
        _exits_3_with_a_traceback(capsys, argv)


def test_ill_typed_generated_program_is_an_internal_error(monkeypatch, capsys):
    # run_ni_suite re-checks the programs its own generator built, so an
    # IllTyped there is a bug in sifc, neither a FAIL nor the input's fault
    from sifc import flowlang
    from sifc.flowlang import IllTyped, Program, Trl, VarDecl

    def ill_typed(decls, conn, length, seed):
        decls = (*decls, VarDecl("ly0", "L", "import", "Student"),
                 VarDecl("mx0", "M", "export", "top2"))
        return Program(decls, (Trl("ly0", "mx0"),))

    monkeypatch.setattr(flowlang, "gen_well_typed", ill_typed)
    with pytest.raises(IllTyped):
        cli_dispatch(NI_SUITE)
    code = main(NI_SUITE)
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out)["error"] == "IllTyped"
    assert captured.err.startswith("INTERNAL ERROR: program is not well-typed")
    assert "Traceback" in captured.err


def test_coarsen_failure_names_kind_and_witness(tmp_path):
    table = dict(fx.CU_ALPHA, Faculty="Dean(Colleges)")  # splits the block {Student, Faculty}
    v = run_with(tmp_path, ["coarsen", path("college-univ.json"), DOC], {"alpha2": table})
    assert v.exit_code == 1
    assert v.details["error"] == "CoarsenError"
    assert v.details["kind"] == "not-refinement"
    assert v.details["witness"] == ["Student", "Faculty"]


def test_coarsen_reads_a_bare_map_over_a_class_named_alpha2(tmp_path):
    # a document is the wrapped form only when its "alpha2" value is an object
    conn = tmp_path / "conn.json"
    conn.write_text(json.dumps({
        "left": {"name": "L", "classes": ["lo", "alpha2"], "covers": [["lo", "alpha2"]]},
        "right": {"name": "M", "classes": ["lo2", "hi2"], "covers": [["lo2", "hi2"]]},
        "alpha": {"lo": "lo2", "alpha2": "hi2"}, "gamma": {"lo2": "lo", "hi2": "alpha2"}}))
    for table in ({"lo": "lo2", "alpha2": "hi2"}, {"alpha2": {"lo": "lo2", "alpha2": "hi2"}}):
        v = run_with(tmp_path, ["coarsen", str(conn), DOC], table)
        assert v.exit_code == 0
        assert v.details["alpha"] == {"lo": "lo2", "alpha2": "hi2"}
    v = run_with(tmp_path, ["coarsen", path("college-univ.json"), DOC], {"alpha2": "x"})
    assert v.exit_code == 2
    assert v.details["error"] == "PartialMap"


def test_a_fail_error_subclass_reports_the_fields_of_its_class():
    class Narrower(AdjointError):
        pass

    def handler(args):
        raise Narrower(2, ("m",), "detail")

    v = cli.dispatch_args(SimpleNamespace(handler=handler))
    assert v.exit_code == 1
    assert v.details == {"status": "fail", "error": "Narrower",
                         "message": "no adjoint: condition (2) fails at m: detail",
                         "condition": 2, "witness": ["m"]}


def test_check_connection_reads_the_connection_document_it_writes(tmp_path):
    conn = fx.college_university()
    f = tmp_path / "conn.json"
    f.write_text(json.dumps(conn.to_dict()))
    v = cli_dispatch(["check-connection", str(f)])
    assert v.exit_code == 0
    assert v.details["budpoints_left"] == list(conn.budpoints_left)
    assert v.details["budpoints_right"] == list(conn.budpoints_right)
    assert v.details["gamma"] == conn.gamma.mapping()
