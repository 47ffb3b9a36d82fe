"""Canonical test fixtures: the College/University/Dorm-Life lattices and the
maps connecting them."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from sifc.lattice import Lattice, build_lattice

ROOT = Path(__file__).resolve().parent.parent


def run_python(code: str, *argv: str, **env: str) -> subprocess.CompletedProcess:
    """Run `code` with `argv` in a fresh interpreter that imports this
    checkout's sifc, from the repository root, with `env` added."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT, capture_output=True,
                          text=True, check=True, env=dict(os.environ, PYTHONPATH=path, **env))

COLLEGE_CLASSES = ["bot1", "Student", "Dean(S)", "Faculty", "Dean(F)",
                   "CollegePrincipal", "top1"]
COLLEGE_COVERS = [
    ("bot1", "Student"),
    ("Student", "Faculty"),
    ("Faculty", "Dean(F)"),
    ("Dean(F)", "CollegePrincipal"),
    ("Student", "Dean(S)"),
    ("Dean(S)", "CollegePrincipal"),
    ("CollegePrincipal", "top1"),
]

UNIVERSITY_CLASSES = ["bot2", "UnivFac", "Dean(Colleges)", "ViceChancellor",
                      "Chancellor", "top2"]
UNIVERSITY_COVERS = [
    ("bot2", "UnivFac"),
    ("UnivFac", "Dean(Colleges)"),
    ("Dean(Colleges)", "ViceChancellor"),
    ("ViceChancellor", "Chancellor"),
    ("Chancellor", "top2"),
]

DORM_CLASSES = ["bot0", "Student", "Assistant", "Caretaker", "DiningManager",
                "HouseMaster", "top0"]
DORM_COVERS = [
    ("bot0", "Student"),
    ("Student", "Assistant"),
    ("Assistant", "Caretaker"),
    ("Caretaker", "HouseMaster"),
    ("Student", "DiningManager"),
    ("DiningManager", "HouseMaster"),
    ("HouseMaster", "top0"),
]

# College -> University MoU.
CU_ALPHA = {
    "bot1": "bot2",
    "Student": "UnivFac",
    "Faculty": "UnivFac",
    "Dean(F)": "Dean(Colleges)",
    "Dean(S)": "Dean(Colleges)",
    "CollegePrincipal": "Dean(Colleges)",
    "top1": "top2",
}
CU_GAMMA = {
    "bot2": "bot1",
    "UnivFac": "Faculty",
    "Dean(Colleges)": "CollegePrincipal",
    "ViceChancellor": "top1",
    "Chancellor": "top1",
    "top2": "top1",
}

CU_BUDPOINTS_LEFT = ("bot1", "Faculty", "CollegePrincipal", "top1")
CU_BUDPOINTS_RIGHT = ("bot2", "UnivFac", "Dean(Colleges)", "top2")

# Dorm-Life <-> College MoU negotiated from scratch: closure operators on both
# sides with order-isomorphic images {bot0, Student, HouseMaster, top0} and
# {bot1, Student, Dean(S), top1}.
DC_CLOSURE_LEFT = {
    "bot0": "bot0",
    "Student": "Student",
    "Assistant": "HouseMaster",
    "Caretaker": "HouseMaster",
    "DiningManager": "HouseMaster",
    "HouseMaster": "HouseMaster",
    "top0": "top0",
}
DC_CLOSURE_RIGHT = {
    "bot1": "bot1",
    "Student": "Student",
    "Dean(S)": "Dean(S)",
    "Faculty": "top1",
    "Dean(F)": "top1",
    "CollegePrincipal": "top1",
    "top1": "top1",
}
DC_ISO = {
    "bot0": "bot1",
    "Student": "Student",
    "HouseMaster": "Dean(S)",
    "top0": "top1",
}

DC_ALPHA = {
    "bot0": "bot1",
    "Student": "Student",
    "Assistant": "Dean(S)",
    "Caretaker": "Dean(S)",
    "DiningManager": "Dean(S)",
    "HouseMaster": "Dean(S)",
    "top0": "top1",
}
DC_GAMMA = {
    "bot1": "bot0",
    "Student": "Student",
    "Dean(S)": "HouseMaster",
    "Faculty": "top0",
    "Dean(F)": "top0",
    "CollegePrincipal": "top0",
    "top1": "top0",
}

# Dorm-Life <-> College MoU used for chaining through to University.  The
# ab-initio MoU above does not meet the chaining conditions against the
# College/University MoU (the College-side images disagree), so the chain
# fixture pairs budpoints {bot0, Student, Caretaker, DiningManager,
# HouseMaster, top0} with {bot1, Student, Dean(S), Faculty, CollegePrincipal,
# top1}.  It keeps Caretaker -> Dean(S) and Student <-> Student.
CHAIN_ALPHA = {
    "bot0": "bot1",
    "Student": "Student",
    "Assistant": "Dean(S)",
    "Caretaker": "Dean(S)",
    "DiningManager": "Faculty",
    "HouseMaster": "CollegePrincipal",
    "top0": "top1",
}
CHAIN_GAMMA = {
    "bot1": "bot0",
    "Student": "Student",
    "Dean(S)": "Caretaker",
    "Faculty": "DiningManager",
    "Dean(F)": "HouseMaster",
    "CollegePrincipal": "HouseMaster",
    "top1": "top0",
}

# Coarsened College -> University map: one merged kernel class
# {Student, Faculty, Dean(F), Dean(S), CollegePrincipal}, largest member
# CollegePrincipal, all sent to Dean(Colleges).
CU_ALPHA_COARSE = {
    "bot1": "bot2",
    "Student": "Dean(Colleges)",
    "Faculty": "Dean(Colleges)",
    "Dean(F)": "Dean(Colleges)",
    "Dean(S)": "Dean(Colleges)",
    "CollegePrincipal": "Dean(Colleges)",
    "top1": "top2",
}


def college() -> Lattice:
    return build_lattice("College", COLLEGE_CLASSES, COLLEGE_COVERS)


def university() -> Lattice:
    return build_lattice("University", UNIVERSITY_CLASSES, UNIVERSITY_COVERS)


def dorm() -> Lattice:
    return build_lattice("DormLife", DORM_CLASSES, DORM_COVERS)


def college_university():
    from sifc.connection import check_connection
    return check_connection(college(), university(), CU_ALPHA, CU_GAMMA)


def dorm_college():
    from sifc.connection import check_connection
    return check_connection(dorm(), college(), DC_ALPHA, DC_GAMMA)


def dorm_college_chain():
    from sifc.connection import check_connection
    return check_connection(dorm(), college(), CHAIN_ALPHA, CHAIN_GAMMA)


def ni_decls():
    """Declaration set for the non-interference suite over College/University:
    internals, exports and imports at several levels in both domains."""
    from sifc.flowlang import VarDecl
    return (
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


def forged_two_point():
    """An unverified connection between two two-point chains whose gamma
    sends hi2 down to lo.  Typing then admits `trl y x` from a hi2 export
    into a lo import, a genuine leak at the one adversary pair (lo, lo2)."""
    from sifc.connection import LagoisConnection, MonotoneMap
    two_l = build_lattice("l2", ["lo", "hi"], [("lo", "hi")])
    two_m = build_lattice("m2", ["lo2", "hi2"], [("lo2", "hi2")])
    alpha = MonotoneMap(two_l, two_m, {"lo": "lo2", "hi": "hi2"})
    forged_gamma = MonotoneMap(two_m, two_l, {"lo2": "lo", "hi2": "lo"})
    return LagoisConnection(two_l, two_m, alpha, forged_gamma)


# Principals-hierarchy twin of the College/University agreement: four named
# principals per side, budpoints {fac, prin} <-> {uni_fac, uni_dean} plus the
# implicit bounds.
PM_LEFT_PRINCIPALS = ["stu", "fac", "dean", "prin"]
PM_LEFT_EDGES = [("fac", "stu"), ("dean", "fac"), ("prin", "dean")]
PM_RIGHT_PRINCIPALS = ["uni_fac", "uni_dean", "vice", "chanc"]
PM_RIGHT_EDGES = [("uni_dean", "uni_fac"), ("vice", "uni_dean"),
                  ("chanc", "vice")]
PM_ALPHA = {"BOT": "BOT", "stu": "uni_fac", "fac": "uni_fac",
            "dean": "uni_dean", "prin": "uni_dean", "TOP": "TOP"}
PM_GAMMA = {"BOT": "BOT", "uni_fac": "fac", "uni_dean": "prin",
            "vice": "TOP", "chanc": "TOP", "TOP": "TOP"}


def principal_map_pair():
    from sifc.dlm import PrincipalMapPair, PrincipalsHierarchy
    left = PrincipalsHierarchy(PM_LEFT_PRINCIPALS, PM_LEFT_EDGES)
    right = PrincipalsHierarchy(PM_RIGHT_PRINCIPALS, PM_RIGHT_EDGES)
    return PrincipalMapPair.check(left, right, PM_ALPHA, PM_GAMMA)


def wide_principal_map_pair(copies: int = 12):
    """`copies` disjoint renamed copies of `principal_map_pair` that share
    TOP and BOT; twelve copies make 50 principals a side."""
    from sifc.dlm import PrincipalMapPair, PrincipalsHierarchy

    def rename(p, i):
        return p if p in ("TOP", "BOT") else f"{p}_{i}"

    def side(principals, edges):
        return PrincipalsHierarchy(
            [rename(p, i) for i in range(copies) for p in principals],
            [(rename(p, i), rename(q, i)) for i in range(copies) for p, q in edges])

    def table(m):
        return {rename(p, i): rename(q, i) for i in range(copies) for p, q in m.items()}

    return PrincipalMapPair.check(side(PM_LEFT_PRINCIPALS, PM_LEFT_EDGES),
                                  side(PM_RIGHT_PRINCIPALS, PM_RIGHT_EDGES),
                                  table(PM_ALPHA), table(PM_GAMMA))
