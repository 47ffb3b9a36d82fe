"""The four benchmark workloads.

Each workload is driven as a closed loop by one client: the next op starts
when the previous one has finished.  `setup` makes every input from the seed
and warms up; `cycle(i)` returns the ops of the i-th pass, each a pair
(call, gate).  Only `call()` is timed; `gate(result)` checks the result
against an expectation that the code under test did not produce.

Library functions are looked up on their modules at call time, so the
wrappers that the traced run installs see every call.  Gates use the
original functions, bound before any wrapper exists.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gen
import oracle


class Workload:
    name = ""
    MODULES: tuple[str, ...] = ()  # what set-up time counts as import
    verdict_true_share = 0.0        # share of label decisions that hold

    def __init__(self, root: Path, seed: int, scratch: Path):
        self.root = root
        self.seed = seed
        self.scratch = scratch

    def load(self) -> None:
        """Import the library into this process."""

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, i: int) -> list[tuple]:
        raise NotImplementedError

    def lattices(self) -> list:
        """This workload's own lattices, for the leaf-query micro-loops."""
        return []

    def hierarchies(self) -> list:
        return []

    def fixture(self, name: str):
        with open(self.root / "fixtures" / name, encoding="utf-8") as fh:
            return json.load(fh)

    def _warm(self, ops: list[tuple]) -> None:
        for call, _ in ops:
            try:
                call()
            except Exception:  # counted when it recurs in the timed loop
                pass


# -- lattice-lifecycle -------------------------------------------------------------

class LatticeLifecycle(Workload):
    """Construction-heavy: every op builds both lattices from JSON, then runs
    the whole connection life cycle on them."""

    name = "lattice-lifecycle"
    MODULES = ("sifc.lattice", "sifc.connection")
    MIX = ((128, 1), (64, 4), (32, 16))  # (left size, ops per cycle)
    POOL_CYCLES = 12

    def load(self):
        self.lat = importlib.import_module("sifc.lattice")
        self.conn = importlib.import_module("sifc.connection")
        self._violations = self.conn.connection_violations
        self._last = None

    def setup(self):
        rng = random.Random(self.seed)
        self.pool = {n: [gen.random_agreement(rng, n)
                         for _ in range(per_cycle * self.POOL_CYCLES)]
                     for n, per_cycle in self.MIX}
        self._warm([self._op(self.pool[32][0])])

    def cycle(self, i):
        ops = []
        for n, per_cycle in self.MIX:
            pool = self.pool[n]
            ops += [self._op(pool[(i * per_cycle + j) % len(pool)])
                    for j in range(per_cycle)]
        return ops

    def _op(self, ag: gen.Agreement) -> tuple:
        L, C = self.lat, self.conn

        def call():
            left = L.Lattice.from_dict(ag.left_doc)
            right = L.Lattice.from_dict(ag.right_doc)
            conn = C.check_connection(left, right, ag.alpha, ag.gamma)
            adjoint = C.find_adjoint(conn.alpha)
            composed = C.compose(conn, conn.transpose()).connection
            parts = C.decompose(conn)
            coarse = C.coarsen(conn, C.MonotoneMap(left, right, ag.alpha2))
            tight = C.check_tightness(conn)
            self._last = (left, right)
            return conn, adjoint, composed, parts, coarse, tight

        def gate(out) -> bool:
            conn, adjoint, composed, parts, coarse, tight = out
            return (adjoint.mapping() == ag.gamma
                    and set(conn.budpoints_left) == set(ag.closure.values())
                    and composed.alpha.mapping() == ag.closure
                    and composed.gamma.mapping() == ag.closure
                    and not self._violations(composed.left, composed.right,
                                             composed.alpha.mapping(),
                                             composed.gamma.mapping())
                    and all(parts.recomposed_alpha(x) == y for x, y in ag.alpha.items())
                    and all(parts.recomposed_gamma(x) == y for x, y in ag.gamma.items())
                    and coarse.alpha.mapping() == ag.alpha2
                    and coarse.gamma.mapping() == ag.gamma2
                    and tight.passed)

        return call, gate

    def lattices(self):
        return list(self._last or ())


# -- ni-campaign ---------------------------------------------------------------------

# The declarations of the non-interference suite over College/University:
# internals, exports and imports at several levels in both domains.
NI_DECLS = (
    ("lz1", "L", "internal", "Student"),
    ("lz2", "L", "internal", "Faculty"),
    ("lz3", "L", "internal", "CollegePrincipal"),
    ("lx1", "L", "export", "Faculty"),
    ("lx2", "L", "export", "CollegePrincipal"),
    ("ly1", "L", "import", "Faculty"),
    ("ly2", "L", "import", "top1"),
    ("mz1", "M", "internal", "UnivFac"),
    ("mz2", "M", "internal", "Dean(Colleges)"),
    ("mx1", "M", "export", "UnivFac"),
    ("mx2", "M", "export", "Dean(Colleges)"),
    ("my1", "M", "import", "Dean(Colleges)"),
    ("my2", "M", "import", "top2"),
)


class NiCampaign(Workload):
    """Query-heavy: millions of order lookups on two small lattices, no
    lattice built in the timed loop."""

    name = "ni-campaign"
    MODULES = ("sifc.lattice", "sifc.connection", "sifc.flowlang")
    PER_CYCLE = 100
    PAIRS, DRAWS = 4, 3  # adversary pairs of the fixture, draws per pair

    def load(self):
        self.lat = importlib.import_module("sifc.lattice")
        self.conn = importlib.import_module("sifc.connection")
        self.flow = importlib.import_module("sifc.flowlang")

    def setup(self):
        doc = self.fixture("college-univ.json")
        left = self.lat.Lattice.from_dict(self.fixture(doc["left"]))
        right = self.lat.Lattice.from_dict(self.fixture(doc["right"]))
        self.connection = self.conn.check_connection(left, right, doc["alpha"], doc["gamma"])
        self.decls = tuple(self.flow.VarDecl(*d) for d in NI_DECLS)
        self.base = random.Random(self.seed).getrandbits(40)
        self._warm(self.cycle(-1)[:20])

    def cycle(self, i):
        base = self.base + (i + 1) * self.PER_CYCLE
        return [self._op(base + j) for j in range(self.PER_CYCLE)]

    def _op(self, seed: int) -> tuple:
        flow, conn, decls = self.flow, self.connection, self.decls

        def call():
            return flow.run_ni_suite(decls, conn, programs=1, max_len=20,
                                     seed=seed, draws=self.DRAWS)

        def gate(report) -> bool:
            return report.passed and report.trials == self.PAIRS * self.DRAWS

        return call, gate

    def lattices(self):
        return [self.connection.left, self.connection.right]


# -- dlm-decisions ----------------------------------------------------------------------

class DlmDecisions(Workload):
    """Label decisions over a small and a wide hierarchy pair; the only
    workload where the label model dominates."""

    name = "dlm-decisions"
    MODULES = ("sifc.dlm",)
    WIDE_COPIES = 12  # 4 * 12 named principals + TOP and BOT = 50
    POOL = 4096
    KINDS = ("label_leq", "declassify", "cross_lr", "cross_rl")

    def load(self):
        self.dlm = importlib.import_module("sifc.dlm")

    def setup(self):
        D = self.dlm
        self.pairs = self.decisions = None  # a repeated set-up frees the last pool first
        doc = self.fixture("hierarchy-pm.json")
        docs = (self.fixture(doc["left"]), self.fixture(doc["right"]),
                doc["alpha"], doc["gamma"])
        self.pairs = []
        for left, right, alpha, gamma in (docs, gen.wide_principal_pair(*docs, self.WIDE_COPIES)):
            pm = D.PrincipalMapPair.check(D.PrincipalsHierarchy.from_dict(left),
                                          D.PrincipalsHierarchy.from_dict(right),
                                          alpha, gamma)
            self.pairs.append((pm, oracle.acts_for_closure(left),
                               oracle.acts_for_closure(right), alpha, gamma))
        rng = random.Random(self.seed)
        self.decisions = [self._decision(rng, i) for i in range(self.POOL)]
        self.verdict_true_share = sum(d[2] for d in self.decisions) / len(self.decisions)
        self._warm(self.cycle(0))

    def _decision(self, rng: random.Random, i: int) -> tuple:
        """One decision: (call, gate, expected verdict).  Pairs alternate,
        and so does building the second label above the first."""
        D = self.dlm
        pm, acts_l, acts_r, alpha, gamma = self.pairs[i % 2]
        kind = self.KINDS[i // 2 % len(self.KINDS)]
        above = i // 8 % 2 == 0
        to_label = self._to_label

        if kind in ("label_leq", "declassify"):
            h, acts = (pm.left, acts_l) if rng.random() < 0.5 else (pm.right, acts_r)
            names = list(h.principals)
            l1 = gen.random_label(rng, names)
            l2 = gen.label_above(rng, acts, names, l1) if above else gen.random_label(rng, names)
            a, b = to_label(l1), to_label(l2)
            if kind == "label_leq":
                expected = oracle.label_leq(acts, l1, l2)
                call = lambda: D.label_leq(h, a, b)
            else:
                authority = rng.sample(names, rng.randint(0, 2))
                expected = oracle.declassify(acts, authority, l1, l2)
                call = lambda: D.declassify_check(h, authority, a, b)
            return call, (lambda out: out == expected), expected

        # Cross-domain: labels and authority stay on transfer principals
        # (budpoints), where both ends must reach the same verdict.
        direction = kind[-2:]
        buds = pm.budpoint_pairs()
        near_buds = [p for p, _ in buds] if direction == "lr" else [q for _, q in buds]
        far_buds = [q for _, q in buds] if direction == "lr" else [p for p, _ in buds]
        push, pull = (alpha, gamma) if direction == "lr" else (gamma, alpha)
        acts_near, acts_far = (acts_l, acts_r) if direction == "lr" else (acts_r, acts_l)
        l1 = gen.random_label(rng, near_buds)
        l2 = (gen.label_above(rng, acts_far, far_buds, oracle.lift(push, l1)) if above
              else gen.random_label(rng, far_buds))
        named = [(p, q) for p, q in buds if p not in ("TOP", "BOT")]
        chosen = rng.sample(named, rng.randint(0, 1))
        auth_l, auth_r = [p for p, _ in chosen], [q for _, q in chosen]
        auth_near = auth_l if direction == "lr" else auth_r
        auth_far = auth_r if direction == "lr" else auth_l
        near = oracle.declassify(acts_near, auth_near, l1, oracle.lift(pull, l2))
        far = oracle.declassify(acts_far, auth_far, oracle.lift(push, l1), l2)
        if near != far:
            raise AssertionError(f"oracle verdicts disagree on transfer principals: {l1} {l2}")
        a, b = to_label(l1), to_label(l2)
        call = lambda: D.cross_declassify_check(pm, auth_l, auth_r, a, b, direction)
        gate = lambda out: out.allowed == out.near_side == out.far_side == near
        return call, gate, near

    def _to_label(self, label: oracle.Label):
        D = self.dlm
        return D.Label(frozenset(D.Policy(o, frozenset(rs)) for o, rs in label))

    def cycle(self, i):
        return [(call, gate) for call, gate, _ in self.decisions]

    def hierarchies(self):
        return [pm.left for pm, *_ in self.pairs]


# -- cli -------------------------------------------------------------------------------------

# The README's command examples, with the exit code each must give.
CLI_COMMANDS = (
    (["check-lattice", "fixtures/college.json"], 0),
    (["check-connection", "fixtures/college-univ.json", "--tightness"], 0),
    (["check-connection", "fixtures/broken-college-univ.json"], 1),
    (["find-adjoint", "fixtures/college-univ.json"], 0),
    (["build-from-closures", "fixtures/dorm-college-closures.json"], 0),
    (["compose", "fixtures/dorm-college-chain.json", "fixtures/college-univ.json"], 0),
    (["decompose", "fixtures/college-univ.json"], 0),
    (["coarsen", "fixtures/college-univ.json", "fixtures/coarse-alpha.json"], 0),
    (["semi-inverse", "fixtures/college-univ.json"], 0),
    (["typecheck", "fixtures/pipeline.sif", "--connection", "fixtures/college-univ.json",
      "--lint"], 0),
    (["run", "fixtures/pipeline.sif", "--store", "fixtures/pipeline-store.json"], 0),
    (["ni-suite", "fixtures/pipeline.sif", "--connection", "fixtures/college-univ.json",
      "--trials", "200", "--len", "20", "--seed", "7"], 0),
    (["dlm", "check-hierarchy", "fixtures/left-hierarchy.json"], 0),
    (["dlm", "label-leq", "fixtures/left-hierarchy.json", "{stu: fac}", "{fac:}"], 0),
    (["dlm", "lift", "fixtures/hierarchy-pm.json", "{stu: fac}"], 0),
    (["dlm", "check-lifted", "fixtures/hierarchy-pm.json", "--samples", "500",
      "--seed", "0"], 0),
    (["dlm", "declassify", "fixtures/left-hierarchy.json", "{stu:}", "{}",
      "--authority", "stu"], 0),
    (["dlm", "cross-declassify", "fixtures/hierarchy-pm.json", "{fac:}", "{}",
      "--authority-left", "fac", "--authority-right", "uni_fac"], 0),
)
BROKEN_WITNESS = {"condition": "LC2", "witness": ["ViceChancellor"]}
CHILD_TIMEOUT_S = 60


class Cli(Workload):
    """One `python -m sifc.cli` process per op, as an administrator runs it."""

    name = "cli"
    MODULES = ("sifc.cli",)
    traced_children = False  # set by the traced run

    def setup(self):
        """Warm a fresh bytecode cache owned by this run: one child compiles
        and writes everything the CLI imports, later children only read."""
        prefix = Path(tempfile.mkdtemp(prefix="pycache-", dir=self.scratch))
        env = dict(os.environ, PYTHONPYCACHEPREFIX=str(prefix))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self._child(CLI_COMMANDS[0][0], env)
        self.env = dict(env, PYTHONDONTWRITEBYTECODE="1")
        self.child_stats: list[dict] = []
        self.child_aggs: list[dict] = []

    def _child(self, argv: list[str], env: dict, prefix_args=("-m", "sifc.cli")):
        return subprocess.run([sys.executable, *prefix_args, *argv], cwd=self.root,
                              env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)

    def cycle(self, i):
        return [(self._call(argv), self._gate(code)) for argv, code in CLI_COMMANDS]

    def _call(self, argv):
        if not self.traced_children:
            return lambda: self._child(argv, self.env)
        shim = str(Path(__file__).with_name("cli_child.py"))
        out = self.scratch / "child-trace.json"

        def traced():
            proc = self._child(argv, self.env,
                               (shim, str(out), repr(time.perf_counter())))
            with open(out, encoding="utf-8") as fh:
                record = json.load(fh)
            self.child_stats.append(record["phases"])
            self.child_aggs.append(record["spans"])
            return proc

        return traced

    @staticmethod
    def _gate(code: int):
        def gate(proc) -> bool:
            if proc.returncode != code:
                return False
            lines = [json.loads(line) for line in proc.stdout.splitlines()]
            if code == 1:
                return BROKEN_WITNESS in lines
            return len(lines) == 1 and lines[0].get("status") == "pass"
        return gate

    def lattices(self):
        lat = importlib.import_module("sifc.lattice")
        return [lat.Lattice.from_dict(self.fixture("college.json")),
                lat.Lattice.from_dict(self.fixture("university.json"))]


WORKLOADS = {w.name: w for w in (LatticeLifecycle, NiCampaign, DlmDecisions, Cli)}
