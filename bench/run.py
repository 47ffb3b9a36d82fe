"""sifc benchmark: one seeded workload per run, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the directory holding `src/sifc` and
`fixtures/`).  With `--trace 0` the last line of stdout is a JSON object
with every end-to-end metric; with `--trace 1` it carries the per-layer
metrics of a traced run instead.  Workloads, metrics and the predictions
that link them are described in `bench/PREDICTIONS.md`.

The first thing the script does is re-execute itself with a pinned
interpreter state: a fixed `PYTHONHASHSEED` (set iteration order moves the
short-circuit points of the label order), `PYTHONPATH` set to `src/` only,
and a bytecode cache under a fresh directory that the run owns and removes.

Every end-to-end time is reported at the reference speed of
`bench/reference.py`, which the run gauges next to the timed work, because
the host's own speed drifts between and within runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ beside the benchmark

ROOT = Path(__file__).resolve().parent.parent
PINNED = "SIFC_BENCH_SCRATCH"   # set once the interpreter state is pinned
HASH_SEED = "0"
SETUP_REPEATS = 5
IMPORT_PROBES = 5
LATENCY_SAMPLES = 1 << 18       # reservoir size; keeps memory flat
MIN_OPS = 100                   # so that ten latency samples lie beyond p90
REFERENCE_EVERY_S = 0.05        # longest stretch of ops between reference passes


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def pin_and_reexec() -> None:
    """Replace this process with one whose interpreter state is pinned."""
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="sifc-bench-", dir=build)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "SIFC_"))}
    env.update(PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(ROOT / "src"),
               PYTHONNOUSERSITE="1", PYTHONUNBUFFERED="1",
               PYTHONPYCACHEPREFIX=str(Path(scratch) / "pycache"),
               **{PINNED: scratch})
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                               *sys.argv[1:]], env)


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- the closed loop ---------------------------------------------------------------

class LoopStats:
    """Op latencies and per-cycle throughput, both at the reference speed."""

    def __init__(self, seed: int):
        self.latencies = array("d")
        self._rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.cycle_ops: list[int] = []
        self.cycle_busy: list[float] = []  # op time per cycle
        self.first_error = ""

    def record(self, seconds: float, ok: bool, cycle: int) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        while len(self.cycle_ops) <= cycle:
            self.cycle_ops.append(0)
            self.cycle_busy.append(0.0)
        self.cycle_ops[cycle] += 1
        self.cycle_busy[cycle] += seconds
        if len(self.latencies) < LATENCY_SAMPLES:
            self.latencies.append(seconds)
        else:  # reservoir sampling: every op equally likely to be kept
            slot = self._rng.randrange(self.attempted)
            if slot < LATENCY_SAMPLES:
                self.latencies[slot] = seconds

    def ops_per_s(self) -> float:
        """Median over whole cycles, so that one stalled op does not decide it."""
        return statistics.median(n / busy for n, busy in zip(self.cycle_ops, self.cycle_busy))

    def percentile_ms(self, q: int) -> float:
        return statistics.quantiles(self.latencies, n=100)[q - 1] * 1e3


def run_loop(workload, seconds: float, seed: int, ref, tracer=None) -> LoopStats:
    """Run whole cycles of ops until `seconds` of wall time have passed and
    at least MIN_OPS ops have run.

    The reference loop runs between ops at least every REFERENCE_EVERY_S;
    each op's time is rescaled by the passes just before and after it."""
    stats = LoopStats(seed)
    clock = time.perf_counter
    root = tracer.wrap("bench.op", lambda call: call()) if tracer else None
    pending: list[tuple[float, bool, int]] = []  # ops since the last pass

    def gauge(before: float) -> float:
        after = ref.seconds()
        for elapsed, ok, cycle in pending:
            stats.record(ref.rescale(elapsed, before, after), ok, cycle)
        pending.clear()
        return after

    before, gauged = ref.seconds(), clock()
    start = clock()
    i = 0
    while clock() - start < seconds or stats.attempted + len(pending) < MIN_OPS:
        for call, gate in workload.cycle(i):
            ok = True
            t0 = clock()
            try:
                out = root(call) if root else call()
            except Exception as exc:  # a failed op is counted, not fatal
                ok = False
                stats.first_error = stats.first_error or f"{type(exc).__name__}: {exc}"
            elapsed = clock() - t0
            if tracer:
                tracer.end_op()
            if ok:
                try:
                    ok = bool(gate(out))
                except Exception as exc:
                    ok = False
                    stats.first_error = stats.first_error or f"gate {type(exc).__name__}: {exc}"
                if tracer:
                    tracer.spans.clear()  # the gate's own calls are not op work
            pending.append((elapsed, ok, i))
            if clock() - gauged >= REFERENCE_EVERY_S:
                before, gauged = gauge(before), clock()
        i += 1
    gauge(before)
    return stats


# -- metrics ------------------------------------------------------------------------

def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(workload, stats: LoopStats, setup_s: float) -> dict:
    rss = peak_rss_mb(workload)  # read before the sorts below add their own peak
    return {
        "ops_per_s": (stats.ops_per_s(), "1/s"),
        "op_ms_p50": (statistics.median(stats.latencies) * 1e3, "ms"),
        "op_ms_p90": (stats.percentile_ms(90), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def per_layer(workload, plain: LoopStats, traced: LoopStats, agg, setup_agg,
              micro: dict) -> dict:
    ops = traced.attempted
    per_op = lambda value: value / ops
    ratio = lambda num, den: num / den if den else 0.0
    m = {}
    m["lattice.build_lattice.calls"] = (per_op(agg.calls["lattice.build_lattice"]), "calls/op")
    m["lattice.build_lattice.self_s"] = (per_op(agg.self_s["lattice.build_lattice"]), "s/op")
    for n in (32, 64, 128):
        sizes = agg.build_ms.get(n)
        m[f"lattice.build_lattice.n{n}_ms"] = (statistics.median(sizes) if sizes else 0.0, "ms")
    m["lattice.build_lattice.order_pairs"] = (per_op(agg.count["lattice.build_lattice"]), "pairs/op")
    for q in ("leq", "join", "meet"):
        m[f"lattice.{q}_ns"] = (micro.get(q, 0.0), "ns")
    for f in ("check_connection", "connection_violations", "find_adjoint", "compose",
              "decompose", "coarsen", "check_tightness"):
        m[f"connection.{f}.self_s"] = (per_op(agg.self_s[f"connection.{f}"]), "s/op")
    m["connection.check_tightness.subsets"] = (per_op(agg.count["connection.check_tightness"]), "subsets/op")
    for f in ("typecheck", "typecheck_phrase", "ni_trial", "exec_program",
              "draw_store_pairs", "low_variables", "gen_well_typed", "parse_program"):
        m[f"flowlang.{f}.self_s"] = (per_op(agg.self_s[f"flowlang.{f}"]), "s/op")
    m["flowlang.typecheck.calls_per_trial"] = (
        ratio(agg.calls["flowlang.typecheck"], agg.calls["flowlang.ni_trial"]), "calls/trial")
    m["flowlang.gen_well_typed.accept_ratio"] = (
        ratio(agg.count["flowlang.gen_well_typed"],
              agg.by_parent[("flowlang.gen_well_typed", "flowlang.typecheck_phrase")]), "kept/tried")
    m["dlm.label_leq.calls"] = (per_op(agg.calls["dlm.label_leq"]), "calls/op")
    m["dlm.label_leq.self_s"] = (per_op(agg.self_s["dlm.label_leq"]), "s/op")
    m["dlm.policy_leq.per_label_leq"] = (
        ratio(agg.calls["dlm.policy_leq"], agg.calls["dlm.label_leq"]), "calls/call")
    for f in ("lift_label", "declassify_check", "cross_declassify_check"):
        m[f"dlm.{f}.self_s"] = (per_op(agg.self_s[f"dlm.{f}"]), "s/op")
    m["dlm.verdict_true_share"] = (workload.verdict_true_share, "share")
    builds = setup_agg.durations["dlm.PrincipalsHierarchy"] + agg.durations["dlm.PrincipalsHierarchy"]
    m["dlm.PrincipalsHierarchy.build_ms"] = (statistics.median(builds) * 1e3 if builds else 0.0, "ms")
    m["dlm.hierarchy_violations.self_s"] = (setup_agg.self_s["dlm.hierarchy_violations"], "s/setup")
    m["dlm.acts_for_ns"] = (micro.get("acts_for", 0.0), "ns")
    phases = getattr(workload, "child_stats", None) or []
    for name in ("interpreter_ms", "import_ms", "dispatch_ms", "render_ms", "load.self_ms"):
        values = [p[name] for p in phases]
        m[f"cli.{name}"] = (statistics.median(values) if values else 0.0, "ms")
    m["trace.overhead_share"] = (plain.ops_per_s() / traced.ops_per_s() - 1, "share")
    return m


def micro_loops(workload, seed: int) -> dict:
    import spans
    out = {}
    lattices = workload.lattices()
    if lattices:
        lat = max(lattices, key=len)
        pairs = spans.sample_pairs(lat.classes, seed)
        out.update(leq=spans.micro_ns(lat.leq, pairs),
                   join=spans.micro_ns(lat.join, pairs),
                   meet=spans.micro_ns(lat.meet, pairs))
    hierarchies = workload.hierarchies()
    if hierarchies:
        h = max(hierarchies, key=lambda h: len(h.principals))
        out["acts_for"] = spans.micro_ns(h.acts_for, spans.sample_pairs(h.principals, seed))
    return out


# -- entry point -----------------------------------------------------------------------

def import_s(modules: tuple[str, ...], ref) -> float:
    """Median time to import `modules` in a fresh interpreter with a warm
    bytecode cache, at the reference speed: the first child fills the
    cache, the others are timed."""
    probe = ("import time; t = time.perf_counter(); import " + ", ".join(modules)
             + "; print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_PROBES + 1):
        before = ref.seconds()
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, check=True, timeout=60)
        times.append(ref.rescale(float(out.stdout), before, ref.seconds()))
    return statistics.median(times[1:])


def run(args, scratch: Path) -> tuple[dict, LoopStats]:
    from reference import Reference
    from workloads import WORKLOADS
    ref = Reference()
    workload = WORKLOADS[args.workload](ROOT, args.seed, scratch)
    workload.load()
    setups = [ref.timed(workload.setup) for _ in range(1 if args.trace else SETUP_REPEATS)]

    if not args.trace:
        stats = run_loop(workload, args.seconds, args.seed, ref)
        setup_s = import_s(workload.MODULES, ref) + statistics.median(setups)
        return end_to_end(workload, stats, setup_s), stats

    import spans
    plain = run_loop(workload, args.seconds / 2, args.seed, ref)
    tracer = spans.Tracer()
    tracer.install()
    try:
        workload.setup()
        setup_agg = spans.Aggregate()
        setup_agg.fold(tracer.spans)
        tracer.spans.clear()
        workload.traced_children = True
        traced = run_loop(workload, args.seconds / 2, args.seed, ref, tracer)
    finally:
        tracer.uninstall()
    for child in getattr(workload, "child_aggs", ()):
        tracer.agg.merge(child)
    tracer.write(str(ROOT / ".bench_build" / f"spans-{args.workload}-{args.seed}.jsonl"))
    metrics = per_layer(workload, plain, traced, tracer.agg, setup_agg,
                        micro_loops(workload, args.seed))
    combined = LoopStats(args.seed)
    combined.attempted = plain.attempted + traced.attempted
    combined.failed = plain.failed + traced.failed
    combined.first_error = plain.first_error or traced.first_error
    return metrics, combined


def main() -> int:
    if not (ROOT / "src" / "sifc" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"bench: no sifc source tree (src/sifc, fixtures/) under {ROOT}", file=sys.stderr)
        return 2
    args = parse_args()
    if PINNED not in os.environ:
        pin_and_reexec()
    scratch = Path(os.environ[PINNED])
    try:
        metrics, stats = run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "commit": commit(), "python": platform.python_version(),
                      "nproc": len(os.sched_getaffinity(0)),
                      "hash_seed": os.environ["PYTHONHASHSEED"],
                      "pythonpath": os.environ["PYTHONPATH"]}))
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    print(f"{'failed_share':42s} {stats.failed / max(stats.attempted, 1):14.6g} share"
          f"  ({stats.failed} of {stats.attempted})")
    if stats.first_error:
        print(f"first error: {stats.first_error}")
    print(json.dumps({
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
