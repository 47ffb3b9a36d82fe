"""Run one sifc CLI command under span tracing, for the traced benchmark run.

    python cli_child.py TRACE_OUT T0 ARGS...

T0 is the parent's `time.perf_counter()` just before it started this
process.  On Linux that clock is the system-wide monotonic clock, so the
gap to this file's first statement is the interpreter's start-up time.
The phase times and span totals go to TRACE_OUT as JSON; stdout, stderr and
the exit code are those of `sifc.cli.main`.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

LOADERS = ("_load_json", "_load_connection_doc", "_load_verified_connection",
           "_load_pm_doc", "_lattice_ref", "_hierarchy_ref")


def main() -> int:
    out_path, t0, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    before = time.perf_counter()
    import sifc.cli as cli
    imported = time.perf_counter()

    import spans
    tracer = spans.Tracer()
    tracer.install([("cli.load", cli, name) for name in LOADERS])
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    tracer.end_op()
    agg = tracer.agg
    render_s = agg.total_s["cli.render"]
    phases = {"interpreter_ms": (STARTED - t0) * 1e3,
              "import_ms": (imported - before) * 1e3,
              "dispatch_ms": (agg.total_s["cli.main"] - render_s) * 1e3,
              "render_ms": render_s * 1e3,
              "load.self_ms": agg.self_s["cli.load"] * 1e3}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"phases": phases, "spans": agg.to_dict()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
