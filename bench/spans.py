"""Span recording for the traced benchmark run.

`install` replaces every binding of every public `sifc` function (and a few
class entry points) with a wrapper that records a span: name, start, end,
parent and an optional count taken from the result.  Nothing inside `src/`
changes; the wrappers live only in the process that installs them and
`uninstall` puts the originals back.  Leaf queries (`Lattice.leq`, `join`,
`meet`, `PrincipalsHierarchy.acts_for`) and the per-expression helpers are
not wrapped: a span per call would cost more than the call itself, so they
are timed by `micro_ns` instead.

Spans are kept in memory for the current op and folded into per-name totals
when the op ends; the spans of the first ops are kept whole and can be
written out at the end.
"""

from __future__ import annotations

import inspect
import json
import random
import time
from collections import defaultdict
from typing import Iterable

PACKAGES = ("sifc", "sifc.lattice", "sifc.connection", "sifc.flowlang",
            "sifc.dlm", "sifc.cli")
LEAF_HELPERS = {"flowlang.expr_vars", "flowlang.eval_expr"}
KEEP_OPS = 50  # ops whose raw spans are kept for writing out
KEEP_DURATIONS = {"dlm.PrincipalsHierarchy"}  # names whose median is reported


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _order_pairs(lat) -> int:
    return sum(len(lat.upset(c)) for c in lat.classes)


# Counts read off a result after its span has closed.
TAGS = {
    "lattice.build_lattice": lambda out: (len(out.classes), _order_pairs(out)),
    "connection.check_tightness": lambda out: out.subsets_checked,
    "flowlang.gen_well_typed": lambda out: len(out.body),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, tag]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.kept: list[list[list]] = []
        self.agg = Aggregate()

    # -- recording --------------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tag = TAGS.get(name)

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if tag is not None:
                rec[4] = tag(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def end_op(self) -> None:
        """Fold the spans of the op that just finished and start afresh."""
        if len(self.kept) < KEEP_OPS:
            self.kept.append([list(s) for s in self.spans])
        self.agg.fold(self.spans)
        self.spans.clear()

    # -- installing -------------------------------------------------------

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, extra: Iterable[tuple[str, object, str]] = ()) -> None:
        """Wrap every binding of every public sifc function, in every sifc
        module that binds it, plus selected class entry points and `extra`
        (span name, owner, attribute)."""
        import importlib
        import sifc.connection
        import sifc.dlm
        import sifc.lattice

        wrappers: dict[object, object] = {}
        for mod_name in PACKAGES:
            mod = importlib.import_module(mod_name)
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("sifc."):
                    continue
                name = f"{_layer(value.__module__)}.{value.__name__}"
                if name in LEAF_HELPERS:
                    continue
                if value not in wrappers:
                    wrappers[value] = self.wrap(name, value)
                self._replace(mod, attr, wrappers[value])

        lat, conn, dlm = sifc.lattice, sifc.connection, sifc.dlm
        statics = {"lattice.Lattice.from_dict": (lat.Lattice, "from_dict"),
                   "dlm.PrincipalsHierarchy.from_dict": (dlm.PrincipalsHierarchy, "from_dict"),
                   "dlm.PrincipalMapPair.check": (dlm.PrincipalMapPair, "check")}
        for name, (cls, attr) in statics.items():
            self._replace(cls, attr, staticmethod(self.wrap(name, getattr(cls, attr))))
        inits = {"connection.MonotoneMap": conn.MonotoneMap,
                 "dlm.PrincipalsHierarchy": dlm.PrincipalsHierarchy}
        for name, cls in inits.items():
            self._replace(cls, "__init__", self.wrap(name, cls.__init__))
        for name, owner, attr in extra:
            self._replace(owner, attr, self.wrap(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def write(self, path: str) -> None:
        """Write the kept spans, one op per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for spans in self.kept:
                fh.write(json.dumps([{"name": s[0], "start": s[1], "end": s[2],
                                      "parent": s[3], "count": s[4]}
                                     for s in spans]) + "\n")


class Aggregate:
    """Per-name totals over every folded span."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.count: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.by_parent: dict[tuple[str, str], int] = defaultdict(int)
        self.build_ms: dict[int, list[float]] = defaultdict(list)

    def fold(self, spans: list[list]) -> None:
        covered = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                covered[rec[3]] += rec[2] - rec[1]
        for i, (name, start, end, parent, tag) in enumerate(spans):
            dur = end - start
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - covered[i]
            if name in KEEP_DURATIONS:
                self.durations[name].append(dur)
            if parent >= 0:
                self.by_parent[(spans[parent][0], name)] += 1
            if name == "lattice.build_lattice" and tag is not None:
                size, pairs = tag
                self.count[name] += pairs
                self.build_ms[size].append(dur * 1e3)
            elif tag is not None:
                self.count[name] += tag

    def merge(self, other: dict) -> None:
        """Add the totals a child process reported with `to_dict`."""
        for key in ("calls", "total_s", "self_s", "count"):
            for name, value in other[key].items():
                getattr(self, key)[name] += value
        for name, values in other["durations"].items():
            self.durations[name].extend(values)
        for key, value in other["by_parent"].items():
            self.by_parent[tuple(key.split("|"))] += value
        for size, values in other["build_ms"].items():
            self.build_ms[int(size)].extend(values)

    def to_dict(self) -> dict:
        return {"calls": self.calls, "total_s": self.total_s,
                "self_s": self.self_s, "count": self.count,
                "durations": self.durations,
                "by_parent": {f"{p}|{c}": v for (p, c), v in self.by_parent.items()},
                "build_ms": self.build_ms}


def micro_ns(fn, pairs: list[tuple], min_seconds: float = 0.2) -> float:
    """Mean nanoseconds per call of fn(a, b) over `pairs`, loop included."""
    calls, elapsed = 0, 0.0
    while elapsed < min_seconds:
        start = time.perf_counter()
        for a, b in pairs:
            fn(a, b)
        elapsed += time.perf_counter() - start
        calls += len(pairs)
    return elapsed / calls * 1e9


def sample_pairs(items, seed: int, count: int = 2048) -> list[tuple]:
    rng = random.Random(seed)
    items = list(items)
    return [(rng.choice(items), rng.choice(items)) for _ in range(count)]
