"""A fixed reference loop that gauges how fast the host runs Python right now.

The sandbox this benchmark was built on shares its cores with other
tenants, and its speed swings by half within seconds and between minutes.
A run therefore times this loop next to the code under test and reports
every timing at the reference speed: `seconds * NOMINAL_S / reference`,
where `reference` is the loop's own time measured around the timed work.
A change to `sifc` moves the timed work but not the loop.

The loop is plain interpreted Python of the same kinds the library runs
(set algebra over principals, bitmask lattice building, a recursive
evaluator over tuple trees).  It uses only the benchmark's generators and
oracle and never calls into `sifc`.
"""

from __future__ import annotations

import random
import time

import gen
import oracle

NOMINAL_S = 0.003  # about the loop's time on the 2-vCPU sandbox the benchmark was built on
WARM_PASSES = 5


def _tree(rng: random.Random, depth: int) -> tuple:
    if depth == 0 or rng.random() < 0.2:
        return ("var", rng.randrange(16)) if rng.random() < 0.6 else ("lit", rng.randrange(100))
    return (rng.choice(("add", "mul", "max", "if")),
            _tree(rng, depth - 1), _tree(rng, depth - 1))


def _eval(node: tuple, env: dict[int, int]) -> int:
    tag = node[0]
    if tag == "var":
        return env[node[1]]
    if tag == "lit":
        return node[1]
    a, b = _eval(node[1], env), _eval(node[2], env)
    if tag == "add":
        return (a + b) % 1009
    if tag == "mul":
        return (a * b) % 1009
    if tag == "max":
        return a if a > b else b
    return a if b & 1 else b


class Reference:
    def __init__(self):
        rng = random.Random(0)
        names = [f"p{i}" for i in range(40)]
        self.doc = {"principals": names,
                    "acts_for": [(names[i], names[j]) for i in range(40)
                                 for j in range(i + 1, 40) if rng.random() < 0.08]}
        self.acts = oracle.acts_for_closure(self.doc)
        self.labels = [(gen.random_label(rng, names), gen.random_label(rng, names))
                       for _ in range(100)]
        self.trees = [_tree(rng, 7) for _ in range(30)]
        self.envs = [{i: rng.randrange(1009) for i in range(16)} for _ in range(4)]
        for _ in range(WARM_PASSES):
            self.seconds()

    def _work(self) -> int:
        lat = gen.random_lattice(random.Random(1), 16)
        n = sum(lat.meet_mask(a | b) for a in lat.up for b in lat.up[:4])
        oracle.acts_for_closure(self.doc)
        n += sum(oracle.label_leq(self.acts, a, b) for a, b in self.labels)
        return n + sum(_eval(t, e) for t in self.trees for e in self.envs)

    def seconds(self) -> float:
        """One pass of the loop, timed."""
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0

    @staticmethod
    def rescale(elapsed: float, before: float, after: float) -> float:
        """`elapsed` at the reference speed, from the loop's times just
        before and just after it."""
        return elapsed * 2 * NOMINAL_S / (before + after)

    def timed(self, fn) -> float:
        """Run `fn()` once; its time at the reference speed."""
        before = self.seconds()
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        return self.rescale(elapsed, before, self.seconds())
