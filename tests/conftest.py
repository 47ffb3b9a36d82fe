import itertools
import sys
from pathlib import Path

import pytest

# Test helpers (fixtures, oracles, generators) live next to the tests.
sys.path.insert(0, str(Path(__file__).resolve().parent))

from sifc.connection import check_connection, connection_violations  # noqa: E402
from sifc.lattice import build_lattice  # noqa: E402

from gen import monotone_maps  # noqa: E402


@pytest.fixture(scope="session")
def small_lattices():
    """The chains of 1-4 classes and the diamond."""
    lattices = [build_lattice(f"chain{n}", [f"c{i}" for i in range(n)],
                              [(f"c{i}", f"c{i + 1}") for i in range(n - 1)]) for n in range(1, 5)]
    lattices.append(build_lattice("diamond", ["bot", "x", "y", "top"],
                                  [("bot", "x"), ("bot", "y"), ("x", "top"), ("y", "top")]))
    return lattices


@pytest.fixture(scope="session")
def small_pairs(small_lattices):
    """Bounded-exhaustive instances: every monotone (left, right, alpha, gamma)
    between the small lattices."""
    pairs = [(left, right, alpha, gamma)
             for left, right in itertools.product(small_lattices, repeat=2)
             for alpha, gamma in itertools.product(monotone_maps(left, right),
                                                   list(monotone_maps(right, left)))]
    assert len(pairs) == 6653
    return pairs


@pytest.fixture(scope="session")
def small_connections(small_pairs):
    """The connections among the small pairs, as check_connection builds them."""
    connections = [check_connection(*pair) for pair in small_pairs
                   if not connection_violations(*pair)]
    assert len(connections) == 145
    return connections
