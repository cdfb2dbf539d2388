import os

import numpy as np
import pytest
from hypothesis import settings

from crnflow import build_network

# CI sets HYPOTHESIS_PROFILE=ci: the same examples on every run, no deadline
settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# populated by the release-gate tests, replayed after the run so the
# one-line verdicts survive output capture
ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


@pytest.fixture
def brusselator():
    """Open two-species oscillator: 0<->X1, X1<->X2, 2X1+X2<->3X1."""
    return build_network(
        ["X1", "X2"],
        [(0, 0), (1, 0), (0, 1), (2, 1), (3, 0)],
        [(0, 1), (1, 2), (3, 4)],
        [1.0, 3.0, 1.0],
        [1.0, 0.1, 0.1],
    )


@pytest.fixture
def brusselator_eq(brusselator):
    """Same topology with zero cycle affinity (K2 K3 = 1)."""
    return brusselator.with_rates([1.0, 3.0, 1.0], [1.0, 1.0, 3.0])


@pytest.fixture
def ab():
    """A <-> B with kf=2, kr=1 (head = A)."""
    return build_network(["A", "B"], [(1, 0), (0, 1)], [(0, 1)], [2.0], [1.0])


@pytest.fixture
def abc():
    """A + B <-> C, oriented with head C so the stoich column is (-1,-1,1)."""
    return build_network(["A", "B", "C"], [(1, 1, 0), (0, 0, 1)], [(1, 0)], [1.0], [1.0])


@pytest.fixture
def cycle3():
    """Three-state cycle graph A->B->C->A with nonzero cycle affinity."""
    return build_network(
        ["A", "B", "C"],
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(0, 1), (1, 2), (2, 0)],
        [2.0, 1.5, 1.0],
        [0.5, 1.0, 2.0],
    )


@pytest.fixture
def rand5():
    """Seeded random 5-species hypergraph with nontrivial homology."""
    rng = np.random.default_rng(0)
    verts = [
        (1, 0, 0, 0, 0),
        (0, 1, 1, 0, 0),
        (0, 0, 0, 2, 0),
        (1, 0, 1, 0, 0),
        (0, 0, 0, 0, 1),
        (0, 2, 0, 0, 1),
    ]
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]
    kp = rng.uniform(0.5, 2.0, len(edges))
    km = rng.uniform(0.5, 2.0, len(edges))
    return build_network([f"S{i}" for i in range(1, 6)], verts, edges, kp, km)
