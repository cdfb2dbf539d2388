"""The stacked dense output against the per-group evaluation it replaced
(tests/rk45_oracle.py): the same bytes and layout, for any times. Also
pins the integrator's counts on a fixed stiff run, and the layout of an
evaluation at no times against scipy's."""

import itertools

import numpy as np
import rk45_oracle as oracle
from hypergraphs import networks
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from crnflow import parse_network, simulate
from crnflow.dynamics import _rhs
from crnflow.rk45 import integrate


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert (got.flags.c_contiguous, got.flags.f_contiguous) == (want.flags.c_contiguous, want.flags.f_contiguous)


class _OverBudget(Exception):
    pass


def _run(net, x0, t1, calls=20000):
    """integrate on the network's right-hand side; _OverBudget past `calls` evaluations."""
    rhs, count = _rhs(net, None), itertools.count()

    def budgeted(t, x):
        if next(count) >= calls:
            raise _OverBudget
        return rhs(t, x)

    return integrate(budgeted, 0.0, t1, x0, 1e-8, 1e-10, lambda t, x: float(np.min(x)))


@settings(max_examples=60, deadline=None)
@given(net=networks(), data=st.data(), t1=st.floats(0.05, 1.0))
def test_dense_output_matches_the_per_group_oracle(net, data, t1):
    x0 = np.array(data.draw(st.lists(st.floats(0.05, 2.0), min_size=net.n_species, max_size=net.n_species)))
    with np.errstate(over="ignore", invalid="ignore"):  # drawn networks may blow up
        try:
            sol = _run(net, x0, t1)
        except _OverBudget:
            assume(False)
    assume(sol.status != -1)
    steps, n = sol.t, sol.t.size
    # step boundaries (repeated), several times inside a step (groups of one
    # and more), times outside the span, shuffled
    on = steps[data.draw(st.lists(st.integers(0, n - 1), max_size=10))]
    seg = np.array(data.draw(st.lists(st.integers(0, n - 2), min_size=1, max_size=30)), dtype=int)
    u = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=seg.size, max_size=seg.size)))
    inside = steps[seg] + u * (steps[seg + 1] - steps[seg])
    outside = [steps[0] - 0.5, steps[-1] + data.draw(st.floats(0.0, 2.0))]
    grid = np.concatenate([on, inside, outside])
    grid = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(grid)
    _same(sol.sol(grid), oracle.dense_output(sol.sol, grid))
    _same(sol.sol(grid[:1]), oracle.dense_output(sol.sol, grid[:1]))
    for t in grid[:4]:
        for scalar in (t, float(t), np.asarray(t)):
            _same(sol.sol(scalar), oracle.dense_output(sol.sol, scalar))


# the benchmark's reversible Robertson network (perfbench/workloads.py), unjittered
ROBERTSON = (
    "species A B C\n"
    "reaction r1: A <-> B ; kf=0.04 kr=400\n"
    "reaction r2: 2 B <-> B + C ; kf=3e7 kr=1\n"
    "reaction r3: B + C <-> A + C ; kf=1e4 kr=1\n"
)


def test_robertson_run_keeps_its_counts():
    traj = simulate(parse_network(ROBERTSON), [1.0, 1e-6, 1e-6], 3.0)
    assert traj.stats == {"steps": 3197, "rejected": 516, "nfev": 22280}


def test_no_times_give_no_columns_in_scipys_layout():
    """scipy's OdeSolution maps m times to states of shape (n, m); at m = 0
    scipy 1.17 itself raises (np.hstack of no groups), so the reference is its
    m = 1 result with the column sliced off."""
    net, x0 = parse_network(ROBERTSON), [1.0, 1e-6, 1e-6]
    traj = simulate(net, x0, 0.01)
    ref = solve_ivp(_rhs(net, None), (0.0, 0.01), x0, method="RK45", rtol=1e-8, atol=1e-10, dense_output=True)
    want = ref.sol(np.array([0.005]))[:, :0]
    _same(traj.dense(np.array([])), want)
    _same(traj.interpolate(np.array([])), want.T)
    _same(traj.interpolate([]), np.empty((0, 3)))
