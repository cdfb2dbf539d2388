"""crnflow.rk45 against scipy, its oracle: the same bits, not just close.

The package integrates with its own Dormand-Prince 5(4) loop and Simpson
rule so that it needs no scipy at run time; these tests hold both to
scipy.integrate.solve_ivp(method="RK45") and scipy.integrate.simpson.
"""

import tracemalloc

import numpy as np
import pytest
from hypergraphs import networks
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson as scipy_simpson
from scipy.integrate import solve_ivp
from scipy.optimize import brentq as scipy_brentq

from crnflow import build_network, parse_network
from crnflow.dynamics import _rhs
from crnflow.kinetics import net_flux_raw
from crnflow.rk45 import EPS, brentq, integrate, simpson

pytestmark = pytest.mark.bitwise

TOLERANCES = st.tuples(st.floats(1e-10, 1e-4), st.floats(1e-12, 1e-6))


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _floor_event(floor):
    def event(t, y):
        return float(np.min(y)) - floor

    event.terminal = True
    event.direction = -1.0
    return event


def _assert_matches_scipy(fun, t1, y0, rtol, atol, floor):
    event = _floor_event(floor)
    with np.errstate(over="ignore", invalid="ignore"):  # drawn networks may blow up; both must fail alike
        ours = integrate(fun, 0.0, t1, y0, rtol, atol, event)
        ref = solve_ivp(fun, (0.0, t1), y0, method="RK45", rtol=rtol, atol=atol, dense_output=True, events=[event])
    assert (ours.status, ours.message) == (ref.status, ref.message)
    assert ours.stats["nfev"] == ref.nfev
    assert ours.stats["steps"] == ref.t.size - 1
    assert _same(ours.t, ref.t)
    assert _same(ours.y, ref.y.T)
    # a shuffled grid with the step times on it: groups, segment choice, order
    grid = np.concatenate([np.linspace(ref.t[0], ref.t[-1], 37), ref.t])
    grid = np.random.default_rng(0).permutation(grid)
    dense, dense_ref = ours.sol(grid), ref.sol(grid).T  # states as rows: scipy's columns, transposed
    assert _same(dense, dense_ref)
    assert dense.flags.c_contiguous == dense_ref.flags.c_contiguous
    for t in grid[:5]:
        assert _same(ours.sol(t), ref.sol(t))
    return ours


def _mass_action(net):
    def rhs(t, x):
        return -net.div(net_flux_raw(net, x))

    return rhs


class _OverBudget(Exception):
    pass


@settings(max_examples=60, deadline=None)
@given(net=networks(), data=st.data(), tols=TOLERANCES, t1=st.floats(0.05, 1.0))
def test_mass_action_runs_match_solve_ivp(net, data, tols, t1):
    x0 = np.array(data.draw(st.lists(st.floats(0.05, 2.0), min_size=net.n_species, max_size=net.n_species)))
    # a floor of 0 never fires; a raised one may halt the run part way
    floor = data.draw(st.sampled_from([0.0, 0.5, 0.9])) * float(np.min(x0))
    rhs, calls = _mass_action(net), []

    def budgeted(t, x):  # drawn networks can be stiff: skip the few that need many steps
        calls.append(t)
        if len(calls) > 3000:
            raise _OverBudget
        return rhs(t, x)

    try:
        _assert_matches_scipy(budgeted, t1, x0, *tols, floor)
    except _OverBudget:
        assume(False)


@settings(max_examples=30, deadline=None)
@given(k=st.floats(0.1, 10.0), x0=st.floats(0.5, 5.0), tols=TOLERANCES, frac=st.floats(0.01, 0.9))
def test_decay_halts_at_the_raised_floor_like_solve_ivp(k, x0, tols, frac):
    # A <-> 0 with an inflow that holds A at 1e-5 x0: A decays through frac * x0
    net = build_network(["A"], [(1,), (0,)], [(0, 1)], [k], [1e-5 * k * x0])
    ours = _assert_matches_scipy(_mass_action(net), 50.0 / k, np.array([x0]), *tols, frac * x0)
    assert ours.status == 1
    assert abs(ours.y[-1, 0] - frac * x0) < 1e-6 * x0


@settings(max_examples=20, deadline=None)
@given(y0=st.floats(0.5, 4.0), tols=TOLERANCES)
def test_blow_up_fails_like_solve_ivp(y0, tols):
    # y' = y^2 blows up at t = 1 / y0, before t1: the step size collapses
    ours = _assert_matches_scipy(lambda t, y: y * y, 2.0 / y0, np.array([y0]), *tols, 0.0)
    assert ours.status == -1
    assert ours.message == "Required step size is less than spacing between numbers."


# the benchmark's reversible Robertson network (perfbench/workloads.py)
ROBERTSON = (
    "species A B C\n"
    "reaction r1: A <-> B ; kf=0.04 kr=400\n"
    "reaction r2: 2 B <-> B + C ; kf=3e7 kr=1\n"
    "reaction r3: B + C <-> A + C ; kf=1e4 kr=1\n"
)


def test_stiff_robertson_run_matches_solve_ivp():
    # stiff enough by t = 1 to reject over a hundred steps, which the drawn runs
    # above rarely reach within their call budget
    net = parse_network(ROBERTSON)
    ours = _assert_matches_scipy(_mass_action(net), 1.0, np.array([1.0, 1e-6, 1e-6]), 1e-8, 1e-10, 0.0)
    assert ours.status == 0
    assert ours.stats["rejected"] >= 100


def test_memory_per_accepted_step_is_its_numbers():
    # each accepted step keeps t, h, its state and its 3 x 4 dense coefficients:
    # 136 bytes of float64 at 3 species. The bounds, 200 bytes retained and 300
    # at the peak, leave room for the spare rows of one growth; a tuple of two
    # floats and two small arrays per step came to 518 and 567
    rhs, x0 = _rhs(parse_network(ROBERTSON), None), np.array([1.0, 1e-6, 1e-6])

    def event(t, x):
        return float(np.min(x))

    integrate(rhs, 0.0, 0.01, x0, 1e-8, 1e-10, event)  # numpy's lazy set-up, outside the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sol = integrate(rhs, 0.0, 3.0, x0, 1e-8, 1e-10, event)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    steps = sol.stats["steps"]
    assert steps == 3197
    assert (after - before) / steps <= 200
    assert (peak - before) / steps <= 300


def test_rtol_below_100_eps_is_raised_like_solve_ivp(brusselator):
    with pytest.warns(UserWarning, match="rtol"):
        _assert_matches_scipy(_mass_action(brusselator), 0.5, np.array([1.0, 4.0]), 1e-16, 1e-12, 0.0)


@settings(max_examples=100, deadline=None)
@given(c=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4), a=st.floats(-4.0, 0.0), w=st.floats(1e-12, 6.0))
@example(c=[7.759920090471425e-151, 0.0, 0.0, -5.522827891039666e-126], a=0.0, w=1.0)  # 0 / 0 extrapolation
@example(c=[0.0, 0.0, 2.3188732339565635e-271, 2.3188732339565635e-271], a=-1.5, w=1.0)  # 0 / 0 in Python floats
def test_brentq_matches_scipy(c, a, w):
    def f(x):
        return ((c[3] * x + c[2]) * x + c[1]) * x + c[0]

    tol = 4 * EPS
    ours = _outcome(lambda: brentq(f, a, a + w))
    ref = _outcome(lambda: scipy_brentq(f, a, a + w, xtol=tol, rtol=tol))
    # no sign change, or no convergence in 100 iterations: the same error
    assert ours is ref if isinstance(ref, type) else _same(ours, ref)


def test_brentq_returns_a_root_at_the_upper_end():
    tol = 4 * EPS
    assert _same(brentq(lambda s: s - 1.0, 0.0, 1.0), 1.0)
    assert _same(brentq(lambda s: s - 1.0, 0.0, 1.0), scipy_brentq(lambda s: s - 1.0, 0.0, 1.0, xtol=tol, rtol=tol))


def _outcome(call):
    try:
        return call()
    except (ValueError, RuntimeError) as err:
        return type(err)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), repeat=st.booleans())
def test_simpson_matches_scipy(seed, n, repeat):
    # odd and even counts; with `repeat`, some spacings are zero
    rng = np.random.default_rng(seed)
    dx = rng.uniform(0.0, 3.0, n - 1) * (rng.random(n - 1) > 0.3 if repeat else 1.0)
    x = np.concatenate([[rng.uniform(-5.0, 5.0)], dx]).cumsum()
    y = rng.uniform(-1e3, 1e3, n)
    assert _same(simpson(y, x=x), scipy_simpson(y, x=x))
