import itertools
from unittest import mock

import numpy as np
import pytest
from hypergraphs import networks
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crnflow import (
    ConvergenceError,
    RateSchedule,
    build_network,
    effective_equilibrium_rates,
    effective_steady_rates,
    energy_dissipation_balance,
    lyapunov_monitor,
    simulate,
    simulate_timedep,
    wegscheider_check,
)
from crnflow import dynamics


def test_two_state_relaxation_matches_analytic(ab):
    # x_A' = -2 x_A + x_B with x_A + x_B = 2: x_A(t) = 2/3 + (1/3) e^{-3t}
    grid = np.linspace(0.0, 4.0, 17)
    traj = simulate(ab, [1.0, 1.0], 4.0, grid=grid)
    exact = 2.0 / 3.0 + (1.0 / 3.0) * np.exp(-3.0 * traj.times)
    assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-8
    assert not traj.halted
    # requested grid times all present, plus the integrator's own steps
    assert np.all(np.isin(grid, traj.times))
    assert traj.times.size > grid.size


def test_trajectory_counts_integrator_work(ab):
    traj = simulate(ab, [1.0, 1.0], 4.0)
    stats = traj.stats
    assert stats["steps"] == traj.times.size - 1  # no grid: one row per accepted step
    assert stats["nfev"] == 2 + 6 * (stats["steps"] + stats["rejected"])


def test_conservation_drift_is_tiny(abc):
    x0 = np.array([1.0, 2.0, 0.5])
    traj = simulate(abc, x0, 20.0)
    eta0 = traj.eta[0]
    drift = np.max(np.abs(traj.eta - eta0) / (1.0 + np.abs(eta0)))
    assert drift < 1e-6
    assert traj.eta.shape == (traj.times.size, 2)


def test_ledger_identities(brusselator):
    traj = simulate(brusselator, [1.0, 4.0], 5.0, x_ref=[1.0, 31.0 / 11.0])
    led = traj.ledger
    assert np.all(np.isfinite(led["epr"]))
    # EPR = psi + psistar at the mass-action point (Fenchel-Young equality)
    gap = np.abs(led["epr"] - led["psi"] - led["psistar"])
    assert np.max(gap / (1.0 + np.abs(led["epr"]))) < 1e-9
    assert np.all(led["epr"] >= led["pepr"] - 1e-12)
    assert np.all(led["pepr"] >= 0.0)
    assert np.all(led["divergence"] >= 0.0)


def test_divergence_column_nan_without_reference(ab):
    traj = simulate(ab, [1.0, 1.0], 1.0)
    assert np.all(np.isnan(traj.ledger["divergence"]))
    assert np.all(np.isfinite(traj.ledger["epr"]))


def test_interpolation_matches_states(ab):
    traj = simulate(ab, [1.0, 1.0], 2.0)
    mid = 0.5 * (traj.times[3] + traj.times[4])
    x_mid = traj.interpolate(mid)
    assert x_mid.shape == (2,)
    assert np.max(np.abs(traj.interpolate(traj.times) - traj.states)) < 1e-12


def _dense_then_pinned(traj, steps, accepted):
    """States as simulate once formed them, kept as an oracle: the dense output
    at every time, then the stepper's accepted states over their own rows."""
    states = traj.dense(traj.times).T
    states[np.searchsorted(traj.times, steps)] = accepted
    return states


class _OverBudget(Exception):
    pass


def _budgeted(integrate, calls):
    """integrate, raising _OverBudget once its right-hand side has run `calls` times."""

    def run(fun, *args):
        count = itertools.count()

        def counted(t, x):
            if next(count) >= calls:
                raise _OverBudget
            return fun(t, x)

        return integrate(counted, *args)

    return run


@settings(max_examples=60, deadline=None)
@given(net=networks(), data=st.data(), t1=st.floats(0.05, 1.0))
def test_states_match_the_dense_then_pinned_oracle(net, data, t1):
    x0 = np.array(data.draw(st.lists(st.floats(0.05, 2.0), min_size=net.n_species, max_size=net.n_species)))
    floor = data.draw(st.sampled_from([0.0, 0.5, 0.9])) * float(np.min(x0))  # may halt part way
    # drawn networks can be stiff enough to take millions of steps: skip those few
    budget = mock.patch.object(dynamics, "integrate", _budgeted(dynamics.integrate, 20000))
    with budget, np.errstate(over="ignore", invalid="ignore"):
        try:
            run = simulate(net, x0, t1, positivity_floor=floor)  # no grid: the accepted steps alone
        except (ConvergenceError, _OverBudget):
            assume(False)
        steps, n = run.times, run.times.size
        # grid times on accepted steps (repeated), inside the segments that end at
        # them, and past the end of a halted run
        on = steps[data.draw(st.lists(st.integers(0, n - 1), max_size=10))]
        seg = np.array(data.draw(st.lists(st.integers(0, max(n - 2, 0)), max_size=20)), dtype=int)
        u = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=seg.size, max_size=seg.size)))
        inside = steps[seg] + u * (steps[np.minimum(seg + 1, n - 1)] - steps[seg])
        grid = np.concatenate([on, inside, np.linspace(0.0, 1.5 * t1, data.draw(st.integers(0, 40)))])
        traj = simulate(net, x0, t1, grid=grid, positivity_floor=floor)
    assert np.array_equal(traj.times, np.union1d(steps, grid[grid <= steps[-1]]))
    oracle = _dense_then_pinned(traj, steps, run.states)
    assert traj.states.tobytes() == oracle.tobytes()
    assert traj.states.flags.c_contiguous and oracle.flags.c_contiguous


def test_positivity_floor_at_t0_halts_on_a_grid():
    """A component starting at the floor and falling halts the run at t0: the
    stepper gives t0 twice, and a grid's times keep it once."""
    net = build_network(["A", "B"], [(1, 0), (0, 1)], [(0, 1)], [1.0], [1e-15])
    gridless = simulate(net, [1e-12, 1.0], 0.5, positivity_floor=1e-12)
    assert gridless.halted and gridless.times.tolist() == [0.0, 0.0]
    assert gridless.states.tolist() == [[1e-12, 1.0], [1e-12, 1.0]]
    traj = simulate(net, [1e-12, 1.0], 0.5, grid=[0.0, 0.5], positivity_floor=1e-12)
    assert traj.halted and traj.halt_reason == gridless.halt_reason
    assert traj.times.tolist() == [0.0]
    assert traj.states.tobytes() == gridless.states[:1].tobytes()


def test_positivity_floor_halts_integration():
    net = build_network(["A", "B"], [(1, 0), (0, 1)], [(0, 1)], [1.0], [1e-15])
    traj = simulate(net, [1.0, 1.0], 200.0, positivity_floor=1e-6)
    assert traj.halted
    assert "positivity floor" in traj.halt_reason
    assert traj.times[-1] == pytest.approx(np.log(1e6), rel=1e-3)
    assert traj.final_state[0] == pytest.approx(1e-6, rel=1e-3)


def test_blowup_raises_solver_failure():
    net = build_network(["X"], [(2,), (3,)], [(0, 1)], [1.0], [1e-300])
    with pytest.raises(ConvergenceError, match="integration failed"):
        simulate(net, [1.0], 10.0)


def test_nan_rates_fail_instead_of_hanging():
    # 2 A <-> A + B at x = 1e200: both monomials overflow, the flux is inf - inf,
    # and a NaN first step size used to keep the step loop going forever
    net = build_network(["A", "B"], [(2, 0), (1, 1)], [(0, 1)], [1.0], [1.0])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConvergenceError, match="integration failed"):
        simulate(net, [1e200, 1e200], 1.0)


def test_zero_first_trial_step_fails_instead_of_raising():
    # 2 A <-> A at x = 1e160: the flux is inf, so is the first derivative's norm, and
    # the first trial step is 0: dividing by it gives inf, as in numpy, not ZeroDivisionError
    net = build_network(["A"], [(2,), (1,)], [(0, 1)], [1.0], [1.0])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        with pytest.raises(ConvergenceError, match="integration failed"):
            simulate(net, [1e160], 1.0)


def test_invalid_inputs(ab):
    with pytest.raises(ValueError, match="positive"):
        simulate(ab, [1.0, -1.0], 1.0)
    with pytest.raises(ValueError, match="t1 > t0"):
        simulate(ab, [1.0, 1.0], (2.0, 1.0))
    with pytest.raises(ValueError, match="t1 > t0"):
        simulate(ab, [1.0, 1.0], np.inf)
    assert simulate(ab, [1.0, 1.0], np.array(2.0)).times[-1] == 2.0  # a 0-d final time is one number
    for rtol in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="rtol"):
            simulate(ab, [1.0, 1.0], 1.0, rtol=rtol)
    for bad in (np.nan, np.inf, -1.0):
        for key in ("atol", "positivity_floor"):
            with pytest.raises(ValueError, match="atol and positivity_floor"):
                simulate(ab, [1.0, 1.0], 1.0, **{key: bad})


def test_rate_schedule_interpolation():
    sch = RateSchedule(
        times=np.array([0.0, 1.0, 2.0]),
        kplus=np.array([[1.0], [3.0], [3.0]]),
        kminus=np.array([[1.0], [1.0], [2.0]]),
    )
    kp, km = sch(0.5)
    assert kp[0] == pytest.approx(2.0)
    assert km[0] == pytest.approx(1.0)
    kp, km = sch(10.0)  # clamped beyond the table
    assert (kp[0], km[0]) == (3.0, 2.0)
    with pytest.raises(ValueError, match="increasing"):
        RateSchedule(np.array([0.0, 0.0]), np.ones((2, 1)), np.ones((2, 1)))
    with pytest.raises(ValueError, match="positive"):
        RateSchedule(np.array([0.0, 1.0]), np.zeros((2, 1)), np.ones((2, 1)))
    with pytest.raises(ValueError, match="increasing"):
        RateSchedule(np.array([0.0, np.nan, 2.0]), np.ones((3, 1)), np.ones((3, 1)))
    with pytest.raises(ValueError, match="increasing"):
        RateSchedule(np.array([0.0, np.inf]), np.ones((2, 1)), np.ones((2, 1)))
    with pytest.raises(ValueError, match="positive"):
        RateSchedule(np.array([0.0, 1.0]), np.ones((2, 1)), np.array([[1.0], [np.inf]]))


def test_rate_schedule_holds_its_rates_once_read_only():
    # kplus used to be a writable copy beside the evaluated table, and a caller's array stayed aliased
    kp, km = np.array([[1.0], [3.0]]), np.array([[2.0], [1.0]])
    sch = RateSchedule(np.array([0.0, 1.0]), kp, km)
    for col in (sch.kplus, sch.kminus):
        assert col.base is sch._table
        with pytest.raises(ValueError, match="read-only"):
            col[0, 0] = 5.0
    kp[0, 0], km[1, 0] = -7.0, np.nan
    assert sch.kplus.tolist() == [[1.0], [3.0]] and sch.kminus.tolist() == [[2.0], [1.0]]
    assert [k.tolist() for k in sch(0.0)] == [[1.0], [2.0]]


def _searchsorted_rates(sched, t):
    """RateSchedule.__call__'s scalar path as it was, on np.searchsorted: the oracle."""
    knots, n = sched.times, sched.n_edges
    j = int(np.searchsorted(knots, t, side="right")) - 1
    hit = j < 0 or j == knots.size - 1 or knots[j] == t
    row = sched._table[max(j, 0)] if hit else sched._slopes[j] * (t - knots[j]) + sched._table[j]
    return row[:n], row[n:]


@st.composite
def _schedules_and_times(draw):
    knots = np.array(sorted(set(draw(st.lists(
        st.floats(-5.0, 5.0, allow_subnormal=False), min_size=2, max_size=8)))))
    assume(knots.size >= 2)
    shape = (knots.size, draw(st.integers(1, 3)))
    rates = st.floats(0.125, 8.0)
    kp = np.array(draw(st.lists(rates, min_size=knots.size * shape[1], max_size=knots.size * shape[1])))
    sched = RateSchedule(knots, kp.reshape(shape), kp[::-1].reshape(shape))
    i = draw(st.integers(0, knots.size - 2))
    u = draw(st.floats(0.0, 1.0))
    t = draw(st.sampled_from([
        knots[i],                                    # on a knot
        knots[i] + u * (knots[i + 1] - knots[i]),    # between two knots
        np.nextafter(knots[i], np.inf),
        np.nextafter(knots[i + 1], -np.inf),
        knots[0] - 1.0 - u,                          # before the range
        knots[-1] + 1.0 + u,                         # after it
        0.0, -0.0, np.nan,
    ]))
    return sched, float(t)


@settings(max_examples=200, deadline=None)
@given(_schedules_and_times())
# knots so close that a slope overflows, or slope * (t - knot) does before the first knot
@example(drawn=(RateSchedule(np.array([0.0, 1e-308]), np.array([[1.0], [3.0]]), np.array([[3.0], [1.0]])), 5e-309))
@example(drawn=(RateSchedule(np.array([0.0, 2.2250738585072014e-308]), np.array([[1.0], [3.0]]),
                             np.array([[3.0], [1.0]])), -2.0))
def test_scalar_schedule_lookup_matches_the_array_path_and_interp(drawn):
    sched, t = drawn
    got = sched(t)
    assert got[0].tobytes() == sched(np.float64(t))[0].tobytes()
    rows = sched(np.array([t]))
    want = _searchsorted_rates(sched, t)
    for g, w, r, col in zip(got, want, rows, (sched.kplus, sched.kminus)):
        assert g.tobytes() == w.tobytes() == r[0].tobytes()
        if np.isnan(t):  # np.interp gives NaN; the schedule holds the last knot's rates
            assert g.tobytes() == col[-1].tobytes()
        else:
            assert g.tobytes() == np.array([np.interp(t, sched.times, c) for c in col.T]).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(st.floats(0.0, 10.0, allow_subnormal=False), min_size=1, max_size=30, unique=True),
    data=st.data(),
)
def test_grid_union_matches_union1d(steps, data):
    # the accepted times are strictly increasing; the grid repeats them, repeats
    # itself, holds both signed zeros and reaches past [t0, t_end]
    steps = np.array(sorted(steps))
    grid = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from(steps.tolist()), st.sampled_from([0.0, -0.0]), st.floats(-2.0, 12.0)),
        max_size=40,
    )))
    for g in (grid, grid[(grid >= steps[0]) & (grid <= steps[-1])]):
        want = np.union1d(steps, g)
        got = dynamics._union(steps, g)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_constant_schedule_reproduces_autonomous_run(brusselator):
    grid = np.linspace(0.0, 3.0, 31)
    base = simulate(brusselator, [1.0, 4.0], 3.0, grid=grid)
    sch = RateSchedule.constant(brusselator.kplus, brusselator.kminus, 0.0, 3.0)
    redo = simulate_timedep(brusselator, [1.0, 4.0], 3.0, sch, grid=grid)
    # one right-hand side: a constant schedule is the autonomous run, bit for bit
    for got, want in [(redo.times, base.times), (redo.states, base.states), (redo.eta, base.eta)]:
        assert got.tobytes() == want.tobytes()
    assert redo.ledger.keys() == base.ledger.keys()
    for key in base.ledger:
        assert redo.ledger[key].tobytes() == base.ledger[key].tobytes(), key
    assert redo.stats == base.stats
    with pytest.raises(ValueError, match="edge count"):
        simulate_timedep(brusselator, [1.0, 4.0], 1.0, RateSchedule.constant([1.0], [1.0], 0, 1))


def test_energy_balance_two_state(ab):
    traj = simulate(ab, [1.6, 0.4], 8.0)
    out = energy_dissipation_balance(ab, traj)
    assert abs(out["gap"]) < max(1e-6, 1e-4 * abs(out["lhs"]))
    assert out["lhs"] > 0.0
    # the reference is the equilibrium the trajectory relaxes to,
    # up to the conserved-quantity offset of this run
    wc = wegscheider_check(ab)
    assert np.allclose(out["reference"], np.exp(wc["potential"]))


def test_energy_balance_needs_two_samples(ab):
    traj = simulate(ab, [1.6, 0.4], 1.0)
    for n in (-1, 0, 1):
        with pytest.raises(ValueError, match="n_samples"):
            energy_dissipation_balance(ab, traj, n_samples=n)


def test_energy_balance_equilibrium_brusselator(brusselator_eq):
    traj = simulate(brusselator_eq, [0.5, 5.0], 12.0)
    out = energy_dissipation_balance(brusselator_eq, traj)
    assert abs(out["gap"]) < max(1e-6, 1e-4 * abs(out["lhs"]))


def test_energy_balance_refuses_nonequilibrium(brusselator):
    traj = simulate(brusselator, [1.0, 4.0], 1.0)
    with pytest.raises(ValueError, match="cycle affinity"):
        energy_dissipation_balance(brusselator, traj)


def test_underflowing_one_way_fluxes_leave_their_samples_out():
    """A <-> B with kr = 1e-10 from [1, 1e-315]: the initial reverse flux
    1e-325 underflows to 0, though every component is positive. The run
    returns, its ledger and the Lyapunov monitor NaN at that sample and
    with the bits of a pass over the other samples alone; the energy
    balance and the schedules, which need every sample, raise naming the
    one-way fluxes."""
    net = build_network(["A", "B"], [(1, 0), (0, 1)], [(0, 1)], [1.0], [1e-10])
    traj = simulate(net, [1.0, 1e-315], 3.0)
    rest = dynamics._ledger_rows(net, traj.times[1:], traj.states[1:], None, None)[0]
    for key in dynamics.LEDGER_KEYS[1:]:
        assert np.isnan(traj.ledger[key][0]) and np.isfinite(traj.ledger[key][1:]).all()
        assert traj.ledger[key][1:].tobytes() == rest[key].tobytes()
    derivative = lyapunov_monitor(net, traj, [1.0, 1e-10])["derivative"]
    assert np.isnan(derivative[0]) and np.isfinite(derivative[1:]).all()
    for audit in (energy_dissipation_balance, effective_equilibrium_rates, effective_steady_rates):
        with pytest.raises(ValueError, match="one-way fluxes must be strictly positive"):
            audit(net, traj)


def test_lyapunov_monitor_equilibrium(brusselator_eq):
    from crnflow import find_steady_state

    x_eq = find_steady_state(brusselator_eq, [2.0, 2.0])
    for x0 in ([0.5, 5.0], [3.0, 0.5], [1.0, 3.5]):
        traj = simulate(brusselator_eq, x0, 10.0)
        mon = lyapunov_monitor(brusselator_eq, traj, x_eq)
        assert mon["nonincreasing"], mon["max_derivative"]
        assert mon["max_derivative"] <= 1e-10


def test_lyapunov_monitor_complex_balanced_reference(cycle3):
    from crnflow import find_steady_state

    x_cb = find_steady_state(cycle3, [1.0, 1.0, 1.0])
    traj = simulate(cycle3, [2.5, 0.3, 0.2], 10.0)
    mon = lyapunov_monitor(cycle3, traj, x_cb)
    assert mon["nonincreasing"], mon["max_derivative"]


def test_lyapunov_monitor_flags_bad_reference(ab):
    # (1.5, 0.5) is not an equilibrium on any leaf; divergence to it grows
    traj = simulate(ab, [1.0, 1.0], 2.0)
    mon = lyapunov_monitor(ab, traj, [1.5, 0.5])
    assert not mon["nonincreasing"]
    assert mon["max_derivative"] > 0.1



@pytest.mark.parametrize("bad", [[np.inf, 1.0], [np.nan, 1.0], [0.0, 1.0], [-1.0, 1.0]])
def test_reference_state_is_checked_up_front(ab, bad):
    """A reference with an infinite, NaN, zero or negative component is
    refused before any integration (an infinite one gave a NaN divergence
    column, a zero one an error after the whole run), and by the monitor
    (which called an infinite one nonincreasing)."""
    schedule = RateSchedule.constant([2.0], [1.0], 0.0, 1.0)
    runs = (
        lambda: simulate(ab, [1.0, 1.0], 1.0, x_ref=bad),
        lambda: simulate_timedep(ab, [1.0, 1.0], 1.0, schedule, x_ref=bad),
    )
    for run in runs:
        with mock.patch.object(dynamics, "integrate") as stepper, pytest.raises(ValueError, match="x_ref must be"):
            run()
        assert stepper.call_count == 0
    traj = simulate(ab, [1.0, 1.0], 1.0)
    with pytest.raises(ValueError, match="reference state must be"):
        lyapunov_monitor(ab, traj, bad)
