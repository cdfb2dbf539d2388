import numpy as np
import pytest

from crnflow import (
    ConvergenceError,
    RateSchedule,
    build_network,
    energy_dissipation_balance,
    lyapunov_monitor,
    simulate,
    simulate_timedep,
    wegscheider_check,
)


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


def test_invalid_inputs(ab):
    with pytest.raises(ValueError, match="positive"):
        simulate(ab, [1.0, -1.0], 1.0)
    with pytest.raises(ValueError, match="t1 > t0"):
        simulate(ab, [1.0, 1.0], (2.0, 1.0))
    with pytest.raises(ValueError, match="t1 > t0"):
        simulate(ab, [1.0, 1.0], np.inf)
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


def test_constant_schedule_reproduces_autonomous_run(brusselator):
    grid = np.linspace(0.0, 3.0, 31)
    base = simulate(brusselator, [1.0, 4.0], 3.0, grid=grid)
    sch = RateSchedule.constant(brusselator.kplus, brusselator.kminus, 0.0, 3.0)
    redo = simulate_timedep(brusselator, [1.0, 4.0], 3.0, sch, grid=grid)
    a = base.interpolate(grid)
    b = redo.interpolate(grid)
    assert np.max(np.abs(a - b)) < 1e-9
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


def test_energy_balance_equilibrium_brusselator(brusselator_eq):
    traj = simulate(brusselator_eq, [0.5, 5.0], 12.0)
    out = energy_dissipation_balance(brusselator_eq, traj)
    assert abs(out["gap"]) < max(1e-6, 1e-4 * abs(out["lhs"]))


def test_energy_balance_refuses_nonequilibrium(brusselator):
    traj = simulate(brusselator, [1.0, 4.0], 1.0)
    with pytest.raises(ValueError, match="cycle affinity"):
        energy_dissipation_balance(brusselator, traj)


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
