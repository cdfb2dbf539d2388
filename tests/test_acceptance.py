"""Release gate: nine numbered end-to-end checks with runtime budgets.

Each check records one PASS/FAIL line; conftest replays them after the
run so the verdicts are scannable from the captured log.
"""

import functools
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import ACCEPTANCE_VERDICTS

from crnflow import (
    CoshDissipation,
    EdgePair,
    KLPotential,
    QuadraticDissipation,
    QuadraticPotential,
    build_network,
    complex_balance_force_split,
    effective_equilibrium_rates,
    effective_steady_rates,
    entropy_production,
    equilibrium_point,
    find_steady_state,
    flux_split,
    kernel_basis,
    legendre_gap,
    mass_action_flux,
    net_flux_raw,
    pseudo_entropy_production,
    pythagoras_gap,
    simulate,
    simulate_timedep,
    wegscheider_check,
)


def _criterion(num, label, budget=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                if budget is not None and elapsed > budget:
                    raise AssertionError(
                        f"runtime {elapsed:.2f}s exceeds {budget}s budget"
                    )
            except BaseException:
                ACCEPTANCE_VERDICTS.append(f"FAIL criterion {num}: {label}")
                raise
            ACCEPTANCE_VERDICTS.append(
                f"PASS criterion {num}: {label} ({elapsed:.2f}s)"
            )

        return wrapper

    return deco


@_criterion(1, "exact integer homology", budget=1.0)
def test_criterion_1(brusselator, abc):
    assert np.array_equal(brusselator.stoich, [[-1, 1, -1], [0, -1, 1]])
    assert np.array_equal(brusselator.cycle_basis, [[0], [1], [1]])
    assert brusselator.cons_basis.shape == (0, 2)
    # independent recomputation from scratch
    assert np.array_equal(kernel_basis(brusselator.stoich), [[0, 1, 1]])
    assert kernel_basis(brusselator.stoich.T).shape == (0, 2)
    assert abc.cons_basis.shape == (2, 3)
    assert np.array_equal(abc.cons_basis @ abc.stoich, np.zeros((2, 1)))


@_criterion(2, "Legendre/Bregman identities on random points", budget=5.0)
def test_criterion_2():
    rng = np.random.default_rng(2)
    n = 6

    def draw_potential():
        return rng.uniform(0.05, 5.0, n)

    def draw_flux():
        return rng.normal(0.0, 2.0, n)

    spd = rng.normal(size=(n, n))
    spd = spd @ spd.T + n * np.eye(n)
    families = [
        (KLPotential(rng.uniform(0.2, 2.0, n)), draw_potential, False),
        (QuadraticPotential(spd, rng.uniform(0.2, 2.0, n)), draw_flux, False),
        (CoshDissipation(rng.uniform(0.1, 4.0, n)), draw_flux, True),
        (QuadraticDissipation(rng.uniform(0.1, 4.0, n)), draw_flux, True),
    ]
    for fn, draw, even in families:
        for _ in range(1000):
            p = draw()
            d = fn.grad(p)
            # round trip and Fenchel-Young equality at the conjugate pair
            assert np.allclose(fn.dual_grad(d), p, rtol=1e-10, atol=1e-10)
            assert abs(legendre_gap(fn, p, d)) <= 1e-10 * (1.0 + abs(fn.value(p)))
            if even:
                assert fn.value(-p) == pytest.approx(fn.value(p), rel=1e-12)
                assert fn.dual_value(-d) == pytest.approx(fn.dual_value(d), rel=1e-12)
            # central-difference gradient check
            h = 1e-6
            k = int(rng.integers(n))
            e = np.zeros(n)
            e[k] = h
            fd = (fn.value(p + e) - fn.value(p - e)) / (2 * h)
            assert fd == pytest.approx(d[k], rel=1e-6, abs=1e-8)
        if hasattr(fn, "hessian"):
            H = fn.hessian(draw())
            assert np.array_equal(H, H.T)


@_criterion(3, "Bregman projection onto the reachable polytope", budget=1.0)
def test_criterion_3(ab):
    wc = wegscheider_check(ab)
    x_ref = np.exp(wc["potential"])
    x0 = np.array([1.0, 1.0])
    x_eq = equilibrium_point(ab, x0, x_ref)
    assert np.max(np.abs(x_eq - [2 / 3, 4 / 3])) < 1e-10
    cert = pythagoras_gap(ab, x0, x_eq, x_ref)
    assert abs(cert["gap"]) < 1e-10
    # projection only sees the reference through its equilibrium leaf:
    # rescaling x_ref by exp(U.T c) must not move the result
    rng = np.random.default_rng(3)
    for _ in range(5):
        c = rng.normal(0.0, 1.0, ab.n_conserved)
        shifted = x_ref * np.exp(ab.cons_basis.T.astype(float) @ c)
        assert np.max(np.abs(equilibrium_point(ab, x0, shifted) - x_eq)) < 1e-9


@_criterion(4, "flux decomposition on random states", budget=30.0)
def test_criterion_4(brusselator, rand5):
    rng = np.random.default_rng(4)
    for net in (brusselator, rand5):
        for _ in range(50):
            x = rng.uniform(0.3, 3.0, net.n_species)
            j = rng.normal(0.0, 1.5, net.n_edges)
            dissip = CoshDissipation(mass_action_flux(net, x).activity)
            out = flux_split(net, dissip, j)
            assert out["velocity_residual"] < 1e-9
            # dissipation splits exactly across the two legs
            total = dissip.value(j)
            gap = total - dissip.value(out["flux"]) - dissip.bregman(j, out["force"])
            assert abs(gap) < 1e-8 * max(1.0, abs(total))
            if net.n_cycles == 1:
                v = net.cycle_basis[:, 0].astype(float)
                res = minimize_scalar(
                    lambda z: dissip.value(j + v * z),
                    bounds=(-50.0, 50.0),
                    method="bounded",
                    options={"xatol": 1e-12},
                )
                assert np.max(np.abs(j + v * res.x - out["flux"])) < 1e-7


@_criterion(5, "Lyapunov monotonicity and energy balance", budget=30.0)
def test_criterion_5(ab, brusselator_eq, cycle3):
    from crnflow import energy_dissipation_balance, lyapunov_monitor

    cycle3_eq = cycle3.with_rates([2.0, 1.5, 1.0], [0.5, 1.0, 6.0])
    cases = [
        (ab, [1.0, 1.0], 8.0),
        (brusselator_eq, [1.0, 4.0], 12.0),
        (cycle3_eq, [0.1, 0.5, 2.4], 6.0),
    ]
    for net, x0, t_end in cases:
        wc = wegscheider_check(net)
        assert wc["is_equilibrium"]
        x_ref = np.exp(wc["potential"])
        traj = simulate(net, x0, (0.0, t_end), grid=np.linspace(0, t_end, 401), x_ref=x_ref)
        div = traj.ledger["divergence"]
        assert np.all(np.diff(div) <= 1e-10)
        monitor = lyapunov_monitor(net, traj, x_ref)
        assert monitor["nonincreasing"]
        balance = energy_dissipation_balance(net, traj)
        assert abs(balance["gap"]) < max(1e-6, 1e-4 * abs(balance["lhs"]))


@_criterion(6, "entropy production dominates its quadratic bound")
def test_criterion_6(brusselator, cycle3, ab):
    spot = EdgePair(np.array([2.0]), np.array([1.0]))
    assert entropy_production(spot) == pytest.approx(np.log(2.0), abs=1e-12)
    assert pseudo_entropy_production(spot) == pytest.approx(2.0 / 3.0, abs=1e-12)
    runs = [
        (brusselator, [1.0, 4.0], 20.0),
        (cycle3, [0.2, 1.0, 3.0], 5.0),
        (ab, [3.0, 0.1], 6.0),
    ]
    for net, x0, t_end in runs:
        traj = simulate(net, x0, (0.0, t_end), grid=np.linspace(0, t_end, 501))
        epr = traj.ledger["epr"]
        pepr = traj.ledger["pepr"]
        assert np.all(epr >= pepr - 1e-12)
        assert np.all(pepr >= -1e-12)


@_criterion(7, "oscillator closed loop under effective schedules", budget=60.0)
def test_criterion_7(brusselator):
    x0 = np.array([1.0, 4.0])
    grid = np.linspace(0.0, 40.0, 8001)
    traj = simulate(brusselator, x0, (0.0, 40.0), grid=grid)
    states = traj.interpolate(grid)

    # (a) oscillatory: several peaks in x2, each overshoot smaller than the last
    x2 = states[:, 1]
    peaks = np.where((x2[1:-1] > x2[:-2]) & (x2[1:-1] > x2[2:]))[0] + 1
    heights = x2[peaks]
    assert peaks.size >= 3
    swings = np.abs(np.diff(heights))
    assert np.all(swings[1:] < swings[:-1])

    # (b) the equilibrium-type schedule reproduces the trajectory
    sched_eq, cert_eq = effective_equilibrium_rates(brusselator, traj, times=grid)
    assert cert_eq["zeta_residual"].max() < 1e-8
    redo = simulate_timedep(brusselator, x0, (0.0, 40.0), sched_eq, grid=grid)
    deviation = np.max(np.abs(redo.interpolate(grid) - states)) / np.max(np.abs(states))
    assert deviation < 1e-4

    # (c) the steady-type schedule makes every sampled state a steady state
    sched_st, _ = effective_steady_rates(brusselator, traj, times=grid)
    s = brusselator.stoich.astype(float)
    worst = 0.0
    for i, t in enumerate(grid):
        kp, km = sched_st(t)
        worst = max(worst, np.max(np.abs(s @ net_flux_raw(brusselator.with_rates(kp, km), states[i]))))
    assert worst < 1e-8

    # (d) both schedules preserve kappa edgewise
    kappa = np.sqrt(brusselator.kplus * brusselator.kminus)
    for sched in (sched_eq, sched_st):
        drift = np.abs(np.sqrt(sched.kplus * sched.kminus) - kappa) / kappa
        assert np.max(drift) < 1e-12


@_criterion(8, "isosceles force split at complex-balanced reference", budget=10.0)
def test_criterion_8(cycle3):
    x_cb = find_steady_state(cycle3, np.ones(3))
    rng = np.random.default_rng(8)
    for _ in range(100):
        x = rng.uniform(0.2, 4.0, 3)
        out = complex_balance_force_split(cycle3, x, x_cb)
        dissip = CoshDissipation(mass_action_flux(cycle3, x).activity)
        lhs = dissip.dual_value(out["f_sym"] + out["f_anti"])
        rhs = dissip.dual_value(out["f_sym"] - out["f_anti"])
        assert abs(lhs - rhs) < 1e-9
        assert abs(out["level_gap"]) < 1e-9


@_criterion(9, "conserved quantities hold along every run")
def test_criterion_9(ab, abc, cycle3, rand5):
    runs = [
        (ab, [1.0, 1.0], 8.0, 1e-12),
        (abc, [1.0, 2.0, 0.5], 6.0, 1e-12),
        (cycle3, [0.2, 1.0, 3.0], 10.0, 1e-12),
        (rand5, [1.0, 0.5, 2.0, 1.5, 0.8], 5.0, 1e-12),
        # halted run: drift must hold on the partial trajectory too
        (
            build_network(["A", "B"], [(1, 0), (0, 1)], [(0, 1)], [1.0], [1e-15]),
            [1.0, 1.0],
            30.0,
            1e-6,
        ),
    ]
    for net, x0, t_end, floor in runs:
        traj = simulate(
            net, x0, (0.0, t_end), grid=np.linspace(0, t_end, 201), positivity_floor=floor
        )
        if net.n_conserved == 0:
            continue
        eta0 = traj.eta[0]
        drift = np.max(np.abs(traj.eta - eta0), axis=0)
        assert np.all(drift / np.maximum(1.0, np.abs(eta0)) < 1e-6)
