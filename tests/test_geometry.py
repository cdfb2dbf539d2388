import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from crnflow import (
    CoshDissipation,
    KLPotential,
    QuadraticPotential,
    complex_balance_force_split,
    cycle_dual,
    effective_equilibrium_rates,
    effective_steady_rates,
    equilibrium_point,
    find_steady_state,
    flux_split,
    force_split,
    mass_action_flux,
    pseudo_hilbert_split,
    pythagoras_gap,
    simulate,
    simulate_timedep,
    velocity_dual,
    wegscheider_check,
)


def _mass_action_dissipation(net, x):
    return CoshDissipation(mass_action_flux(net, x).activity)


# -- Bregman projection onto a leaf --------------------------------------


def test_two_state_projection(ab):
    wc = wegscheider_check(ab)
    x_ref = np.exp(wc["potential"])  # detailed-balance profile, gauge-free
    x_eq = equilibrium_point(ab, [1.0, 1.0], x_ref)
    assert np.max(np.abs(x_eq - [2.0 / 3.0, 4.0 / 3.0])) < 1e-10


def test_projection_kkt_conditions(abc):
    x0 = np.array([0.7, 1.1, 0.4])
    x_ref = np.array([0.2, 0.9, 1.3])
    x_eq = equilibrium_point(abc, x0, x_ref)
    u = abc.cons_basis.astype(float)
    assert np.max(np.abs(u @ (x_eq - x0))) < 1e-10
    # dual difference lies in the conserved span: stoich.T kills it
    d = np.log(x_eq / x_ref)
    assert np.max(np.abs(abc.stoich.T @ d)) < 1e-9


def test_projection_gauge_invariance(abc):
    x0 = np.array([0.7, 1.1, 0.4])
    x_ref = np.array([0.2, 0.9, 1.3])
    c = np.array([0.4, -0.7])
    x_ref2 = x_ref * np.exp(abc.cons_basis.T.astype(float) @ c)
    a = equilibrium_point(abc, x0, x_ref)
    b = equilibrium_point(abc, x0, x_ref2)
    assert np.max(np.abs(a - b)) < 1e-9


def test_projection_without_conserved_quantities(brusselator):
    x_ref = np.array([0.8, 1.7])
    assert np.allclose(equilibrium_point(brusselator, [1.0, 4.0], x_ref), x_ref)


def test_projection_quadratic_potential_matches_kkt_solve(abc):
    rng = np.random.default_rng(5)
    m = rng.normal(size=(3, 3))
    spd = m @ m.T + 3 * np.eye(3)
    pot = QuadraticPotential(spd, np.zeros(3))
    x0 = rng.uniform(0.5, 2.0, 3)
    x_ref = rng.uniform(0.5, 2.0, 3)
    got = equilibrium_point(abc, x0, x_ref, potential=pot)
    # analytic equality-constrained quadratic minimum
    u = abc.cons_basis.astype(float)
    kkt = np.block([[spd, u.T], [u, np.zeros((2, 2))]])
    rhs = np.concatenate([spd @ x_ref, u @ x0])
    want = np.linalg.solve(kkt, rhs)[:3]
    assert np.max(np.abs(got - want)) < 1e-9


def test_pythagoras_identity(abc):
    x0 = np.array([0.7, 1.1, 0.4])
    x_ref = np.array([0.2, 0.9, 1.3])
    x_eq = equilibrium_point(abc, x0, x_ref)
    out = pythagoras_gap(abc, x0, x_eq, x_ref)
    assert abs(out["gap"]) < 1e-9 * (1.0 + out["total"])
    assert out["total"] >= out["leg_near"] >= 0.0


def test_pythagoras_membership_checks(abc):
    pot = KLPotential(n=3)
    with pytest.raises(ValueError, match="different leaves"):
        pythagoras_gap(abc, [1.0, 1.0, 1.0], [2.0, 1.0, 1.0], [1.0, 1.0, 1.0], potential=pot)
    with pytest.raises(ValueError, match="conserved span"):
        pythagoras_gap(abc, [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [2.0, 1.0, 1.0], potential=pot)


# -- velocity/potential duality ------------------------------------------


def test_velocity_dual_matches_velocity(brusselator):
    x = np.array([1.0, 4.0])
    diss = _mass_action_dissipation(brusselator, x)
    pair = mass_action_flux(brusselator, x)
    v = -brusselator.stoich.astype(float) @ pair.flux
    out = velocity_dual(brusselator, diss, v)
    assert out["velocity_residual"] < 1e-9
    # Fenchel-Young on the induced pair
    fy = out["value"] + out["dual_value"] - float(v @ out["u"])
    assert abs(fy) < 1e-9 * (1.0 + abs(out["value"]))
    # a gradient force carries no cycle affinity
    assert np.max(np.abs(brusselator.curl(out["force"]))) < 1e-12


def test_velocity_dual_rejects_unrealizable(abc):
    diss = _mass_action_dissipation(abc, np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="not realizable"):
        velocity_dual(abc, diss, np.array([1.0, 0.0, 0.0]))


def test_velocity_dual_zero_velocity(brusselator):
    diss = _mass_action_dissipation(brusselator, np.array([1.0, 4.0]))
    out = velocity_dual(brusselator, diss, np.zeros(2))
    assert np.max(np.abs(out["flux"])) < 1e-12
    assert out["iterations"] == 0


# -- flux and force splits -------------------------------------------------


def test_flux_split_certificates(brusselator, rand5):
    rng = np.random.default_rng(21)
    for net in (brusselator, rand5):
        for _ in range(20):
            x = rng.uniform(0.2, 3.0, net.n_species)
            j = rng.normal(0.0, 1.5, net.n_edges)
            diss = _mass_action_dissipation(net, x)
            out = flux_split(net, diss, j)
            # same divergence
            assert np.max(np.abs(net.stoich @ (j - out["flux"]))) < 1e-9
            # residual orthogonal to the gradient force
            assert abs(out["cycle_part"] @ out["force"]) < 1e-9
            # generalized Pythagoras: psi(j) = psi(j_eq) + mixed gap
            mixed = diss.value(j) + diss.dual_value(out["force"]) - float(j @ out["force"])
            gap = diss.value(j) - out["value"] - mixed
            assert abs(gap) < 1e-8 * (1.0 + abs(diss.value(j)))


def test_flux_split_idempotent(brusselator):
    x = np.array([0.6, 2.0])
    diss = _mass_action_dissipation(brusselator, x)
    j = mass_action_flux(brusselator, x).flux
    once = flux_split(brusselator, diss, j)
    again = flux_split(brusselator, diss, once["flux"])
    assert np.max(np.abs(again["flux"] - once["flux"])) < 1e-9
    assert np.max(np.abs(again["cycle_part"])) < 1e-9


def test_flux_split_agrees_with_bruteforce_1d(brusselator):
    # cycle space is one dimensional: scan psi over j + s * cycle directly
    rng = np.random.default_rng(33)
    vcol = brusselator.cycle_basis.astype(float)[:, 0]
    for _ in range(10):
        x = rng.uniform(0.2, 3.0, 2)
        j = rng.normal(0.0, 1.5, 3)
        diss = _mass_action_dissipation(brusselator, x)
        out = flux_split(brusselator, diss, j)
        res = minimize_scalar(lambda s: diss.value(j + s * vcol), bracket=(-3.0, 3.0))
        brute = j + res.x * vcol
        assert np.max(np.abs(brute - out["flux"])) < 1e-7


def test_force_split_certificates(brusselator, rand5):
    rng = np.random.default_rng(4)
    for net in (brusselator, rand5):
        for _ in range(20):
            x = rng.uniform(0.2, 3.0, net.n_species)
            f = rng.normal(0.0, 1.0, net.n_edges)
            diss = _mass_action_dissipation(net, x)
            out = force_split(net, diss, f)
            assert out["divergence_residual"] < 1e-9
            assert np.max(np.abs(net.curl(out["force"]) - net.curl(f))) < 1e-12
            # the shift is a pure gradient
            resid = np.linalg.lstsq(net.stoich.T.astype(float), out["shift"], rcond=None)[1]
            if resid.size:
                assert float(resid[0]) < 1e-18


def test_cycle_duality(brusselator):
    x = np.array([1.0, 4.0])
    diss = _mass_action_dissipation(brusselator, x)
    pair = mass_action_flux(brusselator, x)
    zeta = brusselator.curl(pair.force)
    out = cycle_dual(brusselator, diss, zeta)
    fy = out["value"] + out["dual_value"] - float(out["z"] @ zeta)
    assert abs(fy) < 1e-9 * (1.0 + abs(out["value"]))
    assert out["representation_residual"] < 1e-8
    assert np.max(np.abs(brusselator.curl(out["force"]) - zeta)) < 1e-9
    assert out["divergence_residual"] < 1e-9


def test_cycle_dual_tree_network(abc):
    diss = _mass_action_dissipation(abc, np.array([1.0, 1.0, 1.0]))
    out = cycle_dual(abc, diss, np.zeros(0))
    assert out["z"].size == 0
    assert np.max(np.abs(out["flux"])) < 1e-12
    with pytest.raises(ValueError, match="cycle affinities"):
        cycle_dual(abc, diss, np.array([1.0]))


# -- pseudo-Hilbert and complex-balance splits -----------------------------


def test_pseudo_hilbert_requires_level_set(brusselator):
    diss = _mass_action_dissipation(brusselator, np.array([1.0, 4.0]))
    f = mass_action_flux(brusselator, np.array([1.0, 4.0])).force
    with pytest.raises(ValueError, match="level set"):
        pseudo_hilbert_split(diss, f, 2.0 * f)


def test_pseudo_hilbert_split_nonnegative_pairings(cycle3):
    x_cb = find_steady_state(cycle3, [1.0, 1.0, 1.0])
    rng = np.random.default_rng(8)
    for _ in range(25):
        x = rng.uniform(0.2, 3.0, 3)
        cb = complex_balance_force_split(cycle3, x, x_cb)
        diss = cb["dissipation"]
        f = cb["force"]
        f_ref = cb["f_sym"] - cb["f_anti"]
        out = pseudo_hilbert_split(diss, f, f_ref)
        assert np.max(np.abs(out["f_sym"] - cb["f_sym"])) < 1e-12
        assert np.max(np.abs(out["f_anti"] - cb["f_anti"])) < 1e-12
        assert out["pairing_sym"] >= -1e-12
        assert out["pairing_anti"] >= -1e-12
        assert abs(out["anti_identity_gap"]) < 1e-10 * (1.0 + abs(out["pairing_anti"]))
        assert abs(out["sym_identity_gap"]) < 1e-10 * (1.0 + abs(out["pairing_sym"]))
        # the two pairings add up to the EPR
        epr = float(diss.dual_grad(f) @ f)
        assert abs(out["pairing_sym"] + out["pairing_anti"] - epr) < 1e-10 * (1.0 + epr)


def test_complex_balance_split_structure(cycle3):
    x_cb = find_steady_state(cycle3, [1.0, 1.0, 1.0])
    a = complex_balance_force_split(cycle3, np.array([2.0, 0.5, 1.0]), x_cb)
    b = complex_balance_force_split(cycle3, np.array([0.3, 1.8, 0.9]), x_cb)
    assert a["split_gap"] < 1e-12
    assert b["split_gap"] < 1e-12
    # the antisymmetric part depends only on the reference
    assert np.max(np.abs(a["f_anti"] - b["f_anti"])) < 1e-12
    assert abs(a["level_gap"]) < 1e-9
    # the symmetric part vanishes at the reference itself
    at_ref = complex_balance_force_split(cycle3, x_cb, x_cb)
    assert np.max(np.abs(at_ref["f_sym"])) < 1e-12


def test_complex_balance_split_rejects_transient_reference(cycle3):
    with pytest.raises(ValueError, match="not complex balanced"):
        complex_balance_force_split(cycle3, np.array([1.0, 1.0, 1.0]), np.array([3.0, 1.0, 1.0]))


# -- effective rate schedules ----------------------------------------------


def test_effective_equilibrium_certificates(brusselator):
    grid = np.linspace(0.0, 2.0, 41)
    traj = simulate(brusselator, [1.0, 4.0], 2.0, grid=grid)
    schedule, cert = effective_equilibrium_rates(brusselator, traj, times=grid)
    assert np.max(cert["zeta_residual"]) < 1e-8
    assert np.max(cert["velocity_residual"]) < 1e-7
    kappa = np.sqrt(brusselator.kplus * brusselator.kminus)
    assert np.max(np.abs(np.sqrt(schedule.kplus * schedule.kminus) - kappa)) < 1e-12


def test_effective_steady_certificates(brusselator):
    grid = np.linspace(0.0, 2.0, 41)
    traj = simulate(brusselator, [1.0, 4.0], 2.0, grid=grid)
    schedule, cert = effective_steady_rates(brusselator, traj, times=grid)
    assert np.max(cert["steady_residual"]) < 1e-8
    assert np.max(cert["affinity_residual"]) < 1e-9
    kappa = np.sqrt(brusselator.kplus * brusselator.kminus)
    assert np.max(np.abs(np.sqrt(schedule.kplus * schedule.kminus) - kappa)) < 1e-12


def test_effective_schedule_closed_loop_short(brusselator):
    grid = np.linspace(0.0, 2.0, 401)
    traj = simulate(brusselator, [1.0, 4.0], 2.0, grid=grid)
    schedule, _ = effective_equilibrium_rates(brusselator, traj, times=grid)
    redo = simulate_timedep(brusselator, [1.0, 4.0], 2.0, schedule, grid=grid)
    dev = np.max(np.abs(redo.interpolate(grid) - traj.interpolate(grid)))
    assert dev / np.max(np.abs(traj.interpolate(grid))) < 1e-4


@pytest.mark.parametrize("rates", [effective_equilibrium_rates, effective_steady_rates])
@pytest.mark.parametrize("times", [np.linspace(0.0, 3.0, 31), np.linspace(-0.5, 1.0, 16)])
def test_effective_schedules_refuse_to_extrapolate(brusselator, rates, times):
    traj = simulate(brusselator, [1.0, 4.0], 1.0)
    with pytest.raises(ValueError, match="time span"):
        rates(brusselator, traj, times=times)
