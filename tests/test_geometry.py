import numpy as np
import pytest
from hypergraphs import networks
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from crnflow import (
    ConvergenceError,
    CoshDissipation,
    KLPotential,
    QuadraticDissipation,
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
from crnflow.geometry import _dual_projection


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


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e5, 1e6, 1e7, 1e9])
def test_projection_at_any_scale(abc, scale):
    """A + B <-> C from x0 = (1, 2, 3) scale with x_ref = 1: the leaf keeps
    A + C = 4 scale and B + C = 5 scale, and equilibrium means C = A B, so
    A^2 + (scale + 1) A - 4 scale = 0 (solved without cancellation).
    """
    x0 = np.array([1.0, 2.0, 3.0]) * scale
    a = 8.0 * scale / ((scale + 1.0) + np.sqrt((scale + 1.0) ** 2 + 16.0 * scale))
    want = np.array([a, a + scale, 4.0 * scale - a])
    got = equilibrium_point(abc, x0, np.ones(3))
    assert np.max(np.abs(got / want - 1.0)) < 1e-6
    u = abc.cons_basis.astype(float)
    floor = max(1e-10, 64.0 * np.finfo(float).eps * np.max(np.abs(u @ x0)))
    assert np.max(np.abs(u @ got - u @ x0)) < floor


def test_projection_from_a_far_reference(abc):
    """x0 = (1, 2, 3) 1e-6 with x_ref = 1e9: equilibrium means
    C = A B / 1e9 on the leaf A + C = 4e-6, B + C = 5e-6. The stopping
    floor follows the iterate down to these totals instead of keeping the
    rounding scale of the start, which is 1e15 times larger."""
    s, k = 1e-6, 1e-9
    x0 = np.array([1.0, 2.0, 3.0]) * s
    a = 8.0 * s / ((1.0 + k * s) + np.sqrt((1.0 + k * s) ** 2 + 16.0 * k * s))
    want = np.array([a, a + s, k * a * (a + s)])
    got = equilibrium_point(abc, x0, np.full(3, 1e9))
    assert np.max(np.abs(abc.conserved(got) - abc.conserved(x0))) < 1e-10
    assert np.max(np.abs(got / want - 1.0)) < 1e-4  # tol 1e-10 on totals of 5e-6


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


def test_force_split_from_a_large_gradient_force(brusselator):
    """A pure gradient force of size 60 has no cycle part, so its split
    force and flux are zero. At the start the fluxes are near sinh(30),
    about 5e12; the stopping floor must follow them down, not stay at
    their rounding."""
    diss = _mass_action_dissipation(brusselator, np.array([1.0, 2.0]))
    f = -brusselator.grad(np.array([1.0, -0.5]))
    out = force_split(brusselator, diss, 60.0 * f / np.max(np.abs(f)))
    assert out["iterations"] < 100
    assert out["divergence_residual"] < 1e-9
    assert np.max(np.abs(out["force"])) < 1e-9


def _outside(basis, vec):
    """Sup norm of the part of vec outside the column span of basis."""
    if basis.shape[1] == 0:
        return float(np.max(np.abs(vec)))
    return float(np.max(np.abs(basis @ np.linalg.lstsq(basis, vec, rcond=None)[0] - vec)))


@settings(max_examples=60, deadline=None)
@given(networks(), st.integers(0, 2**32 - 1))
def test_quadratic_splits_are_the_weighted_hodge_split(net, seed):
    """Under QuadraticDissipation(m) both splits are least-squares Hodge
    splits of edge space: a gradient part in im(stoich.T) (for fluxes,
    after dividing by m) and a rest in the cycle space (for forces, after
    multiplying by m), orthogonal in the metric."""
    rng = np.random.default_rng(seed)
    m = np.exp(rng.normal(0.0, 1.0, net.n_edges))
    dissip, w = QuadraticDissipation(m), np.sqrt(m)
    st_, cycles = net.stoich.T.astype(float), net.cycle_basis.astype(float)

    j = rng.normal(0.0, 2.0, net.n_edges)  # min |j - m stoich.T z|_(1/m)
    z = np.linalg.lstsq(w[:, None] * st_, j / w, rcond=None)[0]
    j_grad = m * (st_ @ z)
    out = flux_split(net, dissip, j)
    tol = 1e-8 * (1.0 + np.max(np.abs(j)))
    assert np.max(np.abs(out["flux"] - j_grad)) < tol
    assert np.max(np.abs(out["cycle_part"] - (j - j_grad))) < tol
    assert _outside(st_, out["flux"] / m) < tol
    assert _outside(cycles, out["cycle_part"]) < tol
    assert abs(np.sum(out["flux"] * out["cycle_part"] / m)) < tol * (1.0 + np.max(np.abs(j)))

    f = rng.normal(0.0, 2.0, net.n_edges)  # min |f + stoich.T y|_m
    y = np.linalg.lstsq(w[:, None] * st_, -w * f, rcond=None)[0]
    out = force_split(net, dissip, f)
    tol = 1e-8 * (1.0 + np.max(np.abs(f)))
    assert np.max(np.abs(out["force"] - (f + st_ @ y))) < tol
    gradient = f - out["force"]
    assert _outside(st_, gradient) < tol
    assert _outside(cycles, m * out["force"]) < tol
    assert abs(np.sum(m * gradient * out["force"])) < tol * (1.0 + np.max(np.abs(f)))


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


# -- caller errors and solver failures -------------------------------------


def _projection_calls(brusselator, abc, bad):
    """One call per entry point, each with `bad` in its main input."""
    diss = _mass_action_dissipation(brusselator, np.array([1.0, 4.0]))
    return {
        "equilibrium_point": lambda: equilibrium_point(abc, [1.0, bad, 1.0], [1.0, 1.0, 1.0]),
        "velocity_dual": lambda: velocity_dual(brusselator, diss, [bad, 0.0]),
        "flux_split": lambda: flux_split(brusselator, diss, [1.0, bad, 0.0]),
        "force_split": lambda: force_split(brusselator, diss, [0.0, bad, 1.0]),
        "cycle_dual": lambda: cycle_dual(brusselator, diss, [bad]),
        "warm start": lambda: _dual_projection(
            diss, brusselator.reduced_stoich, np.zeros(2), np.array([0.0, 1.0, 1.0]), [0.0, bad], 1e-10, 100, "force_split"
        ),
    }


# an infinite input meets a zero in a matmul (inf * 0) before the check
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "name, projection",
    [
        ("equilibrium_point", "equilibrium_point"),
        ("velocity_dual", "velocity_dual"),
        ("flux_split", "velocity_dual"),
        ("force_split", "force_split"),
        ("cycle_dual", "force_split"),
        ("warm start", "force_split"),
    ],
)
def test_non_finite_input_is_a_value_error(brusselator, abc, name, projection, bad):
    with pytest.raises(ValueError, match=f"^{projection}: input must be finite$"):
        _projection_calls(brusselator, abc, bad)[name]()


def test_solver_failure_reports_the_last_iterate(brusselator, abc):
    diss = _mass_action_dissipation(brusselator, np.array([1.0, 4.0]))
    far = {
        "equilibrium_point": (lambda: equilibrium_point(abc, [50.0, 0.02, 7.0], [1.0, 1.0, 1.0], max_iter=1), abc.n_conserved),
        "velocity_dual": (lambda: velocity_dual(brusselator, diss, [40.0, -25.0], max_iter=1), len(brusselator.reduced_stoich)),
        "force_split": (lambda: force_split(brusselator, diss, [12.0, -9.0, 15.0], max_iter=1), len(brusselator.reduced_stoich)),
    }
    for name, (call, n_reduced) in far.items():
        with pytest.raises(ConvergenceError) as err:
            call()
        assert str(err.value).startswith(f"{name}: no convergence in 1 iterations")
        assert err.value.iterations == 1
        assert err.value.best.shape == (n_reduced,)
        assert err.value.residual > 1e-10
