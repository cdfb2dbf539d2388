"""The batched kinetics against the per-sample code it replaced.

tests/kinetics_oracle.py keeps the previous per-row implementations of the
fluxes, the ledger, the Lyapunov monitor, the energy balance, the rate
schedule (np.interp) and the effective-schedule loops, and the previous
geometry solvers: one generic Newton loop fed per-solver closures. Every
comparison here is exact (same shapes, same bytes, NaN rows and signed
zeros included) except equilibrium_point under a diagonal-Hessian
potential with two or more conserved quantities, whose Hessian rounds
differently (test_projection_kl_hessian_rounding). Also times one flux
evaluation on a 200x400 hypergraph.
"""

import dataclasses
import time
from unittest import mock

import kinetics_oracle as oracle
import numpy as np
import pytest
from hypergraphs import chain_hypergraph, networks
from hypothesis import given, settings
from hypothesis import strategies as st

from crnflow import (
    ConvergenceError,
    CoshDissipation,
    KLPotential,
    QuadraticDissipation,
    QuadraticPotential,
    RateSchedule,
    Trajectory,
    build_network,
    effective_equilibrium_rates,
    effective_steady_rates,
    energy_dissipation_balance,
    lyapunov_monitor,
    mass_action_flux,
    net_flux_raw,
    simulate,
    simulate_timedep,
)
from crnflow import geometry
from crnflow.dynamics import LEDGER_KEYS, _ledger_rows

SEEDS = st.integers(0, 2**32 - 1)


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _same_ledger(got, want):
    for key in LEDGER_KEYS:
        _same(got[0][key], want[0][key])
    _same(got[1], want[1])


@st.composite
def states(draw, n_species, min_rows=1, max_rows=30, nonpositive=True):
    """(T, n) states, log-normal; some entries zero or negative; C or F order."""
    rng = np.random.default_rng(draw(SEEDS))
    x = np.exp(rng.normal(0.0, 1.5, (draw(st.integers(min_rows, max_rows)), n_species)))
    if nonpositive:
        bad = rng.random(x.shape) < draw(st.sampled_from([0.0, 0.05, 0.3]))
        x[bad] = rng.choice([0.0, -0.0, -1e-9, -0.5], size=int(bad.sum()))
    return np.asfortranarray(x) if draw(st.booleans()) else x


@st.composite
def schedules(draw, times, n_edges):
    """Knots drawn from the ledger times and around them, so rows fall before
    the first knot, on knots, between them and past the last one."""
    rng = np.random.default_rng(draw(SEEDS))
    picks = rng.choice(times, size=draw(st.integers(0, len(times))))
    knots = np.unique(np.concatenate([picks, rng.uniform(times[0] - 1.0, times[-1] + 1.0, 2)]))
    shape = (knots.size, n_edges)
    kp = rng.uniform(0.1, 5.0, shape)
    kp[rng.random(shape) < 0.3] = 1.0  # flat stretches
    return RateSchedule(knots, kp, rng.uniform(0.1, 5.0, shape))


def _trajectory(net, xs, times=None):
    times = np.arange(len(xs), dtype=float) if times is None else times
    return Trajectory(times, xs, {}, np.zeros((len(xs), 0)), net.species)


@settings(max_examples=60, deadline=None)
@given(networks(), st.data())
def test_fluxes_match_oracle(net, data):
    xs = data.draw(states(net.n_species))
    for x in xs:
        _same(net_flux_raw(net, x), oracle.net_flux_raw(net, x))
        if np.all(x > 0):
            got, want = mass_action_flux(net, x), oracle.mass_action_flux(net, x)
            _same(got.jplus, want.jplus)
            _same(got.jminus, want.jminus)


@settings(max_examples=60, deadline=None)
@given(networks(), st.data())
def test_ledger_rows_match_oracle(net, data):
    xs = data.draw(states(net.n_species))
    times = np.cumsum(np.random.default_rng(data.draw(SEEDS)).uniform(0.01, 1.0, len(xs)))
    x_ref = data.draw(st.none() | st.lists(st.floats(0.1, 10.0), min_size=net.n_species, max_size=net.n_species))
    schedule = data.draw(st.none() | schedules(times, net.n_edges))
    got = _ledger_rows(net, times, xs, x_ref, schedule)
    _same_ledger(got, oracle._ledger_rows(net, times, xs, x_ref, schedule))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(1, 4), SEEDS)
def test_schedule_matches_interp(n_knots, n_edges, seed):
    rng = np.random.default_rng(seed)
    knots = rng.normal() + np.cumsum(rng.uniform(1e-3, 2.0, n_knots))
    shape = (n_knots, n_edges)
    kp = rng.uniform(0.1, 5.0, shape)
    kp[rng.random(shape) < 0.3] = 2.0
    sched = RateSchedule(knots, kp, np.exp(rng.normal(0.0, 3.0, shape)))
    inside = rng.uniform(knots[0], knots[-1], 8)
    ts = np.concatenate([
        knots, [knots[0] - 1.0, knots[-1] + 1.0], inside,
        0.5 * (knots[1:] + knots[:-1]), np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
    ])
    table_kp, table_km = sched(ts)
    for i, t in enumerate(ts):
        want_kp, want_km = oracle.schedule_rates(sched, t)
        for got_kp, got_km in (sched(t), sched(float(t)), (table_kp[i], table_km[i])):
            _same(got_kp, want_kp)
            _same(got_km, want_km)


@settings(max_examples=40, deadline=None)
@given(networks(), st.data())
def test_monitors_match_oracle(net, data):
    traj = _trajectory(net, data.draw(states(net.n_species)))
    x_ref = np.exp(np.random.default_rng(data.draw(SEEDS)).normal(0.0, 1.0, net.n_species))
    got, want = lyapunov_monitor(net, traj, x_ref), oracle.lyapunov_monitor(net, traj, x_ref)
    assert got.keys() == want.keys()
    for key in got:
        _same(got[key], want[key])
    # the energy balance needs rates of the equilibrium class and positive states
    rng = np.random.default_rng(data.draw(SEEDS))
    root = np.sqrt(np.exp(-net.stoich.T @ rng.normal(0.0, 1.0, net.n_species)))
    kappa = rng.uniform(0.2, 5.0, net.n_edges)
    eq = net.with_rates(kappa * root, kappa / root)
    traj = _trajectory(eq, data.draw(states(net.n_species, min_rows=3, nonpositive=False)))
    got, want = energy_dissipation_balance(eq, traj), oracle.energy_dissipation_balance(eq, traj)
    for key in ("lhs", "rhs", "gap", "reference"):
        _same(got[key], want[key])


def _assert_effective_match(net, traj, times=None, max_iter=100):
    pairs = (
        (effective_equilibrium_rates, oracle.effective_equilibrium_rates),
        (effective_steady_rates, oracle.effective_steady_rates),
    )
    for new, old in pairs:
        try:
            want_tables, want_cert = old(net, traj, times, max_iter=max_iter)
        except ConvergenceError as err:
            with pytest.raises(ConvergenceError) as got:
                new(net, traj, times, max_iter=max_iter)
            _same_outcome(got.value, err)
            continue
        schedule, cert = new(net, traj, times, max_iter=max_iter)
        for got, want in zip((schedule.times, schedule.kplus, schedule.kminus), want_tables):
            _same(got, want)
        assert list(cert) == list(want_cert)
        for key in cert:
            _same(cert[key], want_cert[key])


@settings(max_examples=25, deadline=None)
@given(networks(), st.data())
def test_effective_rates_match_oracle(net, data):
    xs = data.draw(states(net.n_species, min_rows=2, max_rows=6, nonpositive=False))
    max_iter = data.draw(st.sampled_from([1, 3, 100]))
    for order in "CF":  # interpolated samples come F-ordered
        _assert_effective_match(net, _trajectory(net, np.array(xs, order=order)), max_iter=max_iter)


def test_long_runs_match_oracle(brusselator, brusselator_eq):
    """Thousands of rows, where numpy runs some loops differently."""
    grid = np.linspace(0.0, 8.0, 801)
    traj = simulate(brusselator, [1.0, 4.0], 8.0, grid=grid)
    _assert_effective_match(brusselator, traj, grid)
    schedule, _ = effective_equilibrium_rates(brusselator, traj, grid)
    fine = np.linspace(0.0, 8.0, 4001)
    redo = simulate_timedep(brusselator, [1.0, 4.0], (0.0, 8.0), schedule, grid=fine, x_ref=[1.0, 3.0])
    want = oracle._ledger_rows(brusselator, redo.times, redo.states, [1.0, 3.0], schedule)
    _same_ledger((redo.ledger, redo.eta), want)
    got, want = lyapunov_monitor(brusselator, redo, [1.0, 3.0]), oracle.lyapunov_monitor(brusselator, redo, [1.0, 3.0])
    _same(got["derivative"], want["derivative"])
    eq = simulate(brusselator_eq, [1.0, 4.0], 5.0)
    got, want = energy_dissipation_balance(brusselator_eq, eq), oracle.energy_dissipation_balance(brusselator_eq, eq)
    _same(got["rhs"], want["rhs"])


def test_large_velocities_match_oracle(brusselator):
    """Velocities near 1e8, where both projections stop at their rounding
    floor rather than at tol: the velocity projection's scales with max|b|,
    the steady model's force projection (b = 0) with the fluxes. Both
    schedules converge, and match the oracle."""
    xs = np.array([[300.0, 600.0], [350.0, 500.0], [400.0, 450.0]])
    q = brusselator.stoich_image
    b = q.T @ (-brusselator.stoich @ mass_action_flux(brusselator, xs[0]).flux)
    assert 64.0 * np.finfo(float).eps * np.max(np.abs(b)) > 1e-10
    traj = _trajectory(brusselator, xs)
    for rates in (effective_equilibrium_rates, effective_steady_rates):
        assert np.all(rates(brusselator, traj)[1]["iterations"] < 100)
    _assert_effective_match(brusselator, traj)


def _outcome(name, *args, **kwargs):
    try:
        return getattr(geometry, name)(*args, **kwargs)
    except ConvergenceError as err:
        return err


def _same_outcome(got, want):
    if isinstance(want, ConvergenceError):
        assert isinstance(got, ConvergenceError) and str(got) == str(want)
        assert got.iterations == want.iterations
        _same(got.best, want.best)
        _same(got.residual, want.residual)
    elif isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            _same(got[key], want[key])
    else:
        _same(got, want)


@settings(max_examples=80, deadline=None)
@given(networks(), st.data())
def test_projections_match_oracle(net, data):
    """Every dual-coordinate projection against the generic Newton loop."""
    rng = np.random.default_rng(data.draw(SEEDS))
    n, m = net.n_species, net.n_edges
    if data.draw(st.booleans()):
        potential = KLPotential(n=n)
        x_ref = np.exp(rng.normal(0.0, 1.0, n))
    else:
        root = rng.normal(0.0, 1.0, (n, n))
        potential = QuadraticPotential(root @ root.T + n * np.eye(n), rng.normal(0.0, 1.0, n))
        x_ref = rng.normal(0.0, 2.0, n)
    if data.draw(st.booleans()):
        dissip = CoshDissipation(np.exp(rng.normal(0.0, 1.0, m)))
    else:
        dissip = QuadraticDissipation(np.exp(rng.normal(0.0, 1.0, m)))
    limits = {"tol": 1e-10, "max_iter": data.draw(st.sampled_from([1, 3, 100]))}
    x0 = np.exp(rng.normal(0.0, 1.0, n))
    j = rng.normal(0.0, 2.0, m)
    calls = {
        "equilibrium_point": (net, x0, x_ref, potential),
        "velocity_dual": (net, dissip, -net.stoich @ j),
        "flux_split": (net, dissip, j),
        "force_split": (net, dissip, rng.normal(0.0, 2.0, m)),
        "cycle_dual": (net, dissip, rng.normal(0.0, 2.0, net.n_cycles)),
    }
    # flux_split and cycle_dual reach the oracle through the names they call
    old = {name: getattr(oracle, name) for name in ("equilibrium_point", "velocity_dual", "force_split")}
    with mock.patch.multiple(geometry, **old):
        want = {name: _outcome(name, *args, **limits) for name, args in calls.items()}
    got = {name: _outcome(name, *args, **limits) for name, args in calls.items()}
    if isinstance(potential, KLPotential) and net.n_conserved > 1:
        # off-diagonal Hessian entries may round differently: see
        # test_projection_kl_hessian_rounding
        got_x, want_x = got.pop("equilibrium_point"), want.pop("equilibrium_point")
        if isinstance(want_x, ConvergenceError):
            assert isinstance(got_x, ConvergenceError) and str(got_x) == str(want_x)
        else:
            assert np.allclose(got_x, want_x, rtol=1e-11, atol=0.0)
    for name in got:
        _same_outcome(got[name], want[name])


def test_projection_kl_hessian_rounding():
    """The one place the shared projection is not bit-identical to the oracle.

    The oracle built the KL Hessian as u diag(d) u.T, the projection builds
    u (d u.T), its transpose. Off-diagonal entries, which exist only with
    two or more conserved quantities, can round differently: with the rows
    (1, 0, 3) and (0, 1, 5), (3 d) 5 and 3 (d 5) differ in about four
    cases in ten. The Newton iterates then differ in the last bits; the
    results agree to 1e-11 relative and both meet the conserved-quantity
    tolerance.
    """
    net = build_network(["A", "B", "C"], [(3, 5, 0), (0, 0, 1)], [(0, 1)], [1.0], [1.0])
    assert net.cons_basis.tolist() == [[1, 0, 3], [0, 1, 5]]
    u = net.cons_basis.astype(float)
    rng = np.random.default_rng(5)
    for _ in range(200):
        x0, x_ref = np.exp(rng.normal(0.0, 2.0, (2, 3)))
        got = geometry.equilibrium_point(net, x0, x_ref)
        want = oracle.equilibrium_point(net, x0, x_ref, KLPotential(n=3))
        assert np.allclose(got, want, rtol=1e-11, atol=0.0)
        assert np.max(np.abs(u @ got - u @ x0)) < 1e-10


def test_square_on_one_species_one_edge_matches_oracle():
    """numpy takes x ** E for a 1x1 exponent matrix as x * x, not pow."""
    net = build_network(["A"], [(2,), (0,)], [(0, 1)], [1.5], [0.7])
    xs = np.exp(np.random.default_rng(0).normal(0.0, 2.0, (6000, 1)))
    for x in xs[:500]:
        _same(mass_action_flux(net, x).jplus, oracle.mass_action_flux(net, x).jplus)
    times = np.arange(len(xs), dtype=float)
    _same_ledger(_ledger_rows(net, times, xs, None, None), oracle._ledger_rows(net, times, xs, None, None))


def test_structure_is_stored_and_flux_is_fast():
    """ROADMAP item 2 target: one flux call at 200x400 well under 2 ms."""
    verts, edges, _ = chain_hypergraph(200, 400, 3)
    rng = np.random.default_rng(3)
    net = build_network([f"S{i}" for i in range(200)], verts, edges, rng.uniform(0.5, 2.0, 400), rng.uniform(0.5, 2.0, 400))
    fields = {f.name for f in dataclasses.fields(net)}
    assert {"head_compositions", "tail_compositions", "factors", "stoich_image", "reduced_stoich"} <= fields
    assert net.head_compositions is net.head_compositions
    assert net.with_rates(net.kminus, net.kplus).factors is net.factors
    x = rng.uniform(0.5, 2.0, 200)
    laps = []
    for _ in range(50):
        start = time.perf_counter()
        mass_action_flux(net, x)
        laps.append(time.perf_counter() - start)
    assert np.median(laps) < 2e-3
    _same(mass_action_flux(net, x).jplus, oracle.mass_action_flux(net, x).jplus)
