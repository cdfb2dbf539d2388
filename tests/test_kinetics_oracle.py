"""The batched kinetics against the per-sample code it replaced, and the
one-state flux closure against the flux functions and the batch rows.

tests/kinetics_oracle.py keeps the previous per-row implementations of the
fluxes, the ledger, the Lyapunov monitor, the energy balance, the rate
schedule (np.interp) and the effective-schedule loops, the previous
geometry solvers (one generic Newton loop fed per-solver closures) and
the former log-domain force/activity formula. Every comparison here is
exact (same shapes, same bytes, NaN rows and signed zeros included)
except three: equilibrium_point under a diagonal-Hessian potential with
two or more conserved quantities, whose Hessian rounds differently
(test_projection_kl_hessian_rounding); the batched schedules against the
serial chain of warm starts they replaced, which agree within a bound
derived from the stop (the bit-exact comparison is with the oracle's
one-pass loops);
and force/activity against the log-domain formula, a different
computation that agrees to a stated rounding bound. Also times one flux
evaluation on a 200x400 hypergraph.
"""

import dataclasses
import time
import tracemalloc
from unittest import mock

import kinetics_oracle as oracle
import numpy as np
import pytest
from hypergraphs import chain_hypergraph, networks
from hypothesis import example, given, settings
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
    flux_split,
    lyapunov_monitor,
    mass_action_flux,
    net_flux_raw,
    simulate,
    simulate_timedep,
)
from crnflow import geometry, kinetics
from crnflow.geometry import _dual_projection
from crnflow.dynamics import LEDGER_KEYS, _rhs, ledger
from crnflow.kinetics import _BATCH_ROWS, EdgePair, _one_way, one_way_kernel

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


def _trajectory(net, xs, times=None, schedule=None):
    times = np.arange(len(xs), dtype=float) if times is None else times
    return Trajectory(times, xs, net.species, schedule)


@settings(max_examples=60, deadline=None)
@given(networks(), st.data())
def test_fluxes_match_oracle(net, data):
    xs = data.draw(states(net.n_species))
    # other rates, through the checked door
    kp, km = np.exp(np.random.default_rng(data.draw(SEEDS)).normal(0.0, 2.0, (2, net.n_edges)))
    for x in xs:
        _same(net_flux_raw(net, x), oracle.net_flux_raw(net, x))
        _same(net_flux_raw(net.with_rates(kp, km), x), oracle.net_flux_raw(net, x, kp, km))
        if np.all(x > 0):
            got, want = mass_action_flux(net, x), oracle.mass_action_flux(net, x)
            _same(got.jplus, want.jplus)
            _same(got.jminus, want.jminus)


@st.composite
def schedule_and_times(draw, n_edges):
    """A schedule, and times on, between, before and after its knots, at
    both signed zeros and NaN."""
    rng = np.random.default_rng(draw(SEEDS))
    knots = np.sort(rng.uniform(-2.0, 2.0, draw(st.integers(2, 6))))
    shape = (knots.size, n_edges)
    sched = RateSchedule(knots, rng.uniform(0.1, 5.0, shape), rng.uniform(0.1, 5.0, shape))
    between = knots[:-1] + rng.random(knots.size - 1) * np.diff(knots)
    edges = [np.nextafter(knots[0], np.inf), np.nextafter(knots[-1], -np.inf), knots[0] - 1.0, knots[-1] + 1.0]
    return sched, [float(t) for t in [*knots, *between, *edges, 0.0, -0.0, np.nan]]


@pytest.mark.bitwise
@settings(max_examples=60, deadline=None)
@given(networks(), st.data())
def test_rhs_closure_matches_the_flux_functions(net, data):
    """The right-hand side built once per integration against the one it
    replaced, -stoich_f @ net_flux_raw under the rates at t, and the closure's
    one-way fluxes against the batch rows of _one_way: the same bytes at
    states with zero and negative components, under the network's rates
    and a schedule's."""
    xs = data.draw(states(net.n_species, max_rows=8))
    sched, times = data.draw(schedule_and_times(net.n_edges))
    n = net.n_edges
    for schedule, ts in ((None, [0.0]), (sched, times)):
        rhs = _rhs(net, schedule)
        kernel = one_way_kernel(net, row=None if schedule is None else schedule._row)
        for t in ts:
            rates = (None, None) if schedule is None else schedule(t)
            table = None if schedule is None else np.concatenate(rates)[None]
            at_t = net if schedule is None else net.with_rates(*rates)
            for x in xs:
                _same(rhs(t, x), -net.stoich_f @ net_flux_raw(at_t, x))
                w = kernel(t, x)
                jp, jm = _one_way(net, x[None], table)
                _same(w[:n], jp[0])
                _same(w[n:], jm[0])


@pytest.mark.bitwise
def test_rhs_keeps_the_sign_of_a_zero_on_one_species_one_edge():
    """ndarray.dot takes a 1 x 1 matrix for a scalar: -1 * 0.0 is -0.0 there, where @ gives +0.0."""
    net = build_network(["A"], [(1,), (2,)], [(0, 1)], [1.5], [1.5])
    for x in ([0.0], [1.0], [-0.0], [2.0]):
        x = np.array(x)
        _same(_rhs(net, None)(0.0, x), -net.stoich_f @ net_flux_raw(net, x))


# bound on the gap between the two force/activity formulas, in units of
# eps times the scale of the terms summed (see the test); 1,500 random
# networks at 5 states each came within 1 of these units
FORCE_ACTIVITY_ULPS = 8


@settings(max_examples=60, deadline=None)
@given(networks(), st.data())
def test_force_activity_match_log_domain_oracle(net, data):
    """force = log(jplus / jminus) and activity = 2 sqrt(jplus jminus) agree
    with the log-domain formula log K + stoich.T log x and 2 kappa
    exp(0.5 (head + tail).T log x). With s = 1 + |log kplus| + |log kminus|
    + |stoich|.T |log x|, the force may differ by 8 eps s absolute and the
    activity by 8 eps (1 + 0.5 (|log kplus| + |log kminus| + (head +
    tail).T |log x|)) relative; w sinh(f / 2) = flux holds up to
    8 eps (s + |f|) (jplus + jminus)."""
    eps = FORCE_ACTIVITY_ULPS * np.finfo(float).eps
    head, tail = net.head_compositions, net.tail_compositions
    logk = np.abs(np.log(net.kplus)) + np.abs(np.log(net.kminus))
    for x in data.draw(states(net.n_species, nonpositive=False)):
        pair = mass_action_flux(net, x)
        f, w = oracle.mass_action_force_activity(net, x)
        logx = np.abs(np.log(x))
        f_scale = 1.0 + logk + np.abs(net.stoich).T @ logx
        w_scale = 1.0 + 0.5 * logk + 0.5 * (head + tail).T @ logx
        assert np.all(np.abs(pair.force - f) <= eps * f_scale)
        assert np.all(np.abs(pair.activity - w) <= eps * w_scale * w)
        gap = np.abs(w * np.sinh(0.5 * f) - pair.flux)
        assert np.all(gap <= eps * (f_scale + np.abs(f)) * (pair.jplus + pair.jminus))


@settings(max_examples=60, deadline=None)
@given(networks(), st.data())
def _drawn_ledger_rows_match_oracle(net, data):
    xs = data.draw(states(net.n_species))
    times = np.cumsum(np.random.default_rng(data.draw(SEEDS)).uniform(0.01, 1.0, len(xs)))
    x_ref = data.draw(st.none() | st.lists(st.floats(0.1, 10.0), min_size=net.n_species, max_size=net.n_species))
    schedule = data.draw(st.none() | schedules(times, net.n_edges))
    traj = _trajectory(net, xs, times, schedule)
    _same_ledger(ledger(net, traj, x_ref), oracle.ledger(net, traj, x_ref))


def test_ledger_rows_match_oracle(brusselator):
    _drawn_ledger_rows_match_oracle()
    # and rows over three blocks of the batch and part of a fourth, skipped rows
    # on both sides of two block boundaries, under a schedule's (T, n_edges) tables
    b = _BATCH_ROWS
    rng = np.random.default_rng(11)
    xs = np.exp(rng.normal(0.0, 1.5, (3 * b + 17, brusselator.n_species)))
    skipped = [b - 2, b - 1, b, 2 * b - 1, 2 * b + 1]
    xs[skipped, [0, 1, 0, 1, 1]] = [0.0, -0.5, -1e-9, -0.0, 0.0]
    times = np.cumsum(rng.uniform(0.01, 1.0, len(xs)))
    knots = times[::50]
    schedule = RateSchedule(knots, rng.uniform(0.1, 5.0, (knots.size, 3)), rng.uniform(0.1, 5.0, (knots.size, 3)))
    traj = _trajectory(brusselator, xs, times, schedule)
    got = ledger(brusselator, traj, [1.0, 3.0])
    assert np.isnan(got[0]["epr"][skipped]).all() and np.isfinite(got[0]["epr"][b - 3]) and np.isfinite(got[0]["epr"][b + 1])
    _same_ledger(got, oracle.ledger(brusselator, traj, [1.0, 3.0]))


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


# Block sizes the passes over samples run in, besides the package's own:
# two and three rows put block boundaries, and one-row last blocks, in short runs.
BLOCKS = (_BATCH_ROWS, 2, 3)


def _blocks_of(rows):
    """Every pass over samples (kinetics.map_blocks) in blocks of `rows` samples."""
    return mock.patch.object(kinetics, "_BATCH_ROWS", rows)


@pytest.mark.bitwise
def test_sample_passes_keep_their_bits_in_any_block_size(brusselator, brusselator_eq):
    """The ledger columns (with and without a reference and a schedule), the
    Lyapunov monitor and the energy balance in blocks of 2 and 3 rows equal
    the package's blocks bit for bit; rows with a zero or negative component
    stay NaN, at block boundaries and inside blocks."""
    rng = np.random.default_rng(5)
    xs = np.exp(rng.normal(0.0, 1.0, (11, brusselator.n_species)))
    skipped = [0, 3, 4, 10]
    xs[skipped, [0, 1, 0, 1]] = [0.0, -0.0, -1e-9, 0.0]
    times = np.cumsum(rng.uniform(0.01, 1.0, len(xs)))
    schedule = RateSchedule(times[::5], rng.uniform(0.1, 5.0, (3, 3)), rng.uniform(0.1, 5.0, (3, 3)))
    traj = simulate(brusselator_eq, [1.0, 4.0], 4.0)

    def passes():
        return (
            ledger(brusselator, _trajectory(brusselator, xs, times, schedule), [1.0, 3.0]),
            ledger(brusselator, _trajectory(brusselator, xs, times), None),
            lyapunov_monitor(brusselator, _trajectory(brusselator, xs, times), [1.0, 3.0]),
            energy_dissipation_balance(brusselator_eq, traj),
        )

    want = passes()
    for columns, _ in want[:2]:
        assert all(np.isnan(columns[key][skipped]).all() for key in LEDGER_KEYS)
    assert np.isnan(want[2]["derivative"][skipped]).all() and np.isfinite(want[2]["derivative"][[1, 2, 5]]).all()
    for rows in BLOCKS[1:]:
        with _blocks_of(rows):
            got = passes()
        for g, w in zip(got[:2], want[:2]):
            _same_ledger(g, w)
        for g, w in zip(got[2:], want[2:]):
            assert g.keys() == w.keys()
            for key in w:
                _same(g[key], w[key])


def _assert_effective_match(net, traj, times=None, max_iter=100):
    """Both schedules against the oracle's one pass, bit for bit, streamed in
    each of BLOCKS: every row is its sample's one-row velocity_dual or
    force_split call (the oracle's solvers are the package's bit for bit,
    test_projections_match_oracle), and a failure the earliest sample's."""
    pairs = (
        (effective_equilibrium_rates, oracle.effective_equilibrium_rates_one_pass),
        (effective_steady_rates, oracle.effective_steady_rates_one_pass),
    )
    for new, old in pairs:
        try:
            want_tables, want_cert = old(net, traj, times, max_iter=max_iter)
        except ConvergenceError as err:
            for rows in BLOCKS:
                with _blocks_of(rows), pytest.raises(ConvergenceError) as got:
                    new(net, traj, times, max_iter=max_iter)
                _same_outcome(got.value, err)
            continue
        for rows in BLOCKS:
            with _blocks_of(rows):
                schedule, cert = new(net, traj, times, max_iter=max_iter)
            for got, want in zip((schedule.times, schedule.kplus, schedule.kminus), want_tables):
                _same(got, want)
            assert list(cert) == list(want_cert)
            for key in cert:
                _same(cert[key], want_cert[key])
    _assert_rows_match(net, oracle.trajectory_samples(traj, times)[1], max_iter)


def _assert_rows_match(net, xs, max_iter):
    """velocity_dual, flux_split and force_split on the samples xs as one batch
    of independent rows: every entry of row i is row i's one-row call, bit for
    bit, and a failing batch raises its earliest failing row's error."""
    pairs = [mass_action_flux(net, x) for x in xs]
    fluxes = np.array([pair.flux for pair in pairs])
    batches = {
        "velocity_dual": -net.div(fluxes),
        "flux_split": fluxes,
        "force_split": np.array([pair.force for pair in pairs]),
    }
    dissip = CoshDissipation(np.array([pair.activity for pair in pairs]))
    for name, rows in batches.items():
        want = [_outcome(name, net, CoshDissipation(p.activity), row, max_iter=max_iter) for p, row in zip(pairs, rows)]
        got = _outcome(name, net, dissip, rows, max_iter=max_iter)
        failed = [out for out in want if isinstance(out, ConvergenceError)]
        if failed:
            _same_outcome(got, failed[0])
            continue
        assert list(got) == list(want[0])
        for key in got:
            _same(got[key], np.array([out[key] for out in want]))


@pytest.mark.bitwise
@settings(max_examples=40, deadline=None)
@given(networks(), st.data())
def test_solver_batches_are_independent_rows(net, data):
    """A (T, n) batch passed to velocity_dual, flux_split or force_split is T
    independent rows, each bit for bit its one-row call (no row starts from
    the row before it); with max_iter 1 or 3 some rows fail, and the batch
    raises the earliest one's ConvergenceError."""
    xs = data.draw(states(net.n_species, min_rows=2, max_rows=8, nonpositive=False))
    _assert_rows_match(net, xs, data.draw(st.sampled_from([1, 3, 100])))


@pytest.mark.bitwise
@settings(max_examples=25, deadline=None)
@given(networks(), st.data())
def test_effective_rates_match_oracle(net, data):
    xs = data.draw(states(net.n_species, min_rows=2, max_rows=6, nonpositive=False))
    max_iter = data.draw(st.sampled_from([1, 3, 100]))
    for order in "CF":  # a caller's states may come in either memory order
        _assert_effective_match(net, _trajectory(net, np.array(xs, order=order)), max_iter=max_iter)


@pytest.mark.bitwise
def test_long_runs_match_oracle(brusselator, brusselator_eq):
    """Thousands of rows, where numpy runs some loops differently; streamed
    in blocks of two rows the 801 samples end in a one-row block, and so do
    3 and 4 samples in blocks of two and three."""
    grid = np.linspace(0.0, 8.0, 801)
    traj = simulate(brusselator, [1.0, 4.0], 8.0, grid=grid)
    for num in (3, 4, 801):
        _assert_effective_match(brusselator, traj, grid[:num])
    schedule, _ = effective_equilibrium_rates(brusselator, traj, grid)
    fine = np.linspace(0.0, 8.0, 4001)
    redo = simulate_timedep(brusselator, [1.0, 4.0], (0.0, 8.0), schedule, grid=fine)
    _same_ledger(ledger(brusselator, redo, [1.0, 3.0]), oracle.ledger(brusselator, redo, [1.0, 3.0]))
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


def _branched_loop(rng, flux):
    """B -> A, C -> A, A -> D, D -> B, D -> C, each nearly irreversible, so
    species A sums two inflows, with one-way fluxes near `flux` around the
    cycles; and a state near its circulating steady state."""
    kplus = flux * 10.0 ** rng.uniform(-2.0, 2.0, 5)
    j1, j2 = flux * rng.uniform(0.5, 2.0, 2)  # the steady one-way fluxes
    x = np.array([(j1 + j2) / kplus[2], j1 / kplus[0], j2 / kplus[1], j1 / kplus[3]])
    kplus[4] = j2 / x[3]
    return build_network("ABCD", np.eye(4, dtype=int), [(1, 0), (2, 0), (0, 3), (3, 1), (3, 2)], kplus, np.full(5, 1e-3)), x


NEAR_STEADY = 1.0 + np.array([[0.0], [1e-9], [3e-7]])  # three samples drifting off the state


def test_circulating_fluxes_match_oracle():
    """One-way fluxes near J = 1e5 around the cycles of the branched loop.
    A velocity v = -div(flux) lies off the stoichiometric image by its
    fluxes' rounding, up to about 1e-16 J (below 1e-11 here). Both
    schedules return, and match the oracle."""
    rng = np.random.default_rng(1)
    off = []
    for _ in range(10):
        net, x = _branched_loop(rng, 1e5)
        v = -net.div(mass_action_flux(net, x).flux)
        off.append(np.max(np.abs(v - net.stoich_image @ (net.stoich_image.T @ v))))
        _assert_effective_match(net, _trajectory(net, x * NEAR_STEADY))
    assert 1e-12 < max(off) < 1e-10  # 7.3e-12: the rounding is there


def test_circulating_fluxes_near_1e8_are_projected():
    """At J = 1e8 the rounding of v = -div(flux) reaches 7e-9, past the
    bound 1e-9 (1 + |v|) of velocity_dual's realizability test for outside
    velocities, which fires on 4 of these 10 loops. Such a v is an image of
    stoich by construction, and both schedules and flux_split project it
    untested: they return, and the equilibrium model's force carries no
    cycle affinity."""
    rng = np.random.default_rng(1)
    for _ in range(10):
        net, x = _branched_loop(rng, 1e8)
        traj = _trajectory(net, x * NEAR_STEADY)
        assert effective_equilibrium_rates(net, traj)[1]["zeta_residual"].max() < 1e-8
        assert np.all(effective_steady_rates(net, traj)[1]["iterations"] < 100)
        pair = mass_action_flux(net, x)
        out = flux_split(net, CoshDissipation(pair.activity), pair.flux)
        assert np.max(np.abs(net.curl(out["force"]))) < 1e-8


# (schedule, its serial-chain oracle, the projection it runs)
CHAINS = (
    (effective_equilibrium_rates, oracle.effective_equilibrium_rates, "velocity_dual"),
    (effective_steady_rates, oracle.effective_steady_rates, "force_split"),
)


def _chain_bounds(net, xs, what):
    """Per sample and edge, a bound on |log(rate / chain rate)| between a
    schedule's row and the serial chain's, which stop at different points of
    one projection's stopping region.

    Both stop with the gradient's max norm below stop = max(TOL, 64 eps s),
    s the kernel's rounding scale at the answer (see _dual_projection). The
    objective's Hessian there is a H a.T; its least eigenvalue lam_min, less
    eigvalsh's error r eps times the largest, bounds each answer's 2-norm
    distance from the optimum by sqrt(r) stop / lam_min to first order, so
    the two lie within 2 sqrt(r) stop / lam_min. a.T maps that to a move of
    at most |a[:, e]|_2 times it in edge e's force, and a rate is
    kappa exp(+-(force - grad log x) / 2): its log moves by half of it. Each
    side also rounds: force - grad log x, sums of at most n + r terms, by
    (n + r + 2) eps M, M = |stoich.T| (|stoich_image| |lam| + |log x|) + |y0|
    the magnitudes summed, which moves the log rate by half of that; exp,
    sqrt and kappa's product add 2 eps, and the comparison's ratio and log 1."""
    pair = EdgePair(*_one_way(net, xs, None))
    dissip = CoshDissipation(pair.activity)
    if what == "velocity_dual":
        a, b, y0 = geometry._velocity_problem(net, -net.div(pair.flux))
    else:
        a, b, y0 = geometry._force_problem(net, pair.force)
    lam, y, _ = _dual_projection(dissip, a, b, y0, 100, what)
    eps, r, y0 = np.finfo(float).eps, len(a), 0.0 if y0 is None else np.abs(y0)
    hess = dissip.dual_hessian_diag(y)
    eig = np.linalg.eigvalsh(a @ (hess[:, :, None] * a.T))
    lam_min = np.fmax(eig[:, 0] - r * eps * eig[:, -1], 0.0)
    spread = np.abs(dissip.dual_grad(y)) + hess * (np.abs(lam) @ np.abs(a) + y0)
    stop = np.fmax(geometry.TOL, 64.0 * eps * np.fmax(np.abs(b).max(axis=1), (spread @ np.abs(a.T)).max(axis=1)))
    with np.errstate(divide="ignore"):  # no bound where lam_min is not resolved
        reach = np.sqrt(r) * stop / lam_min
    mags = (np.abs(lam) @ np.abs(net.stoich_image.T) + np.abs(np.log(xs))) @ np.abs(net.stoich_f) + y0
    return np.sqrt((a * a).sum(axis=0)) * reach[:, None] + eps * ((net.n_species + r + 2) * mags + 5.0)


# A certificate is a function of the samples and the rates alone, so the
# two sides' maxima differ by their evaluations' rounding and by the rates'
# difference, each bounded in units of the certificate's scale s, the
# magnitudes it sums in a row (_cert_scales). A one-way flux, a rate times a
# monomial of degree <= 3, rounds by 2 eps relative (4 products). So a net
# flux rounds by 2.5 eps (jplus + jminus), and a divergence, a sum over <= 3
# edges, by 3.5 eps s with s = |stoich| @ (jplus + jminus). A force
# log(jplus / jminus) rounds by 4.5 eps + 0.5 eps |force|, and a cycle
# affinity by 5.5 eps s with s = |cycles.T| @ (1 + |force|). Rates whose logs
# differ by at most beta (_chain_bounds) move a one-way flux by expm1(beta)
# relative, so a divergence by expm1(beta) s, and a force, two logs, by
# 2 beta. So the maxima differ by at most (2 * 5.5 eps + 2 expm1(beta)) s.
CHAIN_CERT_ULPS = 11


def _cert_scales(net, xs, schedule):
    """Per certificate, its scale s at its worst row (see CHAIN_CERT_ULPS)."""
    jp, jm = _one_way(net, xs, np.hstack([schedule.kplus, schedule.kminus]))
    bp, bm = _one_way(net, xs, None)
    stoich, cycles = np.abs(net.stoich_f), np.abs(net.cycle_f.T)
    v = np.abs((bp - bm) @ net.stoich_f.T)
    div, curl = (jp + jm) @ stoich.T, (1.0 + np.abs(np.log(jp / jm))) @ cycles.T
    return {
        "steady_residual": div.max(),
        "velocity_residual": np.max((div + v).max(axis=1) / (1.0 + v.max(axis=1))),
        "zeta_residual": curl.max(),
        "affinity_residual": np.max(curl + np.abs(np.log(bp / bm)) @ cycles.T),
    }


def test_one_pass_schedules_track_the_serial_chain(brusselator):
    """Against the serial chain, where each sample started from the previous
    sample's final answer, on the Brusselator's 801- and 8001-point grids:
    every rate's log is within _chain_bounds of the chain's, and no
    certificate maximum is worse beyond rounding and that bound
    (CHAIN_CERT_ULPS). Iterations are not compared: the chain starts warm."""
    eps = np.finfo(float).eps
    for t_end, num in ((8.0, 801), (40.0, 8001)):
        grid = np.linspace(0.0, t_end, num)
        traj = simulate(brusselator, [1.0, 4.0], (0.0, t_end), grid=grid)
        xs = traj.interpolate(grid)
        for new, old, what in CHAINS:
            (_, kp, km), want = old(brusselator, traj, grid)
            schedule, cert = new(brusselator, traj, grid)
            bound = _chain_bounds(brusselator, xs, what)
            for got, table in ((schedule.kplus, kp), (schedule.kminus, km)):
                assert np.all(np.abs(np.log(got / table)) <= bound), (num, what)
            slack = CHAIN_CERT_ULPS * eps + 2.0 * np.expm1(bound.max())
            for key, scale in _cert_scales(brusselator, xs, schedule).items():
                if key in want:
                    assert cert[key].max() <= want[key].max() + slack * scale, (num, key)


@settings(max_examples=25, deadline=None)
@given(networks(), SEEDS, st.integers(2, 40))
@example(build_network(["S0", "S1", "S2", "S3"], [(0, 0, 1, 2), (0, 0, 2, 1), (0, 0, 1, 3)], [(0, 1), (2, 0)],
                       [1.0, 1.0], [1.0, 1.5]), 8854, 30)
def test_one_pass_schedules_agree_with_the_serial_chain(net, seed, num):
    """On drawn networks, along a slowly drifting path of states: where the
    serial chain converges so does the one pass, and every rate's log is
    within _chain_bounds of the chain's. In the explicit example the
    projected Hessian's least eigenvalue falls to 5e-7 (equilibrium) and
    9e-8 (steady): the rates differ by 4.1e-5 and 1.7e-4 relative, a sixth
    and a ninth of the bound, where a fixed 1e-6 failed."""
    rng = np.random.default_rng(seed)
    steps = rng.normal(0.0, 0.02, (num, net.n_species))
    xs = np.exp(rng.normal(0.0, 1.5, net.n_species) + np.cumsum(steps, axis=0))
    traj = _trajectory(net, xs)
    for new, old, what in CHAINS:
        try:
            (_, kp, km), _ = old(net, traj)
        except ConvergenceError:
            continue
        schedule, _ = new(net, traj)
        bound = _chain_bounds(net, xs, what)
        for got, table in ((schedule.kplus, kp), (schedule.kminus, km)):
            assert np.all(np.abs(np.log(got / table)) <= bound)


@pytest.mark.parametrize("num", [3, 8001])
def test_schedules_make_one_projection_call_per_block(brusselator, num):
    """Each schedule projects each block of _BATCH_ROWS samples in one
    batched call: 1 call for 3 samples, 8 for 8,001. No per-sample loop
    around the kernel."""
    grid = np.linspace(0.0, 40.0, num)
    traj = simulate(brusselator, [1.0, 4.0], (0.0, 40.0), grid=grid)
    for rates in (effective_equilibrium_rates, effective_steady_rates):
        with mock.patch.object(geometry, "_dual_projection", wraps=geometry._dual_projection) as kernel:
            rates(brusselator, traj, grid)
        assert kernel.call_count == {3: 1, 8001: 8}[num] == -(-num // _BATCH_ROWS)


def _hypergraph_path():
    """A 20 x 40 hypergraph and a 64-sample positive path on it."""
    verts, edges, _ = chain_hypergraph(20, 40, 3)
    rng = np.random.default_rng(3)
    rates = rng.uniform(0.5, 2.0, (2, len(edges)))
    net = build_network([f"S{i}" for i in range(20)], verts, edges, *rates)
    return net, np.exp(rng.normal(0.0, 0.5, 20) + np.cumsum(rng.normal(0.0, 0.02, (64, 20)), axis=0))


def _transients(net, call, path):
    """Transient memory of call(traj) (tracemalloc's peak less what its result
    keeps) on the first 8 and 64 samples of path, in blocks of 8 rows."""
    transient = []
    for num in (8, 64):
        traj = _trajectory(net, path[:num])
        with _blocks_of(8):
            call(traj)  # numpy's first-call caches stay out of the count
            tracemalloc.start()
            try:
                result = call(traj)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        del result
        transient.append(peak - kept)
    return transient


def test_schedules_stream_in_flat_memory():
    """The schedules' transient memory does not grow with the sample count:
    8 and 64 samples in blocks of 8 rows, on a 20 x 40 hypergraph, agree
    within 25%. Projecting all samples in one batch grew it 4.4x."""
    net, path = _hypergraph_path()
    for schedule in (effective_equilibrium_rates, effective_steady_rates):
        transient = _transients(net, lambda traj: schedule(net, traj), path)
        assert 0.75 < transient[1] / transient[0] < 1.25, transient


def test_lyapunov_monitor_streams_in_flat_memory():
    """The monitor's transient memory does not grow with the sample count:
    8 and 64 samples in blocks of 8 rows, on a 20 x 40 hypergraph, agree
    within 5% (39.5 and 39.9 KB). Taking the fluxes of all samples as
    (T, n_edges) arrays grew it 2.4x; keeping a block's EdgePair alive
    while the next block's was built, 1.14x (39.7 and 45.4 KB)."""
    net, path = _hypergraph_path()
    transient = _transients(net, lambda traj: lyapunov_monitor(net, traj, path[0]), path)
    assert 0.75 < transient[1] / transient[0] < 1.05, transient


@pytest.mark.bitwise
def test_earliest_failing_sample_is_reported(brusselator):
    """Samples 3 and 5 sit far from the others (velocities near 5e7), and
    with max_iter = 5 neither projection converges there from a cold start,
    while samples 0-2 converge. Both schedules raise sample 3's error, as
    the one-pass oracle does."""
    xs = np.array([[1.0, 4.0], [1.1, 3.9], [1.2, 3.8], [300.0, 600.0], [1.3, 3.7], [400.0, 450.0], [1.4, 3.6]])
    for new, old, what in (
        (effective_equilibrium_rates, oracle.effective_equilibrium_rates_one_pass, "velocity_dual"),
        (effective_steady_rates, oracle.effective_steady_rates_one_pass, "force_split"),
    ):
        new(brusselator, _trajectory(brusselator, xs[:3]), max_iter=5)
        errors = []
        for rows in (xs, xs[:4], xs[4:]):  # all; up to sample 3; from sample 4 on
            with pytest.raises(ConvergenceError) as err:
                old(brusselator, _trajectory(brusselator, rows), max_iter=5)
            errors.append(err.value)
        for rows in BLOCKS:  # in blocks of two rows, samples 3 and 5 are in different blocks
            with _blocks_of(rows), pytest.raises(ConvergenceError) as got:
                new(brusselator, _trajectory(brusselator, xs), max_iter=5)
            assert str(got.value) == f"{what}: no convergence in 5 iterations"
            _same_outcome(got.value, errors[0])
        _same_outcome(errors[0], errors[1])  # sample 3's error
        assert errors[2].best.tobytes() != errors[0].best.tobytes()  # sample 5's differs


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
    limits = {"max_iter": data.draw(st.sampled_from([1, 3, 100]))}
    x0 = np.exp(rng.normal(0.0, 1.0, n))
    j = rng.normal(0.0, 2.0, m)
    calls = {
        "equilibrium_point": (net, x0, x_ref, potential),
        "velocity_dual": (net, dissip, -net.stoich @ j),
        "flux_split": (net, dissip, j),
        "force_split": (net, dissip, rng.normal(0.0, 2.0, m)),
        "cycle_dual": (net, dissip, rng.normal(0.0, 2.0, net.n_cycles)),
    }
    # cycle_dual reaches the oracle through force_split
    old = {name: getattr(oracle, name) for name in ("equilibrium_point", "velocity_dual", "flux_split", "force_split")}
    with mock.patch.multiple(geometry, **old):
        want = {name: _outcome(name, *args, **limits) for name, args in calls.items()}
    got = {name: _outcome(name, *args, **limits) for name, args in calls.items()}
    # a batch of one row is that row's call, bit for bit, with every entry per row
    batch = CoshDissipation(dissip.weights[None]) if isinstance(dissip, CoshDissipation) else dissip
    for name in ("velocity_dual", "flux_split", "force_split"):
        one, row = got[name], _outcome(name, net, batch, calls[name][2][None], **limits)
        if isinstance(one, ConvergenceError):
            _same_outcome(row, one)
            continue
        assert list(row) == list(one)
        for key in one:
            assert np.shape(row[key]) == (1,) + np.shape(one[key])
            _same(row[key][0], one[key])
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


def _projection_rows(net, rng, kind, rows):
    """(one fn per row, a, b, y0, what) for rows of one projection kind. Row
    scales s run from 1 to 1e8 (forces from 1 to 1 + ln s times), so some
    first steps overflow."""
    n, m, q, qs = net.n_species, net.n_edges, net.stoich_image, net.reduced_stoich
    scale = 10.0 ** rng.choice([0.0, 0.0, 4.0, 8.0], size=(rows, 1))
    weights = np.exp(rng.normal(0.0, 1.0, (rows, m)))
    if kind in ("velocity_dual", "force_split"):
        fns = [CoshDissipation(w) for w in weights] if rng.random() < 0.5 else [QuadraticDissipation(weights[0])] * rows
        if kind == "velocity_dual":
            v = -(scale * rng.normal(0.0, 2.0, (rows, m))) @ net.stoich.T.astype(float)
            return fns, -qs, v @ q, None, kind
        return fns, qs, np.zeros((rows, len(qs))), (1.0 + np.log(scale)) * rng.normal(0.0, 2.0, (rows, m)), kind
    if rng.random() < 0.5:
        fn = KLPotential(n=n)
        x_ref = np.exp(rng.normal(0.0, 1.0, (rows, n)))
    else:
        root = rng.normal(0.0, 1.0, (n, n))
        fn = QuadraticPotential(root @ root.T + n * np.eye(n), rng.normal(0.0, 1.0, n))
        x_ref = rng.normal(0.0, 2.0, (rows, n))
    x0 = scale * np.exp(rng.normal(0.0, 1.0, (rows, n)))
    return [fn] * rows, net.cons_f, x0 @ net.cons_f.T, np.array([fn.grad(x) for x in x_ref]), "equilibrium_point"


@pytest.mark.bitwise
@settings(max_examples=80, deadline=None)
@given(networks(), st.data())
def test_projection_rows_match_single_rows(net, data):
    """_dual_projection on T stacked rows against T one-row calls: the same
    lam, y and iterations, bit for bit, and for a failing row the same
    ConvergenceError, which a batch raises for its earliest failing row."""
    rng = np.random.default_rng(data.draw(SEEDS))
    kind = data.draw(st.sampled_from(["velocity_dual", "force_split", "equilibrium_point"]))
    rows = data.draw(st.integers(1, 8))
    max_iter = data.draw(st.sampled_from([1, 3, 100]))
    fns, a, b, y0, what = _projection_rows(net, rng, kind, rows)
    # rows whose gradient is zero at lam = 0: they stop at iteration 0 beside rows that search or fail
    settled = np.flatnonzero(rng.random(rows) < 0.5) if data.draw(st.booleans()) else []
    for i in settled:
        b[i] = a @ fns[i].dual_grad(np.zeros(a.shape[1]) if y0 is None else y0[i])

    def solve(i):
        """Rows i (a slice or an index array), or row i alone as 1-d inputs when i is an int."""
        if isinstance(i, (int, np.integer)):
            return _dual_projection(fns[i], a, b[i], None if y0 is None else y0[i], max_iter, what)
        picked = np.arange(rows)[i]
        fn = fns[picked[0]]  # one fn for the rows, with their weights when each row has its own
        fn = CoshDissipation([fns[k].weights for k in picked]) if isinstance(fn, CoshDissipation) else fn
        return _dual_projection(fn, a, b[i], None if y0 is None else y0[i], max_iter, what)

    want, first = {}, None
    for i in range(rows):
        try:
            want[i] = solve(i)
        except ConvergenceError as err:
            with pytest.raises(ConvergenceError) as got:
                solve(slice(i, rows))  # row i is the earliest failure from i on
            _same_outcome(got.value, err)
            first = err if first is None else first
    assert all(want[i][2] == 0 for i in settled)
    if first is not None:
        with pytest.raises(ConvergenceError) as got:
            solve(slice(0, rows))
        _same_outcome(got.value, first)
    if want:  # the converging rows as one batch
        lam, y, iters = solve(np.array(list(want)))
        for k, i in enumerate(want):
            _same(lam[k], want[i][0])
            _same(y[k], want[i][1])
            assert iters[k] == want[i][2]


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
    traj = _trajectory(net, xs)
    _same_ledger(ledger(net, traj, None), oracle.ledger(net, traj, None))


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
