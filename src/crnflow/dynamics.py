"""Time integration of mass-action dynamics with a thermodynamic ledger.

The state equation xdot = -stoich @ flux(x) is integrated with the
Dormand-Prince 5(4) pair at tight tolerances (crnflow.rk45, which
reproduces scipy's RK45 bit for bit without importing scipy), with a
terminal event that halts integration before any component crosses a
positivity floor. Each integration builds its right-hand side once, for
constant and scheduled rates alike: kinetics.one_way_kernel's fluxes at
the state, under the schedule's rates at t when there is one, their net
flux times the negated float stoichiometric matrix.
A trajectory's states at the accepted steps are the stepper's own; the
dense output gives only the grid times between steps. Each trajectory
also carries a ledger of scalar observables per sample time: relative
entropy to an optional reference, entropy production rate and its
quadratic lower bound, and the primal/dual dissipation values whose sum
equals the EPR. The ledger, the Lyapunov monitor and the energy
balance's psi + psistar are per-block functions of kinetics.map_blocks,
which hands them each block's EdgePair and writes their columns back, so
temporaries scale with the block size, not the sample count; the
conserved quantities stay one matrix product over all rows.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .checks import _positive, _schedule_edges, _schedule_times, _time_span
from .convex import CoshDissipation, KLPotential
from .kinetics import ConvergenceError, _all_live, entropy_production, map_blocks, one_way_kernel
from .kinetics import pseudo_entropy_production, wegscheider_check
from .network import ReactionNetwork, dot_rows
from .rk45 import integrate, simpson

LEDGER_KEYS = ("divergence", "epr", "pepr", "psi", "psistar")


@dataclass(frozen=True)
class RateSchedule:
    """Tabulated time-dependent rate constants, linearly interpolated.

    Attributes:
        times: strictly increasing sample times, shape (n,).
        kplus, kminus: positive rate samples, read-only (n, n_edges) views of the table evaluated.

    Evaluation clamps to the end values outside the tabulated range.
    Linear interpolation of positive samples stays positive.
    """

    times: np.ndarray
    kplus: np.ndarray
    kminus: np.ndarray

    def __post_init__(self):
        t = _schedule_times(self.times)
        kp = np.asarray(self.kplus, dtype=float)
        km = np.asarray(self.kminus, dtype=float)
        if kp.ndim != 2 or kp.shape[0] != t.size or km.shape != kp.shape:
            raise ValueError("rate tables must be (n_times, n_edges), matching shapes")
        table = _positive(np.hstack([kp, km]), "scheduled rates", batch=True, finite=True)  # a copy, not the caller's
        with np.errstate(over="ignore"):  # a slope past the float range is inf, as in np.interp
            slopes = np.diff(table, axis=0)
            slopes /= np.diff(t)[:, None]
        for arr in (table, slopes):
            arr.flags.writeable = False  # __call__ hands out views of their rows
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "kplus", table[:, :kp.shape[1]])
        object.__setattr__(self, "kminus", table[:, kp.shape[1]:])
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_slopes", slopes)
        object.__setattr__(self, "_knots", t.tolist())  # Python floats: bisect on them is cheap

    @property
    def n_edges(self) -> int:
        return self.kplus.shape[1]

    def _row(self, t) -> np.ndarray:
        """The rates [kplus | kminus] at a scalar time t, shape (2 n_edges,)."""
        knots = self._knots
        t = float(t)
        j = bisect_right(knots, t) - 1  # NaN sorts past the end, as in np.searchsorted
        if j < 0 or j == len(knots) - 1 or knots[j] == t:
            return self._table[max(j, 0)]
        return self._slopes[j] * (t - knots[j]) + self._table[j]

    def __call__(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Rates at time t, or (n_times, n_edges) tables at an array of times.

        Matches np.interp on every edge bit for bit: the end values outside
        the knots, the knot value on a knot, else slope_j * (t - t_j) + k_j.
        A NaN time gives the last knot's rates, where np.interp gives NaN.
        """
        n = self.n_edges
        if isinstance(t, float) or np.ndim(t) == 0:
            row = self._row(t)
            return row[:n], row[n:]
        table, slopes, knots = self._table, self._slopes, self.times
        ts = np.asarray(t, dtype=float)
        j = np.clip(np.searchsorted(knots, ts, side="right") - 1, 0, knots.size - 2)
        dt = (ts - knots[j])[:, None]
        with np.errstate(over="ignore", invalid="ignore"):  # only in the entries np.where drops
            rows = np.where(dt > 0, slopes[j] * dt + table[j], table[j])
        rows[~(ts < knots[-1])] = table[-1]  # NaN as well, as on the scalar path
        return rows[:, :n], rows[:, n:]

    @classmethod
    def constant(cls, kplus, kminus, t0: float, t1: float) -> "RateSchedule":
        kp, km = np.asarray(kplus, dtype=float), np.asarray(kminus, dtype=float)
        return cls(times=np.array([t0, t1]), kplus=np.vstack([kp, kp]), kminus=np.vstack([km, km]))


@dataclass
class Trajectory:
    """Integrated trajectory with per-sample thermodynamic ledger.

    Ledger columns (each shape (n_times,)): divergence (relative entropy
    to the reference state, nan when no reference was given), epr, pepr,
    psi, psistar. eta holds the conserved-quantity values, shape
    (n_times, n_conserved). stats counts the integrator's work: accepted
    steps, rejected steps and right-hand-side evaluations (nfev); it is
    written to no artifact. When every time is an accepted step, times
    and states are the dense output's own arrays: writing into them
    changes what interpolate returns.
    """

    times: np.ndarray
    states: np.ndarray
    ledger: dict[str, np.ndarray]
    eta: np.ndarray
    species: tuple[str, ...]
    halted: bool = False
    halt_reason: str | None = None
    dense: object = field(default=None, repr=False)
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def interpolate(self, t) -> np.ndarray:
        """States at arbitrary times from the dense output."""
        if self.dense is None:
            raise ValueError("trajectory has no dense output")
        t = np.asarray(t, dtype=float)
        out = self.dense(t)
        return out.T if t.ndim else out


def _ledger_rows(
    net: ReactionNetwork, times, states, x_ref, schedule: RateSchedule | None
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    kl = KLPotential(n=net.n_species)

    def block(rows, live, pair):
        diss = CoshDissipation(pair.activity)
        cols = {"epr": entropy_production(pair), "pepr": pseudo_entropy_production(pair),
                "psi": diss.value(pair.flux), "psistar": diss.dual_value(pair.force)}
        if x_ref is not None:
            cols["divergence"] = kl.bregman(states[rows][live], x_ref)
        return cols

    cols = map_blocks(net, states, block, *((None, None) if schedule is None else schedule(times)))
    ledger = {key: cols[key] if key in cols else np.full(len(states), np.nan) for key in LEDGER_KEYS}
    eta = states @ net.cons_f.T  # one matrix product: row-wise conserved() rounds some rows differently
    return ledger, eta


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.union1d(a, b) of 1-d float arrays without NaN, by np.unique's own sort
    and neighbour test; np.unique would import numpy.ma on its first call."""
    merged = np.concatenate((a, b))
    merged.sort()
    keep = np.empty(merged.size, dtype=bool)
    keep[:1] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


def _rhs(net: ReactionNetwork, schedule: RateSchedule | None):
    """The right-hand side (t, x) -> -stoich @ flux(x) under the network's
    rates, or the schedule's at t: one closure per integration."""
    one_way = one_way_kernel(net, row=None if schedule is None else schedule._row)
    n = net.n_edges
    neg_stoich = -net.stoich_f  # negation is exact: (-S) @ v is -(S @ v), but for the sign of a zero
    # ndarray.dot gives @'s bits at less call cost, but for a 1 x 1 matrix, which it
    # takes for a scalar: a zero product keeps its sign there, where @ adds it to +0
    mul = neg_stoich.__matmul__ if neg_stoich.size == 1 else neg_stoich.dot

    def rhs(t, x):
        w = one_way(t, x)
        return mul(w[:n] - w[n:])

    return rhs


def _integrate(
    net: ReactionNetwork,
    x0,
    t_span,
    schedule: RateSchedule | None,
    grid,
    x_ref,
    rtol: float,
    atol: float,
    positivity_floor: float,
) -> Trajectory:
    x0 = _positive(x0, "initial state", net.n_species)
    t0, t1 = _time_span(t_span)
    if not 0.0 < rtol < np.inf:
        raise ValueError("rtol must be finite and positive")
    if not (0.0 <= atol < np.inf and 0.0 <= positivity_floor < np.inf):
        raise ValueError("atol and positivity_floor must be finite and non-negative")
    x_ref = None if x_ref is None else _positive(x_ref, "x_ref", net.n_species, finite=True)

    minimum = np.minimum.reduce  # x.min(), without its Python-level wrapper

    def floor_event(t, x):
        return float(minimum(x)) - positivity_floor

    sol = integrate(_rhs(net, schedule), t0, t1, x0, rtol, atol, floor_event)
    if sol.status == -1:
        raise ConvergenceError(f"integration failed: {sol.message}")

    halted = sol.status == 1
    t_end = float(sol.t[-1])
    times = sol.t
    if grid is not None:
        g = np.asarray(grid, dtype=float)
        times = _union(times, g[(g >= t0) & (g <= t_end)])
    # the stepper's own states at its accepted times; the dense output at the others,
    # called on all times of their steps, since np.dot may round a smaller group differently
    step = np.searchsorted(sol.t, times)  # sol.t[step - 1] < times <= sol.t[step]
    accepted = sol.t[step] == times
    if times.size == sol.t.size and accepted.all():
        states = sol.y  # every output time an accepted step: the stepper's array itself
    else:
        seg = np.maximum(step, 1)  # DenseOutput's segment, plus one
        grouped = np.bincount(seg[~accepted], minlength=sol.t.size)[seg] > 0
        states = np.empty((times.size, net.n_species))
        if grouped.any():
            states[grouped] = sol.sol(times[grouped]).T
        # a floor root at t0 repeats t0 in sol.t, and the union keeps it once
        states[accepted] = sol.y[step[accepted]]

    ledger, eta = _ledger_rows(net, times, states, x_ref, schedule)
    reason = None
    if halted:
        reason = f"state reached positivity floor {positivity_floor:g} at t={t_end:.9g}"
    return Trajectory(
        times=times,
        states=states,
        ledger=ledger,
        eta=eta,
        species=net.species,
        halted=halted,
        halt_reason=reason,
        dense=sol.sol,
        stats=sol.stats,
    )


def simulate(
    net: ReactionNetwork,
    x0,
    t_span,
    grid=None,
    x_ref=None,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    positivity_floor: float = 1e-12,
) -> Trajectory:
    """Integrate xdot = -stoich @ flux(x) from a positive initial state.

    Args:
        t_span: final time, or a (t0, t1) pair.
        grid: optional extra sample times; the ledger is evaluated at the
            union of the integrator's accepted steps and this grid.
        x_ref: optional reference state for the divergence column,
            finite and strictly positive.
        rtol, atol: integrator tolerances; rtol finite and positive,
            atol finite and non-negative.
        positivity_floor: integration halts (Trajectory.halted = True)
            when any component decays to this floor (finite, >= 0).
    """
    return _integrate(net, x0, t_span, None, grid, x_ref, rtol, atol, positivity_floor)


def simulate_timedep(
    net: ReactionNetwork,
    x0,
    t_span,
    schedule: RateSchedule,
    grid=None,
    x_ref=None,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    positivity_floor: float = 1e-12,
) -> Trajectory:
    """Same as simulate, with rate constants driven by a RateSchedule."""
    schedule = _schedule_edges(schedule, net.n_edges)
    return _integrate(net, x0, t_span, schedule, grid, x_ref, rtol, atol, positivity_floor)


def energy_dissipation_balance(
    net: ReactionNetwork,
    traj: Trajectory,
    n_samples: int = 2049,
) -> dict:
    """Audit the exact energy-dissipation identity along a trajectory.

    For rate constants admitting an equilibrium state, the drop in
    relative entropy to that state equals the time integral of the sum
    of primal and dual dissipation:

        D(x(t0)) - D(x(t1)) = integral of [psi + psistar] dt.

    The rates are the network's, also for a run under a schedule.
    Returns lhs, rhs, their gap, and the reference state used. Raises
    ValueError when the rate constants carry nonzero cycle affinity,
    since no equilibrium reference exists then.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    wc = wegscheider_check(net)
    if not wc["is_equilibrium"]:
        raise ValueError(
            "rate constants carry nonzero cycle affinity; no equilibrium reference exists"
        )
    x_eq = np.exp(wc["potential"])
    pot = KLPotential(n=net.n_species)
    lhs = pot.bregman(traj.states[0], x_eq) - pot.bregman(traj.final_state, x_eq)

    if n_samples % 2 == 0:
        n_samples += 1
    if traj.dense is not None:
        ts = np.linspace(traj.times[0], traj.times[-1], n_samples)
        xs = traj.dense(ts).T
    else:
        ts = traj.times
        xs = traj.states

    def block(rows, live, pair):  # every sample: the integral reads them all
        _all_live(live)
        diss = CoshDissipation(pair.activity)
        return {"power": diss.value(pair.flux) + diss.dual_value(pair.force)}

    rhs = float(simpson(map_blocks(net, _positive(xs, "state", batch=True), block)["power"], x=ts))
    return {"lhs": lhs, "rhs": rhs, "gap": lhs - rhs, "reference": x_eq}


def lyapunov_monitor(
    net: ReactionNetwork,
    traj: Trajectory,
    x_ref,
    tol: float = 1e-10,
) -> dict:
    """Track d/dt of the relative entropy to a fixed reference state.

    The derivative is evaluated analytically at each ledger time as
    -<flux(x), stoich.T log(x / x_ref)> under the network's rates (also
    for a run under a schedule), NaN at samples that map_blocks leaves
    out (a component or a one-way flux at or below zero); x_ref must be
    finite and positive. For a complex-balanced reference this is
    non-positive along every trajectory.
    """
    x_ref = _positive(x_ref, "reference state", net.n_species, finite=True)
    xs = traj.states

    def block(rows, live, pair):
        return {"derivative": -dot_rows(pair.flux, net.grad(np.log(xs[rows][live] / x_ref)))}

    deriv = map_blocks(net, xs, block)["derivative"]
    max_deriv = float(np.max(deriv, initial=-np.inf, where=np.isfinite(deriv)))
    return {
        "times": traj.times,
        "derivative": deriv,
        "max_derivative": max_deriv,
        "nonincreasing": bool(max_deriv <= tol),
    }
