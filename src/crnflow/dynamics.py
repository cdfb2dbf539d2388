"""Time integration of mass-action dynamics, and the observables along a run.

The state equation xdot = -stoich @ flux(x) is integrated with the
Dormand-Prince 5(4) pair at tight tolerances (crnflow.rk45, which
reproduces scipy's RK45 bit for bit without importing scipy), with a
terminal event that halts integration before any component crosses a
positivity floor. Each integration builds its right-hand side once, for
constant and scheduled rates alike: kinetics.one_way_kernel's fluxes at
the state, under the schedule's rates at t when there is one, their net
flux times the negated float stoichiometric matrix.
A trajectory's states at the accepted steps are the stepper's own, the
dense output's at the grid times between; after the run,
Trajectory.interpolate is the dense output's one reader. Three passes of
(net, traj, ...) evaluate observables along a run: the ledger of scalar
observables per sample time (relative entropy to an optional reference,
entropy production rate and its quadratic lower bound, and the
primal/dual dissipation values whose sum equals the EPR), the Lyapunov
monitor and the energy balance. Each is a per-block function of
kinetics.map_blocks, which hands it each block's EdgePair and writes its
columns back, so temporaries scale with the block size, not the sample
count; the conserved quantities stay one matrix product over all rows.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .checks import _owned, _positive, _schedule_edges, _schedule_times, _time_span, _times, _tolerances
from .convex import CoshDissipation, KLPotential
from .kinetics import ConvergenceError, _all_live, entropy_production, map_blocks, one_way_kernel
from .kinetics import pseudo_entropy_production, wegscheider_check
from .network import ReactionNetwork, dot_rows
from .rk45 import integrate, simpson

LEDGER_KEYS = ("divergence", "epr", "pepr", "psi", "psistar")


@dataclass(frozen=True, eq=False)
class RateSchedule:
    """Tabulated time-dependent rate constants, linearly interpolated.

    Attributes:
        times: strictly increasing sample times, a read-only copy, shape (n,).
        kplus, kminus: positive rate samples, read-only (n, n_edges) views of the table evaluated.

    The constructor copies the caller's times, kplus and kminus; the
    effective schedules hand over the table they built (_of_table), which is
    then held as it is, never copied (its times are).

    Evaluation clamps to the end values outside the tabulated range.
    Linear interpolation of positive samples stays positive.
    """

    times: np.ndarray
    kplus: np.ndarray
    kminus: np.ndarray

    def __post_init__(self):
        kp = np.asarray(self.kplus, dtype=float)
        km = np.asarray(self.kminus, dtype=float)
        if kp.ndim != 2 or km.shape != kp.shape:
            raise ValueError("rate tables must be (n_times, n_edges), matching shapes")
        self._hold(self.times, np.hstack([kp, km]))  # a copy, not the caller's

    @classmethod
    def _of_table(cls, times, table: np.ndarray) -> "RateSchedule":
        """The schedule of a float (n_times, 2 n_edges) table [kplus | kminus] that its
        builder hands over: checked as the constructor checks it, and held, not copied."""
        schedule = object.__new__(cls)
        schedule._hold(times, table)
        return schedule

    def _hold(self, times, table: np.ndarray) -> None:
        t = _owned(_schedule_times(times))
        if len(table) != t.size:
            raise ValueError("rate tables must be (n_times, n_edges), matching shapes")
        _positive(table, "scheduled rates", batch=True, finite=True)
        with np.errstate(over="ignore"):  # a slope past the float range is inf, as in np.interp
            slopes = np.diff(table, axis=0)
            slopes /= np.diff(t)[:, None]
        for arr in (table, slopes):
            arr.flags.writeable = False  # __call__ hands out views of their rows
        n = table.shape[1] // 2
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "kplus", table[:, :n])
        object.__setattr__(self, "kminus", table[:, n:])
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

    def _rows(self, t) -> np.ndarray:
        """The rates [kplus | kminus] at time t, or (n_times, 2 n_edges) rows at 1-d times: np.interp
        per edge, which _row matches bit for bit; a NaN time gives the last knot's rates on both paths."""
        ts = _times(t, "times")
        if ts.ndim == 0:
            return self._row(ts)
        rows = np.empty((ts.size, self._table.shape[1]))
        for col, rates in enumerate(self._table.T):
            rows[:, col] = np.interp(ts, self.times, rates)
        rows[np.isnan(ts)] = self._table[-1]
        return rows

    def __call__(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Rates at time t, or (n_times, n_edges) tables at a 1-d array of times: _rows(t) split."""
        rows, n = self._rows(t), self.n_edges
        return rows[..., :n], rows[..., n:]

    @classmethod
    def constant(cls, kplus, kminus, t0: float, t1: float) -> "RateSchedule":
        return cls(times=[t0, t1], kplus=np.vstack([kplus, kplus]), kminus=np.vstack([kminus, kminus]))


@dataclass(eq=False)
class Trajectory:
    """Integrated trajectory: the samples of a run, without observables.

    states: one row per time, shape (n_times, n_species). schedule: the
    RateSchedule the run was driven by, None under the network's constant
    rates. stats counts the integrator's work: accepted steps, rejected
    steps and right-hand-side evaluations (nfev); it is written to no
    artifact. Without a grid, times and states are the dense output's
    own, read-only arrays. The observables along the run are passes of
    (net, traj, ...): ledger, lyapunov_monitor, energy_dissipation_balance.
    """

    times: np.ndarray
    states: np.ndarray
    species: tuple[str, ...]
    schedule: RateSchedule | None = None
    halted: bool = False
    halt_reason: str | None = None
    dense: object = field(default=None, repr=False)
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def interpolate(self, t, what: str = "times") -> np.ndarray:
        """The dense output's state at a scalar time, shape (n_species,), or states as
        rows at a 1-d array of m times, shape (m, n_species). A time outside [times[0],
        times[-1]], where the quartic would extrapolate, a NaN time, or times of more
        dimensions raise ValueError naming what."""
        if self.dense is None:
            raise ValueError("trajectory has no dense output")
        t, lo, hi = np.asarray(t, dtype=float), float(self.times[0]), float(self.times[-1])
        if not np.all((t >= lo) & (t <= hi)):
            raise ValueError(f"{what} must lie within the trajectory's time span [{lo!r}, {hi!r}]")
        return self.dense(_times(t, what))


def ledger(net: ReactionNetwork, traj: Trajectory, x_ref) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """The ledger of a run: columns LEDGER_KEYS, each shape (n_times,), and eta, the conserved
    quantities, shape (n_times, n_conserved). divergence is the relative entropy to x_ref (finite,
    positive), NaN when x_ref is None; epr, pepr, psi and psistar are under the run's rates (its
    schedule's at each sample time), NaN at samples map_blocks leaves out."""
    x_ref = None if x_ref is None else _positive(x_ref, "x_ref", net.n_species, finite=True)
    kl = KLPotential(n=net.n_species)

    def block(x, live, pair):
        diss = CoshDissipation(pair.activity)
        cols = {"epr": entropy_production(pair), "pepr": pseudo_entropy_production(pair),
                "psi": diss.value(pair.flux), "psistar": diss.dual_value(pair.force)}
        if x_ref is not None:
            cols["divergence"] = kl.bregman(x, x_ref)
        return cols

    states, schedule = traj.states, traj.schedule
    cols = map_blocks(net, states, block, None if schedule is None else schedule._rows(traj.times))
    columns = {key: cols[key] if key in cols else np.full(len(states), np.nan) for key in LEDGER_KEYS}
    eta = states @ net.cons_f.T  # one matrix product: row-wise conserved() rounds some rows differently
    return columns, eta


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


def _integrate(net: ReactionNetwork, x0, t_span, schedule: RateSchedule | None, grid, rtol: float, atol: float,
               positivity_floor: float) -> Trajectory:
    x0 = _positive(x0, "initial state", net.n_species)
    t0, t1 = _time_span(t_span)
    _tolerances(rtol, atol, positivity_floor)
    grid = None if grid is None else _times(grid, "grid", finite=True)

    minimum = np.minimum.reduce  # x.min(), without its Python-level wrapper

    def floor_event(t, x):
        return float(minimum(x)) - positivity_floor

    sol = integrate(_rhs(net, schedule), t0, t1, x0, rtol, atol, floor_event)
    if sol.status == -1:
        raise ConvergenceError(f"integration failed: {sol.message}")

    halted = sol.status == 1
    t_end = float(sol.t[-1])
    times, states = sol.t, sol.y  # without a grid, the stepper's own arrays
    if grid is not None:
        times = _union(times, grid[(grid >= t0) & (grid <= t_end)])
        # the dense output at every time, then the stepper's own states over the accepted
        # times' rows; a floor root at t0 repeats t0 in sol.t, and the union keeps it once
        step = np.searchsorted(sol.t, times)  # sol.t[step - 1] < times <= sol.t[step]
        accepted = sol.t[step] == times
        states = sol.sol(times)
        states[accepted] = sol.y[step[accepted]]

    reason = f"state reached positivity floor {positivity_floor:g} at t={t_end:.9g}" if halted else None
    return Trajectory(times=times, states=states, species=net.species, schedule=schedule, halted=halted,
                      halt_reason=reason, dense=sol.sol, stats=sol.stats)


def simulate(
    net: ReactionNetwork,
    x0,
    t_span,
    grid=None,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    positivity_floor: float = 1e-12,
) -> Trajectory:
    """Integrate xdot = -stoich @ flux(x) from a positive initial state.

    Args:
        t_span: final time, or a (t0, t1) pair.
        grid: optional extra sample times, finite, a number or a 1-d array; the
            trajectory samples the union of the accepted steps and this grid.
        rtol, atol: integrator tolerances; rtol finite and positive,
            atol finite and non-negative.
        positivity_floor: integration halts (Trajectory.halted = True)
            when any component decays to this floor (finite, >= 0).
    """
    return _integrate(net, x0, t_span, None, grid, rtol, atol, positivity_floor)


def simulate_timedep(
    net: ReactionNetwork,
    x0,
    t_span,
    schedule: RateSchedule,
    grid=None,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    positivity_floor: float = 1e-12,
) -> Trajectory:
    """Same as simulate, with rate constants driven by a RateSchedule."""
    schedule = _schedule_edges(schedule, net.n_edges)
    return _integrate(net, x0, t_span, schedule, grid, rtol, atol, positivity_floor)


def energy_dissipation_balance(
    net: ReactionNetwork,
    traj: Trajectory,
) -> dict:
    """Audit the exact energy-dissipation identity along a trajectory.

    For rate constants admitting an equilibrium state, the drop in
    relative entropy to that state equals the time integral of the sum
    of primal and dual dissipation:

        D(x(t0)) - D(x(t1)) = integral of [psi + psistar] dt.

    The integral is Simpson's rule on 2,049 evenly spaced samples of the
    dense output (on the trajectory's own samples when it has none).
    The rates are the network's, also for a run under a schedule.
    Returns lhs, rhs, their gap, and the reference state used. Raises
    ValueError when the rate constants carry nonzero cycle affinity,
    since no equilibrium reference exists then, and its FluxUnderflowError
    at a sample whose one-way flux underflowed to 0: psi + psistar there is
    the EPR (j+ - j-) log(j+ / j-), which diverges as j+ -> 0.
    """
    wc = wegscheider_check(net)
    if not wc["is_equilibrium"]:
        raise ValueError(
            "rate constants carry nonzero cycle affinity; no equilibrium reference exists"
        )
    x_eq = np.exp(wc["potential"])
    pot = KLPotential(n=net.n_species)
    lhs = pot.bregman(traj.states[0], x_eq) - pot.bregman(traj.final_state, x_eq)

    ts, xs = traj.times, traj.states
    if traj.dense is not None:
        ts = np.linspace(traj.times[0], traj.times[-1], 2049)  # odd: Simpson pairs every interval
        xs = traj.interpolate(ts)

    def block(x, live, pair):  # every sample: the integral reads them all
        _all_live(live)
        diss = CoshDissipation(pair.activity)
        return {"power": diss.value(pair.flux) + diss.dual_value(pair.force)}

    rhs = float(simpson(map_blocks(net, _positive(xs, "state", batch=True), block)["power"], x=ts))
    return {"lhs": lhs, "rhs": rhs, "gap": lhs - rhs, "reference": x_eq}


def lyapunov_monitor(
    net: ReactionNetwork,
    traj: Trajectory,
    x_ref,
) -> dict:
    """Track d/dt of the relative entropy to a fixed reference state.

    The derivative is evaluated analytically at each sample time as
    -<flux(x), stoich.T log(x / x_ref)> under the network's rates (also
    for a run under a schedule), NaN at samples that map_blocks leaves
    out (a component or a one-way flux at or below zero); x_ref must be
    finite and positive. For a complex-balanced reference this is
    non-positive along every trajectory. max_derivative is the largest finite
    derivative, NaN if none; nonincreasing is max_derivative <= 1e-10 (NaN: False).
    """
    x_ref = _positive(x_ref, "reference state", net.n_species, finite=True)

    def block(x, live, pair):
        return {"derivative": -dot_rows(pair.flux, net.grad(np.log(x / x_ref)))}

    deriv = map_blocks(net, traj.states, block)["derivative"]
    finite = np.isfinite(deriv)
    max_deriv = float(np.max(deriv, initial=-np.inf, where=finite)) if finite.any() else np.nan
    return {
        "times": traj.times,
        "derivative": deriv,
        "max_derivative": max_deriv,
        "nonincreasing": bool(max_deriv <= 1e-10),  # False for NaN
    }
