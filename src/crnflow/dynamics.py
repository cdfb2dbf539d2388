"""Time integration of mass-action dynamics with a thermodynamic ledger.

The state equation xdot = -stoich @ flux(x) is integrated with the
Dormand-Prince 5(4) pair (scipy's RK45) at tight tolerances, with a
terminal event that halts integration before any component crosses a
positivity floor. Alongside the states, each trajectory carries a ledger
of scalar observables per sample time: relative entropy to an optional
reference, entropy production rate and its quadratic lower bound, and
the primal/dual dissipation values whose sum equals the EPR. The ledger,
the Lyapunov monitor and the energy balance evaluate all their samples
in one batched pass (kinetics.mass_action_batch).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import simpson, solve_ivp

from .convex import KLPotential
from .kinetics import ConvergenceError, mass_action_batch, net_flux_raw, wegscheider_check
from .network import ReactionNetwork

LEDGER_KEYS = ("divergence", "epr", "pepr", "psi", "psistar")


@dataclass(frozen=True)
class RateSchedule:
    """Tabulated time-dependent rate constants, linearly interpolated.

    Attributes:
        times: strictly increasing sample times, shape (n,).
        kplus, kminus: rate samples, shape (n, n_edges), all positive.

    Evaluation clamps to the end values outside the tabulated range.
    Linear interpolation of positive samples stays positive.
    """

    times: np.ndarray
    kplus: np.ndarray
    kminus: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        kp = np.asarray(self.kplus, dtype=float)
        km = np.asarray(self.kminus, dtype=float)
        if t.ndim != 1 or t.size < 2 or not (np.all(np.isfinite(t)) and np.all(np.diff(t) > 0)):
            raise ValueError("schedule times must be finite and strictly increasing, length >= 2")
        if kp.ndim != 2 or kp.shape[0] != t.size or km.shape != kp.shape:
            raise ValueError("rate tables must be (n_times, n_edges), matching shapes")
        if not np.all((kp > 0) & (km > 0) & np.isfinite(kp) & np.isfinite(km)):
            raise ValueError("scheduled rates must be finite and strictly positive")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "kplus", kp)
        object.__setattr__(self, "kminus", km)
        table = np.hstack([kp, km])
        slopes = np.diff(table, axis=0) / np.diff(t)[:, None]
        for arr in (table, slopes):
            arr.flags.writeable = False  # __call__ hands out views of their rows
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_slopes", slopes)

    @property
    def n_edges(self) -> int:
        return self.kplus.shape[1]

    def __call__(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Rates at time t, or (n_times, n_edges) tables at an array of times.

        Matches np.interp on every edge bit for bit: the end values outside
        the knots, the knot value on a knot, else slope_j * (t - t_j) + k_j.
        """
        knots, table, slopes, n = self.times, self._table, self._slopes, self.n_edges
        if np.ndim(t) == 0:
            j = int(np.searchsorted(knots, t, side="right")) - 1
            hit = j < 0 or j == knots.size - 1 or knots[j] == t
            row = table[max(j, 0)] if hit else slopes[j] * (t - knots[j]) + table[j]
            return row[:n], row[n:]
        ts = np.asarray(t, dtype=float)
        j = np.clip(np.searchsorted(knots, ts, side="right") - 1, 0, knots.size - 2)
        dt = (ts - knots[j])[:, None]
        rows = np.where(dt > 0, slopes[j] * dt + table[j], table[j])
        rows[ts >= knots[-1]] = table[-1]
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
    (n_times, n_conserved).
    """

    times: np.ndarray
    states: np.ndarray
    ledger: dict[str, np.ndarray]
    eta: np.ndarray
    species: tuple[str, ...]
    halted: bool = False
    halt_reason: str | None = None
    dense: object = field(default=None, repr=False)

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
    rates = (None, None) if schedule is None else schedule(times)
    cols = mass_action_batch(net, states, *rates, x_ref=x_ref, ledger=True)
    eta = states @ net.cons_f.T  # one matrix product: row-wise conserved() rounds some rows differently
    return {k: cols[k] for k in LEDGER_KEYS}, eta


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
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (net.n_species,) or not np.all(x0 > 0):
        raise ValueError("initial state must be strictly positive with matching length")
    if np.isscalar(t_span):
        t0, t1 = 0.0, float(t_span)
    else:
        t0, t1 = (float(v) for v in t_span)
    if not -np.inf < t0 < t1 < np.inf:  # False for NaN too
        raise ValueError("time span must be finite with t1 > t0")
    if not 0.0 < rtol < np.inf:
        raise ValueError("rtol must be finite and positive")
    if not (0.0 <= atol < np.inf and 0.0 <= positivity_floor < np.inf):
        raise ValueError("atol and positivity_floor must be finite and non-negative")

    if schedule is None:
        def rhs(t, x):
            return -net.div(net_flux_raw(net, x))
    else:
        def rhs(t, x):
            kp, km = schedule(t)
            return -net.div(net_flux_raw(net, x, kp, km))

    def floor_event(t, x):
        return float(np.min(x)) - positivity_floor

    floor_event.terminal = True
    floor_event.direction = -1.0

    sol = solve_ivp(
        rhs,
        (t0, t1),
        x0,
        method="RK45",
        rtol=rtol,
        atol=atol,
        dense_output=True,
        events=[floor_event],
    )
    if sol.status == -1:
        raise ConvergenceError(f"integration failed: {sol.message}")

    halted = sol.status == 1
    t_end = float(sol.t[-1])
    times = sol.t
    if grid is not None:
        g = np.asarray(grid, dtype=float)
        g = g[(g >= t0) & (g <= t_end)]
        times = np.union1d(times, g)
    states = sol.sol(times).T
    # pin the integrator's own accepted states exactly
    accepted = np.searchsorted(times, sol.t)
    states[accepted] = sol.y.T

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
        x_ref: optional reference state for the divergence column.
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
    if schedule.n_edges != net.n_edges:
        raise ValueError("schedule edge count does not match network")
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

    Returns lhs, rhs, their gap, and the reference state used. Raises
    ValueError when the rate constants carry nonzero cycle affinity,
    since no equilibrium reference exists then.
    """
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
    if not np.all(xs > 0):
        raise ValueError("state must be strictly positive")
    cols = mass_action_batch(net, xs, ledger=True)
    integrand = cols["psi"] + cols["psistar"]
    rhs = float(simpson(integrand, x=ts))
    return {"lhs": lhs, "rhs": rhs, "gap": lhs - rhs, "reference": x_eq}


def lyapunov_monitor(
    net: ReactionNetwork,
    traj: Trajectory,
    x_ref,
    tol: float = 1e-10,
) -> dict:
    """Track d/dt of the relative entropy to a fixed reference state.

    The derivative is evaluated analytically at each ledger time as
    -<flux(x), stoich.T log(x / x_ref)>; for a complex-balanced
    reference this is non-positive along every trajectory.
    """
    x_ref = np.asarray(x_ref, dtype=float)
    if not np.all(x_ref > 0):
        raise ValueError("reference state must be strictly positive")
    cols = mass_action_batch(net, traj.states)
    rows = cols["rows"]
    force = net.grad(np.log(traj.states[rows] / x_ref))
    deriv = np.full(traj.times.size, np.nan)
    # stacked (1, E) @ (E, 1) products: the same dot per row as the 1-d code
    deriv[rows] = -(cols["flux"][rows][:, None, :] @ force[:, :, None])[:, 0, 0]
    finite = deriv[np.isfinite(deriv)]
    max_deriv = float(np.max(finite, initial=-np.inf))
    return {
        "times": traj.times,
        "derivative": deriv,
        "max_derivative": max_deriv,
        "nonincreasing": bool(max_deriv <= tol),
    }
