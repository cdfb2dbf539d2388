"""Mass-action kinetics on reaction networks.

Forward and backward one-way fluxes follow mass action on the head and
tail compositions of each edge. Three equivalent edge coordinate systems
appear throughout: one-way fluxes (jplus, jminus), net flux and force
(j, f), and force and activity (f, w), linked by

    j = jplus - jminus        f = log(jplus / jminus)
    w = 2 sqrt(jplus jminus)  j = w sinh(f / 2)

Rate constants likewise split into an equilibrium part K = kplus/kminus
and a frenetic part kappa = sqrt(kplus kminus).

The fluxes at one state come from one closure per network and rate
source, one_way_kernel, which the ODE right-hand side builds once per
integration; net_flux_raw (any real state) and mass_action_flux (one
positive state) build it per call. Batches of rows go through _one_way,
in one driver: map_blocks hands a per-block function the EdgePair of
each block of positive rows and writes its columns back at full length.
Every pass over samples (the ledger, the Lyapunov monitor, the energy
balance, the effective schedules) is such a function. Rates enter
checked, as a network's (build_network, ReactionNetwork.with_rates) or
as a RateSchedule's rows or tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import _positive, _vec
from .convex import _sup, _total
from .network import ReactionNetwork


class ConvergenceError(RuntimeError):
    """Iterative solver failed to reach tolerance.

    Attributes:
        best: the last iterate.
        residual: its stationarity residual.
        iterations: iterations spent.
    """

    def __init__(self, message: str, best=None, residual: float = np.nan, iterations: int = 0):
        super().__init__(message)
        self.best = best
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class EdgePair:
    """One-way flux pair on the edges, with derived coordinates.

    jplus and jminus are 1-d vectors, or (T, n_edges) batches, one state per row.
    """

    jplus: np.ndarray
    jminus: np.ndarray

    def __post_init__(self):
        jp, jm = (_positive(j, "one-way fluxes", batch=True) for j in (self.jplus, self.jminus))
        if jp.shape != jm.shape:
            raise ValueError("jplus and jminus must be 1-d vectors (or 2-d batches) of equal length")
        object.__setattr__(self, "jplus", jp)
        object.__setattr__(self, "jminus", jm)

    @property
    def flux(self) -> np.ndarray:
        return self.jplus - self.jminus

    @property
    def force(self) -> np.ndarray:
        return np.log(self.jplus / self.jminus)

    @property
    def activity(self) -> np.ndarray:
        """Edge activity 2 sqrt(jplus jminus); satisfies flux = activity sinh(force/2)."""
        return 2.0 * np.sqrt(self.jplus * self.jminus)


@dataclass(frozen=True)
class KineticSplit:
    """Equilibrium/frenetic factorization of the rate constants.

    kplus = kappa sqrt(keq), kminus = kappa / sqrt(keq). The map between
    (kplus, kminus) and (kappa, keq) is a bijection on positive vectors.
    """

    kappa: np.ndarray
    keq: np.ndarray

    @classmethod
    def from_rates(cls, kplus, kminus) -> "KineticSplit":
        kp, km = (_positive(k, "rates", batch=True) for k in (kplus, kminus))
        return cls(kappa=np.sqrt(kp * km), keq=kp / km)

    def rates(self) -> tuple[np.ndarray, np.ndarray]:
        root = np.sqrt(self.keq)
        return self.kappa * root, self.kappa / root


def one_way_kernel(net: ReactionNetwork, row=None):
    """The one-way fluxes at one state, as a closure built once per network
    and rate source.

    kernel(t, x) returns [jplus | jminus], shape (2 n_edges,), at a 1-d
    state x: kplus * prod_i x_i^head[i, e] and kminus * prod_i
    x_i^tail[i, e]. The sparse net.factors multiply in ascending species
    order with integer powers: bit-equal to the dense product over all
    species, and finite for trial states at or below zero. The rates are
    the network's, or row(t) when a row lookup t -> [kplus | kminus] is
    given (RateSchedule._row); t is read only then.
    """
    species, powers, starts = net.factors
    power, reduceat = np.power, np.multiply.reduceat
    k = np.concatenate([net.kplus, net.kminus])

    def kernel(t, x):
        m = reduceat(power(x[species], powers), starts)
        m *= k if row is None else row(t)  # bit-equal to kplus * m[:n], kminus * m[n:]
        return m

    return kernel


def _one_way(net: ReactionNetwork, x: np.ndarray, kplus, kminus) -> tuple[np.ndarray, np.ndarray]:
    """One-way fluxes per row of a (T, n_species) x, each row bit-equal to
    one_way_kernel's at that state.

    Rates None mean the network's; explicit ones may be (T, n_edges).
    O(T * nnz) memory.
    """
    species, powers, starts = net.factors
    kp = net.kplus if kplus is None else np.asarray(kplus, dtype=float)
    km = net.kminus if kminus is None else np.asarray(kminus, dtype=float)
    n = starts.size // 2  # edges
    # tiled powers: numpy squares a zero-stride (broadcast) exponent of 2 as x * x, not as its pow
    mono = np.multiply.reduceat(np.power(x[:, species], np.tile(powers, (len(x), 1))), starts, axis=1)
    return kp * mono[:, :n], km * mono[:, n:]


def mass_action_flux(net: ReactionNetwork, x) -> EdgePair:
    """One-way mass-action fluxes at state x > 0, under the network's rates.

    For the same topology under other rates, pass net.with_rates(kplus,
    kminus): it checks them and shares the network's structure.
    """
    m, n = one_way_kernel(net)(None, _positive(x, "state", net.n_species)), net.n_edges
    return EdgePair(m[:n], m[n:])


def net_flux_raw(net: ReactionNetwork, x) -> np.ndarray:
    """Net flux as a polynomial in x, defined for any real state of shape (n_species,).

    Equals mass_action_flux(...).flux on the positive orthant but does
    not require positivity, which keeps ODE right-hand sides total.
    """
    m, n = one_way_kernel(net)(None, _vec(x, "state", net.n_species)), net.n_edges
    return m[:n] - m[n:]


_BATCH_ROWS = 1024  # rows per block of map_blocks, read at each call: temporaries scale with it, not T


def map_blocks(net: ReactionNetwork, states, fn, kplus=None, kminus=None) -> dict[str, np.ndarray]:
    """fn's columns over a (T, n_species) state array, computed a block of _BATCH_ROWS rows at a time.

    fn(rows, live, pair) gets a block's slice, the mask of its live rows, whose
    components and one-way fluxes are all positive, and the EdgePair there (rows
    bit-equal to one_way_kernel's), and returns a dict of arrays, one entry or row per
    live row; each comes back at full length T, NaN at the rows not live (so an int
    column needs every row live). kplus/kminus are None (the network's rates) or
    checked (T, n_edges) tables.
    """
    x = np.asarray(states, dtype=float)
    if x.ndim != 2 or x.shape[1] != net.n_species:
        raise ValueError(f"states must have shape (T, {net.n_species})")
    rates = [k if k is None else np.asarray(k, dtype=float) for k in (kplus, kminus)]
    if any(k is not None and k.shape != (len(x), net.n_edges) for k in rates):
        raise ValueError(f"rate tables must have shape ({len(x)}, {net.n_edges})")
    columns = {}
    for start in range(0, max(len(x), 1), _BATCH_ROWS):  # one block at T = 0, so fn's columns exist
        rows = slice(start, start + _BATCH_ROWS)
        live = np.all(x[rows] > 0, axis=1)
        jp, jm = _one_way(net, x[rows][live], *(k if k is None else k[rows][live] for k in rates))
        flowing = np.all(jp > 0, axis=1) & np.all(jm > 0, axis=1)  # no one-way flux underflowed to 0
        live[live] = flowing
        pair = EdgePair(jp[flowing], jm[flowing])
        for key, val in fn(rows, live, pair).items():  # fn's dict is dropped with the loop
            if key not in columns:
                columns[key] = np.empty((len(x), *val.shape[1:]), val.dtype)
            if not live.all():
                columns[key][rows][~live] = np.nan
            columns[key][rows][live] = val
        del pair, jp, jm  # before the next block's kinetics are built
    return columns


def _all_live(live: np.ndarray) -> None:
    """For a pass that needs every sample, of positive states: a row map_blocks
    leaves out there has a one-way flux that underflowed to 0."""
    if not live.all():
        raise ValueError("one-way fluxes must be strictly positive")


def entropy_production(pair: EdgePair):
    """EPR <j, f> = sum (jplus - jminus) log(jplus / jminus) >= 0 (per row of a batch)."""
    return _total(np.sum(pair.flux * pair.force, axis=-1))


def pseudo_entropy_production(pair: EdgePair):
    """Quadratic lower bound 2 sum (jplus - jminus)^2 / (jplus + jminus)."""
    d = pair.flux
    return _total(2.0 * np.sum(d * d / (pair.jplus + pair.jminus), axis=-1))


def wegscheider_check(net: ReactionNetwork, tol: float = 1e-10) -> dict:
    """Test whether the rate constants admit a detailed-balanced state.

    The condition is that every stoichiometric cycle carries zero
    affinity: cycle_basis.T log K = 0. The returned potential is the
    minimum-norm species vector y with log K = -stoich.T y up to the
    returned residual force, which is orthogonal to the image of
    stoich.T (zero iff the condition holds).
    """
    logk = np.log(net.kplus / net.kminus)
    affinity = net.curl(logk)
    y, *_ = np.linalg.lstsq(net.stoich_f.T, -logk, rcond=None)
    residual = logk + net.grad(y)
    return {
        "is_equilibrium": bool(_sup(affinity) < tol),
        "cycle_affinity": affinity,
        "potential": y,
        "residual_force": residual,
        "tol": tol,
    }


def classify_state(net: ReactionNetwork, x, tol: float = 1e-8) -> dict:
    """Classify a positive state by which flux balances hold.

    detailed_balance: every edge flux vanishes.
    complex_balanced: incidence @ flux = 0 (flux conserved at each
        hypervertex) but some edge flux is nonzero.
    steady: stoich @ flux = 0 but flux not complex balanced.
    transient: otherwise.

    The three balance classes are nested (each implies the next).
    """
    pair = mass_action_flux(net, x)
    j = pair.flux
    flux_residual = _sup(j)
    complex_residual = _sup(net.incidence @ j)
    species_residual = _sup(net.div(j))
    if flux_residual < tol:
        label = "detailed_balance"
    elif complex_residual < tol:
        label = "complex_balanced"
    elif species_residual < tol:
        label = "steady"
    else:
        label = "transient"
    return {
        "label": label,
        "flux_residual": flux_residual,
        "complex_residual": complex_residual,
        "species_residual": species_residual,
        "tol": tol,
    }


def _flux_jacobian(net: ReactionNetwork, x: np.ndarray, pair: EdgePair) -> np.ndarray:
    # d j_e / d x_i = (head[i,e] jplus[e] - tail[i,e] jminus[e]) / x_i
    num = net.head_compositions * pair.jplus[None, :] - net.tail_compositions * pair.jminus[None, :]
    return (num / x[:, None]).T


def find_steady_state(
    net: ReactionNetwork,
    x0,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> np.ndarray:
    """Positive steady state on the stoichiometric leaf through x0.

    Damped Newton iteration on the square-free system
    [stoich @ flux(x); cons_basis @ (x - x0)] = 0, solved in the least
    squares sense per step with backtracking that keeps x positive.
    """
    x = _positive(x0, "x0", net.n_species).copy()
    target = net.conserved(x)

    def residual(xv):
        pair = mass_action_flux(net, xv)
        return np.concatenate([net.div(pair.flux), net.conserved(xv) - target]), pair

    r, pair = residual(x)
    scale = 1.0 + _sup(r)
    for it in range(max_iter):
        norm = _sup(r)
        if norm < tol * scale:
            return x
        jac = np.vstack([net.stoich_f @ _flux_jacobian(net, x, pair), net.cons_f])
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        alpha = 1.0
        while alpha > 1e-14:
            trial = x + alpha * step
            if np.all(trial > 0):
                r_trial, pair_trial = residual(trial)
                if _sup(r_trial) < (1.0 - 1e-4 * alpha) * norm or norm == 0.0:
                    x, r, pair = trial, r_trial, pair_trial
                    break
            alpha *= 0.5
        else:
            raise ConvergenceError(
                "steady-state search stalled", best=x, residual=norm, iterations=it
            )
    raise ConvergenceError("steady-state search did not converge", best=x, residual=_sup(r), iterations=max_iter)
