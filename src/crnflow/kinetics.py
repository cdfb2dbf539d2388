"""Mass-action kinetics on reaction networks.

Forward and backward one-way fluxes follow mass action on the head and
tail compositions of each edge. Three equivalent edge coordinate systems
appear throughout: one-way fluxes (jplus, jminus), net flux and force
(j, f), and force and activity (f, w), linked by

    j = jplus - jminus        f = log(jplus / jminus)
    w = 2 sqrt(jplus jminus)  j = w sinh(f / 2)

Rate constants likewise split into an equilibrium part K = kplus/kminus
and a frenetic part kappa = sqrt(kplus kminus).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convex import CoshDissipation, KLPotential, _total
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
        jp = np.asarray(self.jplus, dtype=float)
        jm = np.asarray(self.jminus, dtype=float)
        if jp.shape != jm.shape or jp.ndim not in (1, 2):
            raise ValueError("jplus and jminus must be 1-d vectors (or 2-d batches) of equal length")
        if not (np.all(jp > 0) and np.all(jm > 0)):
            raise ValueError("one-way fluxes must be strictly positive")
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
        kp = np.asarray(kplus, dtype=float)
        km = np.asarray(kminus, dtype=float)
        if not (np.all(kp > 0) and np.all(km > 0)):
            raise ValueError("rates must be strictly positive")
        return cls(kappa=np.sqrt(kp * km), keq=kp / km)

    def rates(self) -> tuple[np.ndarray, np.ndarray]:
        root = np.sqrt(self.keq)
        return self.kappa * root, self.kappa / root


def _monomials(net: ReactionNetwork, x: np.ndarray) -> np.ndarray:
    """Forward then backward monomials prod_i x_i^E[i, e], (T, 2 n_edges), per row of x.

    The sparse net.factors multiply in ascending species order with
    integer powers: bit-equal to the dense product over all species,
    finite for trial states at or below zero, and O(T * nnz) memory.
    """
    species, powers, starts = net.factors
    # tiled powers: numpy squares a zero-stride exponent of 2 as x * x,
    # which is not bit-equal to its pow
    factors = np.power(x[:, species], np.tile(powers, (len(x), 1)))
    return np.multiply.reduceat(factors, starts, axis=1)


def _one_way(net: ReactionNetwork, x: np.ndarray, kplus, kminus) -> tuple[np.ndarray, np.ndarray]:
    kp = net.kplus if kplus is None else np.asarray(kplus, dtype=float)
    km = net.kminus if kminus is None else np.asarray(kminus, dtype=float)
    mono = _monomials(net, x)
    return kp * mono[:, : net.n_edges], km * mono[:, net.n_edges :]


def mass_action_flux(net: ReactionNetwork, x, kplus=None, kminus=None) -> EdgePair:
    """One-way mass-action fluxes at state x > 0.

    Rate constants default to the network's; pass kplus/kminus to
    evaluate the same topology under different rates.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (net.n_species,):
        raise ValueError(f"state must have length {net.n_species}")
    if not np.all(x > 0):
        raise ValueError("state must be strictly positive")
    jp, jm = _one_way(net, x[None], kplus, kminus)
    return EdgePair(jplus=jp[0], jminus=jm[0])


def net_flux_raw(net: ReactionNetwork, x, kplus=None, kminus=None) -> np.ndarray:
    """Net flux as a polynomial in x, defined for any real state.

    Equals mass_action_flux(...).flux on the positive orthant but does
    not require positivity, which keeps ODE right-hand sides total.
    """
    jp, jm = _one_way(net, np.asarray(x, dtype=float)[None], kplus, kminus)
    return (jp - jm)[0]


def mass_action_batch(net: ReactionNetwork, states, kplus=None, kminus=None, x_ref=None, ledger=False) -> dict:
    """Edge coordinates at every row of a (T, n_species) state array at once.

    Rows with a component at or below zero are skipped: NaN in every
    output, and "rows" marks the others. kplus/kminus may be (T, n_edges)
    tables. Gives flux, force and activity, (T, n_edges); ledger=True adds
    the (T,) columns epr, pepr, psi, psistar (the cosh dissipation of flux
    and force weighted by the activity) and divergence (relative entropy
    to x_ref, NaN without one). Rows are bit-identical to the per-state
    functions, with the same ValueError on non-positive fluxes or weights.
    """
    x = np.asarray(states, dtype=float)
    if x.ndim != 2 or x.shape[1] != net.n_species:
        raise ValueError(f"states must have shape (T, {net.n_species})")
    rows = np.all(x > 0, axis=1)
    x = x[rows]
    rates = [k if np.ndim(k) < 2 else np.asarray(k, dtype=float)[rows] for k in (kplus, kminus)]
    pair = EdgePair(*_one_way(net, x, *rates))
    cols = {"flux": pair.flux, "force": pair.force, "activity": pair.activity}
    if ledger:
        diss = CoshDissipation(cols["activity"])
        cols["epr"] = entropy_production(pair)
        cols["pepr"] = pseudo_entropy_production(pair)
        cols["psi"] = diss.value(cols["flux"])
        cols["psistar"] = diss.dual_value(cols["force"])
        kl = KLPotential(n=net.n_species)
        cols["divergence"] = np.full(len(x), np.nan) if x_ref is None else kl.bregman(x, x_ref)
    out = {"rows": rows}
    for key, val in cols.items():
        out[key] = np.full(rows.shape + val.shape[1:], np.nan)
        out[key][rows] = val
    return out


def mass_action_force_activity(net: ReactionNetwork, x) -> tuple[np.ndarray, np.ndarray]:
    """Edge force and activity at state x > 0, computed in the log domain.

    force    = log K + stoich.T log x
    activity = 2 kappa exp(0.5 (head + tail compositions).T log x)
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (net.n_species,) or not np.all(x > 0):
        raise ValueError("state must be strictly positive with matching length")
    logx = np.log(x)
    f = np.log(net.kplus / net.kminus) + net.grad(logx)
    half_sum = 0.5 * (net.head_compositions + net.tail_compositions).T @ logx
    w = 2.0 * np.sqrt(net.kplus * net.kminus) * np.exp(half_sum)
    return f, w


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
        "is_equilibrium": bool(np.max(np.abs(affinity), initial=0.0) < tol),
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
    flux_residual = float(np.max(np.abs(j), initial=0.0))
    complex_residual = float(np.max(np.abs(net.incidence @ j), initial=0.0))
    species_residual = float(np.max(np.abs(net.div(j)), initial=0.0))
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
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (net.n_species,) or not np.all(x > 0):
        raise ValueError("x0 must be a strictly positive state")
    target = net.conserved(x)

    def residual(xv):
        pair = mass_action_flux(net, xv)
        return np.concatenate([net.div(pair.flux), net.conserved(xv) - target]), pair

    r, pair = residual(x)
    scale = 1.0 + float(np.max(np.abs(r)))
    for it in range(max_iter):
        norm = float(np.max(np.abs(r)))
        if norm < tol * scale:
            return x
        jac = np.vstack([net.stoich_f @ _flux_jacobian(net, x, pair), net.cons_f])
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        alpha = 1.0
        while alpha > 1e-14:
            trial = x + alpha * step
            if np.all(trial > 0):
                r_trial, pair_trial = residual(trial)
                if np.max(np.abs(r_trial)) < (1.0 - 1e-4 * alpha) * norm or norm == 0.0:
                    x, r, pair = trial, r_trial, pair_trial
                    break
            alpha *= 0.5
        else:
            raise ConvergenceError(
                "steady-state search stalled", best=x, residual=norm, iterations=it
            )
    raise ConvergenceError(
        "steady-state search did not converge",
        best=x,
        residual=float(np.max(np.abs(r))),
        iterations=max_iter,
    )
