"""Per-sample kinetics, ledger, monitors, schedule and effective-rate loops
as they were before the batched implementation: kept as a test oracle.

The bodies are the previous code, copied verbatim. Only what they read
from the network changes form: head/tail compositions are recomputed
from the incidence matrix on every call, as the old properties did, and
velocity_dual / force_split redo their SVD on every call. Products with
stoich.T use a float copy of stoich, as the package's grad does. The
effective loops return their (times, kplus, kminus) tables instead of a
schedule.

The geometry solvers keep their own generic Newton loop (_newton_minimize)
with per-solver closures. KLPotential here is the ledger's subset, so
callers of equilibrium_point pass the potential explicitly. One change
to them is deliberate: equilibrium_point, velocity_dual and force_split
also stop, as the package does, when a full Newton step stalls below the
rounding floor of the gradient at the iterate (_floored), not only at an
absolute tol that a large b, or large fluxes with b = 0 (force_split),
cannot meet.
Like the package, the Newton loop evaluates trial steps without overflow
warnings; such a step fails its acceptance test.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from crnflow.convex import _positive, _sqrt1p_sq_minus_1, _vec, stable_asinh
from crnflow.geometry import _trajectory_samples
from crnflow.kinetics import ConvergenceError, KineticSplit, wegscheider_check
from crnflow.network import ReactionNetwork

LEDGER_KEYS = ("divergence", "epr", "pepr", "psi", "psistar")


def head_compositions(net):
    """(n_species, n_edges) reactant composition per edge."""
    return net.composition @ np.maximum(net.incidence, 0)


def tail_compositions(net):
    """(n_species, n_edges) product composition per edge."""
    return net.composition @ np.maximum(-net.incidence, 0)


# -- kinetics -------------------------------------------------------------


@dataclass(frozen=True)
class EdgePair:
    """One-way flux pair on the edges, with derived coordinates."""

    jplus: np.ndarray
    jminus: np.ndarray

    def __post_init__(self):
        jp = np.asarray(self.jplus, dtype=float)
        jm = np.asarray(self.jminus, dtype=float)
        if jp.shape != jm.shape or jp.ndim != 1:
            raise ValueError("jplus and jminus must be 1-d vectors of equal length")
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


def _monomials(x: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Columnwise monomials prod_i x_i^E[i, e] for integer E >= 0.

    Uses integer powers, so it stays finite (and smooth) when trial
    states dip to zero or slightly below during ODE stepping.
    """
    return np.prod(x[:, None] ** exponents, axis=0)


def mass_action_flux(net, x, kplus=None, kminus=None) -> EdgePair:
    """One-way mass-action fluxes at state x > 0.

    Rate constants default to the network's; pass kplus/kminus to
    evaluate the same topology under different rates.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (net.n_species,):
        raise ValueError(f"state must have length {net.n_species}")
    if not np.all(x > 0):
        raise ValueError("state must be strictly positive")
    kp = net.kplus if kplus is None else np.asarray(kplus, dtype=float)
    km = net.kminus if kminus is None else np.asarray(kminus, dtype=float)
    jp = kp * _monomials(x, head_compositions(net))
    jm = km * _monomials(x, tail_compositions(net))
    return EdgePair(jplus=jp, jminus=jm)


def net_flux_raw(net, x, kplus=None, kminus=None) -> np.ndarray:
    """Net flux as a polynomial in x, defined for any real state.

    Equals mass_action_flux(...).flux on the positive orthant but does
    not require positivity, which keeps ODE right-hand sides total.
    """
    x = np.asarray(x, dtype=float)
    kp = net.kplus if kplus is None else np.asarray(kplus, dtype=float)
    km = net.kminus if kminus is None else np.asarray(kminus, dtype=float)
    return kp * _monomials(x, head_compositions(net)) - km * _monomials(x, tail_compositions(net))


def entropy_production(pair: EdgePair) -> float:
    """EPR <j, f> = sum (jplus - jminus) log(jplus / jminus) >= 0."""
    return float(np.sum(pair.flux * pair.force))


def pseudo_entropy_production(pair: EdgePair) -> float:
    """Quadratic lower bound 2 sum (jplus - jminus)^2 / (jplus + jminus)."""
    d = pair.flux
    return float(2.0 * np.sum(d * d / (pair.jplus + pair.jminus)))


# -- convex ---------------------------------------------------------------


class KLPotential:
    """Relative-entropy potential on concentrations (the parts the ledger uses)."""

    def __init__(self, ref=None, n: int | None = None):
        if ref is None:
            if n is None:
                raise ValueError("provide a reference state or a dimension")
            ref = np.ones(n)
        self.ref = _positive(ref, "ref")
        self.n = self.ref.size

    def bregman(self, x, x_ref) -> float:
        """Relative entropy D[x | x_ref] >= 0, zero iff x == x_ref."""
        x = _positive(x, "x")
        x_ref = _positive(x_ref, "x_ref")
        return float(np.sum(x * np.log(x / x_ref)) - np.sum(x - x_ref))


class CoshDissipation:
    """Cosh-type dissipation pair on edge space, parametrized by weights."""

    def __init__(self, weights):
        self.weights = _positive(weights, "weights")
        self.n = self.weights.size

    def value(self, j) -> float:
        u = _vec(j, "j") / self.weights
        return float(2.0 * np.sum(self.weights * (u * stable_asinh(u) - _sqrt1p_sq_minus_1(u))))

    def dual_value(self, f) -> float:
        f = _vec(f, "f")
        return float(2.0 * np.sum(self.weights * (np.cosh(0.5 * f) - 1.0)))

    def dual_grad(self, f) -> np.ndarray:
        return self.weights * np.sinh(0.5 * _vec(f, "f"))

    def dual_hessian_diag(self, f) -> np.ndarray:
        return 0.5 * self.weights * np.cosh(0.5 * _vec(f, "f"))


# -- dynamics -------------------------------------------------------------


def schedule_rates(schedule, t: float) -> tuple[np.ndarray, np.ndarray]:
    """RateSchedule.__call__: one np.interp per edge and direction."""
    kp = np.array([np.interp(t, schedule.times, col) for col in schedule.kplus.T])
    km = np.array([np.interp(t, schedule.times, col) for col in schedule.kminus.T])
    return kp, km


def _ledger_rows(net, times, states, x_ref, schedule):
    n = times.size
    cols = {k: np.full(n, np.nan) for k in LEDGER_KEYS}
    eta = states @ net.cons_basis.astype(float).T
    pot = KLPotential(n=net.n_species)
    ref = None if x_ref is None else np.asarray(x_ref, dtype=float)
    for i in range(n):
        x = states[i]
        if not np.all(x > 0):
            continue
        if schedule is None:
            pair = mass_action_flux(net, x)
        else:
            kp, km = schedule_rates(schedule, times[i])
            pair = mass_action_flux(net, x, kp, km)
        diss = CoshDissipation(pair.activity)
        cols["epr"][i] = entropy_production(pair)
        cols["pepr"][i] = pseudo_entropy_production(pair)
        cols["psi"][i] = diss.value(pair.flux)
        cols["psistar"][i] = diss.dual_value(pair.force)
        if ref is not None:
            cols["divergence"][i] = pot.bregman(x, ref)
    return cols, eta


def energy_dissipation_balance(net, traj, n_samples: int = 2049) -> dict:
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
    integrand = np.empty(ts.size)
    for i, x in enumerate(xs):
        pair = mass_action_flux(net, x)
        diss = CoshDissipation(pair.activity)
        integrand[i] = diss.value(pair.flux) + diss.dual_value(pair.force)
    rhs = float(simpson(integrand, x=ts))
    return {"lhs": lhs, "rhs": rhs, "gap": lhs - rhs, "reference": x_eq}


def lyapunov_monitor(net, traj, x_ref, tol: float = 1e-10) -> dict:
    x_ref = np.asarray(x_ref, dtype=float)
    if not np.all(x_ref > 0):
        raise ValueError("reference state must be strictly positive")
    deriv = np.full(traj.times.size, np.nan)
    for i, x in enumerate(traj.states):
        if not np.all(x > 0):
            continue
        pair = mass_action_flux(net, x)
        deriv[i] = -float(pair.flux @ (net.stoich.T.astype(float) @ np.log(x / x_ref)))
    finite = deriv[np.isfinite(deriv)]
    max_deriv = float(np.max(finite, initial=-np.inf))
    return {
        "times": traj.times,
        "derivative": deriv,
        "max_derivative": max_deriv,
        "nonincreasing": bool(max_deriv <= tol),
    }


# -- geometry -------------------------------------------------------------


def _floored(fn, a, b, y0, y_of):
    """Rounding floor of the gradient at z: 64 eps times the larger of
    max|b| and max(|a| @ (|dual_grad(y)| + |H(y)| @ (|y0| + |a.T| @ |z|))),
    y = y_of(z) the iterate and H the dual Hessian there."""

    def floor(z):
        y = y_of(z)
        r = np.abs(y0) + np.abs(a.T) @ np.abs(z)
        scale = np.abs(a) @ (np.abs(fn.dual_grad(y)) + np.abs(_dual_hessian_matrix(fn, y)) @ r)
        scale = max(np.max(np.abs(b), initial=0.0), np.max(scale, initial=0.0))
        return 64.0 * np.finfo(float).eps * float(scale)

    return floor


def _newton_minimize(value, grad, hess, z0, tol, floor, max_iter, what):
    """Damped Newton for smooth strictly convex objectives.

    Stops when the gradient's max norm falls below tol, or when a full
    step fails to contract it while it is below floor(z). A full
    step that contracts the gradient norm is accepted outright (near the
    optimum the true objective decrease underflows double precision, so
    a value-based test alone stalls); otherwise the step is Armijo
    backtracked (halving, c = 1e-4) on the objective value, with an
    eps-level slack absorbing rounding of the value itself.
    """
    z = np.asarray(z0, dtype=float).copy()
    g = grad(z)
    for it in range(max_iter + 1):
        gnorm = float(np.max(np.abs(g), initial=0.0))
        if gnorm < tol:
            return z, it
        if it == max_iter:
            break
        h = hess(z)
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(h, -g, rcond=None)
        trial = z + step
        with np.errstate(over="ignore", invalid="ignore"):
            g_trial = grad(trial)
        if float(np.max(np.abs(g_trial), initial=0.0)) <= 0.9 * gnorm:
            z, g = trial, g_trial
            continue
        if gnorm < floor(z):
            return z, it
        v0 = value(z)
        slope = float(g @ step)
        slack = 4.0 * np.finfo(float).eps * abs(v0)
        alpha = 1.0
        while alpha >= 1e-14:
            trial = z + alpha * step
            with np.errstate(over="ignore", invalid="ignore"):
                trial_value = value(trial)
            if trial_value <= v0 + 1e-4 * alpha * slope + slack:
                z = trial
                break
            alpha *= 0.5
        else:
            raise ConvergenceError(
                f"{what}: line search stalled", best=z, residual=gnorm, iterations=it
            )
        g = grad(z)
    raise ConvergenceError(
        f"{what}: no convergence in {max_iter} iterations",
        best=z,
        residual=float(np.max(np.abs(g), initial=0.0)),
        iterations=max_iter,
    )


def _dual_hessian_matrix(potential, y: np.ndarray) -> np.ndarray:
    if hasattr(potential, "dual_hessian_diag"):
        return np.diag(potential.dual_hessian_diag(y))
    return potential.dual_hessian(y)


def equilibrium_point(
    net: ReactionNetwork,
    x0,
    x_ref,
    potential=None,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> np.ndarray:
    """Bregman projection of x_ref onto the leaf through x0.

    Minimizes the potential's divergence to x_ref subject to matching
    x0's conserved quantities. Solved by Newton in the dual coordinates
    y = grad(x_ref) + cons_basis.T @ lam, where the objective reduces to
    dual_value(y) - <conserved(x0), lam>; its gradient is exactly the
    conserved-quantity mismatch, so the returned state satisfies
    |conserved(x) - conserved(x0)|_inf < tol. By construction
    grad(x) - grad(x_ref) lies in the span of the conserved rows.

    With no conserved quantities the leaf is the whole orthant and the
    projection is x_ref itself.
    """
    x0 = np.asarray(x0, dtype=float)
    x_ref = np.asarray(x_ref, dtype=float)
    pot = KLPotential(n=net.n_species) if potential is None else potential
    if net.n_conserved == 0:
        return pot.dual_grad(pot.grad(x_ref))
    u = net.cons_basis.astype(float)
    y_ref = pot.grad(x_ref)
    target = u @ x0

    def y_of(lam):
        return y_ref + u.T @ lam

    def value(lam):
        return pot.dual_value(y_of(lam)) - float(target @ lam)

    def grad(lam):
        return u @ pot.dual_grad(y_of(lam)) - target

    def hess(lam):
        return u @ _dual_hessian_matrix(pot, y_of(lam)) @ u.T

    lam0 = np.zeros(net.n_conserved)
    floor = _floored(pot, u, target, y_ref, y_of)
    lam, _ = _newton_minimize(value, grad, hess, lam0, tol, floor, max_iter, "equilibrium_point")
    return pot.dual_grad(y_of(lam))


def _orthonormal_image(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space, via SVD."""
    m = np.asarray(mat, dtype=float)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((m.shape[0], 0))
    r = int(np.sum(s > max(m.shape) * np.finfo(float).eps * s[0]))
    return u[:, :r]


def velocity_dual(net, dissip, v, mu0=None, tol: float = 1e-10, max_iter: int = 100) -> dict:
    v = np.asarray(v, dtype=float)
    s = net.stoich.astype(float)
    q = _orthonormal_image(s)
    resid = v - q @ (q.T @ v)
    vnorm = float(np.max(np.abs(v), initial=0.0))
    if float(np.max(np.abs(resid), initial=0.0)) > 1e-9 * (1.0 + vnorm):
        raise ValueError("velocity is not realizable: not in the image of stoich")
    qs = q.T @ s  # reduced stoichiometry, shape (rank, n_edges)

    def force_of(mu):
        return -qs.T @ mu

    def value(mu):
        return dissip.dual_value(force_of(mu)) - float((q.T @ v) @ mu)

    def grad(mu):
        return -qs @ dissip.dual_grad(force_of(mu)) - q.T @ v

    def hess(mu):
        return qs @ (dissip.dual_hessian_diag(force_of(mu))[:, None] * qs.T)

    mu_init = np.zeros(q.shape[1]) if mu0 is None else np.asarray(mu0, dtype=float)
    floor = _floored(dissip, -qs, q.T @ v, 0.0, force_of)
    mu, iters = _newton_minimize(value, grad, hess, mu_init, tol, floor, max_iter, "velocity_dual")
    u = q @ mu
    force = -s.T @ u
    flux = dissip.dual_grad(force)
    return {
        "u": u,
        "force": force,
        "flux": flux,
        "value": dissip.value(flux),
        "dual_value": dissip.dual_value(force),
        "mu": mu,
        "iterations": iters,
        "velocity_residual": float(np.max(np.abs(s @ flux + v), initial=0.0)),
    }


def force_split(net, dissip, f, mu0=None, tol: float = 1e-10, max_iter: int = 100) -> dict:
    f = np.asarray(f, dtype=float)
    s = net.stoich.astype(float)
    q = _orthonormal_image(s)
    qs = q.T @ s

    def force_of(mu):
        return f + qs.T @ mu

    def value(mu):
        return dissip.dual_value(force_of(mu))

    def grad(mu):
        return qs @ dissip.dual_grad(force_of(mu))

    def hess(mu):
        return qs @ (dissip.dual_hessian_diag(force_of(mu))[:, None] * qs.T)

    mu_init = np.zeros(q.shape[1]) if mu0 is None else np.asarray(mu0, dtype=float)
    floor = _floored(dissip, qs, np.zeros(len(qs)), f, force_of)
    mu, iters = _newton_minimize(value, grad, hess, mu_init, tol, floor, max_iter, "force_split")
    force = force_of(mu)
    flux = dissip.dual_grad(force)
    y = q @ mu
    return {
        "force": force,
        "flux": flux,
        "shift": force - f,
        "y": y,
        "mu": mu,
        "value": dissip.value(flux),
        "dual_value": dissip.dual_value(force),
        "iterations": iters,
        "divergence_residual": float(np.max(np.abs(s @ flux), initial=0.0)),
    }


def effective_equilibrium_rates(net, traj, times=None, tol: float = 1e-10, max_iter: int = 100):
    ts, xs = _trajectory_samples(traj, times)
    split = KineticSplit.from_rates(net.kplus, net.kminus)
    st = net.stoich.T.astype(float)
    vt = net.cycle_basis.T.astype(float)
    kp_tab = np.empty((ts.size, net.n_edges))
    km_tab = np.empty_like(kp_tab)
    zeta_res = np.empty(ts.size)
    vel_res = np.empty(ts.size)
    iters = np.zeros(ts.size, dtype=int)
    mu = None
    for i, (t, x) in enumerate(zip(ts, xs)):
        pair = mass_action_flux(net, x)
        dissip = CoshDissipation(pair.activity)
        velocity = -net.stoich.astype(float) @ pair.flux
        out = velocity_dual(net, dissip, velocity, mu0=mu, tol=tol, max_iter=max_iter)
        mu = out["mu"]
        iters[i] = out["iterations"]
        keq = np.exp(-st @ out["u"] - st @ np.log(x))
        root = np.sqrt(keq)
        kp_tab[i] = split.kappa * root
        km_tab[i] = split.kappa / root
        new_pair = mass_action_flux(net, x, kp_tab[i], km_tab[i])
        zeta_res[i] = float(np.max(np.abs(vt @ new_pair.force), initial=0.0))
        new_velocity = -net.stoich.astype(float) @ new_pair.flux
        vel_res[i] = float(
            np.max(np.abs(new_velocity - velocity), initial=0.0)
            / (1.0 + np.max(np.abs(velocity), initial=0.0))
        )
    certificates = {
        "zeta_residual": zeta_res,
        "velocity_residual": vel_res,
        "iterations": iters,
    }
    return (ts, kp_tab, km_tab), certificates


def effective_steady_rates(net, traj, times=None, tol: float = 1e-10, max_iter: int = 100):
    ts, xs = _trajectory_samples(traj, times)
    split = KineticSplit.from_rates(net.kplus, net.kminus)
    st = net.stoich.T.astype(float)
    vt = net.cycle_basis.T.astype(float)
    kp_tab = np.empty((ts.size, net.n_edges))
    km_tab = np.empty_like(kp_tab)
    steady_res = np.empty(ts.size)
    affinity_res = np.empty(ts.size)
    iters = np.zeros(ts.size, dtype=int)
    mu = None
    for i, (t, x) in enumerate(zip(ts, xs)):
        pair = mass_action_flux(net, x)
        dissip = CoshDissipation(pair.activity)
        out = force_split(net, dissip, pair.force, mu0=mu, tol=tol, max_iter=max_iter)
        mu = out["mu"]
        iters[i] = out["iterations"]
        keq = np.exp(out["force"] - st @ np.log(x))
        root = np.sqrt(keq)
        kp_tab[i] = split.kappa * root
        km_tab[i] = split.kappa / root
        new_pair = mass_action_flux(net, x, kp_tab[i], km_tab[i])
        steady_res[i] = float(np.max(np.abs(net.stoich @ new_pair.flux), initial=0.0))
        affinity_res[i] = float(
            np.max(np.abs(vt @ new_pair.force - vt @ pair.force), initial=0.0)
        )
    certificates = {
        "steady_residual": steady_res,
        "affinity_residual": affinity_res,
        "iterations": iters,
    }
    return (ts, kp_tab, km_tab), certificates
