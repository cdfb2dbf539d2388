"""Dual-coordinate solvers on the network's vertex and edge spaces.

Species space splits into the image of the stoichiometric matrix and
its orthogonal complement (spanned by the conserved quantities); edge
space splits into the image of stoich.T and the cycle space. Every
solver here is a small damped Newton iteration on a strictly convex
objective posed in one of these subspaces:

  * equilibrium_point: Bregman projection of a reference state onto the
    stoichiometric leaf through x0 (the unique equilibrium sharing x0's
    conserved quantities).
  * velocity_dual: given a species velocity v in the image of stoich,
    find the species potential u whose induced flux realizes v; this is
    the Legendre dual pair induced on (velocity, potential) coordinates.
  * flux_split: complementary projection of an edge flux onto the set of
    fluxes realizing the same velocity, minimizing dual dissipation.
  * force_split: projection of an edge force along the image of stoich.T
    onto the set of forces with the same cycle affinities; its flux is
    divergence-free.
  * cycle_dual: the Legendre dual pair induced on (cycle flux, cycle
    affinity) coordinates, built on force_split.
  * effective_equilibrium_rates / effective_steady_rates: pointwise
    along a trajectory, rate constants that reproduce the instantaneous
    velocity with an equilibrium (curl-free force) model, or the
    instantaneous cycle affinities with a steady (divergence-free flux)
    model. Both share one driver: only the warm-started per-sample
    projections run one by one; the kinetics before and after them, the
    rate tables and the certificates are evaluated for all samples at
    once.
  * pseudo_hilbert_split: symmetric/antisymmetric force splitting about
    an iso-dissipation reference, with non-negative pairings.
"""

from __future__ import annotations

import numpy as np

from .convex import CoshDissipation, KLPotential
from .dynamics import RateSchedule, Trajectory
from .kinetics import ConvergenceError, KineticSplit, mass_action_batch, mass_action_flux
from .network import ReactionNetwork, matvec_rows


def _newton_minimize(value, grad, hess, z0, tol, scale, max_iter, what):
    """Damped Newton for smooth strictly convex objectives.

    Stops when the gradient's max norm falls below tol * scale. A full
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
        if gnorm < tol * scale:
            return z, it
        if it == max_iter:
            break
        h = hess(z)
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(h, -g, rcond=None)
        trial = z + step
        g_trial = grad(trial)
        if float(np.max(np.abs(g_trial), initial=0.0)) <= 0.9 * gnorm:
            z, g = trial, g_trial
            continue
        v0 = value(z)
        slope = float(g @ step)
        slack = 4.0 * np.finfo(float).eps * abs(v0)
        alpha = 1.0
        while alpha >= 1e-14:
            trial = z + alpha * step
            if value(trial) <= v0 + 1e-4 * alpha * slope + slack:
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

    lam, _ = _newton_minimize(
        value, grad, hess, np.zeros(net.n_conserved), tol, 1.0, max_iter, "equilibrium_point"
    )
    return pot.dual_grad(y_of(lam))


def pythagoras_gap(
    net: ReactionNetwork,
    x,
    x_mid,
    x_far,
    potential=None,
    membership_tol: float = 1e-8,
) -> dict:
    """Three-point divergence identity across the orthogonal split.

    Requires x - x_mid in the image of stoich (same conserved
    quantities) and grad(x_far) - grad(x_mid) orthogonal to it (their
    dual difference killed by stoich.T). Then

        D[x | x_far] = D[x | x_mid] + D[x_mid | x_far]

    and the returned gap is the numerical defect of that identity.
    """
    pot = KLPotential(n=net.n_species) if potential is None else potential
    x = np.asarray(x, dtype=float)
    x_mid = np.asarray(x_mid, dtype=float)
    x_far = np.asarray(x_far, dtype=float)
    u = net.cons_basis.astype(float)
    leaf_res = float(np.max(np.abs(u @ (x - x_mid)), initial=0.0))
    dual_res = float(
        np.max(np.abs(net.stoich.T @ (pot.grad(x_far) - pot.grad(x_mid))), initial=0.0)
    )
    scale = 1.0 + float(np.max(np.abs(x)))
    if leaf_res > membership_tol * scale:
        raise ValueError(f"x and x_mid are on different leaves (residual {leaf_res:.3e})")
    if dual_res > membership_tol:
        raise ValueError(
            f"x_far and x_mid differ outside the conserved span (residual {dual_res:.3e})"
        )
    total = pot.bregman(x, x_far)
    leg_near = pot.bregman(x, x_mid)
    leg_far = pot.bregman(x_mid, x_far)
    return {
        "total": total,
        "leg_near": leg_near,
        "leg_far": leg_far,
        "gap": total - (leg_near + leg_far),
        "leaf_residual": leaf_res,
        "dual_residual": dual_res,
    }


def velocity_dual(
    net: ReactionNetwork,
    dissip,
    v,
    mu0=None,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> dict:
    """Legendre pair induced on (species velocity, species potential).

    Given v in the image of stoich, minimizes
    dual_value(-stoich.T u) - <v, u> over potentials u, gauged to the
    image of stoich (the component along conserved directions is zero).
    The minimizer's induced flux j = dual_grad(-stoich.T u) satisfies
    -stoich @ j = v, so (value at j, dual objective) form a conjugate
    pair in the reduced coordinates.

    Returns dict with u, flux, force = -stoich.T u, value (primal
    dissipation of the flux), dual_value, mu (reduced coordinates for
    warm starts), iterations.
    """
    v = np.asarray(v, dtype=float)
    s = net.stoich.astype(float)
    q, qs = net.stoich_image, net.reduced_stoich
    resid = v - q @ (q.T @ v)
    vnorm = float(np.max(np.abs(v), initial=0.0))
    if float(np.max(np.abs(resid), initial=0.0)) > 1e-9 * (1.0 + vnorm):
        raise ValueError("velocity is not realizable: not in the image of stoich")

    def force_of(mu):
        return -qs.T @ mu

    def value(mu):
        return dissip.dual_value(force_of(mu)) - float((q.T @ v) @ mu)

    def grad(mu):
        return -qs @ dissip.dual_grad(force_of(mu)) - q.T @ v

    def hess(mu):
        return qs @ (dissip.dual_hessian_diag(force_of(mu))[:, None] * qs.T)

    mu_init = np.zeros(q.shape[1]) if mu0 is None else np.asarray(mu0, dtype=float)
    mu, iters = _newton_minimize(
        value, grad, hess, mu_init, tol, 1.0, max_iter, "velocity_dual"
    )
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


def flux_split(
    net: ReactionNetwork,
    dissip,
    j,
    mu0=None,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> dict:
    """Split an edge flux into an equilibrium-model part plus a cycle.

    The equilibrium part is the unique flux with the same divergence
    whose force is a pure gradient (-stoich.T u); the remainder lies in
    the cycle space. Reduces to velocity_dual at v = -stoich @ j.
    """
    j = np.asarray(j, dtype=float)
    out = velocity_dual(net, dissip, -net.stoich.astype(float) @ j, mu0, tol, max_iter)
    out["j_input"] = j
    out["cycle_part"] = j - out["flux"]
    return out


def force_split(
    net: ReactionNetwork,
    dissip,
    f,
    mu0=None,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> dict:
    """Shift a force along the image of stoich.T to a steady-model force.

    Minimizes dual_value(f + stoich.T y) over species shifts y (gauged
    to the image of stoich). The shifted force keeps every cycle
    affinity of f, and its induced flux is divergence-free at the
    minimum (the gradient of the objective is the flux divergence).

    Returns dict with force (the shifted force), flux, shift (stoich.T
    y), y, mu, dual_value, value, iterations, divergence_residual.
    """
    f = np.asarray(f, dtype=float)
    s = net.stoich.astype(float)
    q, qs = net.stoich_image, net.reduced_stoich

    def force_of(mu):
        return f + qs.T @ mu

    def value(mu):
        return dissip.dual_value(force_of(mu))

    def grad(mu):
        return qs @ dissip.dual_grad(force_of(mu))

    def hess(mu):
        return qs @ (dissip.dual_hessian_diag(force_of(mu))[:, None] * qs.T)

    mu_init = np.zeros(q.shape[1]) if mu0 is None else np.asarray(mu0, dtype=float)
    mu, iters = _newton_minimize(value, grad, hess, mu_init, tol, 1.0, max_iter, "force_split")
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


def cycle_dual(
    net: ReactionNetwork,
    dissip,
    zeta,
    mu0=None,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> dict:
    """Legendre pair induced on (cycle flux, cycle affinity).

    Given cycle affinities zeta, lifts them to the minimum-norm force
    with those affinities, projects to the steady-model force via
    force_split, and reads off cycle coordinates z of the resulting
    divergence-free flux. (value, dual_value) are the induced conjugate
    pair on the cycle space.
    """
    v = net.cycle_basis.astype(float)
    zeta = np.asarray(zeta, dtype=float)
    if zeta.shape != (net.n_cycles,):
        raise ValueError(f"expected {net.n_cycles} cycle affinities, got shape {zeta.shape}")
    gram = v.T @ v
    if net.n_cycles:
        f0 = v @ np.linalg.solve(gram, zeta)
    else:
        f0 = np.zeros(net.n_edges)
    fs = force_split(net, dissip, f0, mu0, tol, max_iter)
    flux = fs["flux"]
    z = np.linalg.solve(gram, v.T @ flux) if net.n_cycles else np.zeros(0)
    lifted = v @ z
    return {
        "force": fs["force"],
        "flux": flux,
        "z": z,
        "zeta": zeta,
        "value": dissip.value(lifted),
        "dual_value": fs["dual_value"],
        "mu": fs["mu"],
        "iterations": fs["iterations"],
        "representation_residual": float(np.max(np.abs(lifted - flux), initial=0.0)),
        "divergence_residual": fs["divergence_residual"],
    }


def pseudo_hilbert_split(dissip, f, f_ref, level_tol: float = 1e-9) -> dict:
    """Symmetric/antisymmetric force split about an iso-dissipation point.

    Requires dual_value(f_ref) = dual_value(f) (same dissipation level
    set). With f_sym = (f + f_ref)/2 and f_anti = (f - f_ref)/2, the
    EPR pairing of j = dual_grad(f) splits into two non-negative parts:

        <j, f_anti> = bregman(j, f_ref) / 2
        <j, f_sym>  = bregman(j, -f_ref) / 2

    Both identities are exact on the level set; their defects are
    returned for auditing.
    """
    f = np.asarray(f, dtype=float)
    f_ref = np.asarray(f_ref, dtype=float)
    level_f = dissip.dual_value(f)
    level_ref = dissip.dual_value(f_ref)
    if abs(level_ref - level_f) > level_tol * (1.0 + abs(level_f)):
        raise ValueError(
            f"reference force is not on the same dissipation level set "
            f"({level_ref:.12g} vs {level_f:.12g})"
        )
    f_sym = 0.5 * (f + f_ref)
    f_anti = 0.5 * (f - f_ref)
    j = dissip.dual_grad(f)
    pairing_anti = float(j @ f_anti)
    pairing_sym = float(j @ f_sym)
    return {
        "f_sym": f_sym,
        "f_anti": f_anti,
        "flux": j,
        "pairing_sym": pairing_sym,
        "pairing_anti": pairing_anti,
        "anti_identity_gap": pairing_anti - 0.5 * dissip.bregman(j, f_ref),
        "sym_identity_gap": pairing_sym - 0.5 * dissip.bregman(j, -f_ref),
    }


def complex_balance_force_split(
    net: ReactionNetwork,
    x,
    x_ref,
    tol: float = 1e-8,
) -> dict:
    """Force splitting induced by a complex-balanced reference state.

    f_sym = stoich.T log(x / x_ref) vanishes at x = x_ref; f_anti =
    log K + stoich.T log(x_ref) is state-independent. Their sum is the
    mass-action force at x. When incidence @ flux(x_ref) = 0 the two
    parts satisfy the iso-dissipation condition
    dual_value(f_sym + f_anti) = dual_value(f_sym - f_anti) at every
    positive x, making (f_sym, f_anti) a valid pseudo-Hilbert split.
    """
    x = np.asarray(x, dtype=float)
    x_ref = np.asarray(x_ref, dtype=float)
    ref_pair = mass_action_flux(net, x_ref)
    cb_residual = float(np.max(np.abs(net.incidence @ ref_pair.flux), initial=0.0))
    if cb_residual > tol:
        raise ValueError(
            f"reference state is not complex balanced (residual {cb_residual:.3e})"
        )
    logk = np.log(net.kplus / net.kminus)
    st = net.stoich.T.astype(float)
    f_sym = st @ np.log(x / x_ref)
    f_anti = logk + st @ np.log(x_ref)
    pair = mass_action_flux(net, x)
    dissip = CoshDissipation(pair.activity)
    return {
        "f_sym": f_sym,
        "f_anti": f_anti,
        "force": pair.force,
        "split_gap": float(np.max(np.abs(f_sym + f_anti - pair.force), initial=0.0)),
        "level_gap": dissip.dual_value(f_sym + f_anti) - dissip.dual_value(f_sym - f_anti),
        "cb_residual": cb_residual,
        "dissipation": dissip,
    }


def _trajectory_samples(traj: Trajectory, times) -> tuple[np.ndarray, np.ndarray]:
    if times is None:
        ts = np.asarray(traj.times, dtype=float)
        xs = np.asarray(traj.states, dtype=float)
    else:
        ts = np.asarray(times, dtype=float)
        if not np.all((ts >= traj.times[0]) & (ts <= traj.times[-1])):  # no extrapolated states
            raise ValueError("schedule sample times must lie within the trajectory's time span")
        xs = traj.interpolate(ts)
    if ts.size < 2:
        raise ValueError("need at least two sample times to build a schedule")
    if not np.all(xs > 0):
        raise ValueError("trajectory samples must be strictly positive")
    return ts, xs


def _effective_rates(net, traj, times, solver, inputs_of, certify, tol, max_iter):
    """Shared driver: solver (velocity_dual or force_split) projects
    inputs_of(base)[i] at each sample, warm-started from the previous one;
    kappa is kept and the equilibrium constants replaced to realize the
    returned force. certify(base, inputs, new) reads the kinetics batches
    before and after into the certificate columns.
    """
    ts, xs = _trajectory_samples(traj, times)
    base = mass_action_batch(net, xs)
    inputs = inputs_of(base)
    forces = np.empty_like(base["force"])
    iters = np.zeros(ts.size, dtype=int)
    mu = None
    for i in range(ts.size):
        out = solver(net, CoshDissipation(base["activity"][i]), inputs[i], mu0=mu, tol=tol, max_iter=max_iter)
        mu, iters[i], forces[i] = out["mu"], out["iterations"], out["force"]
    root = np.sqrt(np.exp(forces - matvec_rows(net.stoich.T.astype(float), np.log(xs))))
    kappa = KineticSplit.from_rates(net.kplus, net.kminus).kappa
    kp_tab, km_tab = kappa * root, kappa / root
    certificates = certify(base, inputs, mass_action_batch(net, xs, kp_tab, km_tab))
    certificates["iterations"] = iters
    return RateSchedule(times=ts, kplus=kp_tab, kminus=km_tab), certificates


def _sup(a: np.ndarray) -> np.ndarray:
    return np.max(np.abs(a), axis=-1, initial=0.0)


def effective_equilibrium_rates(
    net: ReactionNetwork, traj: Trajectory, times=None, tol: float = 1e-10, max_iter: int = 100
) -> tuple[RateSchedule, dict]:
    """Equilibrium-model rate constants reproducing a trajectory's motion.

    At each sample the instantaneous velocity is matched by a flux whose
    force is a pure gradient (velocity_dual), and the network's kinetic
    split is recombined: the frenetic part kappa is kept, the
    equilibrium constants are replaced so the new mass-action force
    equals that gradient. Certificates per sample: the new force's
    cycle affinities (zeta_residual) and the relative velocity mismatch.
    """
    def velocity(cols):
        return -net.div(cols["flux"])

    def certify(base, v, new):
        return {
            "zeta_residual": _sup(net.curl(new["force"])),
            "velocity_residual": _sup(velocity(new) - v) / (1.0 + _sup(v)),
        }

    return _effective_rates(net, traj, times, velocity_dual, velocity, certify, tol, max_iter)


def effective_steady_rates(
    net: ReactionNetwork, traj: Trajectory, times=None, tol: float = 1e-10, max_iter: int = 100
) -> tuple[RateSchedule, dict]:
    """Steady-model rate constants reproducing a trajectory's affinities.

    At each sample the mass-action force is shifted along the image of
    stoich.T to the divergence-free model (force_split), keeping every
    cycle affinity; the network's frenetic part kappa is kept and the
    equilibrium constants replaced to realize the shifted force.
    Certificates per sample: the new flux's divergence
    (steady_residual) and the affinity drift (affinity_residual).
    """
    def certify(base, f, new):
        return {
            "steady_residual": _sup(net.div(new["flux"])),
            "affinity_residual": _sup(net.curl(new["force"]) - net.curl(f)),
        }

    return _effective_rates(net, traj, times, force_split, lambda cols: cols["force"], certify, tol, max_iter)
