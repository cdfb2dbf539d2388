"""Dual-coordinate solvers on the network's vertex and edge spaces.

Species space splits into the image of the stoichiometric matrix and
its orthogonal complement (spanned by the conserved quantities); edge
space splits into the image of stoich.T and the cycle space. Every
solver here runs one Bregman projection onto an affine subspace, in
dual coordinates (_dual_projection): a damped Newton minimization of
fn.dual_value(y0 + a.T @ lam) - <b, lam>. The solvers differ only in
(a, b, y0): equilibrium_point passes (cons_basis, cons_basis @ x0,
grad(x_ref)), velocity_dual (-reduced_stoich, stoich_image.T @ v, none)
and force_split (reduced_stoich, 0, f).

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
    model. Each sample's (a, b, y0), as for velocity_dual or
    force_split, goes straight to _dual_projection, warm-started from
    the previous sample; the kinetics, rate tables and certificates are
    evaluated for all samples at once.
  * pseudo_hilbert_split: symmetric/antisymmetric force splitting about
    an iso-dissipation reference, with non-negative pairings.
"""

from __future__ import annotations

import numpy as np

from .convex import CoshDissipation, KLPotential
from .dynamics import RateSchedule, Trajectory
from .kinetics import ConvergenceError, KineticSplit, mass_action_batch, mass_action_flux
from .network import ReactionNetwork, matvec_rows


def _dual_projection(fn, a, b, y0, lam0, tol, max_iter, what):
    """Bregman projection onto an affine subspace, in dual coordinates.

    Minimizes fn.dual_value(y) - <b, lam> over lam, y = y0 + a.T @ lam
    (a.T @ lam when y0 is None), by damped Newton from lam0 (zeros when
    None); the gradient a @ fn.dual_grad(y) - b is the constraint
    mismatch. Stops when its max norm falls below tol, or when a full
    Newton step fails to contract it while it is below 64 eps s, s its
    rounding scale at the iterate: max|b| or max(|a| @ (|dual_grad(y)| +
    |H| @ r)), H the dual Hessian and r = |y0| + |a.T| @ |lam|, which
    bounds y's own rounding. A full step that contracts the gradient norm
    is accepted outright (near the optimum the objective's decrease
    underflows); otherwise the step is Armijo backtracked (halving,
    c = 1e-4) with an eps-level slack on the value. Trial steps that
    overflow are rejected without a warning. Returns (lam, y, iterations).
    """
    lam = np.zeros(a.shape[0]) if lam0 is None else np.asarray(lam0, dtype=float).copy()
    if not (np.isfinite(b).all() and np.isfinite(lam).all() and (y0 is None or np.isfinite(y0).all())):
        raise ValueError(f"{what}: input must be finite")

    def y_of(lam):
        return a.T @ lam if y0 is None else y0 + a.T @ lam

    def grad(y):
        dual = fn.dual_grad(y)
        return a @ dual - b, dual

    diag, abs_a, y_size = hasattr(fn, "dual_hessian_diag"), np.abs(a), (0.0 if y0 is None else np.abs(y0))
    y = y_of(lam)
    g, dual = grad(y)
    for it in range(max_iter + 1):
        gnorm = float(_sup(g))
        if gnorm < tol:
            return lam, y, it
        if it == max_iter:
            break
        hess = fn.dual_hessian_diag(y) if diag else fn.dual_hessian(y)
        h = a @ (hess[:, None] * a.T) if diag else a @ hess @ a.T
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(h, -g, rcond=None)
        trial = lam + step
        y_trial = y_of(trial)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing step fails the test below
            g_trial, dual_trial = grad(y_trial)
        if float(_sup(g_trial)) <= 0.9 * gnorm:
            lam, y, g, dual = trial, y_trial, g_trial, dual_trial
            continue
        r = y_size + abs_a.T @ np.abs(lam)
        spread = np.abs(dual) + (hess * r if diag else np.abs(hess) @ r)
        if gnorm < 64.0 * np.finfo(float).eps * float(max(_sup(b), _sup(abs_a @ spread))):
            return lam, y, it  # Newton stalls at the gradient's rounding
        v0 = fn.dual_value(y) - float(b @ lam)
        slope = float(g @ step)
        slack = 4.0 * np.finfo(float).eps * abs(v0)
        alpha = 1.0
        while alpha >= 1e-14:
            trial = lam + alpha * step
            y_trial = y_of(trial)
            with np.errstate(over="ignore", invalid="ignore"):
                value = fn.dual_value(y_trial) - float(b @ trial)
            if value <= v0 + 1e-4 * alpha * slope + slack:
                lam, y = trial, y_trial
                break
            alpha *= 0.5
        else:
            raise ConvergenceError(
                f"{what}: line search stalled", best=lam, residual=gnorm, iterations=it
            )
        g, dual = grad(y)
    raise ConvergenceError(
        f"{what}: no convergence in {max_iter} iterations",
        best=lam,
        residual=float(_sup(g)),
        iterations=max_iter,
    )


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
    |conserved(x) - conserved(x0)|_inf < max(tol, 64 eps s), s the
    rounding scale of the totals at x (see _dual_projection; about
    (1 + |y|) |cons_basis| @ x with the KL potential), whatever the
    scale of x_ref. By construction
    grad(x) - grad(x_ref) lies in the span of the conserved rows.

    With no conserved quantities the leaf is the whole orthant and the
    projection is x_ref itself.
    """
    x_ref = np.asarray(x_ref, dtype=float)
    pot = KLPotential(n=net.n_species) if potential is None else potential
    _, y, _ = _dual_projection(
        pot, net.cons_f, net.conserved(x0), pot.grad(x_ref), None, tol, max_iter, "equilibrium_point"
    )
    return pot.dual_grad(y)


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
    x, x_mid, x_far = (np.asarray(v, dtype=float) for v in (x, x_mid, x_far))
    leaf_res = float(np.max(np.abs(net.conserved(x - x_mid)), initial=0.0))
    dual_res = float(np.max(np.abs(net.grad(pot.grad(x_far) - pot.grad(x_mid))), initial=0.0))
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
    dissipation of the flux), dual_value, mu (u = stoich_image @ mu),
    iterations.
    """
    v = np.asarray(v, dtype=float)
    q, qs = net.stoich_image, net.reduced_stoich
    if _sup(v - q @ (q.T @ v)) > 1e-9 * (1.0 + _sup(v)):
        raise ValueError("velocity is not realizable: not in the image of stoich")
    mu, _, iters = _dual_projection(dissip, -qs, q.T @ v, None, None, tol, max_iter, "velocity_dual")
    u = q @ mu
    force = -net.grad(u)
    flux = dissip.dual_grad(force)
    return {
        "u": u,
        "force": force,
        "flux": flux,
        "value": dissip.value(flux),
        "dual_value": dissip.dual_value(force),
        "mu": mu,
        "iterations": iters,
        "velocity_residual": float(np.max(np.abs(net.div(flux) + v), initial=0.0)),
    }


def flux_split(
    net: ReactionNetwork,
    dissip,
    j,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> dict:
    """Split an edge flux into an equilibrium-model part plus a cycle.

    The equilibrium part is the unique flux with the same divergence
    whose force is a pure gradient (-stoich.T u); the remainder lies in
    the cycle space. Reduces to velocity_dual at v = -stoich @ j.
    """
    j = np.asarray(j, dtype=float)
    out = velocity_dual(net, dissip, -net.div(j), tol=tol, max_iter=max_iter)
    out["j_input"] = j
    out["cycle_part"] = j - out["flux"]
    return out


def force_split(
    net: ReactionNetwork,
    dissip,
    f,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> dict:
    """Shift a force along the image of stoich.T to a steady-model force.

    Minimizes dual_value(f + stoich.T y) over species shifts y (gauged
    to the image of stoich). The shifted force keeps every cycle
    affinity of f, and its induced flux is divergence-free at the
    minimum (the gradient of the objective is the flux divergence).

    Returns dict with force (the shifted force), flux, shift (stoich.T
    y), y, mu (y = stoich_image @ mu), dual_value, value, iterations,
    divergence_residual.
    """
    f = np.asarray(f, dtype=float)
    q, qs = net.stoich_image, net.reduced_stoich
    mu, force, iters = _dual_projection(dissip, qs, np.zeros(len(qs)), f, None, tol, max_iter, "force_split")
    flux = dissip.dual_grad(force)
    return {
        "force": force,
        "flux": flux,
        "shift": force - f,
        "y": q @ mu,
        "mu": mu,
        "value": dissip.value(flux),
        "dual_value": dissip.dual_value(force),
        "iterations": iters,
        "divergence_residual": float(np.max(np.abs(net.div(flux)), initial=0.0)),
    }


def cycle_dual(
    net: ReactionNetwork,
    dissip,
    zeta,
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
    zeta = np.asarray(zeta, dtype=float)
    if zeta.shape != (net.n_cycles,):
        raise ValueError(f"expected {net.n_cycles} cycle affinities, got shape {zeta.shape}")
    gram = net.cycle_f.T @ net.cycle_f  # (0, 0) without cycles: solve gives z = 0
    fs = force_split(net, dissip, net.curl_adjoint(np.linalg.solve(gram, zeta)), tol=tol, max_iter=max_iter)
    flux = fs["flux"]
    z = np.linalg.solve(gram, net.curl(flux))
    lifted = net.curl_adjoint(z)
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
    f, f_ref = np.asarray(f, dtype=float), np.asarray(f_ref, dtype=float)
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
    x, x_ref = np.asarray(x, dtype=float), np.asarray(x_ref, dtype=float)
    ref_pair = mass_action_flux(net, x_ref)
    cb_residual = float(np.max(np.abs(net.incidence @ ref_pair.flux), initial=0.0))
    if cb_residual > tol:
        raise ValueError(
            f"reference state is not complex balanced (residual {cb_residual:.3e})"
        )
    f_sym = net.grad(np.log(x / x_ref))
    f_anti = np.log(net.kplus / net.kminus) + net.grad(np.log(x_ref))
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


def _warm_started(base, a, problems, tol, max_iter, what):
    """Projects each sample's (b, y0) from the previous lam; stacked (lam, y, iterations)."""
    solved = [(None, None, 0)]  # the first sample starts from lam = 0
    for act, (b, y0) in zip(base["activity"], problems):
        solved.append(_dual_projection(CoshDissipation(act), a, b, y0, solved[-1][0], tol, max_iter, what))
    return tuple(map(np.array, zip(*solved[1:])))


def _rate_schedule(net, ts, xs, forces):
    """Rates with the network's kappa whose force at xs is forces, and their kinetics."""
    keq = np.exp(forces - net.grad(np.log(xs)))
    kp_tab, km_tab = KineticSplit(KineticSplit.from_rates(net.kplus, net.kminus).kappa, keq).rates()
    return RateSchedule(times=ts, kplus=kp_tab, kminus=km_tab), mass_action_batch(net, xs, kp_tab, km_tab)


def _sup(a: np.ndarray) -> np.ndarray:
    return np.abs(a).max(axis=-1, initial=0.0)


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
    ts, xs = _trajectory_samples(traj, times)
    base = mass_action_batch(net, xs)
    v = -net.div(base["flux"])
    q, qs = net.stoich_image, net.reduced_stoich
    mus, _, iters = _warm_started(base, -qs, ((q.T @ vi, None) for vi in v), tol, max_iter, "velocity_dual")
    schedule, new = _rate_schedule(net, ts, xs, -net.grad(matvec_rows(q, mus)))
    return schedule, {
        "zeta_residual": _sup(net.curl(new["force"])),
        "velocity_residual": _sup(-net.div(new["flux"]) - v) / (1.0 + _sup(v)),
        "iterations": iters,
    }


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
    ts, xs = _trajectory_samples(traj, times)
    base = mass_action_batch(net, xs)
    f, qs = base["force"], net.reduced_stoich
    _, forces, iters = _warm_started(base, qs, ((np.zeros(len(qs)), fi) for fi in f), tol, max_iter, "force_split")
    schedule, new = _rate_schedule(net, ts, xs, forces)
    return schedule, {
        "steady_residual": _sup(net.div(new["flux"])),
        "affinity_residual": _sup(net.curl(new["force"]) - net.curl(f)),
        "iterations": iters,
    }
