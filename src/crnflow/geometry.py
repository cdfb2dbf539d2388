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
velocity_dual, flux_split and force_split also take (T, n) batches of
independent rows: every entry per row, bit for bit that row's one-row call,
and the earliest failing row's ConvergenceError. Only the effective
schedules read their samples as a path (_path_projection).

  * equilibrium_point: Bregman projection of a reference state onto the
    stoichiometric leaf through x0 (the unique equilibrium sharing x0's
    conserved quantities).
  * velocity_dual: given a species velocity v in the image of stoich
    (tested: flux_split and the equilibrium schedule skip the test, since
    -div(flux) is in it by construction), find the species potential u
    whose induced flux realizes v; this is the Legendre dual pair induced
    on (velocity, potential) coordinates.
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
    model, by velocity_dual's or force_split's projection, as per-block
    functions of kinetics.map_blocks: per block of samples the
    projection, the rates and their certificates, the path carried from
    block to block.
  * pseudo_hilbert_split: symmetric/antisymmetric force splitting about
    an iso-dissipation reference, with non-negative pairings.
"""

from __future__ import annotations

import numpy as np

from .checks import _positive, _schedule_times, _vec
from .convex import CoshDissipation, KLPotential, _sup
from .dynamics import RateSchedule, Trajectory
from .kinetics import ConvergenceError, EdgePair, KineticSplit, _all_live, _one_way, map_blocks, mass_action_flux
from .network import ReactionNetwork, dot_rows, matvec_rows

# Longest first trial of a line search, as a max-norm move of the dual
# coordinates y. A Newton step from far off the optimum (a KL reference
# 1e15 below the totals) can move y by 1e15, which 46 halvings leave at
# 50; from 64 they reach 1e-12. A move of 64 scales a KL state by e^64,
# far beyond the steps line searches accept: the cap skips trials that fail.
DUAL_STEP = 64.0


def _dual_projection(fn, a, b, y0, lam0, tol, max_iter, what, strict=True):
    """Bregman projections onto an affine subspace, in dual coordinates.

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
    c = 1e-4, 47 trials) with an eps-level slack on the value, from the
    largest power-of-two fraction that moves y by at most DUAL_STEP.
    Trial steps that overflow are rejected without a warning. Returns
    (lam, y, iterations).

    Batch-first: b, lam0 and y0 hold one problem per row, (T, r), (T, r)
    and (T, E), and so may fn's parameters (CoshDissipation weights of
    shape (T, E)); a full dual Hessian (QuadraticPotential) is one matrix
    for all rows. 1-d inputs are one row and come back 1-d. The rows
    iterate in lock-step on full-size arrays, boolean masks marking the
    rows still in play; fn sees the whole batch, each row at its own y
    (a row that has stopped stays where it stopped), and each row goes
    through the arithmetic of a one-row call, bit for bit: stacked
    matrix-vector products, solves and dots round as the 1-d ones do. A
    failing row raises ConvergenceError with its last iterate (best),
    residual and iterations, the earliest such row when several fail;
    with strict=False the rows that fail return their last iterate and
    the iteration count at the failure instead.
    """
    b = np.asarray(b, dtype=float)
    one, b = b.ndim == 1, np.atleast_2d(b)
    lam = np.zeros(b.shape) if lam0 is None else np.array(lam0, dtype=float).reshape(b.shape)
    y0 = None if y0 is None else np.atleast_2d(np.asarray(y0, dtype=float))
    if not (np.isfinite(b).all() and np.isfinite(lam).all() and (y0 is None or np.isfinite(y0).all())):
        raise ValueError(f"{what}: input must be finite")

    eps = np.finfo(float).eps
    diag, abs_a = hasattr(fn, "dual_hessian_diag"), np.abs(a)

    def y_of(lam):
        moved = matvec_rows(a.T, lam)
        return moved if y0 is None else y0 + moved

    def grad(y):
        dual = fn.dual_grad(y)
        return matvec_rows(a, dual) - b, dual

    y = y_of(lam)
    g, dual = grad(y)
    iters, live = np.zeros(len(b), dtype=int), np.ones(len(b), dtype=bool)
    stuck = np.zeros(len(b), dtype=bool)  # rows whose line search stalled
    for it in range(max_iter + 1):
        iters[live] = it  # a row keeps the iteration it stopped at, and its y and g
        gnorm = _sup(g)
        live &= ~(gnorm < tol)
        if it == max_iter or not live.any():
            break
        hess = fn.dual_hessian_diag(y) if diag else fn.dual_hessian(y)
        h = a @ (hess[live][:, :, None] * a.T) if diag else a @ hess @ a.T
        step = np.zeros_like(lam)
        step[live] = _newton_steps(h, -g[live])
        trial = lam + step
        y_trial = y_of(trial)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing step fails the test below
            g_trial, dual_trial = grad(y_trial)
        full = live & (_sup(g_trial) <= 0.9 * gnorm)
        lam[full], y[full], g[full], dual[full] = trial[full], y_trial[full], g_trial[full], dual_trial[full]

        rest = live & ~full
        if not rest.any():
            continue
        r = matvec_rows(abs_a.T, np.abs(lam))
        r = r if y0 is None else np.abs(y0) + r
        spread = np.abs(dual) + (hess * r if diag else (np.abs(hess) @ r[:, :, None])[:, :, 0])
        stalled = rest & (gnorm < 64.0 * eps * np.fmax(_sup(b), _sup(matvec_rows(abs_a, spread))))
        live &= ~stalled  # Newton stalls at the gradient's rounding

        todo = rest & ~stalled
        if not todo.any():
            continue
        step[~todo] = 0.0  # the other rows stay at their own y
        v0 = fn.dual_value(y) - dot_rows(b, lam)
        slope = dot_rows(g, step)
        slack = 4.0 * eps * np.abs(v0)
        dy = _sup(matvec_rows(a.T, step))
        alpha = np.ones(len(b))
        far = (DUAL_STEP < dy) & (dy < np.inf)
        alpha[far] = 0.5 ** np.ceil(np.log2(dy[far] / DUAL_STEP))
        for _ in range(47):  # alpha down to 2**-46 of its start
            trial = lam + alpha[:, None] * step
            y_trial = y_of(trial)
            with np.errstate(over="ignore", invalid="ignore"):
                value = fn.dual_value(y_trial) - dot_rows(b, trial)
            ok = todo & (value <= v0 + 1e-4 * alpha * slope + slack)
            lam[ok], y[ok], step[ok] = trial[ok], y_trial[ok], 0.0
            todo &= ~ok
            alpha *= 0.5
            if not todo.any():
                break
        stuck |= todo
        live &= ~todo
        g, dual = grad(y)
    if strict and (stuck | live).any():
        row = np.argmax(stuck | live)
        message = "line search stalled" if stuck[row] else f"no convergence in {max_iter} iterations"
        raise ConvergenceError(
            f"{what}: {message}", best=lam[row].copy(), residual=float(gnorm[row]), iterations=int(iters[row])
        )
    return (lam[0], y[0], int(iters[0])) if one else (lam, y, iters)


def _newton_steps(h: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solves h x = rhs per row, h of shape (T, r, r) or one (r, r) shared
    by all rows. Rows with a singular h take the least-squares step."""
    try:
        return np.linalg.solve(h, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        steps = []
        for h_i, rhs_i in zip(np.broadcast_to(h, rhs.shape + rhs.shape[-1:]), rhs):
            try:
                steps.append(np.linalg.solve(h_i, rhs_i))
            except np.linalg.LinAlgError:
                steps.append(np.linalg.lstsq(h_i, rhs_i, rcond=None)[0])
        return np.array(steps)


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
    leaf_res = _sup(net.conserved(x - x_mid))
    dual_res = _sup(net.grad(pot.grad(x_far) - pot.grad(x_mid)))
    scale = 1.0 + _sup(x)
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


def _path_projection(dissip, a, b, y0, tol, max_iter, what, start):
    """_dual_projection along the effective schedules' path of samples, b of shape (T, r):
    a predictor pass starts every row from lam = 0 (a failing row hands over its last
    iterate), then a pass reporting iterations and the earliest failure starts row i from
    the predictor's answer for row i - 1, row 0 from start; near the optimum a start near
    row i's answer serves as well as row i - 1's. Returns (lam, y, iterations, carry),
    carry the predictor's last row (the next block's start)."""
    cold, _, _ = _dual_projection(dissip, a, b, y0, None, tol, max_iter, what, strict=False)
    starts = np.concatenate([start[None], cold[:-1]])
    return (*_dual_projection(dissip, a, b, y0, starts, tol, max_iter, what), cold[-1].copy())


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
    iterations, velocity_residual; per row for a (T, n_species) batch of
    independent rows, each tested for realizability at its own scale.
    """
    v = np.asarray(v, dtype=float)
    b = matvec_rows(net.stoich_image.T, v)
    if np.any(_sup(v - matvec_rows(net.stoich_image, b)) > 1e-9 * (1.0 + _sup(v))):
        raise ValueError("velocity is not realizable: not in the image of stoich")
    return _velocity_dual(net, dissip, v, tol, max_iter, b)


def _velocity_dual(net, dissip, v, tol, max_iter, b=None) -> dict:
    """velocity_dual past its realizability test, for v = -div(j), in the image of
    stoich by construction: the test's bound does not follow the rounding of large
    fluxes. b = stoich_image.T @ v, computed here unless given."""
    b = matvec_rows(net.stoich_image.T, v) if b is None else b
    mu, _, iters = _dual_projection(dissip, -net.reduced_stoich, b, None, None, tol, max_iter, "velocity_dual")
    u = matvec_rows(net.stoich_image, mu)
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
        "velocity_residual": _sup(net.div(flux) + v),
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
    the cycle space. Reduces to velocity_dual at v = -stoich @ j, without
    its realizability test: v is realizable by construction.
    """
    j = np.asarray(j, dtype=float)
    out = _velocity_dual(net, dissip, -net.div(j), tol, max_iter)
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
    divergence_residual; per row for a (T, n_edges) batch of independent rows.
    """
    f = np.asarray(f, dtype=float)
    q, qs = net.stoich_image, net.reduced_stoich
    b = np.zeros(f.shape[:-1] + (len(qs),))
    mu, force, iters = _dual_projection(dissip, qs, b, f, None, tol, max_iter, "force_split")
    flux = dissip.dual_grad(force)
    return {
        "force": force,
        "flux": flux,
        "shift": force - f,
        "y": matvec_rows(q, mu),
        "mu": mu,
        "value": dissip.value(flux),
        "dual_value": dissip.dual_value(force),
        "iterations": iters,
        "divergence_residual": _sup(net.div(flux)),
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
    zeta = _vec(zeta, "cycle affinities", net.n_cycles)
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
        "representation_residual": _sup(lifted - flux),
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
    cb_residual = _sup(net.incidence @ ref_pair.flux)
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
        "split_gap": _sup(f_sym + f_anti - pair.force),
        "level_gap": dissip.dual_value(f_sym + f_anti) - dissip.dual_value(f_sym - f_anti),
        "cb_residual": cb_residual,
        "dissipation": dissip,
    }


def _trajectory_samples(traj: Trajectory, times) -> tuple[np.ndarray, np.ndarray]:
    """The schedule's sample times, checked as RateSchedule checks them, and the states there."""
    ts = _schedule_times(traj.times if times is None else times)
    if times is not None and not np.all((ts >= traj.times[0]) & (ts <= traj.times[-1])):  # no extrapolated states
        raise ValueError("schedule sample times must lie within the trajectory's time span")
    return ts, _positive(traj.states if times is None else traj.interpolate(ts), "trajectory samples", batch=True)


def _streamed_schedule(net, traj, times, model) -> tuple[RateSchedule, dict]:
    """The effective schedules through map_blocks: per block its EdgePair, model(pair, start)
    -> (forces, carry, certify), rates with the network's kappa giving those forces and
    certify(their EdgePair), into (T, 2 n_edges) rates, (T,) certificates. The carry, from
    block to block, continues the path: rows keep their bits, errors (in block order) the earliest."""
    ts, xs = _trajectory_samples(traj, times)
    kappa, n = KineticSplit.from_rates(net.kplus, net.kminus).kappa, net.n_edges
    start = np.zeros(len(net.reduced_stoich))

    def block(rows, live, base):
        nonlocal start
        _all_live(live)
        x = xs[rows]
        force, start, certify = model(base, start)
        rates = np.hstack(KineticSplit(kappa, np.exp(force - net.grad(np.log(x)))).rates())
        _positive(rates, "scheduled rates", batch=True, finite=True)
        return {"rates": rates, **certify(EdgePair(*_one_way(net, x, rates[:, :n], rates[:, n:])))}

    cert = map_blocks(net, xs, block)
    table = cert.pop("rates")
    return RateSchedule(times=ts, kplus=table[:, :n], kminus=table[:, n:]), cert


def effective_equilibrium_rates(
    net: ReactionNetwork, traj: Trajectory, times=None, tol: float = 1e-10, max_iter: int = 100
) -> tuple[RateSchedule, dict]:
    """Equilibrium-model rate constants reproducing a trajectory's motion.

    At each sample, streamed in blocks (_streamed_schedule), the velocity
    is matched by a flux whose force is a pure gradient (velocity_dual's
    projection); the frenetic part kappa is kept and the equilibrium
    constants replaced so the mass-action force equals that gradient.
    Certificates per sample: the new force's cycle affinities
    (zeta_residual) and the relative velocity mismatch.
    """

    def model(base, start):
        v, dissip, q = -net.div(base.flux), CoshDissipation(base.activity), net.stoich_image
        mu, _, iters, start = _path_projection(dissip, -net.reduced_stoich, matvec_rows(q.T, v), None, tol, max_iter,
                                               "velocity_dual", start)
        return -net.grad(matvec_rows(q, mu)), start, lambda new: {
            "zeta_residual": _sup(net.curl(new.force)),
            "velocity_residual": _sup(-net.div(new.flux) - v) / (1.0 + _sup(v)),
            "iterations": iters,
        }

    return _streamed_schedule(net, traj, times, model)


def effective_steady_rates(
    net: ReactionNetwork, traj: Trajectory, times=None, tol: float = 1e-10, max_iter: int = 100
) -> tuple[RateSchedule, dict]:
    """Steady-model rate constants reproducing a trajectory's affinities.

    At each sample, streamed in blocks (_streamed_schedule), the force is
    shifted along the image of stoich.T to the divergence-free model
    (force_split's projection), keeping every cycle affinity; the frenetic
    part kappa is kept and the equilibrium constants replaced to realize
    the shifted force. Certificates per sample: the new flux's divergence
    (steady_residual) and the affinity drift (affinity_residual).
    """

    def model(base, start):
        f, dissip, qs = base.force, CoshDissipation(base.activity), net.reduced_stoich
        _, force, iters, start = _path_projection(dissip, qs, np.zeros((len(f), len(qs))), f, tol, max_iter,
                                                  "force_split", start)
        return force, start, lambda new: {
            "steady_residual": _sup(net.div(new.flux)),
            "affinity_residual": _sup(net.curl(new.force) - net.curl(f)),
            "iterations": iters,
        }

    return _streamed_schedule(net, traj, times, model)
