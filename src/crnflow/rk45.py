"""Dormand-Prince 5(4) integration and composite Simpson quadrature in numpy.

`integrate` follows the code path of scipy's
`solve_ivp(fun, (t0, t1), y0, method="RK45", dense_output=True,
events=[event])` for one terminal event with direction -1, forward in
time; `simpson` follows `scipy.integrate.simpson(y, x=x)` for 1-d
samples. Every floating-point expression keeps scipy's order and memory
layout, so the two agree bit for bit (tests/test_rk45.py holds them to
it) and the package needs no scipy at run time. Solution.y holds the
stepper's states at the accepted times, the dense output those between,
both as rows: scipy's columns, transposed.

References: J. R. Dormand & P. J. Prince, J. Comput. Appl. Math. 6 (1980)
(the pair); Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4-6 (initial
step, step control, Shampine's dense output); L. F. Shampine, Math. Comp. 46
(1986) (the quartic dense-output coefficients); R. P. Brent, Algorithms for
Minimization without Derivatives (1973), ch. 4 (the event root).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import _times

C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
P = np.array([  # Shampine's dense output, the optimum c6
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
ERROR_EXPONENT = -1 / 5  # -1 / (error estimator order + 1)
EPS = np.finfo(float).eps
MESSAGES = {
    -1: "Required step size is less than spacing between numbers.",
    0: "The solver successfully reached the end of the integration interval.",
    1: "A termination event occurred.",
}


def _rms(x):
    return math.sqrt(x.dot(x)) / x.size ** 0.5  # np.linalg.norm's 1-d sum, without its dispatch


def _interpolate(segment, t):
    """Dense output of one step at a 0-d t: the event root's, as scipy evaluates it."""
    t_old, h, y_old, Q = segment
    x = (t - t_old) / h
    return h * np.dot(Q, np.cumprod(np.tile(x, 4))) + y_old


class DenseOutput:
    """Piecewise quartic interpolant over the accepted steps.

    Called with a 1-d array of m times it returns states as rows, shape
    (m, n), (0, n) for no times; a scalar is the one-time array's row, a
    state of shape (n,); times of more dimensions raise ValueError.
    Times outside [t[0], t[-1]] extrapolate (Trajectory.interpolate refuses
    them); a time on a step boundary is evaluated in the earlier step.
    The times of one step form a group, as in scipy's OdeSolution; all
    groups of one size are evaluated in one stacked product,
    (groups, n, 4) @ (groups, 4, size), whose every slice is the
    per-group np.dot, bit for bit.

    Layout, float64 arrays over k accepted times: t (k,) and y (k, n),
    the times and states, which Solution shares; step i runs from t[i]
    with size h[i], h (k - 1,), and Shampine's quartic coefficients
    Q[i] = K.T @ P of its stages, Q (k - 1, n, 4). Each step holds
    16 + 40 n bytes (136 at n = 3).
    """

    def __init__(self, t, y, h, Q):
        self.t, self.y, self.h, self.Q = t, y, h, Q

    def segment(self, i):
        """Step i as (t_old, h, y_old, Q)."""
        return self.t[i], self.h[i], self.y[i], self.Q[i]

    def __call__(self, t):
        t = _times(t, "times")
        if t.ndim == 0:
            return self(t[None])[0]
        order = np.argsort(t)
        t_sorted = t[order]
        seg = np.clip(np.searchsorted(self.t, t_sorted, side="left") - 1, 0, self.h.size - 1)
        starts = np.flatnonzero(np.diff(seg, prepend=-1))  # each group's first sorted time
        sizes = np.diff(starts, append=seg.size)
        ys = np.empty((t.size, self.y.shape[1]))  # row i: the state at t[i]
        for k in np.flatnonzero(np.bincount(sizes)).tolist():  # np.unique would import numpy.ma
            pick = np.flatnonzero(sizes == k)
            cols = starts[pick, None] + np.arange(k)  # (groups, k) sorted positions
            step = seg[starts[pick]]
            hk = self.h[step, None]
            x = (t_sorted[cols] - self.t[step, None]) / hk
            powers = np.cumprod(np.repeat(x[:, None], 4, axis=1), axis=1)  # x, x^2, x^3, x^4
            yk = hk[:, None] * np.matmul(self.Q[step], powers) + self.y[step, :, None]
            ys[order[cols.ravel()]] = yk.transpose(0, 2, 1).reshape(-1, yk.shape[1])
        return ys


@dataclass(eq=False)
class Solution:
    """What `integrate` returns.

    t: the accepted times, shape (k,), ending at the event root when
    status is 1. y: the states there, shape (k, n). sol: DenseOutput over
    [t[0], t[-1]], which holds these same two arrays; all its arrays are
    read-only. status: 0 reached t1, 1 the event fired, -1 the step size
    fell below ten float spacings at t, or is NaN after a NaN right-hand
    side (message says so). stats: accepted steps, rejected steps and
    right-hand-side evaluations.

    Memory: 16 + 40 n bytes of float64 per accepted step (t, y, and the
    dense output's h and Q), so the total grows with the step count.
    """

    t: np.ndarray
    y: np.ndarray
    sol: DenseOutput
    status: int
    message: str
    stats: dict[str, int]


def brentq(f, a, b):
    """Root of f in [a, b]: scipy's C brentq, statement for statement,
    with xtol = rtol = 4 eps and at most 100 iterations, as solve_ivp
    calls it for events."""
    tol = 4 * EPS
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    # numpy scalars, so that errstate governs the divisions below (Python
    # floats raise ZeroDivisionError); C divides by zero silently
    fpre, fcur = np.float64(f(xpre)), np.float64(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if np.signbit(fpre) == np.signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and np.signbit(fpre) != np.signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (tol + tol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # a NaN or inf step bisects
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = np.float64(f(xcur))
    raise RuntimeError(f"brentq: no convergence in 100 iterations, value is {xcur}")


def _initial_step(fun, t0, y0, t1, f0, rtol, atol):
    interval_length = abs(t1 - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / np.float64(h0)  # numpy's division: inf, not an error, at h0 = 0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval_length)


def integrate(fun, t0: float, t1: float, y0, rtol: float, atol: float, event) -> Solution:
    """Integrate y' = fun(t, y) from t0 to t1 > t0 with adaptive RK45 steps.

    fun(t, y) returns a float array shaped like y. event(t, y) returns a
    float; integration halts at its first root where it falls through
    zero (from >= 0 to <= 0 across a step). rtol below 100 eps is raised
    to 100 eps, as scipy does.
    """
    rtol = max(rtol, 100 * EPS)
    t, y = t0, np.asarray(y0, dtype=float)
    f = fun(t, y)
    h_abs = float(_initial_step(fun, t, y, t1, f, rtol, atol))  # the loop's scalars stay Python floats
    # bound once: K is filled in place, so its views, the stage constants with
    # their index and the functions below serve every step
    K = np.empty((7, y.size))
    KT, KT_B, b, e, p = K.T, K[:-1].T, B, E, P
    stages = [(s, float(C[s]), K[:s].T, A[s, :s]) for s in range(1, 6)]
    absolute, maximum, sqrt, nextafter, inf = np.abs, np.maximum, math.sqrt, math.nextafter, math.inf
    root_n = y.size ** 0.5  # _rms's divisor
    abs_y = absolute(y)  # carried from step to step: np.abs(y) of the accepted state
    # the accepted steps as rows of float64 arrays (DenseOutput's layout): times
    # ts and states ys up to row k, the steps' h and Q below row k. They grow in
    # place by a quarter: ndarray.resize zero-fills, so memory backs the spare rows,
    # at most a quarter of the rows. No view of them may live across a resize, which
    # reallocates, and none does: rows are copied in and scalars out
    cap = 16
    ts, ys, hs, qs = np.empty(cap), np.empty((cap, y.size)), np.empty(cap), np.empty((cap, y.size, 4))
    ts[0], ys[0] = t, y
    k = 0
    g = event(t, y)
    steps = rejected = 0
    status = None
    while status is None:
        min_step = 10 * abs(nextafter(t, inf) - t)
        h_abs = max(h_abs, min_step)
        step_rejected = False
        while h_abs >= min_step:  # False for NaN too, where scipy loops forever
            t_new = min(t + h_abs, t1)
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s, c, KT_s, a in stages:
                K[s] = fun(t + c * h, y + KT_s.dot(a) * h)
            y_new = y + h * KT_B.dot(b)
            f_new = fun(t + h, y_new)
            K[-1] = f_new
            abs_new = absolute(y_new)
            err = KT.dot(e) * h / (atol + maximum(abs_y, abs_new) * rtol)
            error_norm = sqrt(err.dot(err)) / root_n  # _rms(err)
            if error_norm < 1:
                factor = MAX_FACTOR if error_norm == 0 else min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                h_abs *= min(1, factor) if step_rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            step_rejected = True
            rejected += 1
        else:
            status = -1
            break
        steps += 1
        if k + 1 == cap:
            cap += cap // 4
            for rows in (ts, ys, hs, qs):
                rows.resize((cap, *rows.shape[1:]), refcheck=False)
        q = KT.dot(p)
        hs[k], qs[k] = h, q
        t_old, y_old = t, y
        t, y, f, abs_y = t_new, y_new, f_new, abs_new
        if t >= t1:
            status = 0
        g_new = event(t, y)
        if g >= 0 and g_new <= 0:
            segment = (t_old, h, y_old, q)
            root = brentq(lambda s: event(s, _interpolate(segment, np.asarray(s))), t_old, t)
            status, t, y = 1, root, _interpolate(segment, np.asarray(root))
        g = g_new
        if k == 0 or t != t_old:  # else a root on the previous step's end: the step is dropped
            k += 1
            ts[k], ys[k] = t, y
    for rows, n in ((ts, k + 1), (ys, k + 1), (hs, k), (qs, k)):
        rows.resize((n, *rows.shape[1:]), refcheck=False)  # shrinks in place
        rows.flags.writeable = False
    return Solution(
        t=ts,
        y=ys,
        sol=DenseOutput(ts, ys, hs, qs),
        status=status,
        message=MESSAGES[status],
        stats={"steps": steps, "rejected": rejected, "nfev": 2 + 6 * (steps + rejected)},
    )


def simpson(y, x):
    """Composite Simpson integral of samples y at points x (1-d, same length).

    With an even count the last interval gets Cartwright's correction
    (scipy.integrate.simpson's rule), with two points the trapezoid.
    """
    y, x = np.asarray(y), np.asarray(x)
    n = y.shape[0]
    if n % 2:
        return _basic_simpson(y, n - 2, x)
    if n == 2:
        return 0.0 + 0.5 * (x[-1] - x[-2]) * (y[-1] + y[-2])
    result = _basic_simpson(y, n - 3, x)
    diffs = np.float64(np.diff(x))
    h0, h1 = np.squeeze(diffs[-2:-1]), np.squeeze(diffs[-1:])
    alpha = _divide(2 * h1 ** 2 + 3 * h0 * h1, 6 * (h1 + h0))
    beta = _divide(h1 ** 2 + 3.0 * h0 * h1, 6 * h0)
    eta = _divide(1 * h1 ** 3, 6 * h0 * (h0 + h1))
    result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return result + 0.0


def _divide(num, den):
    return np.true_divide(num, den, out=np.zeros_like(den), where=den != 0)


def _basic_simpson(y, stop, x):
    h = np.diff(x)
    h0 = h[0:stop:2].astype(float, copy=False)
    h1 = h[1:stop + 1:2].astype(float, copy=False)
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = _divide(h0, h1)
    tmp = hsum / 6.0 * (
        y[0:stop:2] * (2.0 - _divide(1.0, h0divh1))
        + y[1:stop + 1:2] * (hsum * _divide(hsum, hprod))
        + y[2:stop + 2:2] * (2.0 - h0divh1)
    )
    return np.sum(tmp)
