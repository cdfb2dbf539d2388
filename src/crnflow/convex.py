"""Convex function pairs on species and edge spaces.

Each pair couples a strictly convex primal function to its Legendre
transform, with gradients acting as the coordinate change between the
primal variable and its dual. Two families live on species space
(relative-entropy and quadratic potentials, duals of concentration and
chemical-potential coordinates) and two on edge space (cosh-type and
quadratic dissipation, duals of flux and force coordinates).

Vector inputs are 1-d float arrays of the instance's length n (any
other length raises ValueError instead of broadcasting); Hessians are
returned as their diagonals since every member of these families is
separable except the quadratic potential, which returns a full matrix. The dual side
(dual_value, dual_grad, dual_hessian_diag) also takes (T, n) batches, one
vector per row, and then returns one value or vector per row, each equal
bit for bit to the call on that row alone; so do the relative entropy and
the dissipations' value. Instances hold read-only copies of their arrays.
"""

from __future__ import annotations

import numpy as np

from .checks import _owned, _positive, _vec


def _total(sums):
    """A reduction over the last axis: a float for one vector, else one per row."""
    return float(sums) if np.ndim(sums) == 0 else sums


def _sup(a: np.ndarray):  # max|a| over the last axis
    return _total(np.abs(a).max(axis=-1, initial=0.0))


def stable_asinh(u) -> np.ndarray:
    """asinh via log formula, with a series branch for small arguments.

    asinh(u) = log(u + sqrt(1 + u^2)); for |u| < 1e-4 the truncated odd
    series u - u^3/6 + 3u^5/40 is exact to machine precision and avoids
    the log's rounding near zero. The log branch is evaluated on |u| to
    dodge cancellation at negative arguments.
    """
    u = np.asarray(u, dtype=float)
    a = np.abs(u)
    with np.errstate(invalid="ignore"):
        big = np.log(a + np.sqrt(1.0 + a * a))
    series = a * (1.0 - a * a * (1.0 / 6.0 - 0.075 * a * a))
    return np.sign(u) * np.where(a < 1e-4, series, big)


def _sqrt1p_sq_minus_1(u: np.ndarray) -> np.ndarray:
    # sqrt(1+u^2) - 1 without cancellation at small u
    return u * u / (1.0 + np.sqrt(1.0 + u * u))


def log_mean(a, b) -> np.ndarray:
    """Elementwise logarithmic mean (a - b) / (log a - log b), a, b > 0.

    Falls back to a itself when |a - b| < 1e-12 (a + b), where the ratio
    is numerically indeterminate.
    """
    a = _positive(a, "a")
    b = _positive(b, "b")
    close = np.abs(a - b) < 1e-12 * (a + b)
    safe_b = np.where(close, a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        lm = (a - safe_b) / (np.log(a) - np.log(safe_b))
    return np.where(close, a, lm)


class KLPotential:
    """Relative-entropy potential on concentrations.

    value(x)      = sum_i (log(x_i / ref_i) - 1) x_i
    dual_value(y) = sum_i ref_i exp(y_i)
    grad(x)       = log(x / ref)          (concentration -> potential)
    dual_grad(y)  = ref * exp(y)          (potential -> concentration)

    The Bregman divergence of this potential is the relative entropy
    sum x log(x/x') - sum(x - x'), independent of the reference state.
    """

    def __init__(self, ref=None, n: int | None = None):
        if ref is None:
            if n is None:
                raise ValueError("provide a reference state or a dimension")
            ref = np.ones(n)
        self.ref = _owned(_positive(ref, "ref", n))
        self.n = self.ref.size

    def value(self, x) -> float:
        x = _positive(x, "x", self.n)
        return float(np.sum((np.log(x / self.ref) - 1.0) * x))

    def dual_value(self, y):
        return _total(np.sum(self.dual_grad(y), axis=-1))

    def grad(self, x) -> np.ndarray:
        x = _positive(x, "x", self.n)
        return np.log(x / self.ref)

    def dual_grad(self, y) -> np.ndarray:
        return self.ref * np.exp(_vec(y, "y", self.n, batch=True))

    def hessian_diag(self, x) -> np.ndarray:
        x = _positive(x, "x", self.n)
        return 1.0 / x

    def dual_hessian_diag(self, y) -> np.ndarray:
        return self.dual_grad(y)

    def bregman(self, x, x_ref):
        """Relative entropy D[x | x_ref] >= 0, zero iff x == x_ref."""
        x = _positive(x, "x", self.n, batch=True)
        x_ref = _positive(x_ref, "x_ref", self.n)
        return _total(np.sum(x * np.log(x / x_ref), axis=-1) - np.sum(x - x_ref, axis=-1))


class QuadraticPotential:
    """Quadratic potential 0.5 (x - ref)' M (x - ref) with SPD metric M."""

    def __init__(self, metric, ref):
        self.ref = _owned(_vec(ref, "ref"))
        m = np.asarray(metric, dtype=float)
        if m.ndim == 1:
            m = np.diag(m)
        if m.shape != (self.ref.size, self.ref.size):
            raise ValueError("metric shape does not match reference state")
        if not np.allclose(m, m.T):
            raise ValueError("metric must be symmetric")
        if np.any(np.linalg.eigvalsh(m) <= 0):
            raise ValueError("metric must be positive definite")
        self.metric = _owned(m)
        self._inv = np.linalg.inv(m)
        self.n = self.ref.size

    def value(self, x) -> float:
        d = _vec(x, "x", self.n) - self.ref
        return float(0.5 * d @ self.metric @ d)

    def dual_value(self, y):
        # as a row times columns, so each row's products are those of a 1-d y
        y = _vec(y, "y", self.n, batch=True)
        quadratic = ((0.5 * y)[..., None, :] @ self._inv @ y[..., None])[..., 0, 0]
        return _total(quadratic + (self.ref @ y[..., None])[..., 0])

    def grad(self, x) -> np.ndarray:
        return self.metric @ (_vec(x, "x", self.n) - self.ref)

    def dual_grad(self, y) -> np.ndarray:
        return self.ref + (self._inv @ _vec(y, "y", self.n, batch=True)[..., None])[..., 0]

    def hessian(self, x) -> np.ndarray:
        _vec(x, "x", self.n)
        return self.metric.copy()

    def dual_hessian(self, y) -> np.ndarray:
        """The (n, n) inverse metric, also for a (T, n) batch of points: one matrix for every row."""
        _vec(y, "y", self.n, batch=True)
        return self._inv.copy()

    def bregman(self, x, x_ref) -> float:
        d = _vec(x, "x", self.n) - _vec(x_ref, "x_ref", self.n)
        return float(0.5 * d @ self.metric @ d)


class CoshDissipation:
    """Cosh-type dissipation pair on edge space, parametrized by weights.

    With weights w > 0 (the edge activities):

    dual_value(f) = 2 sum_e w_e (cosh(f_e/2) - 1)
    dual_grad(f)  = w * sinh(f/2)                     (force -> flux)
    value(j)      = 2 sum_e w_e (u asinh u - (sqrt(1+u^2)-1)), u = j/w
    grad(j)       = 2 asinh(j / w)                    (flux -> force)

    The pair is strictly convex and superlinear on both sides, so the
    gradient maps are mutually inverse bijections of R^n_edges. Weights
    of shape (T, n_edges) hold one dissipation per row; value and
    dual_value then take (T, n_edges) arguments and return (T,) arrays.
    """

    def __init__(self, weights):
        self.weights = _owned(_positive(weights, "weights", batch=True))
        self.n = self.weights.shape[-1]

    def value(self, j):
        u = _vec(j, "j", self.n, batch=True) / self.weights
        return _total(2.0 * np.sum(self.weights * (u * stable_asinh(u) - _sqrt1p_sq_minus_1(u)), axis=-1))

    def dual_value(self, f):
        f = _vec(f, "f", self.n, batch=True)
        return _total(2.0 * np.sum(self.weights * (np.cosh(0.5 * f) - 1.0), axis=-1))

    def grad(self, j) -> np.ndarray:
        return 2.0 * stable_asinh(_vec(j, "j", self.n) / self.weights)

    def dual_grad(self, f) -> np.ndarray:
        return self.weights * np.sinh(0.5 * _vec(f, "f", self.n, batch=True))

    def hessian_diag(self, j) -> np.ndarray:
        j = _vec(j, "j", self.n)
        return 2.0 / np.sqrt(self.weights**2 + j * j)

    def dual_hessian_diag(self, f) -> np.ndarray:
        return 0.5 * self.weights * np.cosh(0.5 * _vec(f, "f", self.n, batch=True))

    def bregman(self, j, f_ref) -> float:
        """Mixed-form Bregman divergence value(j) + dual_value(f_ref) - <j, f_ref>."""
        return legendre_gap(self, _vec(j, "j", self.n), _vec(f_ref, "f_ref", self.n))


class QuadraticDissipation:
    """Quadratic dissipation 0.5 <j, j/m> with diagonal metric m > 0."""

    def __init__(self, metric_diag):
        self.metric_diag = _owned(_positive(metric_diag, "metric_diag"))
        self.n = self.metric_diag.size

    def value(self, j):
        j = _vec(j, "j", self.n, batch=True)
        return _total(0.5 * np.sum(j * j / self.metric_diag, axis=-1))

    def dual_value(self, f):
        f = _vec(f, "f", self.n, batch=True)
        return _total(0.5 * np.sum(self.metric_diag * f * f, axis=-1))

    def grad(self, j) -> np.ndarray:
        return _vec(j, "j", self.n) / self.metric_diag

    def dual_grad(self, f) -> np.ndarray:
        return self.metric_diag * _vec(f, "f", self.n, batch=True)

    def hessian_diag(self, j) -> np.ndarray:
        _vec(j, "j", self.n)
        return 1.0 / self.metric_diag

    def dual_hessian_diag(self, f) -> np.ndarray:
        return np.broadcast_to(self.metric_diag, _vec(f, "f", self.n, batch=True).shape).copy()

    def bregman(self, j, f_ref) -> float:
        return legendre_gap(self, _vec(j, "j", self.n), _vec(f_ref, "f_ref", self.n))


def legendre_gap(fn, primal, dual) -> float:
    """Fenchel-Young gap value(primal) + dual_value(dual) - <primal, dual>.

    Non-negative for any pair, zero exactly when dual = grad(primal).
    """
    p = np.asarray(primal, dtype=float)
    d = np.asarray(dual, dtype=float)
    return fn.value(p) + fn.dual_value(d) - float(p @ d)
