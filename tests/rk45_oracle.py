"""The dense output as crnflow.rk45 evaluated it before stacking, kept as an
oracle: one np.dot per group of times that fall in one step, in the
order of scipy's OdeSolution, with its columns transposed to rows."""

import numpy as np


def interpolate(segment, t):
    """Dense output of one step at a 0-d t, or at a 1-d t as columns."""
    t_old, h, y_old, Q = segment
    x = (t - t_old) / h
    if t.ndim == 0:
        return h * np.dot(Q, np.cumprod(np.tile(x, 4))) + y_old
    return h * np.dot(Q, np.cumprod(np.tile(x, (4, 1)), axis=0)) + y_old[:, None]


def dense_output(dense, t):
    """dense(t) for a crnflow.rk45.DenseOutput, a group at a time: at a 1-d t,
    scipy's (n, m) columns, transposed to (m, n) rows."""
    t = np.asarray(t)
    last = dense.h.size - 1
    if t.ndim == 0:
        i = int(np.searchsorted(dense.t, t, side="left")) - 1
        return interpolate(dense.segment(min(max(i, 0), last)), t)
    order = np.argsort(t)
    reverse = np.empty_like(order)
    reverse[order] = np.arange(order.shape[0])
    t_sorted = t[order]
    seg = np.clip(np.searchsorted(dense.t, t_sorted, side="left") - 1, 0, last)
    bounds = [0, *(np.flatnonzero(np.diff(seg)) + 1), seg.size]
    ys = [interpolate(dense.segment(seg[a]), t_sorted[a:b]) for a, b in zip(bounds, bounds[1:])]
    return np.hstack(ys)[:, reverse].T
