"""Input checks, one function per contract, for every module: each returns the
input checked (as floats or ints where it converts) or raises ValueError naming it."""

from __future__ import annotations

import numpy as np


def _vec(x, name: str, n: int | None = None, batch: bool = False) -> np.ndarray:
    """x as a float vector (or (T, n) batch with batch=True) of length n if given."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 and not (batch and v.ndim == 2):
        raise ValueError(f"{name} must be a 1-d vector, got shape {v.shape}")
    if n is not None and v.shape[-1] != n:
        raise ValueError(f"{name} must have length {n}, got shape {v.shape}")
    return v


def _positive(x, name: str, n: int | None = None, batch: bool = False, finite: bool = False) -> np.ndarray:
    """_vec(x, name, n, batch) with every entry > 0, and finite when finite=True."""
    v = _vec(x, name, n, batch)
    if not (np.all(v > 0) and (not finite or np.all(np.isfinite(v)))):
        raise ValueError(f"{name} must be {'finite and ' if finite else ''}strictly positive")
    return v


def _owned(a: np.ndarray) -> np.ndarray:
    """A read-only copy of the checked array a, in its memory order: what a record holds."""
    owned = a.copy(order="K")
    owned.flags.writeable = False
    return owned


def _integers(values, what: str) -> list[int]:
    """values as Python ints, each entry an integer: 1.0 passes, 1.5, NaN and "1" do not.
    Ints past the int64 range pass, for the caller's own range check."""
    ints = []
    for v in values:
        try:
            i = int(v)
        except (TypeError, ValueError, OverflowError):
            i = None
        if i is None or i != v:
            raise ValueError(f"{what} must be integers, got {v!r}")
        ints.append(i)
    return ints


def _schedule_times(times) -> np.ndarray:
    """Sample times of a rate schedule as a float array: finite, strictly increasing, length >= 2."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 2 or not (np.all(np.isfinite(t)) and np.all(np.diff(t) > 0)):
        raise ValueError("schedule times must be finite and strictly increasing, length >= 2")
    return t


def _times(t, what: str, finite: bool = False) -> np.ndarray:
    """Sample times as a float array of 0 or 1 dimensions, with finite entries when finite=True."""
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValueError(f"{what} must be a scalar or a 1-d array, got shape {ts.shape}")
    if finite and not np.all(np.isfinite(ts)):
        raise ValueError(f"{what} must be finite")
    return ts


def _tolerances(rtol: float, atol: float, positivity_floor: float) -> None:
    """An integration's tolerances: rtol finite and > 0, atol and positivity_floor finite and >= 0."""
    if not 0.0 < rtol < np.inf:  # False for NaN too
        raise ValueError("rtol must be positive and finite")
    if not (0.0 <= atol < np.inf and 0.0 <= positivity_floor < np.inf):
        raise ValueError("atol and positivity_floor must be finite and non-negative")


def _time_span(t_span) -> tuple[float, float]:
    """A final time t1 (from t0 = 0) or a (t0, t1) pair, as floats: finite, with t1 > t0."""
    if np.ndim(t_span) == 0:
        t0, t1 = 0.0, float(t_span)
    else:
        t0, t1 = (float(v) for v in t_span)
    if not -np.inf < t0 < t1 < np.inf:  # False for NaN too
        raise ValueError("time span must be finite with t1 > t0")
    return t0, t1


def _schedule_edges(schedule, n_edges: int):
    """A RateSchedule whose tables have a column per edge of a network with n_edges edges."""
    if schedule.n_edges != n_edges:
        raise ValueError("schedule edge count does not match network")
    return schedule


def _floats(value, what: str, ndim: int, positive: bool = False) -> np.ndarray:
    """A scenario's value as a float array of ndim dimensions with finite entries, > 0 if positive."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != ndim or not np.all(np.isfinite(arr)):
        kind = ("a finite number", "a list of finite numbers", "a table of finite numbers")[ndim]
        raise ValueError(f"{what} must be {kind}")
    if positive and not np.all(arr > 0):
        raise ValueError(f"{what} must be positive")
    return arr
