"""Input checks, one function per contract, for every module: each returns the
input as floats or raises ValueError naming it."""

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


def _schedule_times(times) -> np.ndarray:
    """Sample times of a rate schedule as a float array: finite, strictly increasing, length >= 2."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 2 or not (np.all(np.isfinite(t)) and np.all(np.diff(t) > 0)):
        raise ValueError("schedule times must be finite and strictly increasing, length >= 2")
    return t


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
