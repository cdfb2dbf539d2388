"""Exact integer linear algebra for kernel bases.

One fraction-free Gauss-Jordan elimination (Bareiss's integer-preserving
step, applied above each pivot as well as below) runs on the matrix with
its columns reversed, so every pivot ends equal to one determinant d.
Each free column f then gives the kernel vector with d at f and minus the
pivot rows' column-f entries at their pivot columns. Pivots were taken
from the right, so f is that vector's leading column and the other
vectors vanish there: together they already are the kernel's reduced
echelon form, which is unique. Dividing by the gcd and making the lead
positive gives a canonical basis, byte-identical for identical matrices.
No floats or rationals are used; a basis entry outside int64 raises
ValueError.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .checks import _integers

_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def _rescaled(row: list[int], num: int, den: int) -> list[int]:
    return [x * num // den if x else 0 for x in row]


def _gauss_jordan(rows: list[list[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free reduced echelon form, in place: (pivot rows, pivot columns, d).

    Each step sets every other row to (p * row - row[c] * pivot_row) / prev,
    an exact division, so entries stay integer minors of the input. Rows
    with row[c] == 0 are only scaled by p / prev; those factors telescope,
    so such rows keep the pivot they are current at and are rescaled only
    when next used.
    """
    n = len(rows)
    m = len(rows[0]) if n else 0
    current_at = [1] * n
    pivot_cols: list[int] = []
    prev = 1
    r = 0
    for c in range(m):
        p = next((i for i in range(r, n) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        current_at[r], current_at[p] = current_at[p], current_at[r]
        if current_at[r] != prev:
            rows[r] = _rescaled(rows[r], prev, current_at[r])
        pivot_row = rows[r]
        piv = pivot_row[c]
        support = [k for k in range(m) if pivot_row[k]]
        for i in range(n):
            if i == r or not rows[i][c]:
                continue
            row = rows[i] if current_at[i] == prev else _rescaled(rows[i], prev, current_at[i])
            a = row[c]
            row = [x * piv for x in row]
            for k in support:
                row[k] -= a * pivot_row[k]
            rows[i] = [x // prev if x else 0 for x in row]
            current_at[i] = piv
        current_at[r] = piv
        prev = piv
        pivot_cols.append(c)
        r += 1
        if r == n:
            break
    for i in range(r):
        if current_at[i] != prev:
            rows[i] = _rescaled(rows[i], prev, current_at[i])
    return rows[:r], pivot_cols, prev


def kernel_basis(mat) -> np.ndarray:
    """Canonical primitive-integer basis of {v : mat @ v = 0}.

    Read off one fraction-free Gauss-Jordan elimination of `mat` with its
    columns reversed (see the module docstring).

    Args:
        mat: integer matrix (anything `np.asarray` accepts), shape (n, m).

    Returns:
        Integer array of shape (k, m) whose rows span the kernel exactly,
        k = m - rank(mat). Rows are in reduced form (each row's leading
        entry is the only nonzero of the basis in that column), scaled to
        coprime integers with positive leading entry, ordered by leading
        column. The zero-rank cases degrade gracefully: an all-zero or
        empty matrix yields the identity basis.

    Raises:
        ValueError: `mat` is not 2-d, has an entry that is not an integer,
            or a basis entry does not fit in int64.
    """
    a = np.asarray(mat)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    m = a.shape[1]
    rows, pivot_cols, d = _gauss_jordan([_integers(reversed(row), "matrix entries") for row in a.tolist()])
    pivots = set(pivot_cols)
    basis = []
    for f in reversed(range(m)):
        if f in pivots:
            continue
        v = [0] * m
        v[f] = d
        for row, c in zip(rows, pivot_cols):
            v[c] = -row[f]
        g = gcd(*v) if d > 0 else -gcd(*v)
        basis.append([x // g for x in reversed(v)])
    if any(not _INT64_MIN <= x <= _INT64_MAX for row in basis for x in row):
        raise ValueError("kernel basis entries exceed the int64 range")
    return np.array(basis, dtype=np.int64).reshape(len(basis), m)


def integer_rank(mat) -> int:
    """Exact rank of an integer matrix."""
    a = np.asarray(mat)
    _, pivot_cols, _ = _gauss_jordan([_integers(row, "matrix entries") for row in a.tolist()])
    return len(pivot_cols)
