"""Reference kernel bases: the previous three-pass `Fraction` implementation.

Kept unchanged as the oracle that `crnflow.exact` is compared against in
the property tests: Bareiss echelon form, `Fraction` back-substitution,
and a `Fraction` Gauss-Jordan pass over the kernel vectors.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np


def _bareiss_echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form of an integer matrix.

    Returns the nonzero echelon rows and the pivot column indices.
    Intermediate entries stay integers (Bareiss one-step division).
    """
    n = len(rows)
    m = len(rows[0]) if n else 0
    pivot_cols: list[int] = []
    prev = 1
    r = 0
    for c in range(m):
        p = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(r + 1, n):
            for k in range(c + 1, m):
                rows[i][k] = (rows[r][c] * rows[i][k] - rows[i][c] * rows[r][k]) // prev
            rows[i][c] = 0
        prev = rows[r][c]
        pivot_cols.append(c)
        r += 1
        if r == n:
            break
    return rows[:r], pivot_cols


def _primitive(row: list[Fraction]) -> list[int]:
    # clear denominators, divide by content, make the leading entry positive
    denom = 1
    for v in row:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = [int(v * denom) for v in row]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v != 0), 0)
    if lead < 0:
        ints = [-v for v in ints]
    return ints


def _reduced_rows(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan reduced form (unit leading entries, zeros above and below)."""
    rows = [list(r) for r in rows]
    n = len(rows)
    m = len(rows[0]) if n else 0
    r = 0
    for c in range(m):
        p = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        lead = rows[r][c]
        rows[r] = [v / lead for v in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [vi - factor * vr for vi, vr in zip(rows[i], rows[r])]
        r += 1
        if r == n:
            break
    return [row for row in rows if any(v != 0 for v in row)]


def kernel_basis(mat) -> np.ndarray:
    """Canonical primitive-integer basis of {v : mat @ v = 0}.

    Args:
        mat: integer matrix (anything `np.asarray` accepts), shape (n, m).

    Returns:
        Integer array of shape (k, m) whose rows span the kernel exactly,
        k = m - rank(mat). Rows are in reduced form (each row's leading
        entry is the only nonzero of the basis in that column), scaled to
        coprime integers with positive leading entry, ordered by leading
        column. The zero-rank cases degrade gracefully: an all-zero or
        empty matrix yields the identity basis.
    """
    a = np.asarray(mat)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    n, m = a.shape
    work = [[int(v) for v in row] for row in a.tolist()]
    echelon, pivot_cols = _bareiss_echelon(work)
    free_cols = [c for c in range(m) if c not in pivot_cols]
    vectors: list[list[Fraction]] = []
    for fc in free_cols:
        v = [Fraction(0)] * m
        v[fc] = Fraction(1)
        for i in reversed(range(len(pivot_cols))):
            c = pivot_cols[i]
            s = sum((Fraction(echelon[i][k]) * v[k] for k in range(c + 1, m)), Fraction(0))
            v[c] = -s / echelon[i][c]
        vectors.append(v)
    reduced = _reduced_rows(vectors)
    basis = [_primitive(row) for row in reduced]
    if not basis:
        return np.zeros((0, m), dtype=np.int64)
    # np raises OverflowError here if entries exceed int64; fine for our scale
    return np.array(basis, dtype=np.int64)


def integer_rank(mat) -> int:
    """Exact rank of an integer matrix."""
    a = np.asarray(mat)
    work = [[int(v) for v in row] for row in a.tolist()]
    _, pivot_cols = _bareiss_echelon(work)
    return len(pivot_cols)
