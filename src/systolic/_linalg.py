"""Exact dense linear algebra helpers over `fractions.Fraction`.

Small matrices only (rank <= 8 everywhere in this package), so plain
Gaussian elimination with exact rationals is both simple and fast enough.
"""

from __future__ import annotations

import math
from fractions import Fraction

Row = list  # rows of Fraction (or int, which Fraction arithmetic promotes)


def identity_int(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    assert len(a[0]) == inner
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def transpose(m):
    return [list(col) for col in zip(*m)]


def quad_form(v, g):
    """v * g * v^T for a row vector v."""
    n = len(v)
    total = 0
    for i in range(n):
        vi = v[i]
        if vi:
            row = g[i]
            total += vi * sum(row[j] * v[j] for j in range(n))
    return total


def det(rows) -> Fraction:
    """Exact determinant via fraction Gaussian elimination with pivoting."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            sign = -sign
        pivot = a[col][col]
        result *= pivot
        for r in range(col + 1, n):
            if a[r][col]:
                factor = a[r][col] / pivot
                a[r] = [a[r][j] - factor * a[col][j] for j in range(n)]
    return sign * result


def inverse(rows):
    """Exact inverse; raises ZeroDivisionError on a singular matrix."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            raise ZeroDivisionError("singular matrix")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        pivot = a[col][col]
        a[col] = [x / pivot for x in a[col]]
        inv[col] = [x / pivot for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [a[r][j] - factor * a[col][j] for j in range(n)]
                inv[r] = [inv[r][j] - factor * inv[col][j] for j in range(n)]
    return inv


class RowEchelon:
    """Incremental exact rank tracker for integer row vectors.

    Elimination is fraction-free: each step cross-multiplies by the pivots,
    and a kept row is divided by the gcd of its entries.
    """

    def __init__(self):
        self._rows = []   # reduced rows, each with a recorded pivot column
        self._pivots = []

    def try_add(self, vec) -> bool:
        """Reduce vec against the stored rows; keep it if independent."""
        work = list(vec)
        for row, piv in zip(self._rows, self._pivots):
            b = work[piv]
            if b:
                a = row[piv]
                work = [a * w - b * r for w, r in zip(work, row)]
        pivot_col = next((j for j, w in enumerate(work) if w != 0), None)
        if pivot_col is None:
            return False
        common = math.gcd(*work)
        self._rows.append([w // common for w in work])
        self._pivots.append(pivot_col)
        return True

    @property
    def rank(self) -> int:
        return len(self._rows)
