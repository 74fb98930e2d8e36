"""Exact dense linear algebra helpers on integer matrices.

Small matrices only (rank <= 8 everywhere in this package).  Elimination is
fraction-free throughout: a rational matrix is passed as integer rows plus
the common denominator `scale`, the determinant and the inverse come from
one Bareiss elimination on those integers, and Fractions are built only for
the entries returned.
"""

from __future__ import annotations

import math
from fractions import Fraction

def identity_int(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    assert len(a[0]) == inner
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def bareiss(rows):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of an integer
    square matrix M.

    Returns (d, e) with d = det(M) and e the integer matrix with
    e M = d I (the adjugate of M), or (0, None) when M is singular.  The
    identity is carried alongside M; each step cross-multiplies every other
    row by the pivot and divides exactly by the previous pivot, so every
    intermediate entry is a minor of [M | I].  Zero pivots are met by a row
    swap.  Columns left of the pivot are never read again, so they are left
    as they are.
    """
    n = len(rows)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev = 1
    for k in range(n):
        p = next((r for r in range(k, n) if a[r][k]), None)
        if p is None:
            return 0, None
        if p != k:
            # negating the row swapped down keeps the determinant's sign
            a[k], a[p] = a[p], [-x for x in a[k]]
        pivot_row = a[k]
        pivot, tail = pivot_row[k], pivot_row[k + 1:]
        for i in range(n):
            if i != k:
                row = a[i]
                f = row[k]
                row[k + 1:] = [(pivot * x - f * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = pivot
    return prev, [row[n:] for row in a]


def det(rows, scale) -> Fraction:
    """Exact determinant of rows/scale, for integer rows."""
    d, _ = bareiss(rows)
    return Fraction(d, scale ** len(rows))


def inverse(rows, scale):
    """Exact inverse of rows/scale, for integer rows, as Fraction rows.

    Raises ZeroDivisionError on a singular matrix.
    """
    d, e = bareiss(rows)
    if not d:
        raise ZeroDivisionError("singular matrix")
    return [[Fraction(scale * x, d) for x in row] for row in e]


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
