"""Brute-force reference implementations used to cross-check the library.

Everything in this file is deliberately dumb and self-contained: exhaustive
coefficient boxes, breadth-first word search, direct sublattice determinants.
Nothing here shares code with the production enumeration, reduction, or
normal-form routines, so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

# Hard cap on the number of coefficient vectors a box oracle will grind
# through.  Generators below resample instead of exceeding it.
BOX_BUDGET = 400_000


class BoxTooLarge(Exception):
    """The certified coefficient box would exceed BOX_BUDGET points."""


# ---------------------------------------------------------------------------
# small exact linear algebra, local to the oracle
# ---------------------------------------------------------------------------


def frac_det(rows) -> Fraction:
    """Exact determinant via fraction Gaussian elimination with pivoting.

    This is the Fraction elimination the library ran before its determinant
    became fraction-free (`systolic._linalg.bareiss`).
    """
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


def frac_inverse(rows):
    """Exact inverse by Fraction Gauss-Jordan elimination, as the library
    computed it before `systolic._linalg.bareiss`; raises ZeroDivisionError
    on a singular matrix."""
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


def _rank(vectors) -> int:
    """Rank of a list of integer/rational row vectors, by exact elimination."""
    if not vectors:
        return 0
    a = [[Fraction(x) for x in v] for v in vectors]
    ncols = len(a[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(a)):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def quad_form_exact(v, gram_rows) -> Fraction:
    total = Fraction(0)
    for i, vi in enumerate(v):
        if vi:
            for j, vj in enumerate(v):
                if vj:
                    total += Fraction(gram_rows[i][j]) * vi * vj
    return total


# ---------------------------------------------------------------------------
# coefficient-box minima
# ---------------------------------------------------------------------------


def certified_box_bound(gram_rows) -> int:
    """A coefficient bound B such that every vector realizing any successive
    minimum has all coefficients in [-B, B].

    If x realizes lambda_k, then |x_i|^2 <= |x|^2 * (G^-1)_ii by duality, and
    lambda_k^2 <= max_j G_jj because the standard basis vectors are
    independent.  Floats suffice for a bound; a +1 margin absorbs rounding.
    """
    n = len(gram_rows)
    g = np.array([[float(x) for x in row] for row in gram_rows], dtype=float)
    ginv = np.linalg.inv(g)
    bound = math.sqrt(max(g[i][i] for i in range(n)) * max(ginv[i][i] for i in range(n)))
    return max(1, int(math.ceil(bound)) + 1)


def box_vectors(dim: int, bound: int) -> np.ndarray:
    """All nonzero integer vectors in [-bound, bound]^dim, one per +-pair."""
    count = (2 * bound + 1) ** dim
    if count > 2 * BOX_BUDGET:
        raise BoxTooLarge(f"{count} points in box [-{bound},{bound}]^{dim}")
    axes = [np.arange(-bound, bound + 1, dtype=np.int64)] * dim
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    # keep one representative of each {x, -x} pair: first nonzero entry > 0
    keep = np.zeros(len(grid), dtype=bool)
    undecided = np.ones(len(grid), dtype=bool)
    for col in range(dim):
        pos = undecided & (grid[:, col] > 0)
        keep |= pos
        undecided &= grid[:, col] == 0
    return grid[keep]


def box_minima(gram_rows, k: int, bound: int | None = None):
    """First k successive minima (squared) by exhaustive search.

    Returns (values, witnesses): exact Fractions and one coefficient vector
    per minimum.  All norms are evaluated exactly after scaling the Gram
    matrix to integers; int64 overflow is ruled out by an explicit check.
    """
    n = len(gram_rows)
    if bound is None:
        bound = certified_box_bound(gram_rows)
    denom = math.lcm(*[Fraction(x).denominator for row in gram_rows for x in row])
    scaled = [[int(Fraction(x) * denom) for x in row] for row in gram_rows]
    largest = max(abs(e) for row in scaled for e in row)
    if largest * (n * bound) ** 2 >= 2**62:
        raise BoxTooLarge("scaled norms would not fit in int64")

    vecs = box_vectors(n, bound)
    gmat = np.array(scaled, dtype=np.int64)
    norms = np.einsum("ij,jk,ik->i", vecs, gmat, vecs)
    order = np.lexsort(tuple(vecs[:, c] for c in reversed(range(n))) + (norms,))

    values, witnesses, chosen = [], [], []
    for idx in order:
        v = [int(c) for c in vecs[idx]]
        if _rank(chosen + [v]) > len(chosen):
            chosen.append(v)
            values.append(Fraction(int(norms[idx]), denom))
            witnesses.append(tuple(v))
            if len(chosen) == k:
                break
    return values, witnesses


def box_shortest(gram_rows, bound: int | None = None) -> Fraction:
    return box_minima(gram_rows, 1, bound)[0][0]


# ---------------------------------------------------------------------------
# rational Gram-Schmidt, LLL and Fincke-Pohst: the library's integral versions
# must make the same decisions and find the same vectors
# ---------------------------------------------------------------------------


def frac_gso(g):
    """Gram-Schmidt data (mu, B) of a basis known only through its Gram matrix."""
    g = [[Fraction(x) for x in row] for row in g]
    n = len(g)
    mu = [[Fraction(0)] * n for _ in range(n)]
    proj = [[Fraction(0)] * n for _ in range(n)]  # proj[i][j] = <b_i, b*_j>
    norms = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            r = g[i][j] - sum(mu[j][k] * proj[i][k] for k in range(j))
            proj[i][j] = r
            mu[i][j] = r / norms[j]
        norms[i] = g[i][i] - sum(mu[i][k] * proj[i][k] for k in range(i))
    return mu, norms


def frac_lll(gram_rows, delta):
    """LLL in Fraction arithmetic, rebuilding the Gram-Schmidt data after
    every size reduction and swap.

    Size-reduces b_k against b_{k-1}, ..., b_0 with q = floor(mu + 1/2), then
    applies the Lovasz test.  Returns (reduced Gram rows, transform rows).
    """
    g = [[Fraction(x) for x in row] for row in gram_rows]
    delta = Fraction(delta)
    n = len(g)
    u = [[int(i == j) for j in range(n)] for i in range(n)]

    def translate(k, j, q):
        u[k] = [a - q * b for a, b in zip(u[k], u[j])]
        for i in range(n):
            g[k][i] -= q * g[j][i]
        for i in range(n):
            g[i][k] -= q * g[i][j]

    def swap(k, j):
        u[k], u[j] = u[j], u[k]
        g[k], g[j] = g[j], g[k]
        for row in g:
            row[k], row[j] = row[j], row[k]

    mu, norms = frac_gso(g)
    half = Fraction(1, 2)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = math.floor(mu[k][j] + half)
            if q:
                translate(k, j, q)
                mu, norms = frac_gso(g)
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            swap(k, k - 1)
            mu, norms = frac_gso(g)
            k = max(k - 1, 1)
    return g, u


def frac_ball(gram_rows, radius):
    """Set of nonzero integer vectors x (one per +-pair, topmost nonzero
    coordinate positive) with x g x^T <= radius, by Fincke-Pohst recursion
    over Fraction Gram-Schmidt bounds."""
    g = [[Fraction(x) for x in row] for row in gram_rows]
    n = len(g)
    mu, norms = frac_gso(g)
    found = set()
    x = [0] * n

    def window(center, budget):
        if budget < 0:
            return 1, 0
        approx = math.isqrt(math.floor(budget)) + 2
        hi = math.floor(center) + approx
        while hi > center and (hi - center) ** 2 > budget:
            hi -= 1
        lo = math.ceil(center) - approx
        while lo < center and (center - lo) ** 2 > budget:
            lo += 1
        return lo, hi

    def walk(level, remaining):
        if level < 0:
            if any(x):
                found.add(tuple(x))
            return
        shift = sum(mu[j][level] * x[j] for j in range(level + 1, n))
        lo, hi = window(-shift, remaining / norms[level])
        if all(v == 0 for v in x[level + 1:]):
            lo = max(lo, 0)
        for value in range(lo, hi + 1):
            x[level] = value
            walk(level - 1, remaining - norms[level] * (value + shift) ** 2)
        x[level] = 0

    walk(n - 1, Fraction(radius))
    return found


# ---------------------------------------------------------------------------
# codimension-one sublattices, from the definition
# ---------------------------------------------------------------------------


def integer_kernel_basis(w):
    """Basis of {x in Z^n : x . w = 0} for a primitive integer vector w.

    Runs the extended-gcd elimination on rows of the identity; the rows whose
    pairing with w has been cleared span the kernel.
    """
    n = len(w)
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    d = list(w)
    while sum(1 for x in d if x != 0) > 1:
        i = min((j for j in range(n) if d[j] != 0), key=lambda j: abs(d[j]))
        for j in range(n):
            if j != i and d[j] != 0:
                q = d[j] // d[i]
                d[j] -= q * d[i]
                rows[j] = [a - q * b for a, b in zip(rows[j], rows[i])]
    pivot = next(j for j in range(n) if d[j] != 0)
    assert abs(d[pivot]) == math.gcd(*[abs(x) for x in w])
    kernel = [rows[j] for j in range(n) if j != pivot]
    for k in kernel:
        assert sum(a * b for a, b in zip(k, w)) == 0
    return kernel


def min_hyperplane_det(gram_rows, bound: int | None = None) -> Fraction:
    """Smallest determinant of a corank-one sublattice K_w = {x : x.w = 0},
    minimizing over primitive w with coefficients in [-bound, bound]^n.

    The certified bound for the shortest dual vector also bounds the optimal
    w here, because K_w's determinant grows with the dual length of w.
    """
    n = len(gram_rows)
    if bound is None:
        bound = certified_box_bound(gram_rows)
    best = None
    for w in itertools.product(range(-bound, bound + 1), repeat=n):
        if all(x == 0 for x in w):
            continue
        if math.gcd(*[abs(x) for x in w]) != 1:
            continue
        # one representative per +-pair
        lead = next(x for x in w if x != 0)
        if lead < 0:
            continue
        kernel = integer_kernel_basis(list(w))
        sub = [[quad_form_pair(a, b, gram_rows) for b in kernel] for a in kernel]
        d = frac_det(sub)
        if best is None or d < best:
            best = d
    return best


def quad_form_pair(u, v, gram_rows) -> Fraction:
    total = Fraction(0)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                if vj:
                    total += Fraction(gram_rows[i][j]) * ui * vj
    return total


# ---------------------------------------------------------------------------
# modular-group word search
# ---------------------------------------------------------------------------


def _mobius_step(re: Fraction, im: Fraction, op: str):
    if op == "T":
        return re + 1, im
    if op == "t":
        return re - 1, im
    # op == "S": z -> -1/z
    nsq = re * re + im * im
    return -re / nsq, im / nsq


def in_fundamental_domain(re: Fraction, im: Fraction) -> bool:
    """Closed half of the usual fundamental domain for the modular group:
    -1/2 < Re <= 1/2, |z|^2 >= 1, and Re >= 0 on the unit circle."""
    nsq = re * re + im * im
    if not (Fraction(-1, 2) < re <= Fraction(1, 2)):
        return False
    if nsq < 1:
        return False
    if nsq == 1 and re < 0:
        return False
    return True


def mobius_word_search(re, im, max_depth: int = 10):
    """Breadth-first search over words in T, T^-1, S for a fundamental-domain
    representative of the given point.  Returns the set of domain points
    reachable at the first depth where any is found (exact arithmetic)."""
    re, im = Fraction(re), Fraction(im)
    frontier = {(re, im)}
    seen = {(re, im)}
    for _ in range(max_depth + 1):
        found = {p for p in frontier if in_fundamental_domain(*p)}
        if found:
            return found
        nxt = set()
        for p in frontier:
            for op in ("T", "t", "S"):
                q = _mobius_step(*p, op)
                if q not in seen:
                    seen.add(q)
                    nxt.add(q)
        frontier = nxt
    return set()


# ---------------------------------------------------------------------------
# random inputs
# ---------------------------------------------------------------------------


def random_basis_rows(rng, dim: int, lo: int = -9, hi: int = 9):
    """Random nonsingular integer basis rows (entries uniform in [lo, hi])."""
    while True:
        rows = [[int(rng.integers(lo, hi + 1)) for _ in range(dim)] for _ in range(dim)]
        if frac_det(rows) != 0:
            return rows


def random_gram_rows(rng, dim: int, lo: int = -9, hi: int = 9):
    """Gram matrix B B^T of a random nonsingular integer basis."""
    b = random_basis_rows(rng, dim, lo, hi)
    return [[sum(b[i][k] * b[j][k] for k in range(dim)) for j in range(dim)]
            for i in range(dim)]


def random_gram_in_budget(rng, dim: int, lo: int, hi: int):
    """Random Gram whose certified coefficient box fits the oracle budget."""
    while True:
        g = random_gram_rows(rng, dim, lo, hi)
        bound = certified_box_bound(g)
        if (2 * bound + 1) ** dim <= BOX_BUDGET:
            return g, bound


def random_int_matrix(rng, rows: int, cols: int, lo: int = -9, hi: int = 9):
    return [[int(rng.integers(lo, hi + 1)) for _ in range(cols)] for _ in range(rows)]
