"""Exact-rational lattices: bases, Gram matrices, duals, and reduction.

Entries are exact rationals (`fractions.Fraction`); square roots and other
irrational values appear only in reporting layers, never here.  LLL runs in
scaled integers: the form is multiplied by the lcm of its denominators and
reduced by integral LLL (Cohen, GTM 138, Alg. 2.6.7), which keeps the
Gram-Schmidt data as integer minors, so every size-reduction and Lovasz
decision is an exact integer comparison.  Determinants and inverses come
from the fraction-free elimination in `_linalg` on the same scaled integers,
which a GramMatrix keeps from construction.  A lattice may be given by a basis
(rows spanning it) or directly by its Gram matrix — the hexagonal lattice,
for instance, has no rational coordinate basis, so all downstream
operations consume the Gram form.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from . import _linalg
from .errors import (
    InvalidParameters,
    NonPositiveImaginaryPart,
    NotPositiveDefinite,
    SchemaError,
    SingularBasis,
    UnsupportedDimension,
)

__all__ = [
    "MAX_DIM",
    "GramMatrix",
    "LatticeBasis",
    "Tau",
    "gram",
    "covolume_squared",
    "dual_basis",
    "dual_gram",
    "reduce_rank2",
    "apply_mobius",
    "lll_reduce",
    "lll_reduce_gram",
]

MAX_DIM = 8

Rational = Union[int, str, Fraction]


def _coerce(value) -> Fraction:
    if isinstance(value, bool):
        raise SchemaError("matrix entries must be rationals, not booleans")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"cannot parse rational {value!r}") from exc
    raise SchemaError(
        f"matrix entries must be ints, Fractions, or 'p/q' strings, got {type(value).__name__}"
    )


def _check_dim(n: int) -> None:
    if not 1 <= n <= MAX_DIM:
        raise UnsupportedDimension(f"rank must be between 1 and {MAX_DIM}, got {n}")


class GramMatrix:
    """Symmetric positive-definite matrix of inner products, exact entries.

    Positive definiteness is checked at construction through the signs of
    the leading principal minors, so a constructed instance is always a
    valid Gram matrix.

    The integer form the constructor computes for that check is kept:
    `_rows` holds scale * entries as integer tuples and `_scale` is the lcm
    of the entries' denominators.  LLL, the enumeration and the inverse all
    start from it, so no caller integerizes the entries again; LLL copies
    the rows before it reduces them in place.

    An instance is immutable, so two derived values are kept once computed:
    the dual form (`inverse`) and lambda_1^2, which `systolic.minima` fills
    on first use.  Equality, hashing and repr look at `entries` only.
    """

    __slots__ = ("entries", "dim", "_rows", "_scale", "_det", "_inverse", "_lambda1_sq")

    def __init__(self, entries: Sequence[Sequence[Rational]]):
        rows = [tuple(_coerce(x) for x in row) for row in entries]
        n = len(rows)
        _check_dim(n)
        if any(len(row) != n for row in rows):
            raise SchemaError("gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise SchemaError(
                        f"gram matrix not symmetric at entries ({i},{j})/({j},{i})"
                    )
        int_rows, scale = _integerize(rows)
        d, _ = _integral_gso(int_rows)
        self.entries = tuple(rows)
        self.dim = n
        self._rows = tuple(map(tuple, int_rows))
        self._scale = scale
        self._det = Fraction(d[n], scale**n)
        self._inverse = None
        self._lambda1_sq = None

    @property
    def det(self) -> Fraction:
        """Exact determinant (the squared covolume of any basis realizing this form)."""
        return self._det

    def inverse(self) -> "GramMatrix":
        """Gram matrix of the dual lattice."""
        if self._inverse is None:
            self._inverse = GramMatrix(_linalg.inverse(self._rows, self._scale))
        return self._inverse

    def scale(self, factor: Rational) -> "GramMatrix":
        """Homothety: multiply every inner product by a positive rational."""
        c = _coerce(factor)
        if c <= 0:
            raise InvalidParameters("scale factor must be positive")
        return GramMatrix([[x * c for x in row] for row in self.entries])

    def __eq__(self, other) -> bool:
        return isinstance(other, GramMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"GramMatrix({[[str(x) for x in row] for row in self.entries]})"


class LatticeBasis:
    """Full-rank lattice basis: rows are the basis vectors, exact coordinates."""

    __slots__ = ("rows", "dim")

    def __init__(self, rows: Sequence[Sequence[Rational]]):
        vecs = [tuple(_coerce(x) for x in row) for row in rows]
        n = len(vecs)
        _check_dim(n)
        if any(len(v) != n for v in vecs):
            raise SchemaError("basis must be square (full rank, ambient dim = rank)")
        if _linalg.det(*_integerize(vecs)) == 0:
            raise SingularBasis("basis rows are linearly dependent")
        self.rows = tuple(vecs)
        self.dim = n

    def gram(self) -> GramMatrix:
        rows, scale = _integerize(self.rows)
        square = scale * scale
        return GramMatrix(
            [[Fraction(sum(map(operator.mul, a, b)), square) for b in rows] for a in rows]
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, LatticeBasis) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"LatticeBasis({[[str(x) for x in row] for row in self.rows]})"


def gram(basis: LatticeBasis) -> GramMatrix:
    """Matrix of pairwise inner products of the basis rows."""
    return basis.gram()


def covolume_squared(g: GramMatrix) -> Fraction:
    """det(g), exactly.  The covolume itself is its (generally irrational) square root."""
    return g.det


def dual_basis(basis: LatticeBasis) -> LatticeBasis:
    """Basis rows y_j with <x_i, y_j> = delta_ij: the inverse transpose."""
    inv = _linalg.inverse(*_integerize(basis.rows))
    return LatticeBasis(list(zip(*inv)))


def dual_gram(g: GramMatrix) -> GramMatrix:
    """Gram matrix of the dual lattice, which is exactly the inverse matrix."""
    return g.inverse()


# ---------------------------------------------------------------------------
# rank-2 moduli: upper half-plane reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tau:
    """Point of the upper half-plane encoding an oriented rank-2 lattice shape.

    `re` and `im` may be exact (`Fraction`/`int`) or binary64.  When both are
    exact the reduction below runs in exact arithmetic, otherwise comparisons
    use a 1e-12 guard band.
    """

    re: Union[Fraction, float]
    im: Union[Fraction, float]

    def __post_init__(self):
        if isinstance(self.re, bool) or isinstance(self.im, bool):
            raise SchemaError("tau components must be numbers")
        if isinstance(self.re, int):
            object.__setattr__(self, "re", Fraction(self.re))
        if isinstance(self.im, int):
            object.__setattr__(self, "im", Fraction(self.im))
        if self.im <= 0:
            raise NonPositiveImaginaryPart(f"Im(tau) must be positive, got {self.im}")

    @property
    def exact(self) -> bool:
        return isinstance(self.re, Fraction) and isinstance(self.im, Fraction)

    def norm_sq(self):
        return self.re * self.re + self.im * self.im


_SHIFT = ((1, 1), (0, 1))    # tau -> tau + 1
_INVERT = ((0, -1), (1, 0))  # tau -> -1/tau


def _compose(m2, m1):
    (a, b), (c, d) = m2
    (p, q), (r, s) = m1
    return ((a * p + b * r, a * q + b * s), (c * p + d * r, c * q + d * s))


def _shift_pow(n: int):
    return ((1, n), (0, 1))


def apply_mobius(m, t: Tau) -> Tau:
    """Apply an integer 2x2 matrix ((a,b),(c,d)) with det +-1 as a Moebius map."""
    (a, b), (c, d) = m
    num_re, num_im = a * t.re + b, a * t.im
    den_re, den_im = c * t.re + d, c * t.im
    d2 = den_re * den_re + den_im * den_im
    if d2 == 0:
        raise InvalidParameters("Moebius denominator vanishes")
    return Tau(
        (num_re * den_re + num_im * den_im) / d2,
        (num_im * den_re - num_re * den_im) / d2,
    )


def reduce_rank2(t: Tau):
    """Reduce tau into the standard fundamental domain |Re| <= 1/2, |tau| >= 1.

    Boundary representatives are canonicalized toward Re >= 0: a point with
    Re = -1/2 is shifted to +1/2, and a point on the unit circle with Re < 0
    is inverted (equal-length ties prefer the non-negative real part).
    Returns (reduced_tau, transform) where transform is the accumulated
    integer matrix of determinant +1 with apply_mobius(transform, t) equal to
    the reduction.
    """
    exact = t.exact
    eps = 0 if exact else 1e-12
    half = Fraction(1, 2) if exact else 0.5
    tau = t
    m = ((1, 0), (0, 1))
    for _ in range(10_000):
        shift = -math.floor(tau.re + half)
        if shift:
            tau = Tau(tau.re + shift, tau.im)
            m = _compose(_shift_pow(shift), m)
        if tau.norm_sq() < 1 - eps:
            n2 = tau.norm_sq()
            tau = Tau(-tau.re / n2, tau.im / n2)
            m = _compose(_INVERT, m)
            continue
        break
    else:  # pragma: no cover - the translate/invert loop always terminates
        raise RuntimeError("rank-2 reduction failed to converge")
    # boundary ties
    if abs(tau.norm_sq() - 1) <= eps and tau.re < -eps:
        n2 = tau.norm_sq()
        tau = Tau(-tau.re / n2, tau.im / n2)
        m = _compose(_INVERT, m)
    if abs(tau.re + half) <= eps:
        tau = Tau(tau.re + 1, tau.im)
        m = _compose(_SHIFT, m)
    return tau, m


# ---------------------------------------------------------------------------
# LLL reduction, run directly on Gram matrices
# ---------------------------------------------------------------------------

def _integerize(rows):
    """(integer rows of scale*rows, scale), scale the lcm of the denominators."""
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in rows], scale


def _integral_gso(g):
    """Integral Gram-Schmidt data (d, lam) of an integer Gram matrix.

    d[i] is the leading i x i minor (d[0] = 1), so the i-th squared
    Gram-Schmidt norm is d[i+1]/d[i]; lam[i][j] = d[j+1] * mu_ij for j < i.
    Both are integers, and every division below is exact (Cohen, GTM 138,
    Alg. 2.6.7, step 2).  Raises NotPositiveDefinite at the first minor that
    is not positive.
    """
    n = len(g)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            t = g[i][j]
            for l in range(j):
                t = (d[l + 1] * t - lam[i][l] * lam[j][l]) // d[l]
            if j < i:
                lam[i][j] = t
            else:
                d[i + 1] = t
        if d[i + 1] <= 0:
            raise NotPositiveDefinite(
                f"leading principal minor of order {i + 1} is not positive"
            )
    return d, lam


def _translate(g, u, k, j, q):
    """Row operation b_k <- b_k - q*b_j applied congruently to g, tracked in u."""
    n = len(g)
    u[k] = [a - q * b for a, b in zip(u[k], u[j])]
    for i in range(n):
        g[k][i] -= q * g[j][i]
    for i in range(n):
        g[i][k] -= q * g[i][j]


def _swap(g, u, k, j):
    u[k], u[j] = u[j], u[k]
    g[k], g[j] = g[j], g[k]
    for row in g:
        row[k], row[j] = row[j], row[k]


def _swap_gso(d, lam, k):
    """Update (d, lam) in place for the exchange of b_{k-1} and b_k
    (Cohen, GTM 138, Alg. 2.6.7, sub-algorithm SWAPI)."""
    for j in range(k - 1):
        lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
    t = lam[k][k - 1]
    b = (d[k - 1] * d[k + 1] + t * t) // d[k]
    for i in range(k + 1, len(lam)):
        s = lam[i][k]
        lam[i][k] = (d[k + 1] * lam[i][k - 1] - t * s) // d[k]
        lam[i][k - 1] = (b * s + t * lam[i][k]) // d[k + 1]
    d[k] = b


def _reduce(g: GramMatrix, delta: Fraction):
    """Integral LLL on a Gram matrix (Cohen, GTM 138, Alg. 2.6.7; de Weger 1987).

    Returns (rows, scale, u, d, lam): the reduced form U (scale*g) U^T as
    integer rows, scale the lcm of g's denominators, the transform U
    (integral, det +-1), and the Gram-Schmidt data of rows as in
    `_integral_gso`.

    The form is scaled to integers and d, lam are updated in place on every
    size reduction and swap, never rebuilt.  Each b_k is size-reduced against
    b_{k-1}, ..., b_0 with r = floor(mu + 1/2) = (2 lam + d) // (2 d) before
    the Lovasz test q*(d_{k+1} d_{k-1} + lam^2) >= p*d_k^2 for delta = p/q,
    all in integers.
    """
    rows, scale = [list(row) for row in g._rows], g._scale
    n = len(rows)
    u = _linalg.identity_int(n)
    d, lam = _integral_gso(rows)
    p, q = delta.numerator, delta.denominator
    k = 1
    while k < n:
        lam_k = lam[k]
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            r = (2 * lam_k[j] + dj) // (2 * dj)
            if r:
                _translate(rows, u, k, j, r)
                lam_k[j] -= r * dj
                lam_j = lam[j]
                for i in range(j):
                    lam_k[i] -= r * lam_j[i]
        t = lam_k[k - 1]
        if q * (d[k + 1] * d[k - 1] + t * t) >= p * d[k] * d[k]:
            k += 1
        else:
            _swap(rows, u, k, k - 1)
            _swap_gso(d, lam, k)
            k = max(k - 1, 1)
    return rows, scale, u, d, lam


def _check_delta(delta) -> Fraction:
    d = _coerce(delta) if not isinstance(delta, float) else Fraction(delta)
    if not Fraction(1, 4) < d < 1:
        raise InvalidParameters(f"LLL parameter must lie in (1/4, 1), got {delta}")
    return d


def lll_reduce_gram(g: GramMatrix, delta=Fraction(3, 4)):
    """LLL-reduce a quadratic form.  Returns (reduced GramMatrix, transform rows)."""
    rows, scale, u, _, _ = _reduce(g, _check_delta(delta))
    reduced = [[Fraction(x, scale) for x in row] for row in rows]
    return GramMatrix(reduced), tuple(tuple(row) for row in u)


def lll_reduce(basis: LatticeBasis, delta=Fraction(3, 4)):
    """LLL-reduce a basis.  Returns (new basis of the same lattice, transform rows).

    The transform U is integral with determinant +-1 and the new rows are
    exactly U times the old rows.
    """
    reduced_gram, u = lll_reduce_gram(basis.gram(), delta)
    new_rows = _linalg.mat_mul([list(r) for r in u], [list(r) for r in basis.rows])
    new_basis = LatticeBasis(new_rows)
    assert new_basis.gram() == reduced_gram
    return new_basis, u
