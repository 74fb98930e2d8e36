"""Successive minima, Hermite-type invariants, and the sharp-constant catalog.

The enumeration is complete and exact: the form is scaled to integers and
reduced by integral LLL (Cohen, GTM 138, Alg. 2.6.7), and all vectors inside
a ball of provably sufficient radius are generated by layered Fincke-Pohst
recursion on the integral Gram-Schmidt data that reduction holds, with
integer pruning bounds and integer-square-root windows.  Greedy independent
selection over the sorted vector list then reads off every requested minimum
together with a witness.  lambda_1^2 is kept on the GramMatrix, so the
invariants built on it enumerate each form at most once.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import _linalg
from .errors import InvalidParameters, UnknownConstant
from .lattice import GramMatrix, _reduce

__all__ = [
    "MinimaReport",
    "HermiteInvariant",
    "Criticality",
    "ConstantCatalogEntry",
    "CONSTANTS",
    "HEXAGONAL_GRAM",
    "FCC_GRAM",
    "successive_minima",
    "shortest_vector_sq",
    "hermite_invariant_sq",
    "berge_martinet_invariant_sq",
    "gamma_power",
    "gamma_prime_sq",
    "is_critical",
]


@dataclass(frozen=True)
class MinimaReport:
    """First k successive minima (squared, exact) with integer witnesses.

    witnesses[j] holds coefficients in the *original* basis underlying the
    input Gram matrix; re-evaluating the form on it reproduces lambda_sq[j].
    Witnesses are sign-normalized (first nonzero coefficient positive) and
    ties between equal-length candidates go to the lexicographically
    smallest coefficient vector.
    """

    dim: int
    lambda_sq: tuple
    witnesses: tuple


def _vectors_in_ball(d, lam, radius):
    """All nonzero integer vectors x (one per +-pair) with Q(x) <= radius, as (Q(x), x).

    Q is the integer form whose integral Gram-Schmidt data (d, lam) the LLL
    reduction holds (see `lattice._integral_gso`).  With M the lcm of the
    d_l d_{l+1}, M*Q(x) = sum_l w_l Y_l^2 where w_l = M/(d_l d_{l+1}) and
    Y_l = d_{l+1} x_l + sum_{j>l} lam_jl x_j, all integers.  Coordinates are
    enumerated from the last index down; each level's window is read off
    an integer square root, and the topmost nonzero coordinate is kept
    positive so each antipodal pair appears once.
    """
    n = len(d) - 1
    m = math.lcm(*(d[l] * d[l + 1] for l in range(n)))
    w = [m // (d[l] * d[l + 1]) for l in range(n)]
    top = m * radius
    found = []
    x = [0] * n

    def walk(level: int, remaining: int, sign_fixed: bool):
        dl, wl = d[level + 1], w[level]
        c = sum(lam[j][level] * x[j] for j in range(level + 1, n))
        s = math.isqrt(remaining // wl)
        lo, hi = -((s + c) // dl), (s - c) // dl
        if not sign_fixed:
            lo = max(lo, 0)
        for value in range(lo, hi + 1):
            x[level] = value
            y = dl * value + c
            rest = remaining - wl * y * y
            if level:
                walk(level - 1, rest, sign_fixed or value != 0)
            elif sign_fixed or value:
                found.append(((top - rest) // m, tuple(x)))
        x[level] = 0

    walk(n - 1, top, False)
    # walk's closure holds walk itself and `found`; unbinding it breaks that
    # cycle, so the ball is freed when the caller drops it rather than at
    # the next cyclic garbage collection
    del walk
    return found


def successive_minima(g: GramMatrix, k: Optional[int] = None) -> MinimaReport:
    """Exact first k successive minima of the form g, with witnesses.

    The enumeration radius is the largest of the first k diagonal entries of
    the LLL-reduced form — those rows are k independent vectors, so the ball
    is guaranteed to contain witnesses for every minimum up to the k-th.
    """
    b = g.dim
    if k is None:
        k = b
    if not 1 <= k <= b:
        raise InvalidParameters(f"k must satisfy 1 <= k <= {b}, got {k}")

    rows, scale, transform, d, lam = _reduce(g, Fraction(3, 4))
    radius = max(rows[i][i] for i in range(k))
    columns = list(zip(*transform))

    candidates = []
    for norm, x in _vectors_in_ball(d, lam, radius):
        y = [sum(map(operator.mul, x, col)) for col in columns]
        lead = next(v for v in y if v)
        if lead < 0:
            y = [-v for v in y]
        candidates.append((norm, tuple(y)))
    candidates.sort()

    echelon = _linalg.RowEchelon()
    lambdas, witnesses = [], []
    for norm, y in candidates:
        if echelon.try_add(y):
            lambdas.append(Fraction(norm, scale))
            witnesses.append(y)
            if len(lambdas) == k:
                break
    assert len(lambdas) == k, "enumeration ball too small (cannot happen)"
    g._lambda1_sq = lambdas[0]
    return MinimaReport(dim=b, lambda_sq=tuple(lambdas), witnesses=tuple(witnesses))


def shortest_vector_sq(g: GramMatrix) -> Fraction:
    """lambda_1^2 of g, enumerated once per GramMatrix instance."""
    if g._lambda1_sq is None:
        successive_minima(g, 1)
    return g._lambda1_sq


# ---------------------------------------------------------------------------
# scale-invariant quantities and the dim <= 4 constant catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HermiteInvariant:
    """lambda_1^{2b}/det as an exact rational, i.e. the b-th power of
    lambda_1^2/det^{1/b}, plus its binary64 root for reporting."""

    dim: int
    lambda1_sq: Fraction
    det: Fraction
    value_pow: Fraction
    gamma_approx: float


def hermite_invariant_sq(g: GramMatrix) -> HermiteInvariant:
    b = g.dim
    lam = shortest_vector_sq(g)
    value = lam**b / g.det
    return HermiteInvariant(
        dim=b,
        lambda1_sq=lam,
        det=g.det,
        value_pow=value,
        gamma_approx=float(value) ** (1.0 / b),
    )


def berge_martinet_invariant_sq(g: GramMatrix) -> Fraction:
    """lambda_1^2 of the form times lambda_1^2 of its inverse (exact, scale-free)."""
    return shortest_vector_sq(g) * shortest_vector_sq(g.inverse())


HEXAGONAL_GRAM = GramMatrix([[1, Fraction(1, 2)], [Fraction(1, 2), 1]])
FCC_GRAM = GramMatrix([[2, 1, 1], [1, 2, 1], [1, 1, 2]])

@dataclass(frozen=True)
class ConstantCatalogEntry:
    """Sharp constants for one rank, exact where rational.

    gamma_sq is the squared constant when that is rational; in rank 3 it is
    irrational and gamma_sq_cube records its cube (x satisfies x^3 = 4)
    instead.  gamma_power is the rank-th power of the constant itself, the
    form every exact comparison in this package uses.  gamma_prime_sq is the
    squared primal-dual constant; only the rank-3 value 3/2 is externally
    stated, and gamma_prime_derived flags the ranks whose value was derived.
    """

    dim: int
    gamma_power: Fraction
    gamma_sq: Optional[Fraction]
    gamma_sq_cube: Optional[Fraction]
    gamma_prime_sq: Optional[Fraction]
    gamma_prime_derived: bool
    critical_gram: Optional[GramMatrix]
    dual_critical_gram: Optional[GramMatrix]
    source: str


CONSTANTS = {
    1: ConstantCatalogEntry(
        dim=1,
        gamma_power=Fraction(1),
        gamma_sq=Fraction(1),
        gamma_sq_cube=None,
        gamma_prime_sq=Fraction(1),
        gamma_prime_derived=False,
        critical_gram=GramMatrix([[1]]),
        dual_critical_gram=GramMatrix([[1]]),
        source="rank 1 is trivial: every lattice is critical and self-dual up to scale",
    ),
    2: ConstantCatalogEntry(
        dim=2,
        gamma_power=Fraction(4, 3),
        gamma_sq=Fraction(4, 3),
        gamma_sq_cube=None,
        gamma_prime_sq=Fraction(4, 3),
        gamma_prime_derived=True,
        critical_gram=HEXAGONAL_GRAM,
        dual_critical_gram=HEXAGONAL_GRAM,
        source="hexagonal lattice; primal-dual value derived by fundamental-domain search",
    ),
    3: ConstantCatalogEntry(
        dim=3,
        gamma_power=Fraction(2),
        gamma_sq=None,
        gamma_sq_cube=Fraction(4),
        gamma_prime_sq=Fraction(3, 2),
        gamma_prime_derived=False,
        critical_gram=FCC_GRAM,
        dual_critical_gram=FCC_GRAM,
        source="face-centered cubic lattice attains both constants in rank 3",
    ),
    4: ConstantCatalogEntry(
        dim=4,
        gamma_power=Fraction(4),
        gamma_sq=Fraction(2),
        gamma_sq_cube=None,
        gamma_prime_sq=Fraction(2),
        gamma_prime_derived=True,
        critical_gram=None,
        dual_critical_gram=None,
        source="rank-4 squared constant is 2; primal-dual value derived (checkerboard lattice)",
    ),
}


def gamma_power(b: int) -> Fraction:
    """The rank-b sharp constant raised to the b-th power, as an exact rational."""
    try:
        return CONSTANTS[b].gamma_power
    except KeyError:
        raise UnknownConstant(f"no sharp constant catalogued in rank {b}") from None


def gamma_prime_sq(b: int):
    """(squared primal-dual constant, derived flag) for rank b <= 4."""
    try:
        entry = CONSTANTS[b]
    except KeyError:
        raise UnknownConstant(
            f"no primal-dual constant catalogued in rank {b}"
        ) from None
    return entry.gamma_prime_sq, entry.gamma_prime_derived


@dataclass(frozen=True)
class Criticality:
    dim: int
    critical: bool
    dual_critical: bool
    gap_to_constant: Fraction
    dual_gap: Fraction
    constants_derived: bool


def is_critical(g: GramMatrix) -> Criticality:
    """Does the form attain the sharp rank constant (and the primal-dual one)?

    Every comparison is between exact rationals.
    """
    b = g.dim
    if b > 4:
        raise UnknownConstant(f"criticality is only decidable for rank <= 4, got {b}")
    herm = hermite_invariant_sq(g)
    target = gamma_power(b)
    prime_sq, derived = gamma_prime_sq(b)
    bm = berge_martinet_invariant_sq(g)
    return Criticality(
        dim=b,
        critical=herm.value_pow == target,
        dual_critical=bm == prime_sq,
        gap_to_constant=target - herm.value_pow,
        dual_gap=prime_sq - bm,
        constants_derived=derived,
    )
