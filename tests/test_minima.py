"""Successive minima, Hermite / primal-dual invariants, sharp constants."""

from fractions import Fraction

import numpy as np
import pytest

from systolic import (
    CONSTANTS,
    FCC_GRAM,
    HEXAGONAL_GRAM,
    GramMatrix,
    InvalidParameters,
    LatticeBasis,
    UnknownConstant,
    berge_martinet_invariant_sq,
    dual_gram,
    gamma_power,
    gamma_prime_sq,
    hermite_invariant_sq,
    is_critical,
    shortest_vector_sq,
    successive_minima,
)
import oracles


D4_GRAM = GramMatrix([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]])


def test_integer_lattice_minima_are_all_ones():
    for b in range(1, 6):
        g = GramMatrix([[int(i == j) for j in range(b)] for i in range(b)])
        rep = successive_minima(g)
        assert rep.lambda_sq == tuple([Fraction(1)] * b)
        # witnesses are signed unit vectors
        for w in rep.witnesses:
            assert sorted(abs(c) for c in w) == [0] * (b - 1) + [1]


def test_hexagonal_minima_and_witness_validity():
    rep = successive_minima(HEXAGONAL_GRAM)
    assert rep.lambda_sq == (Fraction(1), Fraction(1))
    for lam, w in zip(rep.lambda_sq, rep.witnesses):
        assert oracles.quad_form_exact(w, HEXAGONAL_GRAM.entries) == lam


def test_fcc_minima():
    rep = successive_minima(FCC_GRAM)
    assert rep.lambda_sq == (Fraction(2), Fraction(2), Fraction(2))


def test_witnesses_are_independent_and_deterministic():
    rep1 = successive_minima(FCC_GRAM)
    rep2 = successive_minima(FCC_GRAM)
    assert rep1.witnesses == rep2.witnesses
    assert oracles._rank(list(rep1.witnesses)) == 3


def test_k_prefix_consistency_and_validation():
    g = FCC_GRAM
    full = successive_minima(g)
    for k in (1, 2, 3):
        part = successive_minima(g, k)
        assert part.lambda_sq == full.lambda_sq[:k]
    with pytest.raises(InvalidParameters):
        successive_minima(g, 0)
    with pytest.raises(InvalidParameters):
        successive_minima(g, 4)


def test_minima_scale_with_the_form():
    rng = np.random.default_rng(3)
    for _ in range(5):
        rows = oracles.random_gram_rows(rng, 3, -4, 4)
        g = GramMatrix(rows)
        c = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        scaled = successive_minima(g.scale(c))
        base = successive_minima(g)
        assert scaled.lambda_sq == tuple(c * v for v in base.lambda_sq)


def test_minima_agree_with_box_oracle_on_seeded_sweep():
    rng = np.random.default_rng(42)
    for dim, lo_hi in ((2, 9), (3, 4), (4, 2)):
        for _ in range(10):
            rows, bound = oracles.random_gram_in_budget(rng, dim, -lo_hi, lo_hi)
            got = successive_minima(GramMatrix(rows))
            want, _ = oracles.box_minima(rows, dim, bound)
            assert list(got.lambda_sq) == want


# ---------------------------------------------------------------------------
# Hermite and primal-dual invariants
# ---------------------------------------------------------------------------


def test_hexagonal_hermite_invariant():
    inv = hermite_invariant_sq(HEXAGONAL_GRAM)
    assert inv.value_pow == Fraction(4, 3)
    assert inv.lambda1_sq == 1 and inv.det == Fraction(3, 4)
    assert abs(inv.gamma_approx - 1.1547005383792515) <= 1e-12


def test_fcc_hermite_invariant_cube():
    inv = hermite_invariant_sq(FCC_GRAM)
    assert inv.value_pow == 2  # lambda^6 / det = 8/4
    assert abs(inv.gamma_approx - 2 ** (1 / 3)) <= 1e-12


def test_d4_attains_rank4_constant():
    inv = hermite_invariant_sq(D4_GRAM)
    assert inv.det == 4 and inv.lambda1_sq == 2
    assert inv.value_pow == gamma_power(4) == 4


def test_hermite_invariant_is_scale_invariant():
    rng = np.random.default_rng(9)
    for _ in range(5):
        g = GramMatrix(oracles.random_gram_rows(rng, 3, -4, 4))
        c = Fraction(int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        assert hermite_invariant_sq(g.scale(c)).value_pow == hermite_invariant_sq(g).value_pow


def test_berge_martinet_values():
    assert berge_martinet_invariant_sq(HEXAGONAL_GRAM) == Fraction(4, 3)
    assert berge_martinet_invariant_sq(FCC_GRAM) == Fraction(3, 2)
    assert berge_martinet_invariant_sq(D4_GRAM) == 2


def test_berge_martinet_is_symmetric_under_duality():
    rng = np.random.default_rng(14)
    for dim in (2, 3):
        for _ in range(6):
            g = GramMatrix(oracles.random_gram_rows(rng, dim, -4, 4))
            assert berge_martinet_invariant_sq(g) == berge_martinet_invariant_sq(dual_gram(g))


def test_no_random_rank2_lattice_beats_the_primal_dual_constant():
    # supporting evidence for the derived value 4/3 in rank 2
    rng = np.random.default_rng(123)
    top = Fraction(0)
    for _ in range(150):
        g = GramMatrix(oracles.random_gram_rows(rng, 2, -9, 9))
        bm = berge_martinet_invariant_sq(g)
        assert bm <= Fraction(4, 3)
        top = max(top, bm)
    assert top <= Fraction(4, 3)


def test_rank2_fundamental_domain_grid_supports_derived_constant():
    # scan Gram matrices [[1, x], [x, y]] over a rational grid covering the
    # reduced region; the primal-dual product must peak exactly at the
    # hexagonal point x = 1/2, y = 1
    best = Fraction(0)
    argbest = None
    for xn in range(0, 17):
        x = Fraction(xn, 32)
        for yn in range(32, 65):
            y = Fraction(yn, 32)
            if y < 1 or x > Fraction(1, 2):
                continue
            g = GramMatrix([[1, x], [x, y]])
            bm = berge_martinet_invariant_sq(g)
            assert bm <= Fraction(4, 3)
            if bm > best:
                best, argbest = bm, (x, y)
    assert best == Fraction(4, 3)
    assert argbest == (Fraction(1, 2), Fraction(1))


def test_shortest_vector_helper_matches_minima():
    assert shortest_vector_sq(FCC_GRAM) == 2
    assert shortest_vector_sq(HEXAGONAL_GRAM) == 1


# ---------------------------------------------------------------------------
# constants catalog and criticality
# ---------------------------------------------------------------------------


def test_gamma_power_table():
    assert gamma_power(1) == 1
    assert gamma_power(2) == Fraction(4, 3)
    assert gamma_power(3) == 2
    assert gamma_power(4) == 4
    with pytest.raises(UnknownConstant):
        gamma_power(5)


def test_gamma_prime_table_and_derived_flags():
    assert gamma_prime_sq(2) == (Fraction(4, 3), True)
    assert gamma_prime_sq(3) == (Fraction(3, 2), False)
    assert gamma_prime_sq(4) == (Fraction(2), True)
    with pytest.raises(UnknownConstant):
        gamma_prime_sq(5)


def test_catalog_is_consistent_with_lookup_functions():
    for b, entry in CONSTANTS.items():
        assert entry.dim == b
        assert entry.gamma_power == gamma_power(b)
        if entry.gamma_prime_sq is not None:
            assert entry.gamma_prime_sq == gamma_prime_sq(b)[0]
    # rank 3: squared constant is irrational, recorded through its cube
    assert CONSTANTS[3].gamma_sq is None
    assert CONSTANTS[3].gamma_sq_cube == 4
    assert CONSTANTS[2].critical_gram == HEXAGONAL_GRAM
    assert CONSTANTS[3].critical_gram == FCC_GRAM


def test_catalog_critical_grams_actually_attain_their_constants():
    for b, entry in CONSTANTS.items():
        if entry.critical_gram is not None:
            assert hermite_invariant_sq(entry.critical_gram).value_pow == entry.gamma_power
        if entry.dual_critical_gram is not None and entry.gamma_prime_sq is not None:
            assert berge_martinet_invariant_sq(entry.dual_critical_gram) == entry.gamma_prime_sq


def test_is_critical_hexagonal():
    c = is_critical(HEXAGONAL_GRAM)
    assert c.critical and c.dual_critical
    assert c.gap_to_constant == 0 and c.dual_gap == 0
    assert c.constants_derived  # rank-2 primal-dual constant is derived


def test_is_critical_fcc_and_d4():
    c = is_critical(FCC_GRAM)
    assert c.critical and c.dual_critical and not c.constants_derived
    c4 = is_critical(D4_GRAM)
    assert c4.critical and c4.dual_critical and c4.constants_derived


def test_is_critical_square_lattice_has_gaps():
    c = is_critical(GramMatrix([[1, 0], [0, 1]]))
    assert not c.critical and not c.dual_critical
    assert c.gap_to_constant == Fraction(1, 3)  # 4/3 - 1
    assert c.dual_gap == Fraction(1, 3)


def test_is_critical_unknown_rank():
    g5 = GramMatrix([[int(i == j) for j in range(5)] for i in range(5)])
    with pytest.raises(UnknownConstant):
        is_critical(g5)
