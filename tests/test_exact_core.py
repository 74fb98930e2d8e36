"""Integral LLL, integer enumeration and the Bareiss determinant and
inverse against their Fraction references, and the compute-once contract of
GramMatrix.

The references in oracles.py (`frac_lll`, `frac_gso`, `frac_ball`,
`frac_det`, `frac_inverse`) redo the same algorithms in Fraction arithmetic,
rebuilding the Gram-Schmidt data after every step, so equality here means
the integer core makes exactly the same decisions: the same transform, the
same reduced form, the same ball, the same reduced Fractions.
"""

import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from systolic import (
    FCC_GRAM,
    HEXAGONAL_GRAM,
    FlatTorus,
    GramMatrix,
    LatticeBasis,
    SingularBasis,
    berge_martinet_invariant_sq,
    conformal_systole,
    hermite_invariant_sq,
    is_critical,
    lll_reduce_gram,
    shortest_vector_sq,
    successive_minima,
    torus_codim1_systole_sq,
    torus_systole_sq,
)
from systolic import _linalg, minima
from systolic.cli import main
from systolic.lattice import _integerize, _integral_gso, _reduce, dual_basis

import oracles

D4_ROWS = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]

# LLL parameters: the default, a strong one, a weak one, and a binary float
DELTAS = (Fraction(3, 4), Fraction(99, 100), Fraction(1, 3), 0.3)


KNOWN_FORMS = (HEXAGONAL_GRAM, FCC_GRAM.inverse(), GramMatrix(D4_ROWS))


@st.composite
def forms(draw, n):
    """Rank-n forms: a catalog form, or B B^T of an integer basis, possibly
    scaled by a rational or dualized."""
    known = [g for g in KNOWN_FORMS if g.dim == n]
    if known and draw(st.booleans()):
        return draw(st.sampled_from(known))
    entries = st.integers(-6, 6)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    # det(B + tI) is monic in t, so at most n shifts reach a nonsingular basis
    while oracles.frac_det(rows) == 0:
        rows = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(rows)]
    g = LatticeBasis(rows).gram()
    kind = draw(st.sampled_from(("integral", "scaled", "dual")))
    if kind == "scaled":
        g = g.scale(Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 12))))
    elif kind == "dual":
        g = g.inverse()
    return g


# ---------------------------------------------------------------------------
# integral LLL and enumeration vs. the Fraction references
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", range(1, 9))
@settings(max_examples=12)
@given(data=st.data())
def test_integral_lll_matches_fraction_oracle(dim, data):
    g = data.draw(forms(dim))
    delta = data.draw(st.sampled_from(DELTAS))
    reduced, u = lll_reduce_gram(g, delta)
    want_gram, want_u = oracles.frac_lll(g.entries, delta)
    assert u == tuple(tuple(row) for row in want_u)
    assert reduced.entries == tuple(tuple(row) for row in want_gram)

    # the Gram-Schmidt data updated in place equals a rebuild from scratch
    rows, _, _, d, lam = _reduce(g, Fraction(delta))
    assert (d, lam) == _integral_gso(rows)
    mu, norms = oracles.frac_gso(rows)
    for i in range(g.dim):
        assert norms[i] == Fraction(d[i + 1], d[i])
        for j in range(i):
            assert mu[i][j] == Fraction(lam[i][j], d[j + 1])


@pytest.mark.parametrize("dim", range(1, 7))
@settings(max_examples=8)
@given(data=st.data())
def test_integer_ball_equals_fraction_ball(dim, data):
    g = data.draw(forms(dim))
    twentieths = data.draw(st.integers(0, 40))
    rows, _, _, d, lam = _reduce(g, Fraction(3, 4))
    # radius from 0 up to twice the largest reduced diagonal entry
    radius = max(rows[i][i] for i in range(g.dim)) * twentieths // 20
    found = minima._vectors_in_ball(d, lam, radius)
    vectors = [x for _, x in found]
    assert len(set(vectors)) == len(vectors)
    assert set(vectors) == oracles.frac_ball(rows, radius)
    for norm, x in found:
        assert norm == oracles.quad_form_exact(x, rows)


def _reduce_corpus(count=1000, seed=2639):
    """Seeded `lattice reduce` inputs.  Ranks 2-8 in turn, each given as an
    integer basis, its Gram matrix, that matrix over a small integer, or the
    dual Gram matrix, entries of the basis in [-9, 9]."""
    rng = random.Random(seed)
    for i in range(count):
        n = 2 + i % 7
        while True:
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if oracles.frac_det(rows):
                break
        kind = i // 7 % 4
        if kind == 0:
            yield {"dim": n, "basis": rows}
            continue
        g = [[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows]
        if kind == 2:
            c = rng.randint(2, 12)
            g = [[Fraction(x, c) for x in row] for row in g]
        elif kind == 3:
            g = oracles.frac_inverse(g)
        yield {"dim": n, "gram": [[str(Fraction(x)) for x in row] for row in g]}


def _oracle_reduce_stdout(obj) -> str:
    """What `lattice reduce` printed when LLL ran in Fraction arithmetic."""
    if "basis" in obj:
        rows = obj["basis"]
        gram_rows = [[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows]
    else:
        gram_rows = [[Fraction(x) for x in row] for row in obj["gram"]]
    reduced, u = oracles.frac_lll(gram_rows, Fraction(3, 4))
    if "basis" in obj:
        new_rows = [[sum(c * r[j] for c, r in zip(urow, rows)) for j in range(obj["dim"])]
                    for urow in u]
        out = {"dim": obj["dim"], "basis": [[str(Fraction(x)) for x in row] for row in new_rows]}
    else:
        out = {"dim": obj["dim"], "gram": [[str(x) for x in row] for row in reduced]}
    out["transform"] = u
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


# SHA-256 of the concatenated `lattice reduce` stdout over _reduce_corpus(),
# recorded from the Fraction-arithmetic LLL that the integral one replaced.
REDUCE_CORPUS_SHA256 = "2126be59508be27d5db496e52505017bb9271382983bc30efe7eed93b4e6a258"


def test_lattice_reduce_is_byte_identical_on_seeded_corpus(tmp_path, capsys):
    corpus = list(_reduce_corpus())
    path = tmp_path / "lattice.json"
    digest = hashlib.sha256()
    outputs = []
    for obj in corpus:
        path.write_text(json.dumps(obj))
        assert main(["lattice", "reduce", "--in", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
        digest.update(outputs[-1].encode())
    if digest.hexdigest() != REDUCE_CORPUS_SHA256:
        # name the first input on which the Fraction reference disagrees
        for i, (obj, out) in enumerate(zip(corpus, outputs)):
            assert out == _oracle_reduce_stdout(obj), f"corpus input {i}: {obj}"
        pytest.fail("outputs match the Fraction reference but not the recorded digest")


@pytest.mark.parametrize("dim", range(1, 9))
@settings(max_examples=12)
@given(data=st.data())
def test_lll_leaves_the_kept_integer_form_untouched(dim, data):
    g = data.draw(forms(dim))
    delta = data.draw(st.sampled_from(DELTAS))
    first = lll_reduce_gram(g, delta)
    shortest_vector_sq(g)
    assert lll_reduce_gram(g, delta) == first
    rows, scale = _integerize(g.entries)
    assert g._rows == tuple(map(tuple, rows)) and g._scale == scale


# ---------------------------------------------------------------------------
# Bareiss determinant and inverse vs. Fraction elimination
# ---------------------------------------------------------------------------


@st.composite
def square_matrices(draw, n):
    """(rows, scale): a rank-n integer matrix over a common denominator that
    is integral, rational-scaled, starts with zero pivots, or is singular."""
    entries = st.integers(-9, 9)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    kind = draw(st.sampled_from(("integral", "scaled", "zero-pivot", "singular")))
    scale = draw(st.integers(2, 12)) if kind == "scaled" else 1
    if kind == "zero-pivot":
        # zeros at the top of the first column force row swaps (all of it: singular)
        for row in rows[: draw(st.integers(1, n))]:
            row[0] = 0
    elif kind == "singular":
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
    return rows, scale


@pytest.mark.parametrize("dim", range(1, 9))
@settings(max_examples=25)
@given(data=st.data())
def test_bareiss_matches_fraction_elimination(dim, data):
    rows, scale = data.draw(square_matrices(dim))
    fracs = [[Fraction(x, scale) for x in row] for row in rows]
    want_det = oracles.frac_det(fracs)
    assert _linalg.det(rows, scale) == want_det
    d, e = _linalg.bareiss(rows)
    if not want_det:
        assert (d, e) == (0, None)
        with pytest.raises(ZeroDivisionError, match="^singular matrix$"):
            _linalg.inverse(rows, scale)
        with pytest.raises(SingularBasis, match="^basis rows are linearly dependent$"):
            LatticeBasis(fracs)
        return
    # e is the adjugate, in integers: e M = det(M) I
    assert d == want_det * scale**dim
    assert [[sum(e[i][k] * rows[k][j] for k in range(dim)) for j in range(dim)]
            for i in range(dim)] == [[d * (i == j) for j in range(dim)] for i in range(dim)]
    want_inv = oracles.frac_inverse(fracs)
    got_inv = _linalg.inverse(rows, scale)
    assert all(type(x) is Fraction for row in got_inv for x in row)
    assert [[(x.numerator, x.denominator) for x in row] for row in got_inv] == [
        [(x.numerator, x.denominator) for x in row] for row in want_inv]
    dual = dual_basis(LatticeBasis(fracs))
    assert dual.rows == tuple(zip(*want_inv))


@pytest.mark.parametrize("dim", range(1, 9))
@settings(max_examples=12)
@given(data=st.data())
def test_gram_inverse_and_det_match_fraction_elimination(dim, data):
    g = data.draw(forms(dim))
    assert g.det == oracles.frac_det(g.entries)
    assert g.inverse().entries == tuple(map(tuple, oracles.frac_inverse(g.entries)))


def _dual_bm_corpus(count=280, seed=2664):
    """Seeded `lattice dual` / `lattice bm` inputs.  Ranks 1-8 in turn, each
    given as an integer basis (half of them with a zero leading entry), a
    basis of p/q entries, its integral Gram matrix, that matrix over a small
    integer, or the dual Gram matrix; basis entries in [-9, 9]."""
    rng = random.Random(seed)
    for i in range(count):
        n = 1 + i % 8
        kind = i // 8 % 5
        while True:
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if kind == 0 and n > 1 and i // 40 % 2:
                rows[0][0] = 0
            if kind == 1:
                rows = [[Fraction(x, rng.randint(1, 6)) for x in row] for row in rows]
            if oracles.frac_det(rows):
                break
        if kind < 2:
            yield {"dim": n, "basis": [[str(Fraction(x)) for x in row] for row in rows]}
            continue
        g = [[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows]
        if kind == 3:
            c = rng.randint(2, 12)
            g = [[Fraction(x, c) for x in row] for row in g]
        elif kind == 4:
            g = oracles.frac_inverse(g)
        yield {"dim": n, "gram": [[str(Fraction(x)) for x in row] for row in g]}


def _oracle_dual_bm_stdout(obj, action) -> str:
    """What `lattice dual` / `lattice bm` printed when the inverse ran in
    Fraction arithmetic."""
    n = obj["dim"]
    key = "basis" if "basis" in obj else "gram"
    rows = [[Fraction(x) for x in row] for row in obj[key]]
    if key == "basis":
        gram_rows = [[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows]
    else:
        gram_rows = rows
    if action == "dual":
        inv = oracles.frac_inverse(rows)
        out = {"dim": n, key: [[str(x) for x in row] for row in (zip(*inv) if key == "basis" else inv)]}
    else:
        bm = (shortest_vector_sq(GramMatrix(gram_rows))
              * shortest_vector_sq(GramMatrix(oracles.frac_inverse(gram_rows))))
        out = {"dim": n, "bm_sq": str(bm), "dual_critical": None, "constants_derived": None}
        if n <= 4:
            prime_sq, derived = minima.gamma_prime_sq(n)
            out["dual_critical"], out["constants_derived"] = bm == prime_sq, derived
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


# SHA-256 of the concatenated `lattice dual` and `lattice bm` stdout over
# _dual_bm_corpus(), recorded from the Fraction Gauss-Jordan inverse that the
# Bareiss one replaced.
DUAL_BM_CORPUS_SHA256 = "f4d75285a97343547eded08316c99c0ff700c7ca86260411648ff2c7e5811344"


def test_lattice_dual_and_bm_are_byte_identical_on_seeded_corpus(tmp_path, capsys):
    corpus = [(obj, action) for obj in _dual_bm_corpus() for action in ("dual", "bm")]
    path = tmp_path / "lattice.json"
    digest = hashlib.sha256()
    outputs = []
    for obj, action in corpus:
        path.write_text(json.dumps(obj))
        assert main(["lattice", action, "--in", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
        digest.update(outputs[-1].encode())
    if digest.hexdigest() != DUAL_BM_CORPUS_SHA256:
        # name the first input on which the Fraction reference disagrees
        for i, ((obj, action), out) in enumerate(zip(corpus, outputs)):
            assert out == _oracle_dual_bm_stdout(obj, action), f"corpus input {i // 2} ({action}): {obj}"
        pytest.fail("outputs match the Fraction reference but not the recorded digest")


# ---------------------------------------------------------------------------
# lambda_1 and the dual form are computed once per GramMatrix
# ---------------------------------------------------------------------------


@pytest.fixture
def walks(monkeypatch):
    """Arguments of every enumeration walk run while the test is active."""
    calls = []
    walk = minima._vectors_in_ball

    def counted(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(minima, "_vectors_in_ball", counted)
    return calls


def test_hermite_after_successive_minima_runs_no_walk(walks):
    g = GramMatrix(D4_ROWS)
    successive_minima(g)
    assert len(walks) == 1
    hermite_invariant_sq(g)
    shortest_vector_sq(g)
    assert len(walks) == 1


def test_is_critical_on_d4_runs_two_walks(walks):
    crit = is_critical(GramMatrix(D4_ROWS))
    assert crit.critical and crit.dual_critical
    assert len(walks) == 2


def test_torus_systoles_run_two_walks(walks):
    t = FlatTorus(GramMatrix(D4_ROWS))
    torus_systole_sq(t)
    torus_codim1_systole_sq(t)
    conformal_systole(t)
    assert len(walks) == 2


@pytest.mark.parametrize("action, count", [("minima", 1), ("hermite", 2), ("bm", 2)])
def test_cli_lattice_verbs_enumerate_each_form_once(walks, tmp_path, capsys, action, count):
    path = tmp_path / "d4.json"
    path.write_text(json.dumps({"dim": 4, "gram": D4_ROWS}))
    assert main(["lattice", action, "--in", str(path)]) == 0
    capsys.readouterr()
    assert len(walks) == count


def test_cached_values_equal_a_fresh_computation():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 4):
        for _ in range(4):
            rows = oracles.random_gram_rows(rng, dim, -4, 4)
            g = GramMatrix(rows)
            herm = hermite_invariant_sq(g)
            bm = berge_martinet_invariant_sq(g)
            crit = is_critical(g)
            # a fresh, equal instance carries nothing over
            h = GramMatrix(rows)
            assert h == g and hash(h) == hash(g) and repr(h) == repr(g)
            assert hermite_invariant_sq(h) == herm
            assert berge_martinet_invariant_sq(GramMatrix(rows)) == bm
            assert is_critical(GramMatrix(rows)) == crit
            assert shortest_vector_sq(g) == successive_minima(GramMatrix(rows), 1).lambda_sq[0]
            assert g.inverse() == GramMatrix(oracles.frac_inverse(rows))
            assert g.inverse().inverse() == g

