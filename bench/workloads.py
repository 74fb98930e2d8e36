"""The four workloads: seeded inputs, the timed library calls, answer checks.

An op is a ``(kind, payload)`` pair.  ``RUN[kind](payload, tracer)`` makes
the timed calls into the library's public API and nothing else;
``CHECK[kind](payload, result)`` runs outside the timed region, raises
:class:`Mismatch` on a wrong answer and returns the op's deterministic
counts.  A round is a fixed mix of op strata whose inputs come from
``random.Random(f"{workload}:{seed}:{round}")``: the same seed gives the same
inputs, and runs with different seeds do the same kind and amount of work.

Reference answers come from ``reference.json``, recorded from the library
at the commit that introduced this benchmark (see ``make_reference.py``).
Seeded inputs are drawn from its pools and scrambled by transforms that
leave the checked answers and the amount of work unchanged: sign flips and
a signed column permutation of a basis, and relabelling of metric-space
points.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from systolic import bundles, cli, filling, lattice, minima, torus  # noqa: E402
from systolic import io as sio  # noqa: E402

DEADLINE_S = 3.0  # per in-process op, enforced with SIGALRM
CLI_DEADLINE_S = 10.0  # per systolic process
CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))

# minima-skewed forms diag(1, ..., 1, s) as (rank, s), one op each per round:
# five cheap rungs (about 8 to 36 ms at the reference commit), three copies of
# the median rung (about 60 ms), one rung at about 105 ms, three copies of the
# tail rung (about 200 ms) and one at about 400 ms.  Enumeration cost grows
# like s^((rank-1)/2).  The median and the 10.5/13 quantile fall in the middle
# of the repeated rungs, so each run estimates them from many like ops.
SKEW_LADDER = ((3, 100), (4, 18), (3, 250), (6, 4), (4, 45),
               (4, 62), (4, 62), (4, 62),
               (6, 9),
               (5, 27), (5, 27), (5, 27),
               (3, 6300))
SKEW_TAIL_PCT = 100 * 10.5 / 13
# filling-search clouds too large for exhaustive search: (dimension, n, k).
# The four like cube clouds are the costliest ops, so the tail percentile sits
# in the middle of their block: 2 of 31 ops per round lie above it.
LARGE_CLOUDS = ((2, 150, 8), (2, 200, 6), (2, 250, 4)) + ((3, 450, 6),) * 4
FILLING_TAIL_PCT = 100 * 29 / 31
# Forms on which the reference enumeration does not finish in 60 s.
HANG_FORMS = ((1, 1, 10**6), (1, 1, 1, 10**5))


class Mismatch(Exception):
    """An op's answer differs from the reference or fails its certificate."""


def _load_oracles():
    spec = importlib.util.spec_from_file_location("systolic_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ORACLES = _load_oracles()


# ---------------------------------------------------------------------------
# exact helpers, independent of the library
# ---------------------------------------------------------------------------

def _mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _quad(v, g) -> Fraction:
    return sum((g[i][j] * v[i] * v[j] for i in range(len(v)) for j in range(len(v))), Fraction(0))


def _rank(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _det_int(rows) -> int:
    """Bareiss fraction-free determinant of a square integer matrix."""
    a = [list(row) for row in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _bits(rows) -> int:
    return max(abs(x).bit_length() for row in rows for x in row)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# input transforms and metric spaces
# ---------------------------------------------------------------------------

def scramble(rng, rows):
    """Flip the signs of some basis rows and apply a signed column permutation.

    The Gram matrix changes by a diagonal +-1 conjugation and the ambient
    coordinates by an isometry, so every checked invariant is unchanged and
    LLL takes the same steps up to sign: the op costs what the pool basis
    costs, and a run's work does not depend on the seed.
    """
    cols = list(range(len(rows[0])))
    rng.shuffle(cols)
    rs = [rng.choice((1, -1)) for _ in rows]
    cs = [rng.choice((1, -1)) for _ in cols]
    return [[rs[a] * cs[b] * row[j] for b, j in enumerate(cols)] for a, row in enumerate(rows)]


def random_unimodular(rng, n):
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2))
        u[i] = [a + q * b for a, b in zip(u[i], u[j])]
    return u


def circle_dist(n: int):
    """n evenly spaced points on a circle of length 1, arc-length metric."""
    pos = np.arange(n) / n
    diff = np.abs(pos[:, None] - pos[None, :])
    return np.minimum(diff, 1.0 - diff)


def cloud_dist(points):
    """Euclidean metric of integer points scaled into the unit square or cube."""
    p = np.asarray(points, dtype=float) / 1000.0
    return np.sqrt(((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=-1))


def random_points(rng, n, dims):
    return [[rng.randrange(1000) for _ in range(dims)] for _ in range(n)]


def filling_space(entry):
    if "points" in entry:
        return cloud_dist(entry["points"])
    return circle_dist(entry["n"])


# ---------------------------------------------------------------------------
# lattice ops (lattice-sweep) and skewed-minima ops (minima-skewed)
# ---------------------------------------------------------------------------

def _verifiers(dim):
    checks = [torus.verify_gromov_torus, torus.verify_conformal_52]
    return [torus.verify_loewner] + checks if dim == 2 else checks


def run_lattice(p, tr):
    with tr.span("io.lattice_parse"):
        data = sio.lattice_from_obj(json.loads(p["text"]))
    g = data.gram
    out = {"gram": g, "basis": data.basis}
    with tr.span("lattice.lll"):
        out["lll"] = lattice.lll_reduce_gram(g)
    with tr.span("lattice.dual"):
        out["dual"] = lattice.dual_basis(data.basis)
    with tr.span("minima.successive_minima"):
        out["minima"] = minima.successive_minima(g)
    with tr.span("minima.hermite"):
        out["hermite"] = minima.hermite_invariant_sq(g)
    with tr.span("minima.bm"):
        out["bm"] = minima.berge_martinet_invariant_sq(g)
    if g.dim <= 4:
        with tr.span("minima.is_critical"):
            out["critical"] = minima.is_critical(g)
        flat = torus.FlatTorus(g)
        with tr.span("torus.verify"):
            out["verify"] = [verify(flat) for verify in _verifiers(g.dim)]
        with tr.span("torus.systoles"):
            out["systoles"] = (
                torus.torus_systole_sq(flat),
                torus.torus_codim1_systole_sq(flat),
                torus.conformal_systole(flat),
            )
    return out


def lattice_summary(out) -> dict:
    """The exact answers of a lattice op that a scrambled input must reproduce."""
    herm = out["hermite"]
    s = {
        "lambda_sq": [str(x) for x in out["minima"].lambda_sq],
        "det": str(herm.det),
        "hermite_lambda1_sq": str(herm.lambda1_sq),
        "hermite_pow": str(herm.value_pow),
        "gamma_approx": herm.gamma_approx,
        "bm_sq": str(out["bm"]),
    }
    if "critical" in out:
        c = out["critical"]
        s["critical"] = [c.critical, c.dual_critical, str(c.gap_to_constant),
                         str(c.dual_gap), c.constants_derived]
        s["verify"] = [report.to_json() for report in out["verify"]]
        sys_sq, codim1_sq, conf = out["systoles"]
        s["systoles"] = [str(sys_sq), str(codim1_sq), str(conf.lambda1_sq), str(conf.det), conf.value]
    return s


def _check_minima_and_lll(gram, rep, lll_out, lambda_sq) -> dict:
    g = gram.entries
    n = gram.dim
    _expect([str(x) for x in rep.lambda_sq] == lambda_sq,
            f"lambda_sq {[str(x) for x in rep.lambda_sq]} != reference {lambda_sq}")
    for lam, w in zip(rep.lambda_sq, rep.witnesses):
        _expect(all(isinstance(c, int) for c in w), f"witness {w} is not integral")
        _expect(_quad(w, g) == lam, f"witness {w} does not evaluate to {lam}")
    _expect(_rank(rep.witnesses) == n, "witnesses are not independent")
    reduced, u = lll_out
    _expect(all(isinstance(x, int) for row in u for x in row), "LLL transform is not integral")
    _expect(abs(_det_int(u)) == 1, "LLL transform is not unimodular")
    _expect(_mul(_mul(u, g), list(zip(*u))) == [list(r) for r in reduced.entries],
            "U g U^T differs from the reduced form")
    return {"lattice.lll_transform_bits": _bits(u)}


def check_lattice(p, out) -> dict:
    ref = p["ref"]
    for key, value in lattice_summary(out).items():
        _expect(value == ref[key], f"{key}: got {value!r}, reference {ref[key]!r}")
    counts = _check_minima_and_lll(out["gram"], out["minima"], out["lll"], ref["lambda_sq"])
    basis, dual = out["basis"].rows, out["dual"].rows
    n = len(basis)
    _expect(_mul(basis, list(zip(*dual))) == [[int(i == j) for j in range(n)] for i in range(n)],
            "dual basis is not the inverse transpose")
    if n <= 4:
        try:
            values, _ = ORACLES.box_minima([list(r) for r in out["lll"][0].entries], n)
        except ORACLES.BoxTooLarge:
            pass
        else:
            _expect([str(x) for x in values] == ref["lambda_sq"], "box oracle disagrees")
    return counts


def run_skewed(p, tr):
    with tr.span("io.lattice_parse"):
        g = sio.lattice_from_obj(json.loads(p["text"])).gram
    with tr.span("lattice.lll"):
        lll_out = lattice.lll_reduce_gram(g)
    with tr.span("minima.successive_minima"):
        rep = minima.successive_minima(g)
    return g, lll_out, rep


def check_skewed(p, out) -> dict:
    g, lll_out, rep = out
    # successive minima of an orthogonal form are its sorted diagonal
    return _check_minima_and_lll(g, rep, lll_out, [str(x) for x in sorted(p["diag"])])


def skewed_op(rng, diag):
    n = len(diag)
    u = random_unimodular(rng, n)
    gram = [[sum(u[i][k] * diag[k] * u[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    return ("skewed", {"rank": n, "diag": list(diag), "text": json.dumps({"dim": n, "gram": gram})})


# ---------------------------------------------------------------------------
# Smith normal form and bundle ops (minority of lattice-sweep)
# ---------------------------------------------------------------------------

def run_snf(p, tr):
    with tr.span("bundles.snf"):
        snf = bundles.smith_normal_form(p["matrix"])
    with tr.span("bundles.invariants"):
        inv = bundles.bundle_invariants(bundles.CircleBundle(p["euler"]))
    return snf, inv


def check_snf(p, out) -> dict:
    snf, inv = out
    m, d, u, v = p["matrix"], snf.d, snf.u, snf.v
    _expect(_mul(_mul(u, m), v) == [list(r) for r in d], "U M V != D")
    _expect(all(d[i][j] == 0 for i in range(len(d)) for j in range(len(d[0])) if i != j),
            "D is not diagonal")
    diag = list(snf.diagonal)
    nonzero = [x for x in diag if x]
    _expect(min(diag) >= 0 and diag[: len(nonzero)] == nonzero, "diagonal sign or zero order")
    _expect(all(b % a == 0 for a, b in zip(nonzero, nonzero[1:])), f"no divisibility chain: {diag}")
    _expect(abs(_det_int(u)) == 1 and abs(_det_int(v)) == 1, "transforms are not unimodular")
    e = p["euler"]
    # closed forms: H_1 = Z^2 + Z/|e|, cover rank 1, linking 1/e, lambda = -sign(e)
    expected = (2, (abs(e),) if abs(e) > 1 else (), 1, Fraction(1, abs(e)), Fraction(1, e),
                Fraction(-1 if e > 0 else 1), True)
    got = (inv.h1.free_rank, tuple(inv.h1.torsion), inv.cover_h1_rank_over_z,
           inv.linking.magnitude, inv.linking.signed, inv.casson, inv.corollary93_applicable)
    _expect(got == expected, f"bundle invariants for e={e}: {got} != {expected}")
    return {"bundles.snf_transform_bits": _bits(u + v)}


def snf_op(rng):
    rows, cols = rng.randint(2, 12), rng.randint(2, 12)
    matrix = [[rng.randint(-99, 99) for _ in range(cols)] for _ in range(rows)]
    euler = rng.choice([e for e in range(-60, 61) if e])
    return ("snf", {"matrix": matrix, "euler": euler})


# ---------------------------------------------------------------------------
# filling ops (filling-search)
# ---------------------------------------------------------------------------

def run_filling(p, tr):
    with tr.span("filling.validate"):
        space = filling.FiniteMetricSpace(p["dist"])
    with tr.span("filling." + p["mode"]):
        return filling.fillrad_upper_bound(space, p["k"], mode=p["mode"], seed=p["seed"])


def check_filling(p, bound) -> dict:
    d, k, w = p["dist"], p["k"], list(bound.witness)
    n = len(d)
    _expect(bound.mode == p["mode"], f"mode {bound.mode} != {p['mode']}")
    _expect(1 <= len(w) <= k and len(set(w)) == len(w) and all(0 <= i < n for i in w),
            f"bad witness {w}")
    diam = float(d[np.ix_(w, w)].max())
    cover = float(d[:, w].min(axis=1).max())
    _expect(bound.R == max(diam, cover) / 2.0, f"R={bound.R!r} is not the witness objective")
    ref_r = p["ref_R"]
    if p["mode"] == "exhaustive":
        _expect(bound.R == ref_r, f"exhaustive R={bound.R!r} != reference {ref_r!r}")
        return {"filling.subsets_scanned": sum(math.comb(n, i) for i in range(1, k + 1))}
    if ref_r is None:
        return {}
    _expect(bound.R >= ref_r, f"greedy R={bound.R!r} beats the exhaustive optimum {ref_r!r}")
    return {"greedy_log_ratio": math.log(bound.R / ref_r), "greedy_pairs": 1}


def filling_ops(rng, entry):
    """The same relabelled pool space, once per mode."""
    dist = filling_space(entry)
    perm = list(range(len(dist)))
    rng.shuffle(perm)
    dist = dist[np.ix_(perm, perm)]
    return [("filling", {"dist": dist, "k": entry["k"], "mode": mode,
                         "seed": rng.randrange(2**31), "ref_R": entry["R"]})
            for mode in ("exhaustive", "greedy")]


# ---------------------------------------------------------------------------
# CLI ops (cli-batch): one systolic process per op
# ---------------------------------------------------------------------------

def cli_argv(case):
    """Case argv with '@name' replaced by the path of fixture file 'name'."""
    return [str(OUT / "cli-fixtures" / (a[1:] + ".json")) if a.startswith("@") else a
            for a in case["argv"]]


def write_cli_fixtures(ref) -> None:
    folder = OUT / "cli-fixtures"
    folder.mkdir(parents=True, exist_ok=True)
    for name, obj in ref["cli"]["fixtures"].items():
        (folder / (name + ".json")).write_text(json.dumps(obj), encoding="utf-8")


def run_cli(p, tr):
    with tr.span("cli.process." + p["group"]):
        return subprocess.run(
            [sys.executable, "-m", "systolic.cli", *p["argv"]],
            capture_output=True, env=CLI_ENV, cwd=ROOT, timeout=CLI_DEADLINE_S,
        )


def check_cli(p, proc) -> dict:
    _expect(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
    _expect(proc.stdout == p["stdout"].encode(), "stdout differs from the reference bytes")
    return {}


def run_cli_main(p, tr):
    """The same verb in-process, stdout captured: compute plus rendering."""
    buf = io.StringIO()
    with tr.span("cli.main"), contextlib.redirect_stdout(buf):
        code = cli.main(p["argv"])
    return code, buf.getvalue()


def check_cli_main(p, out) -> dict:
    code, text = out
    _expect(code == 0 and text == p["stdout"], "in-process cli.main output differs")
    return {}


def cli_op(case):
    return ("cli", {"group": case["argv"][0], "argv": cli_argv(case),
                    "stdout": case["stdout"]})


RUN = {"lattice": run_lattice, "skewed": run_skewed, "snf": run_snf,
       "filling": run_filling, "cli": run_cli, "cli.main": run_cli_main}
CHECK = {"lattice": check_lattice, "skewed": check_skewed, "snf": check_snf,
         "filling": check_filling, "cli": check_cli, "cli.main": check_cli_main}


def label(kind, p) -> str:
    """Op type, for the per-type attempted counts."""
    if kind in ("lattice", "skewed"):
        return f"{kind}.rank{p['rank']}"
    if kind == "filling":
        return f"filling.{p['mode']}"
    if kind == "cli":
        return f"cli.{p['group']}"
    return kind


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def lattice_sweep_round(ref, rng, cycle):
    """Ranks 2..8 once each (ROADMAP baseline distribution) plus two SNF ops."""
    ops = []
    for rank in range(2, 9):
        entry = cycle(f"rank{rank}", ref["lattice"][str(rank)])
        basis = scramble(rng, entry["basis"])
        ops.append(("lattice", {"rank": rank, "ref": entry,
                                "text": json.dumps({"dim": rank, "basis": basis})}))
    ops += [snf_op(rng), snf_op(rng)]
    return ops


def minima_skewed_round(ref, rng, cycle):
    """Every rung of the skew ladder once, each a fresh unimodular conjugate."""
    return [skewed_op(rng, [1] * (rank - 1) + [s]) for rank, s in SKEW_LADDER]


def filling_search_round(ref, rng, cycle):
    """Every small pool space in both modes, then fresh large clouds, greedy only."""
    ops = []
    for entries in ref["filling"].values():
        for entry in entries:
            ops += filling_ops(rng, entry)
    for dims, n, k in LARGE_CLOUDS:
        ops.append(("filling", {"dist": cloud_dist(random_points(rng, n, dims)), "k": k,
                                "mode": "greedy", "seed": rng.randrange(2**31), "ref_R": None}))
    return ops


def cli_batch_round(ref, rng, cycle):
    """Every verb once, each on a fixture drawn from its reference cases."""
    by_verb: dict = {}
    for case in ref["cli"]["cases"]:
        by_verb.setdefault(case["verb"], []).append(case)
    return [cli_op(rng.choice(by_verb[verb])) for verb in sorted(by_verb)]


def lattice_sweep_warmup(ref, rng):
    entry = ref["lattice"]["3"][0]
    return [("lattice", {"rank": 3, "ref": entry,
                         "text": json.dumps({"dim": 3, "basis": entry["basis"]})}), snf_op(rng)]


def minima_skewed_warmup(ref, rng):
    return [skewed_op(rng, [1, 1, 100])]


def filling_search_warmup(ref, rng):
    # on 18 evenly spaced points of a unit circle the exhaustive optimum is 1/6
    return filling_ops(rng, {"n": 18, "k": 3, "R": 1.0 / 6.0})


def cli_batch_warmup(ref, rng):
    write_cli_fixtures(ref)
    return [cli_op(next(c for c in ref["cli"]["cases"] if c["verb"] == "bundle"))]


@dataclass(frozen=True)
class Spec:
    round: Callable
    warmup: Callable
    tail_pct: float  # fixed per workload: >= 10 ops beyond it at the reference commit
    in_process: bool = True


WORKLOADS = {
    "lattice-sweep": Spec(lattice_sweep_round, lattice_sweep_warmup, 95.0),
    "minima-skewed": Spec(minima_skewed_round, minima_skewed_warmup, SKEW_TAIL_PCT),
    "filling-search": Spec(filling_search_round, filling_search_warmup, FILLING_TAIL_PCT),
    "cli-batch": Spec(cli_batch_round, cli_batch_warmup, 75.0, in_process=False),
}


def make_round(workload: str, seed: int, index: int, ref) -> list:
    rng = random.Random(f"{workload}:{seed}:{index}")

    def cycle(key, items):
        """This round's item from a seed-fixed order of items, so that every run
        covers a pool evenly instead of sampling it with replacement."""
        order = list(range(len(items)))
        random.Random(f"{workload}:{seed}:{key}").shuffle(order)
        return items[order[index % len(items)]]

    ops = WORKLOADS[workload].round(ref, rng, cycle)
    rng.shuffle(ops)
    return ops


def make_warmup(workload: str, ref) -> list:
    return WORKLOADS[workload].warmup(ref, random.Random(f"{workload}:warmup"))
