"""Regenerate reference.json: the input pools and their reference answers.

    python3 bench/make_reference.py

The answers are whatever the library in ``src/`` returns, so the committed
file must be produced at the commit that introduced the benchmark; a later
commit that regenerated it would certify its own output.  The pools are
seeded, so rerunning at that commit reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import workloads as wl
from tracing import Tracer

POOL_PER_RANK = 24
REFERENCE = Path(__file__).resolve().parent / "reference.json"

D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
# Lattice fixtures of cli-batch; the "pool-*" ones are filled from the lattice pool.
LATTICE_FIXTURES = {
    "hex": {"dim": 2, "gram": [["1", "1/2"], ["1/2", "1"]]},
    "square": {"dim": 2, "basis": [[1, 0], [0, 1]]},
    "rect": {"dim": 2, "gram": [[4, 1], [1, 9]]},
    "fcc": {"dim": 3, "gram": [[2, 1, 1], [1, 2, 1], [1, 1, 2]]},
    "rational3": {"dim": 3, "gram": [["3/2", "1/3", "0"], ["1/3", "2", "1/5"], ["0", "1/5", "1"]]},
    "d4": {"dim": 4, "gram": D4},
}
POOL_FIXTURES = (("pool-2a", 2, 0), ("pool-3a", 3, 0), ("pool-3b", 3, 1),
                 ("pool-4a", 4, 0), ("pool-4b", 4, 1))
CATALOG_SPACES = (
    ["--space", "circle", "--length", "6"],
    ["--space", "circle", "--length", "1.5"],
    ["--space", "sphere", "--i", "2", "--curvature", "1"],
    ["--space", "rp", "--i", "3", "--curvature", "1"],
    ["--space", "cp2", "--curvature", "2"],
    ["--space", "cp3", "--curvature", "1"],
)
CHECK_91B_SPACES = (
    ["--space", "circle", "--length", "6"],
    ["--space", "rp", "--i", "3", "--curvature", "1"],
    ["--space", "rp", "--i", "2", "--curvature", "4"],
    ["--space", "sphere", "--i", "1", "--curvature", "2"],
)


def random_basis(rng, rank):
    while True:
        rows = [[rng.randint(-9, 9) for _ in range(rank)] for _ in range(rank)]
        if wl._det_int(rows):
            return rows


def lattice_pool():
    pool = {}
    null = Tracer(False)
    for rank in range(2, 9):
        rng = random.Random(f"pool:lattice:{rank}")
        entries = []
        for _ in range(POOL_PER_RANK):
            basis = random_basis(rng, rank)
            out = wl.run_lattice({"text": json.dumps({"dim": rank, "basis": basis})}, null)
            entries.append({"basis": basis, **wl.lattice_summary(out)})
        pool[str(rank)] = entries
    return pool


def exhaustive_r(entry):
    space = wl.filling.FiniteMetricSpace(wl.filling_space(entry))
    return wl.filling.fillrad_upper_bound(space, entry["k"], mode="exhaustive").R


def filling_pool():
    rng = random.Random("pool:filling")
    pool = {"circle": [{"n": n, "k": 3} for n in (36, 40, 44, 48)], "square": [], "cube": []}
    for n, k in ((16, 6), (17, 5), (18, 5), (18, 6)):
        pool["square"].append({"points": wl.random_points(rng, n, 2), "k": k})
    for n in (26, 28, 30, 32):
        pool["cube"].append({"points": wl.random_points(rng, n, 3), "k": 4})
    for entries in pool.values():
        for entry in entries:
            entry["R"] = exhaustive_r(entry)
    return pool


def cli_cases(lattices):
    fixtures = dict(LATTICE_FIXTURES)
    for name, rank, index in POOL_FIXTURES:
        fixtures[name] = {"dim": rank, "basis": lattices[str(rank)][index]["basis"]}
    rank2 = [name for name, obj in fixtures.items() if obj["dim"] == 2]
    lattice_names = sorted(fixtures)
    fixtures["circle24"] = {"n": 24, "dist": wl.circle_dist(24).tolist()}

    cases = []

    def add(verb, argv):
        cases.append({"verb": verb, "argv": argv})

    for action in ("minima", "hermite", "bm", "dual", "reduce", "critical"):
        for name in lattice_names:
            add(f"lattice {action}", ["lattice", action, "--in", "@" + name])
    for name in rank2:
        add("torus verify-loewner", ["torus", "verify-loewner", "--in", "@" + name])
    for action in ("verify-gromov", "verify-52", "systoles"):
        for name in lattice_names:
            add(f"torus {action}", ["torus", action, "--in", "@" + name])
    for k in ("0.5", "1", "2", "4", "9"):
        add("torus pu-round", ["torus", "pu-round", "--curvature", k])
    for space in CATALOG_SPACES:
        add("filling catalog", ["filling", "catalog", *space])
    for i in ("1", "2", "3"):
        for length in ("1", "6"):
            add("filling extrema", ["filling", "extrema", "--i", i, "--length", length])
    for k in ("2", "3"):
        add("filling bound", ["filling", "bound", "--in", "@circle24", "--max-subset", k,
                              "--mode", "exhaustive"])
    for space in CHECK_91B_SPACES:
        add("filling check-91b", ["filling", "check-91b", *space])
    for e in range(-12, 13):
        if e:
            add("bundle", ["bundle", "--euler", str(e)])

    ref = {"cli": {"fixtures": fixtures, "cases": cases}}
    wl.write_cli_fixtures(ref)
    null = Tracer(False)
    for case in cases:
        proc = wl.run_cli(wl.cli_op({**case, "stdout": ""})[1], null)
        if proc.returncode != 0:
            raise SystemExit(f"reference case {case['argv']} failed: {proc.stderr.decode()}")
        case["stdout"] = proc.stdout.decode()
    return ref["cli"]


def main():
    lattices = lattice_pool()
    ref = {"lattice": lattices, "filling": filling_pool(), "cli": cli_cases(lattices)}
    REFERENCE.write_text(json.dumps(ref, sort_keys=True, separators=(",", ":")) + "\n",
                         encoding="utf-8")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
