"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that a seed fixes the inputs, that the answer checks reject perturbed
answers, that the deterministic counts repeat, and that BENCHMARK.json names
exactly the metrics run.py reports.  Exits 1 on the first failed group.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import run
import workloads as wl
from tracing import Tracer

NULL = Tracer(False)


def fingerprint(ops) -> str:
    return json.dumps([(kind, {k: v.tolist() if hasattr(v, "tolist") else v for k, v in p.items()})
                       for kind, p in ops], sort_keys=True)


def seeded_inputs(ref) -> list:
    problems = []
    for name in wl.WORKLOADS:
        first = [fingerprint(wl.make_round(name, 7, i, ref)) for i in range(2)]
        again = [fingerprint(wl.make_round(name, 7, i, ref)) for i in range(2)]
        if first != again:
            problems.append(f"{name}: seed 7 gave different inputs on two calls")
        if fingerprint(wl.make_round(name, 8, 0, ref)) == first[0]:
            problems.append(f"{name}: seeds 7 and 8 gave the same inputs")
    return problems


def rejects(check, p, out) -> bool:
    try:
        check(p, out)
    except wl.Mismatch:
        return True
    return False


def perturbed_answers(ref) -> list:
    problems = []
    ops = wl.make_round("lattice-sweep", 7, 0, ref)
    p = next(p for kind, p in ops if kind == "lattice" and p["rank"] == 3)
    out = wl.run_lattice(p, NULL)
    wl.check_lattice(p, out)
    rep = out["minima"]
    bumped = dataclasses.replace(rep, lambda_sq=(rep.lambda_sq[0] + 1,) + rep.lambda_sq[1:])
    if not rejects(wl.check_lattice, p, {**out, "minima": bumped}):
        problems.append("lattice check accepted a perturbed lambda^2")

    p = wl.make_round("minima-skewed", 7, 0, ref)[0][1]
    g, lll_out, rep = wl.run_skewed(p, NULL)
    wl.check_skewed(p, (g, lll_out, rep))
    bumped = dataclasses.replace(rep, lambda_sq=rep.lambda_sq[:-1] + (rep.lambda_sq[-1] + 1,))
    if not rejects(wl.check_skewed, p, (g, lll_out, bumped)):
        problems.append("skewed check accepted a perturbed lambda^2")

    p = next(p for _, p in wl.make_round("filling-search", 7, 0, ref) if p["mode"] == "exhaustive")
    bound = wl.run_filling(p, NULL)
    wl.check_filling(p, bound)
    if not rejects(wl.check_filling, p, dataclasses.replace(bound, R=bound.R * 1.5)):
        problems.append("filling check accepted a perturbed R")

    p = wl.make_round("cli-batch", 7, 0, ref)[0][1]
    fake = subprocess.CompletedProcess([], 0, p["stdout"].encode() + b" ", b"")
    if not rejects(wl.check_cli, p, fake):
        problems.append("cli check accepted a changed stdout")
    return problems


def repeated_counts(ref) -> list:
    problems = []
    for name in ("lattice-sweep", "filling-search"):
        ops = wl.make_round(name, 7, 0, ref)
        runs = [[wl.CHECK[kind](p, wl.RUN[kind](p, NULL)) for kind, p in ops] for _ in range(2)]
        if runs[0] != runs[1]:
            problems.append(f"{name}: counts differ between two runs of the same inputs")
    return problems


def metric_names(ref) -> list:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for key, ours in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        if listed != list(ours):
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    if [w["name"] for w in spec["workloads"]] != list(wl.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    return problems


def main() -> int:
    ref = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    wl.write_cli_fixtures(ref)
    for group in (seeded_inputs, perturbed_answers, repeated_counts, metric_names):
        problems = group(ref)
        if problems:
            print("\n".join(f"FAIL {group.__name__}: {p}" for p in problems))
            return 1
        print(f"ok {group.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
