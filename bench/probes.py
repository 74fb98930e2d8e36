"""One-off measurements made in the traced run, beside the workload's ops.

``baseline`` repeats the ROADMAP baseline on fixed inputs, ``hang`` runs the
two known non-terminating forms under the per-op deadline, and
``cli_startup`` splits one systolic process into interpreter start and imports.
Every probe input is fixed, so the figures compare across seeds and commits.
"""

from __future__ import annotations

import random
import resource
import signal
import statistics
import subprocess
import sys
import time

import workloads as wl

REPS = 3


def _ms(fn, reps=REPS) -> float:
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1000.0


def baseline(ref) -> dict:
    grams = [wl.lattice.LatticeBasis(e["basis"]).gram() for e in ref["lattice"]["8"][:5]]
    d4 = wl.lattice.GramMatrix([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]])
    circle = {n: wl.circle_dist(n) for n in (24, 100, 200, 500)}
    spaces = {n: wl.filling.FiniteMetricSpace(circle[n]) for n in (24, 100)}
    rng = random.Random("probe:snf")
    matrix = [[rng.randint(-99, 99) for _ in range(12)] for _ in range(12)]
    snf = wl.bundles.smith_normal_form(matrix)
    return {
        "probe.rank8_lll_ms": statistics.median(_ms(lambda: wl.lattice.lll_reduce_gram(g), 1) for g in grams),
        "probe.rank8_minima_ms": statistics.median(_ms(lambda: wl.minima.successive_minima(g), 1) for g in grams),
        "probe.d4_is_critical_ms": _ms(lambda: wl.minima.is_critical(d4)),
        "probe.validate_n200_ms": _ms(lambda: wl.filling.FiniteMetricSpace(circle[200])),
        "probe.validate_n500_ms": _ms(lambda: wl.filling.FiniteMetricSpace(circle[500])),
        "probe.exhaustive_24_3_ms": _ms(lambda: wl.filling.fillrad_upper_bound(spaces[24], 3)),
        "probe.exhaustive_100_3_ms": _ms(lambda: wl.filling.fillrad_upper_bound(spaces[100], 3)),
        "probe.snf_12x12_ms": _ms(lambda: wl.bundles.smith_normal_form(matrix)),
        "probe.snf_12x12_transform_bits": wl._bits(snf.u + snf.v),
    }


def hang(deadline_error) -> tuple:
    """(metrics, problems): elapsed and peak RSS of each known-hang form.

    A form that finishes inside the deadline must give its exact minima.
    """
    metrics, problems, hits = {}, [], 0
    for diag in wl.HANG_FORMS:
        g = wl.lattice.GramMatrix([[d if i == j else 0 for j, d in enumerate(diag)]
                                   for i in range(len(diag))])
        t = time.perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, wl.DEADLINE_S)
                rep = wl.minima.successive_minima(g)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except deadline_error:
            hits += 1
        else:
            if [int(x) for x in rep.lambda_sq] != sorted(diag):
                problems.append(f"hang form {diag}: wrong minima {rep.lambda_sq}")
        name = f"probe.hang_rank{len(diag)}"
        metrics[name + "_ms"] = (time.perf_counter() - t) * 1000.0
        metrics[name + "_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["probe.hang_deadline_hits"] = hits
    return metrics, problems


def _child_ms(args, reps=5) -> float:
    def once():
        subprocess.run([sys.executable, *args], env=wl.CLI_ENV, cwd=wl.ROOT,
                       capture_output=True, check=True, timeout=60)
    return _ms(once, reps)


def _numpy_import_ms() -> float:
    """Cumulative numpy import time of 'import systolic.cli', from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import systolic.cli"],
                          env=wl.CLI_ENV, cwd=wl.ROOT, capture_output=True, text=True,
                          check=True, timeout=60)
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "numpy":
            return int(fields[1]) / 1000.0
    return 0.0


def cli_startup() -> dict:
    interpreter = _child_ms(["-c", "pass"])
    return {
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": _child_ms(["-c", "import systolic.cli"]) - interpreter,
        "cli.import_numpy_ms": statistics.median(_numpy_import_ms() for _ in range(REPS)),
    }
