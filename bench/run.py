"""Benchmark of the systolic library: four seeded closed-loop workloads.

    python3 bench/run.py --workload lattice-sweep --seed 1 --seconds 12 --trace 0

One client runs ops back to back (closed loop, no threads, at most one child
process at a time).  Ops run in rounds with a fixed mix of strata; the loop
finishes the round in which the timed total reaches --seconds.  Every answer
is checked outside the timed region.

Times are reported at a nominal machine speed.  Right before every op the
run times a fixed yardstick that shares no code with the library
(pure-Python integer and Fraction arithmetic, or for cli-batch a Python
process importing only the standard library), and scales that op's times by
nominal / yardstick time.  On a shared machine whose speed drifts by a fifth
within a minute, this cancels most of the drift; the raw figures and the
yardstick are printed as well.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the rounds of a
--seconds/2 untraced pass again with spans around every library call, and
prints the per-layer metrics, the probes and the end-to-end figures of the
untraced pass.  Each line before the last is ``name value unit``; the last
line is one JSON object with the keys correct, attempted, failed, metrics.
See README.md for the workloads and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

T_START = time.perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
COUNT_ROUNDS = 2  # deterministic counts cover the first rounds, which always run
SETUP_REPS = 5
WALL_CAP_S = 150.0  # no new round starts after this much wall time
CHILD_IMPORT = "import time; t = time.perf_counter(); import systolic; print(time.perf_counter() - t)"
# Nominal speed: typical yardstick times on a shared 2-core Xeon virtual machine.
KERNEL_NOMINAL_S = 0.0065
PROCESS_NOMINAL_S = 0.065
PROCESS_YARDSTICK = "import argparse, dataclasses, decimal, fractions, json"

LAYERS = (
    "io.lattice_parse", "lattice.lll", "lattice.dual", "minima.successive_minima",
    "minima.hermite", "minima.bm", "minima.is_critical", "torus.verify", "torus.systoles",
    "bundles.snf", "bundles.invariants", "filling.validate", "filling.exhaustive",
    "filling.greedy", "cli.main",
)
CLI_GROUPS = ("lattice", "torus", "filling", "bundle")
END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    *((f"{layer}_ms", "ms") for layer in LAYERS),
    *((f"{layer}_ms_per_call", "ms") for layer in LAYERS),
    *((f"cli.process_ms.{group}", "ms") for group in CLI_GROUPS),
    ("cli.interpreter_ms", "ms"), ("cli.import_ms", "ms"), ("cli.import_numpy_ms", "ms"),
    ("op.self_ms", "ms"),
    ("lattice.lll_transform_bits", "count"), ("bundles.snf_transform_bits", "count"),
    ("filling.subsets_scanned", "count"), ("filling.exhaustive_subsets_per_s", "1/s"),
    ("greedy_bound_ratio", "ratio"), ("failed_frac", "ratio"), ("trace.overhead_frac", "ratio"),
    ("yardstick_ms", "ms"),
    ("probe.rank8_lll_ms", "ms"), ("probe.rank8_minima_ms", "ms"),
    ("probe.d4_is_critical_ms", "ms"), ("probe.validate_n200_ms", "ms"),
    ("probe.validate_n500_ms", "ms"), ("probe.exhaustive_24_3_ms", "ms"),
    ("probe.exhaustive_100_3_ms", "ms"), ("probe.snf_12x12_ms", "ms"),
    ("probe.snf_12x12_transform_bits", "count"),
    ("probe.hang_rank3_ms", "ms"), ("probe.hang_rank3_rss_mb", "MB"),
    ("probe.hang_rank4_ms", "ms"), ("probe.hang_rank4_rss_mb", "MB"),
    ("probe.hang_deadline_hits", "count"),
)


class Deadline(Exception):
    """Raised by SIGALRM when an in-process op overruns its deadline."""


def _on_alarm(signum, frame):
    raise Deadline()


def kernel_s() -> float:
    """Fixed integer and Fraction arithmetic, like the exact core's inner loops."""
    t = time.perf_counter()
    s = 0
    for i in range(60000):
        s += i * i % 7
    f = Fraction(1)
    for i in range(1, 300):
        f = f * Fraction(i + 1, i) - Fraction(1, i * i + 1)
    return time.perf_counter() - t


def process_s(wl) -> float:
    """One interpreter start that imports only the standard library."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", PROCESS_YARDSTICK], env=wl.CLI_ENV, cwd=ROOT,
                   capture_output=True, check=True, timeout=60)
    return time.perf_counter() - t


@dataclass
class Record:
    label: str
    round: int
    latency: float
    scale: float  # nominal / yardstick time just before the op
    failure: str | None = None
    counts: dict = field(default_factory=dict)

    def scaled_ms(self) -> float:
        return self.latency * self.scale * 1000.0


@dataclass
class Run:
    records: list = field(default_factory=list)
    yardstick: list = field(default_factory=list)
    rounds: int = 0
    timed: float = 0.0  # seconds spent inside ops

    def factor(self, nominal) -> float:
        """Scale for times measured outside ops, from the run's median yardstick."""
        return nominal / statistics.median(self.yardstick)


class Bench:
    """One benchmark invocation: workload, seed, reference data and yardstick."""

    def __init__(self, wl, args, ref):
        self.wl, self.args, self.ref = wl, args, ref
        self.spec = wl.WORKLOADS[args.workload]
        self.nominal = KERNEL_NOMINAL_S if self.spec.in_process else PROCESS_NOMINAL_S

    def yardstick(self) -> float:
        return kernel_s() if self.spec.in_process else process_s(self.wl)

    def round(self, index):
        return self.wl.make_round(self.args.workload, self.args.seed, index, self.ref)

    def execute(self, kind, p, tracer, op_id):
        """Run one op under its deadline: (result, latency seconds, failure or None)."""
        tracer.op_id = op_id
        out = failure = None
        in_process = kind != "cli"
        t = time.perf_counter()
        try:
            try:
                if in_process:
                    signal.setitimer(signal.ITIMER_REAL, self.wl.DEADLINE_S)
                with tracer.span("op"):
                    out = self.wl.RUN[kind](p, tracer)
            finally:
                if in_process:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except (Deadline, subprocess.TimeoutExpired):
            failure = f"deadline in {tracer.layer}"
        except Exception as exc:  # an op failure is recorded, the run goes on
            failure = f"{type(exc).__name__} in {tracer.layer}: {exc}"
        return out, time.perf_counter() - t, failure

    def run_ops(self, ops, tracer, run, round_index):
        """Execute ops, each right after one yardstick sample, then check their answers."""
        results = []
        for kind, p in ops:
            run.yardstick.append(self.yardstick())
            out, latency, failure = self.execute(kind, p, tracer, len(run.records))
            run.records.append(Record(self.wl.label(kind, p), round_index, latency,
                                      self.nominal / run.yardstick[-1], failure))
            run.timed += latency
            results.append(out)
        for rec, (kind, p), out in zip(run.records[-len(ops):], ops, results):
            if rec.failure is None:
                try:
                    rec.counts = self.wl.CHECK[kind](p, out)
                except self.wl.Mismatch as exc:
                    rec.failure = f"wrong answer ({rec.label}): {exc}"
                except Exception as exc:  # a check that cannot run fails the op
                    rec.failure = f"check {type(exc).__name__} ({rec.label}): {exc}"

    def measure(self, tracer, seconds, min_rounds, max_rounds=math.inf, first=None) -> Run:
        run = Run()
        while run.rounds < max_rounds and (
            run.rounds < min_rounds
            or (run.timed < seconds and time.perf_counter() - T_START < WALL_CAP_S)
        ):
            ops = first if run.rounds == 0 and first else self.round(run.rounds)
            self.run_ops(ops, tracer, run, run.rounds)
            run.rounds += 1
        return run

    def setup(self, tracer):
        """Median of set-ups: import in a fresh interpreter, first round, warm-up.

        Set-up is mostly process start-up, so each is scaled by the process
        yardstick taken just before it.
        """
        times, warm = [], Run()
        for _ in range(SETUP_REPS):
            scale = PROCESS_NOMINAL_S / process_s(self.wl)
            import_s = 0.0
            if self.spec.in_process:
                proc = subprocess.run([sys.executable, "-c", CHILD_IMPORT], capture_output=True,
                                      text=True, env=self.wl.CLI_ENV, cwd=ROOT, timeout=60,
                                      check=True)
                import_s = float(proc.stdout)
            t = time.perf_counter()
            first = self.round(0)
            generate_s = time.perf_counter() - t
            done = len(warm.records)
            self.run_ops(self.wl.make_warmup(self.args.workload, self.ref), tracer, warm, -1)
            warm_s = sum(r.latency for r in warm.records[done:])
            times.append((import_s + generate_s + warm_s) * scale)
        return statistics.median(times), first, warm.records

    def end_to_end(self, run, setup_s) -> dict:
        pct = self.spec.tail_pct
        raw = [r.latency * 1000.0 for r in run.records]
        lat = [r.scaled_ms() for r in run.records]
        # for latency, a failed op counts as missing the deadline
        limit = self.wl.DEADLINE_S * 1000.0
        lat_q = [max(ms, limit) if r.failure else ms for ms, r in zip(lat, run.records)]
        print(f"{'op_tail_pct':<40} {pct:>16g} % of {len(lat)} timed ops, "
              f"{len(lat) * (1 - pct / 100):.0f} beyond it")
        print(f"{'yardstick_ms':<40} {statistics.median(run.yardstick) * 1000:>16.6g} ms "
              f"(median; nominal {self.nominal * 1000:g})")
        print(f"{'raw.ops_per_s':<40} {len(raw) / run.timed:>16.6g} 1/s (unscaled)")
        print(f"{'raw.op_p50_ms':<40} {quantile(raw, 50.0):>16.6g} ms (unscaled)")
        print(f"{'raw.op_tail_ms':<40} {quantile(raw, pct):>16.6g} ms (unscaled)")
        who = resource.RUSAGE_SELF if self.spec.in_process else resource.RUSAGE_CHILDREN
        return {
            "setup_s": setup_s,
            "ops_per_s": len(lat) * 1000.0 / sum(lat),
            "op_p50_ms": quantile(lat_q, 50.0),
            "op_tail_ms": quantile(lat_q, pct),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        }


def quantile(values, pct):
    """Linear interpolation between order statistics, like numpy's default."""
    xs = sorted(values)
    h = (len(xs) - 1) * pct / 100.0
    lo = math.floor(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def scaled(metrics, units, factor) -> dict:
    """Times times factor, rates divided by it; counts, ratios and sizes unchanged."""
    scale = {"ms": factor, "s": factor, "1/s": 1.0 / factor}
    return {name: value * scale[units[name]] if units[name] in scale else value
            for name, value in metrics.items()}


def counts(records, layer_self):
    """Deterministic counts over the first COUNT_ROUNDS rounds, plus the scan rate."""
    first = [r for r in records if 0 <= r.round < COUNT_ROUNDS]

    def agg(name, fn):
        return fn([r.counts[name] for r in first if name in r.counts] or [0])

    log_sum, pairs = agg("greedy_log_ratio", math.fsum), agg("greedy_pairs", sum)
    scanned_all = sum(r.counts.get("filling.subsets_scanned", 0) for r in records)
    exhaustive_s = layer_self.get("filling.exhaustive", (0.0, 0))[0]
    return {
        "lattice.lll_transform_bits": agg("lattice.lll_transform_bits", max),
        "bundles.snf_transform_bits": agg("bundles.snf_transform_bits", max),
        "filling.subsets_scanned": agg("filling.subsets_scanned", sum),
        "filling.exhaustive_subsets_per_s": scanned_all / exhaustive_s if exhaustive_s else 0.0,
        "greedy_bound_ratio": math.exp(log_sum / pairs) if pairs else 0.0,
    }


def layer_times(tracing, tracer, run):
    st = tracing.self_times(tracer.spans, [r.scale for r in run.records])
    m = {}
    for layer in LAYERS:
        total, calls = st.get(layer, (0.0, 0))
        m[f"{layer}_ms"] = total * 1000.0
        m[f"{layer}_ms_per_call"] = total * 1000.0 / calls if calls else 0.0
    for group in CLI_GROUPS:
        total, calls = st.get(f"cli.process.{group}", (0.0, 0))
        m[f"cli.process_ms.{group}"] = total * 1000.0 / calls if calls else 0.0
    m["op.self_ms"] = st.get("op", (0.0, 0))[0] * 1000.0
    return m, st


def print_metrics(metrics, units):
    for name, value in metrics.items():
        print(f"{name:<40} {value:>16.6g} {units[name]}")


def traced_run(bench, tracing, probes, setup_s, first, warm):
    """Untraced pass, the same rounds traced, then probes: (metrics, records, problems)."""
    wl, args = bench.wl, bench.args
    untraced = bench.measure(tracing.Tracer(False), args.seconds / 2, COUNT_ROUNDS, first=first)
    print_metrics(bench.end_to_end(untraced, setup_s), dict(END_TO_END))
    tracer = tracing.Tracer(True)
    traced = bench.measure(tracer, 0.0, untraced.rounds, untraced.rounds)
    overhead = 1.0 - (sum(r.scaled_ms() for r in untraced.records)
                      / sum(r.scaled_ms() for r in traced.records))
    if args.workload == "cli-batch":
        for index in range(untraced.rounds):
            bench.run_ops([("cli.main", p) for _, p in bench.round(index)], tracer, traced, index)
    units = dict(PER_LAYER)
    metrics = dict.fromkeys(units, 0.0)
    layers, st = layer_times(tracing, tracer, traced)
    metrics.update(layers)
    metrics.update(counts(traced.records, st))
    problems, probed = [], probes.baseline(bench.ref)
    if args.workload == "cli-batch":
        probed.update(probes.cli_startup())
    metrics.update(scaled(probed, units, traced.factor(bench.nominal)))
    if args.workload == "minima-skewed":
        hang, problems = probes.hang(Deadline)  # raw: elapsed time against the deadline
        metrics.update(hang)

    records = warm + untraced.records + traced.records
    metrics["failed_frac"] = sum(r.failure is not None for r in records) / len(records)
    metrics["trace.overhead_frac"] = overhead
    metrics["yardstick_ms"] = statistics.median(traced.yardstick) * 1000.0

    wl.OUT.mkdir(parents=True, exist_ok=True)
    trace_file = wl.OUT / f"trace-{args.workload}-{args.seed}.json"
    trace_file.write_text(json.dumps({"columns": ["name", "op", "parent", "start", "end"],
                                      "spans": tracer.spans}), encoding="utf-8")
    print(f"spans written to {trace_file.relative_to(ROOT)}")
    by_type: dict = {}
    for r in traced.records:
        if r.round < COUNT_ROUNDS:
            by_type[r.label] = by_type.get(r.label, 0) + 1
    for name, n in sorted(by_type.items()):
        print(f"{'ops_attempted.' + name:<40} {n:>16d} count (first {COUNT_ROUNDS} rounds)")
    return metrics, records, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("lattice-sweep", "minima-skewed", "filling-search", "cli-batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = (ROOT / "src" / "systolic" / "__init__.py", ROOT / "tests" / "oracles.py", REFERENCE)
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"bench: missing {', '.join(missing)}; run from a full checkout", file=sys.stderr)
        return 2

    import probes
    import tracing
    import workloads as wl

    bench = Bench(wl, args, json.loads(REFERENCE.read_text(encoding="utf-8")))
    signal.signal(signal.SIGALRM, _on_alarm)
    setup_s, first, warm = bench.setup(tracing.Tracer(False))

    if args.trace:
        metrics, records, problems = traced_run(bench, tracing, probes, setup_s, first, warm)
        units = dict(PER_LAYER)
    else:
        run = bench.measure(tracing.Tracer(False), args.seconds, 1, first=first)
        metrics, records, problems = bench.end_to_end(run, setup_s), warm + run.records, []
        units = dict(END_TO_END)

    failures = [r.failure for r in records if r.failure] + problems
    print_metrics(metrics, units)
    for failure in failures[:10]:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
