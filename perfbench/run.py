"""Time to verdict for the bialgebroid package, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload poisson-base --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the run sets up the workload several times (reporting
the median set-up time), then repeats rounds of the workload's calls
until ``--seconds`` have passed; every round completes, so a run lasts at
least one round.  It prints the end-to-end metrics.  Their times are
scaled to a reference speed by SpeedProbe, because the speed of a shared
core drifts by up to 1.7x within seconds; the elapsed times are printed
too.

With ``--trace 1`` it runs one untraced round, then installs the
per-layer wrappers (see tracing.py), sets up again and runs one traced
round, and prints the per-layer metrics of that traced set-up and round.
Spans are written to ``.perfbench_work/trace-<workload>.jsonl``.

Every call's answer is checked against oracle.py.  The last line of
standard output is one JSON object: ``correct`` is false when any answer
was wrong (or, traced, when the self times do not cover the traced wall
time), ``failed`` counts calls that failed outright (an unexpected
exception, a traceback, an exit outside {0, 1, 2}, a timeout), and
``attempted`` counts calls and set-up checks.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path

SETUP_REPEATS = 9
IMPORT_REPEATS = 3
PROBE_INTERVAL_S = 0.02
PROBE_REFERENCE_S = 0.0005
PROBE_WINDOW_S = 0.25
PROBE_MIN_SAMPLES = 16

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("check_s", "s"), ("leibniz_s", "s"),
    ("generator_s", "s"), ("theorem_c_s", "s"), ("corollaries_s", "s"), ("courant_s", "s"),
    ("call_ms.p50", "ms"), ("peak_rss_mb", "MB"),
)
CALL_KINDS = ("check", "leibniz", "generator", "theorem_c", "corollaries", "courant")

# (metric, unit, tracer name, field); field is calls, self_s, a hook count,
# a ratio, or a layer prefix summed over every traced name in the layer.
PER_LAYER = (
    ("ring.mul.calls", "count", "ring.mul", "calls"),
    ("ring.mul.self_s", "s", "ring.mul", "self_s"),
    ("ring.mul.term_products", "count", "ring.mul", "count"),
    ("ring.mul.terms_out", "count", "ring.mul", "count2"),
    ("ring.add.calls", "count", "ring.add", "calls"),
    ("ring.add.self_s", "s", "ring.add", "self_s"),
    ("ring.diff.calls", "count", "ring.diff", "calls"),
    ("ring.parse.calls", "count", "ring.parse", "calls"),
    ("ring.parse.self_s", "s", "ring.parse", "self_s"),
    ("ring.self_s", "s", "ring.", "layer"),
    ("exterior.wedge.calls", "count", "exterior.wedge", "calls"),
    ("exterior.wedge.self_s", "s", "exterior.wedge", "self_s"),
    ("exterior.wedge.zero_ratio", "ratio", "exterior.wedge", "count_ratio"),
    ("exterior.interior.calls", "count", "exterior.interior", "calls"),
    ("exterior.interior.self_s", "s", "exterior.interior", "self_s"),
    ("exterior.add.calls", "count", "exterior.add", "calls"),
    ("exterior.add.self_s", "s", "exterior.add", "self_s"),
    ("exterior.self_s", "s", "exterior.", "layer"),
    ("algebroid.schouten.calls", "count", "algebroid.schouten", "calls"),
    ("algebroid.schouten.self_s", "s", "algebroid.schouten", "self_s"),
    ("algebroid.schouten.zero_ratio", "ratio", "algebroid.schouten", "count_ratio"),
    ("algebroid.differential.calls", "count", "algebroid.differential", "calls"),
    ("algebroid.differential.self_s", "s", "algebroid.differential", "self_s"),
    ("algebroid.differential.distinct_ratio", "ratio", "algebroid.differential", "distinct_ratio"),
    ("algebroid.bv_boundary.calls", "count", "algebroid.bv_boundary", "calls"),
    ("algebroid.bv_boundary.self_s", "s", "algebroid.bv_boundary", "self_s"),
    ("algebroid.lie_derivative.calls", "count", "algebroid.lie_derivative", "calls"),
    ("algebroid.validate.calls", "count", "algebroid.validate", "calls"),
    ("algebroid.validate.self_s", "s", "algebroid.validate", "self_s"),
    ("algebroid.self_s", "s", "algebroid.", "layer"),
    ("pair.dirac_apply.calls", "count", "pair.dirac_apply", "calls"),
    ("pair.dirac_apply.self_s", "s", "pair.dirac_apply", "self_s"),
    ("pair.dirac_apply.distinct_ratio", "ratio", "pair.dirac_apply", "distinct_ratio"),
    ("pair.laplacian.calls", "count", "pair.laplacian", "calls"),
    ("pair.laplacian.self_s", "s", "pair.laplacian", "self_s"),
    ("pair.dorfman.calls", "count", "pair.dorfman", "calls"),
    ("pair.dorfman.self_s", "s", "pair.dorfman", "self_s"),
    ("pair.modular_cocycles.calls", "count", "pair.modular_cocycles", "calls"),
    ("pair.modular_cocycles.self_s", "s", "pair.modular_cocycles", "self_s"),
    ("pair.probes.count", "count", "pair.probes", "count"),
    ("pair.suites.self_s", "s", "pair.suites", "self_s"),
    ("pair.self_s", "s", "pair.", "layer"),
    ("constructions.self_s", "s", "constructions.", "layer"),
    ("serialize.pair_from_json.calls", "count", "serialize.pair_from_json", "calls"),
    ("serialize.pair_from_json.self_s", "s", "serialize.pair_from_json", "self_s"),
    ("serialize.self_s", "s", "serialize.", "layer"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
)
EXTRA_PER_LAYER = (("cli.import_s", "s"), ("trace.overhead_ratio", "ratio"))
COVERAGE_BOUNDS = (0.97, 1.03)


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources, fixtures or metrics)."""


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def judge(self, call, result, oracle):
        self.attempted += 1
        try:
            call.check(result)
        except oracle.Failure as exc:
            self.failed += 1
            _log(f"FAILED {call.label}: {exc}")
        except oracle.Wrong as exc:
            if isinstance(result, BaseException):
                self.failed += 1
                _log(f"FAILED {call.label}: unexpected "
                     + "".join(traceback.format_exception(result)))
            else:
                self.wrong += 1
                _log(f"WRONG {call.label}: {exc}")

    def setup_checks(self, ctx):
        self.attempted += ctx.checked
        self.wrong += len(ctx.wrong)
        for message in ctx.wrong:
            _log(f"WRONG set-up: {message}")


def _log(text):
    sys.stderr.write(text.rstrip() + "\n")


def _checkout():
    root = Path.cwd()
    for needed in ("src/bialgebroid/__init__.py", "tests/fixtures", "tests/golden"):
        if not (root / needed).exists():
            raise BenchmarkError(f"{needed} not found: run from the root of a checkout")
    return root


def fresh_import(src):
    """Import the package from ``src``, dropping any copy imported before."""
    for name in [n for n in sys.modules if n == "bialgebroid" or n.startswith("bialgebroid.")]:
        del sys.modules[name]
    bg = importlib.import_module("bialgebroid")
    importlib.import_module("bialgebroid.cli")
    if not Path(bg.__file__).resolve().is_relative_to(src):
        raise BenchmarkError(f"imported bialgebroid from {bg.__file__}, not from {src}")
    return bg


def _speed_kernel():
    """A fixed slice of the interpreter work the package does: Fractions, tuples, dicts."""
    acc, table = Fraction(0), {}
    for i in range(1, 60):
        acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(i % 3 + 1, 2)
        key = tuple(a + b for a, b in zip((i % 4, i % 3, 1), (1, i % 2, 0)))
        table[key] = table.get(key, 0) + i
    return acc


class SpeedProbe:
    """Times the kernel every PROBE_INTERVAL_S of wall time, from a signal handler.

    The samples follow the speed of this core while the calls run.
    ``scaled`` turns an interval into seconds at the reference speed, using
    the samples taken in and around it, and leaves out the samples' own time.
    """

    def __init__(self):
        self.times = []      # wall clock at each sample's start
        self.spent = []      # wall time each sample took from the timed calls
        self.kernel = []     # CPU time of each sample: not inflated by preemption
        self._previous = None
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:  # a sample slower than the interval: skip the next
            return
        self._busy = True
        start, cpu = time.perf_counter(), time.thread_time()
        _speed_kernel()
        self.kernel.append(time.thread_time() - cpu)
        self.times.append(start)
        self.spent.append(time.perf_counter() - start)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, start, end):
        times, kernel = self.times, self.kernel
        inside = self.spent[bisect_left(times, start):bisect_left(times, end)]
        reach = PROBE_WINDOW_S
        while True:
            near = kernel[bisect_left(times, start - reach):bisect_left(times, end + reach)]
            if len(near) >= PROBE_MIN_SAMPLES or len(near) == len(kernel):
                break
            reach *= 2
        return (end - start - sum(inside)) * PROBE_REFERENCE_S / statistics.fmean(near)


def run_round(calls, tally, oracle, deferred=None):
    """Run the calls one after another; return [(call, start, end)]."""
    timed = []
    clock = time.perf_counter
    for call in calls:
        start = clock()
        try:
            result = call.run()
        except Exception as exc:  # judged below: only expected refusals pass
            result = exc
        timed.append((call, start, clock()))
        if deferred is None:
            tally.judge(call, result, oracle)
        else:
            deferred.append((call, result))
    return timed


def tail(values):
    """Highest whole percentile with at least ten samples beyond it.

    None when that would not be a tail (below the median), as with the
    18 calls of a poisson-base round.
    """
    n = len(values)
    if n < 20:
        return None
    ordered = sorted(values)
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct / 100 * n))
    return pct, ordered[rank - 1], n


def summarize(workload, setup_times, rounds):
    """Time metrics from set-up times and rounds of [(call, seconds)]."""
    samples = [seconds for timed in rounds for _call, seconds in timed]
    out = {"setup_s": statistics.median(setup_times),
           "wall_s": statistics.median(sum(s for _c, s in timed) for timed in rounds),
           "call_ms.p50": 1000 * statistics.median(samples)}
    for kind in CALL_KINDS:
        values = [s for timed in rounds for call, s in timed if kind in call.metrics]
        if not values:
            raise BenchmarkError(f"workload {workload.name} made no {kind} call")
        out[f"{kind}_s"] = statistics.fmean(values)
    return out, samples


def end_to_end(workload, probe, setup_spans, rounds):
    """The end-to-end metrics, in seconds at the probe's reference speed."""
    raw, _ = summarize(workload, [end - start for start, end in setup_spans],
                       [[(call, end - start) for call, start, end in timed] for timed in rounds])
    metrics, samples = summarize(
        workload, [probe.scaled(start, end) for start, end in setup_spans],
        [[(call, probe.scaled(start, end)) for call, start, end in timed] for timed in rounds])
    print("elapsed before scaling: " + json.dumps(raw))
    found = tail([1000 * s for s in samples])
    if found:
        pct, value, n = found
        print(f"call_ms tail: p{pct} = {value:.3f} ms over {n} calls")
    who = resource.RUSAGE_CHILDREN if workload.child_rss else resource.RUSAGE_SELF
    metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def import_seconds(env):
    """Median wall time of a fresh interpreter importing the CLI module."""
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import bialgebroid.cli"], env=env,
                       check=True, capture_output=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def per_layer(tracer, overhead, import_s):
    stats = tracer.stats
    metrics = {}
    for name, unit, key, field in PER_LAYER:
        if field == "layer":
            value = tracer.self_time(key)
        else:
            calls, self_s, count, count2, distinct = stats[key]
            value = {"calls": calls, "self_s": self_s, "count": count, "count2": count2,
                     "count_ratio": count / calls if calls else 0.0,
                     "distinct_ratio": len(distinct) / calls if calls else 0.0}[field]
        metrics[name] = {"value": value, "unit": unit}
    extra = {"cli.import_s": import_s, "trace.overhead_ratio": overhead}
    for name, unit in EXTRA_PER_LAYER:
        metrics[name] = {"value": extra[name], "unit": unit}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = _checkout()
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import oracle
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise BenchmarkError(f"unknown workload {args.workload!r}; "
                             f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    workloads.WORK.mkdir(exist_ok=True)

    start = time.perf_counter()
    data = workload.inputs(args.seed)
    print(f"inputs: {len(workloads.encode(data))} bytes in {time.perf_counter() - start:.3f} s")

    tally = Tally()
    if args.trace == 0:
        setup_spans, rounds = [], []
        with SpeedProbe() as probe:
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                bg = fresh_import(src)
                ctx = workload.setup(bg, data)
                setup_spans.append((start, time.perf_counter()))
            tally.setup_checks(ctx)
            deadline = time.perf_counter() + args.seconds
            while True:
                rounds.append(run_round(workload.calls(ctx, False), tally, oracle))
                if time.perf_counter() >= deadline:
                    break
        print(f"rounds: {len(rounds)}; calls: {sum(len(r) for r in rounds)}; "
              f"wrong verdicts: {tally.wrong}; failed: {tally.failed}/{tally.attempted}")
        metrics = end_to_end(workload, probe, setup_spans, rounds)
        coverage_ok = True
    else:
        bg = fresh_import(src)
        ctx = workload.setup(bg, data)
        tally.setup_checks(ctx)
        untraced = run_round(workload.calls(ctx, True), tally, oracle)
        untraced_s = sum(end - start for _c, start, end in untraced)
        deferred = []
        tracer = tracing.Tracer(bg)
        with tracer:
            ctx = workload.setup(bg, data)
            before = tracer.self_time()
            traced = run_round(workload.calls(ctx, True), tally, oracle, deferred)
            covered = tracer.self_time() - before
        leftovers = tracing.leftover_wrappers()
        if leftovers:
            raise BenchmarkError(f"wrappers left installed: {leftovers}")
        tally.setup_checks(ctx)
        for call, result in deferred:
            tally.judge(call, result, oracle)
        traced_s = sum(end - start for _c, start, end in traced)
        coverage = covered / traced_s
        coverage_ok = COVERAGE_BOUNDS[0] <= coverage <= COVERAGE_BOUNDS[1]
        spans_path = workloads.WORK / f"trace-{workload.name}.jsonl"
        tracer.write_spans(spans_path)
        print(f"traced round {traced_s:.3f} s vs untraced {untraced_s:.3f} s; "
              f"self times cover {coverage:.4f} of it; {len(tracer.spans)} spans "
              f"in {tracer.roots} roots written to {spans_path}")
        print(f"wrong verdicts: {tally.wrong}; failed: {tally.failed}/{tally.attempted}")
        if not coverage_ok:
            _log(f"WRONG trace: self times cover {coverage:.4f} of the traced wall time")
        metrics = per_layer(tracer, traced_s / untraced_s,
                            import_seconds(workloads.cli_environment()))

    result = {"correct": tally.wrong == 0 and coverage_ok, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        sys.exit(2)
