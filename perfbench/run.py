"""farkaskit benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py): `certify`, `probe` and `band`. A single
client runs ops back to back, the next one starting when the previous one
returns, with no threads, for --seconds seconds. Each op's output is checked
exactly; an op that raises or fails its check counts as failed.

--trace 0 prints the end-to-end metrics: set-up time (the median of
SETUP_REPEATS imports of the package plus input generation), throughput,
op latency p50 and p80, and peak RSS. p80 is the highest percentile with
ten ops beyond it in a probe or band run, which holds about 55 ops.
Throughput and latency are given in reference units (`ref`): the wall time
of an op divided by the median wall time of `reference()`, a fixed piece of
`Fraction` arithmetic timed between ops, over the samples nearest the op. A shared host can
change speed by 10-25% over tens of seconds to minutes; the ops and the
reference slow down alike, so the ratio stays put where wall times do not.
The wall figures (ops per second, p50 and p80 in ms, the reference's own
time) are on the info line.

--trace 1 prints the per-layer metrics, from three passes over the same
inputs, each starting at the first op: an untraced pass and a traced pass
of --seconds / 2 each (the ratio of their throughputs in reference units
is the tracing overhead), then a counting pass over the workload's first
`count_ops` ops for calls, pivots, program shape and bit-length. The
counting pass's timings are discarded. Spans of the traced pass are written
to perfbench/out/.

The last line of standard output is the JSON result; the line before it
records the Python version, rational backend, core count, seed and a digest
of the unique outputs of the first `count_ops` ops, which repeats exactly
between two runs of bit-identical code on the same seed. The numbers hold
for the rational backend named there: a run on the fractions.Fraction
fallback is not comparable with a gmpy2 run.

The package is imported from src/ of the checkout this file lives in; the
benchmark exits with status 2 and prints no result when it is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from fractions import Fraction
from types import SimpleNamespace

# The run writes no bytecode caches into the checkout, so every set-up in a
# fresh checkout compiles the package from source, whatever the environment.
sys.dont_write_bytecode = True

from tracing import LPRecorder, PivotCounter, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MODULES = ("rational", "lp", "sets", "calculus", "engine", "duality",
           "semiinf", "polyapprox", "instances", "cli")
SETUP_REPEATS = 5
REFERENCE_TERMS = 200
REFERENCE_EVERY = 0.2
REFERENCE_WINDOW = 9
MAX_REPORTED_FAILURES = 5


class LibraryMissing(Exception):
    pass


def load_library():
    """Import the package afresh from SRC, dropping any earlier import."""
    if not (SRC / "farkaskit" / "__init__.py").is_file():
        raise LibraryMissing(f"no farkaskit package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "farkaskit" or n.startswith("farkaskit.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"farkaskit.{m}")
                             for m in MODULES})
    if Path(lib.lp.__file__).resolve().parent != SRC / "farkaskit":
        raise LibraryMissing(f"farkaskit imported from {lib.lp.__file__}")
    return lib


def set_up(workload, seed):
    """(lib, pool, median set-up seconds) over SETUP_REPEATS set-ups."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        lib = load_library()
        pool = workload.generate(lib, seed)
        times.append(perf_counter() - t0)
    return lib, pool, statistics.median(times)


class Pass:
    """Durations, failures and digest items of one loop over the pool."""

    def __init__(self):
        self.durations = []
        self.failures = []
        self.digest_items = []


def run_pass(workload, lib, pool, seconds=None, ops=None,
             around_op=lambda i: contextlib.nullcontext()):
    """Closed loop from the first op of the pool, until `seconds` have
    passed (at least one op) or `ops` ops are done. `around_op(i)` is a
    context manager entered around op i alone, not around its check."""
    result = Pass()
    deadline = None if seconds is None else perf_counter() + seconds
    i = 0
    while True:
        if ops is not None and i >= ops:
            break
        if deadline is not None and i > 0 and perf_counter() >= deadline:
            break
        item = workload.prepare(pool[i % len(pool)])
        out = error = None
        with around_op(i):
            t0 = perf_counter()
            try:
                out = workload.op(lib, item)
            except Exception as exc:  # an op that raises is a failed op
                error = f"raised {type(exc).__name__}: {exc}"
            t1 = perf_counter()
        if error is None:
            try:
                error = workload.check(lib, item, out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        result.durations.append(t1 - t0)
        if error is not None:
            result.failures.append((i, error))
        if i < workload.count_ops:
            result.digest_items.append(
                "failed" if error else workload.digest_item(lib, item, out))
        i += 1
    return result


def digest(items):
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]


def throughput(durations):
    """Ops per unit of the durations' own unit."""
    return len(durations) / sum(durations)


def percentile(durations, pct):
    if len(durations) == 1:
        return durations[0]
    cuts = statistics.quantiles(durations, n=100, method="inclusive")
    return cuts[pct - 1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def reference():
    """Fixed `Fraction` arithmetic that calls no library code. The ops
    spend their time in the same kind of work, so the host's speed at the
    moment moves both alike."""
    a, acc = Fraction(1, 3), Fraction(0)
    for k in range(1, REFERENCE_TERMS):
        acc += a * Fraction(k, k + 7) - Fraction(2, k)
    return acc


class ReferenceClock:
    """Times `reference()` between ops, at most once per REFERENCE_EVERY
    seconds and outside the ops' own timing, and gives op durations in
    reference units."""

    def __init__(self):
        self.samples = []
        self.latest = []  # per op, the index of the last sample before it
        self.due = 0.0

    def around_op(self, i):
        if perf_counter() >= self.due:
            t0 = perf_counter()
            reference()
            t1 = perf_counter()
            self.samples.append(t1 - t0)
            self.due = t1 + REFERENCE_EVERY
        self.latest.append(len(self.samples) - 1)
        return contextlib.nullcontext()

    def in_refs(self, durations):
        """Each op's duration over the median of the REFERENCE_WINDOW
        samples nearest to it, which follows a change in the host's speed
        within the run more closely than one median for the whole run."""
        half = REFERENCE_WINDOW // 2
        return [d / statistics.median(self.samples[max(0, j - half):
                                                   j + half + 1])
                for d, j in zip(durations, self.latest)]


def end_to_end(workload, lib, pool, seconds, setup_s):
    clock = ReferenceClock()
    p = run_pass(workload, lib, pool, seconds=seconds,
                 around_op=clock.around_op)
    refs = clock.in_refs(p.durations)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_ref": (throughput(refs), "1/ref"),
        "op_p50_ref": (percentile(refs, 50), "ref"),
        "op_p80_ref": (percentile(refs, 80), "ref"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    wall = {"ref_ms": statistics.median(clock.samples) * 1e3,
            "ref_samples": len(clock.samples),
            "ops_per_s": throughput(p.durations),
            "op_p50_ms": percentile(p.durations, 50) * 1e3,
            "op_p80_ms": percentile(p.durations, 80) * 1e3}
    return [p], metrics, wall


def per_layer(workload, lib, pool, seconds, seed):
    plain_clock, traced_clock = ReferenceClock(), ReferenceClock()
    plain = run_pass(workload, lib, pool, seconds=seconds / 2,
                     around_op=plain_clock.around_op)
    tracer = Tracer(lib)

    def traced_op(i):
        traced_clock.around_op(i)
        return tracer.recording(i)

    tracer.install()
    try:
        traced = run_pass(workload, lib, pool, seconds=seconds / 2,
                          around_op=traced_op)
    finally:
        tracer.uninstall()
    tracer.write(HERE / "out" / f"spans-{workload.name}-{seed}.tsv")
    self_s = tracer.self_times()
    counting = Tracer(lib)
    recorder = LPRecorder(lib)
    pivots = PivotCounter(lib)

    @contextlib.contextmanager
    def counting_op(i):
        with counting.recording(i), recorder.recording(), pivots:
            yield

    counting.install()
    recorder.install()
    try:
        counted = run_pass(workload, lib, pool, ops=workload.count_ops,
                           around_op=counting_op)
    finally:
        recorder.uninstall()
        counting.uninstall()
    common = min(len(plain.durations), len(traced.durations))
    n_traced = len(traced.durations)
    op_s = sum(traced.durations)
    k = len(counted.durations)
    calls = counting.call_counts()
    attempted = sum(len(p.durations) for p in (plain, traced, counted))
    failed = sum(len(p.failures) for p in (plain, traced, counted))

    def per_op(*names):
        return sum(calls[n] for n in names) / k

    def self_ms(layer):
        return self_s[layer] * 1e3 / n_traced

    metrics = {
        "lp.calls": (per_op("lp.solve"), "count/op"),
        "lp.repeat_ratio": (recorder.repeats / max(recorder.calls, 1),
                            "ratio"),
        "lp.pivots": (pivots.count / k, "count/op"),
        "lp.self_ms": (self_ms("lp"), "ms/op"),
        "lp.max_bits": (recorder.max_bits, "bits"),
        "lp.rows_max": (recorder.rows_max, "count"),
        "lp.cols_max": (recorder.cols_max, "count"),
        "lp.share": (self_s["lp"] / op_s, "ratio"),
        "engine.self_ms": (self_ms("engine"), "ms/op"),
        "engine.certificate_calls": (
            per_op("engine.find_certificate",
                   "engine.find_reduced_certificate"), "count/op"),
        "duality.self_ms": (self_ms("duality"), "ms/op"),
        "duality.dual_calls": (per_op("duality.solve_dual"), "count/op"),
        "sets.support_calls": (per_op("sets.support"), "count/op"),
        "sets.member_calls": (per_op("sets.member"), "count/op"),
        "sets.self_ms": (self_ms("sets"), "ms/op"),
        "calculus.minimize_calls": (per_op("calculus.minimize_over"),
                                    "count/op"),
        "calculus.self_ms": (self_ms("calculus"), "ms/op"),
        "polyapprox.consistency_calls": (
            per_op("polyapprox.check_consistency"), "count/op"),
        "polyapprox.self_ms": (self_ms("polyapprox"), "ms/op"),
        "semiinf.self_ms": (self_ms("semiinf"), "ms/op"),
        "cli.load_ms": (self_ms("cli"), "ms/op"),
        "trace.overhead_ratio": (
            throughput(traced_clock.in_refs(traced.durations)[:common])
            / throughput(plain_clock.in_refs(plain.durations)[:common]),
            "ratio"),
        "failed_ratio": (failed / attempted, "ratio"),
    }
    return [plain, traced, counted], metrics


def measure(workload, seed, seconds, trace):
    """One run: (info, result) as printed on the last two output lines."""
    lib, pool, setup_s = set_up(workload, seed)
    wall = {}
    if trace:
        passes, metrics = per_layer(workload, lib, pool, seconds, seed)
    else:
        passes, metrics, wall = end_to_end(workload, lib, pool, seconds,
                                           setup_s)
    failures = [f for p in passes for f in p.failures]
    for i, message in failures[:MAX_REPORTED_FAILURES]:
        print(f"op {i} failed: {message}", file=sys.stderr)
    Q = lib.rational.Q
    info = {
        "workload": workload.name,
        "seed": seed,
        "python": platform.python_version(),
        "backend": f"{Q.__module__}.{Q.__qualname__}",
        "nproc": len(os.sched_getaffinity(0)),
        "pool": len(pool),
        "ops_per_pass": [len(p.durations) for p in passes],
        "digest": digest(passes[-1].digest_items),
        "digest_ops": len(passes[-1].digest_items),
        **wall,
    }
    result = {
        "correct": not failures,
        "attempted": sum(len(p.durations) for p in passes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return info, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        info, result = measure(WORKLOADS[args.workload](), args.seed,
                               args.seconds, args.trace)
    except LibraryMissing as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
