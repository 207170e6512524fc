"""One benchmark process: set up a workload, then run it timed or traced.

Started by run.py in a fresh interpreter with BLAS and OpenMP pinned to one
thread; it pins itself to one core and prints one JSON object on its last
stdout line. Setup covers import, input generation, written files,
pre-built spaces and one untimed warm-up op of each kind;
`first_op_monotonic` marks its end on the system-wide monotonic clock, so
the parent can time setup from spawn.

Timed mode runs whole passes of the op list in a closed loop with one
client until the budget is spent. After every op it times the probe, a
fixed piece of work outside the library, so run.py can tell how fast the
machine ran during each pass. Trace mode alternates an untraced and a
traced pass over the same ops, checks that both give identical outputs,
and reports per-layer metrics per pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# spans written per traced run; later spans are counted, not kept
KEEP_SPANS = 20_000
# report at most this many failure reasons
MAX_REASONS = 5

PROBE_ARRAY = numpy.linspace(0.0, 1.0, 32)


def import_library():
    """Import horizonrisk from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import horizonrisk

    if Path(horizonrisk.__file__).resolve().parent != (SRC / "horizonrisk").resolve():
        raise ImportError(f"horizonrisk imported from {horizonrisk.__file__}, not {SRC}")


def run_op(workload, op):
    """(seconds, summary, failure reason) of one op; the check is untimed."""
    start = perf_counter()
    try:
        raw = op.call()
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        return perf_counter() - start, None, f"{op.key}: {type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    try:
        summary = op.summarize(raw)
        problem = workload.check(op, raw, summary)
    except Exception as exc:  # output that cannot be read is a wrong output
        return seconds, None, f"{op.key}: unreadable output: {type(exc).__name__}: {exc}"
    return seconds, summary, problem and f"{op.key}: {problem}"


def run_pass(workload, tracer=None):
    """Every op of the workload once, in order: [(op, seconds, summary, reason)]."""
    results = []
    for op in workload.ops:
        if tracer is not None:
            tracer.op_key = op.key
        results.append((op, *run_op(workload, op)))
    return results


def probe() -> float:
    """Seconds the probe takes: a pure-Python loop and small-array numpy
    calls, the two kinds of work the library's ops are made of. No change
    to the library changes it, so it measures the machine's speed alone."""
    start = perf_counter()
    acc = 0.0
    for i in range(20_000):
        acc += (i & 7) * 0.25
    for _ in range(100):
        acc += float(numpy.exp(-PROBE_ARRAY * 1e-3).sum())
    return perf_counter() - start


def warm_up(workload):
    """One untimed op of each kind. An op that fails here fails again in the
    timed passes, where it is counted."""
    seen = set()
    for op in workload.ops:
        if op.kind not in seen:
            seen.add(op.kind)
            run_op(workload, op)


def timed(workload, budget):
    """Whole passes until the budget is spent. A new pass starts only if a
    whole pass more still fits, so a run never overshoots by more than its
    first pass. Each sample is (kind, op seconds, seconds of the probe
    run right after the op)."""
    samples, reasons = [], []
    failed = passes = 0
    start = perf_counter()
    while True:
        for op in workload.ops:
            seconds, _summary, reason = run_op(workload, op)
            samples.append((op.kind, seconds, probe()))
            if reason:
                failed += 1
                reasons.append(reason)
        passes += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / passes > budget:
            break
    return {
        "samples": samples,
        "failed": failed,
        "reasons": reasons[:MAX_REASONS],
        "passes": passes,
        "elapsed_s": elapsed,
    }


def traced(workload, budget, spans_path):
    """Untraced and traced passes in turn until the budget is spent."""
    from tracing import Tracer

    tracer = Tracer(keep_spans=KEEP_SPANS)
    untraced_s = traced_s = 0.0
    attempted = failed = passes = 0
    reasons = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        plain = run_pass(workload)
        t1 = perf_counter()
        tracer.install()
        try:
            with_trace = run_pass(workload, tracer)
        finally:
            tracer.uninstall()
        t2 = perf_counter()
        untraced_s += t1 - t0
        traced_s += t2 - t1
        passes += 1
        for (op, _, summary, reason), (_, _, summary_t, reason_t) in zip(plain, with_trace):
            attempted += 2
            problems = [r for r in (reason, reason_t) if r]
            if not problems and summary != summary_t:
                problems = [f"{op.key}: traced output differs from untraced output"]
            failed += len(problems)
            reasons += problems
        elapsed = perf_counter() - start
        if elapsed + elapsed / passes > budget:
            break
    with spans_path.open("w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(dict(zip(("id", "parent", "name", "start", "end", "op"), span))))
            fh.write("\n")
    return {
        "metrics": tracer.layer_metrics(passes, traced_s / untraced_s - 1.0),
        "calls": dict(tracer.calls),
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons[:MAX_REASONS],
        "passes": passes,
        "elapsed_s": elapsed,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.spans_dropped,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--worker", type=int, default=0, help="index of this worker in its run")
    parser.add_argument("--budget", type=float, required=True, help="seconds of measurement")
    parser.add_argument("--mode", choices=["timed", "trace"], required=True)
    parser.add_argument("--out", type=Path, required=True, help="directory for written files")
    args = parser.parse_args(argv)

    # one core: a process that migrates between cores times about three
    # times noisier on a shared 2-core machine
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import_library()
    import workloads

    args.out.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out))
    try:
        workload = workloads.build(args.workload, args.seed, workdir, args.worker)
        warm_up(workload)
        first_op = time.monotonic()
        if args.mode == "timed":
            result = timed(workload, args.budget)
        else:
            spans = args.out / f"spans-{args.workload}-seed{args.seed}.jsonl"
            result = traced(workload, args.budget, spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["first_op_monotonic"] = first_op
    result["ops_per_pass"] = len(workload.ops)
    runs_per_op = result["passes"] * (2 if args.mode == "trace" else 1)
    result["ops_per_kind"] = dict(Counter(op.kind for op in workload.ops * runs_per_op))
    result["numpy"] = numpy.__version__
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
