"""Run one workload of the horizonrisk benchmark and print its metrics.

    python3 bench/run.py --workload stop-d4 --seed 0 --seconds 50 --trace 0

Run from the root of a checkout: the library is imported from its src/.
With --trace 0 the workload runs in WORKERS fresh single-threaded worker
processes, one after the other, each set up from scratch and measuring a
share of --seconds. Every timing is rescaled by how fast the machine ran
the probe at the time (see scaled_samples). With --trace 1 one worker
times every traced module from outside and reports per-layer metrics.

Every metric is printed by name with its unit, then the last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}. A
result file with the run's metadata is written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("s4-cli", "stop-d4")
WORKERS = 6
# every timing is given at the machine speed at which the worker's probe
# takes this long; never change it, or old and new figures stop comparing
PROBE_NOMINAL_S = 2e-3
# every run exits well within the 180 s the benchmark contract allows
DEADLINE_S = 170.0

# BLAS and OpenMP pools pinned to one thread in every worker
THREAD_PINNING = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

RUN_KINDS = ("run_simple", "run_modified", "run_terminal", "run_bellman")
# each workload runs one of these: monotonicity has no CLI command, and
# check-axioms is a CLI command only
AUDIT_KINDS = ("monotonicity", "check_axioms")

# (name, unit) of the end-to-end metrics every workload reports
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    *((f"{kind}_mean_ms", "ms") for kind in RUN_KINDS),
    ("acceptability_mean_ms", "ms"),
    ("audit_mean_ms", "ms"),
]


def git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def spawn_worker(args, index: int, mode: str, budget: float, deadline: float) -> tuple[dict, float]:
    """Run worker `index` to completion; returns its result and its set-up
    time from spawn to first timed op."""
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--worker", str(index),
        "--budget", repr(budget), "--mode", mode, "--out", str(OUT_DIR),
    ]
    env = dict(os.environ, **THREAD_PINNING)
    env.pop("PYTHONPATH", None)
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["first_op_monotonic"] - spawned


def scaled_samples(result: dict) -> list[tuple[str, float]]:
    """(kind, ms) of every timed op of one worker, each pass rescaled to
    the speed at which the probe takes PROBE_NOMINAL_S.

    The machine's speed drifts: in one run the probe's median time was
    1.9 ms in one worker and 2.8 ms in the next, and slow stretches
    outlast a run, so raw wall times of the same code spread by up to
    0.47 of their median over ten runs. The probe runs after every op,
    so a pass's mean probe time measures the machine's speed during that
    pass. This ratio of means was steadier than rescaling each op by the
    probes next to it."""
    samples = result["samples"]
    n = result["ops_per_pass"]
    out = []
    for start in range(0, len(samples), n):
        chunk = samples[start:start + n]
        scale = PROBE_NOMINAL_S / statistics.fmean(probe for _, _, probe in chunk)
        out += [(kind, seconds * 1e3 * scale) for kind, seconds, _ in chunk]
    return out


def end_to_end(results: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """The END_TO_END metrics, and extra report-only figures: the failed
    share, the mean latency of the audit command the workload runs, and
    the unscaled op p50 and mean probe time, which show the machine's
    own speed during the run.

    Timings pool the rescaled samples of all workers. A worker's set-up
    time is rescaled like its first pass, which follows it at once;
    setup_s is the median over workers."""
    samples = [sample for r in results for sample in scaled_samples(r)]
    ms = [t for _, t in samples]
    by_kind: dict[str, list[float]] = {}
    for kind, t in samples:
        by_kind.setdefault(kind, []).append(t)
        if kind in AUDIT_KINDS:
            by_kind.setdefault("audit", []).append(t)

    def setup_scale(result: dict) -> float:
        first_pass = result["samples"][:result["ops_per_pass"]]
        return PROBE_NOMINAL_S / statistics.fmean(probe for _, _, probe in first_pass)

    metrics = {
        "setup_s": statistics.median(setup * setup_scale(r) for r, setup in zip(results, setups)),
        "ops_per_s": len(ms) * 1e3 / sum(ms),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10)[8],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        **{f"{kind}_mean_ms": statistics.fmean(v) for kind, v in by_kind.items()},
    }
    raw = [(seconds, probe) for r in results for _, seconds, probe in r["samples"]]
    extra = {
        "ops_failed_frac": sum(r["failed"] for r in results) / len(samples),
        **{f"{kind}_mean_ms": metrics.pop(f"{kind}_mean_ms")
           for kind in AUDIT_KINDS if f"{kind}_mean_ms" in metrics},
        "unscaled_op_p50_ms": statistics.median(seconds * 1e3 for seconds, _ in raw),
        "probe_mean_ms": statistics.fmean(probe * 1e3 for _, probe in raw),
    }
    return {name: metrics[name] for name, _ in END_TO_END}, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "horizonrisk" / "__init__.py").is_file():
        print(f"error: no horizonrisk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)

    try:
        if args.trace:
            result, _ = spawn_worker(args, 0, "trace", args.seconds, deadline)
            results = [result]
            metrics = {name: (result["metrics"][name], unit) for name, unit, _ in LAYER_METRICS}
            attempted, failed = result["attempted"], result["failed"]
            extra = {}
        else:
            results, setups = [], []
            for index in range(WORKERS):
                result, setup = spawn_worker(args, index, "timed", args.seconds / WORKERS, deadline)
                results.append(result)
                setups.append(setup)
            values, extra = end_to_end(results, setups)
            metrics = {name: (values[name], unit) for name, unit in END_TO_END}
            attempted = sum(len(r["samples"]) for r in results)
            failed = sum(r["failed"] for r in results)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for reason in (reason for r in results for reason in r["reasons"]):
        print(f"failed op: {reason}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for name, value in extra.items():
        print(f"{name} {value:.6g} {'ratio' if name.endswith('frac') else 'ms'}")

    ops_per_kind: dict[str, int] = {}
    for r in results:
        for kind, count in r["ops_per_kind"].items():
            ops_per_kind[kind] = ops_per_kind.get(kind, 0) + count
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": results[0]["numpy"],
        "nproc": os.cpu_count(),
        "thread_pinning": THREAD_PINNING,
        "probe_nominal_s": PROBE_NOMINAL_S,
        "workers": len(results),
        "passes": [r["passes"] for r in results],
        "ops_per_pass": results[0]["ops_per_pass"],
        "ops_per_kind": ops_per_kind,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "report_only": extra,
    }
    if args.trace:
        record["trace_run"] = {k: v for k, v in results[0].items() if k != "metrics"}
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
