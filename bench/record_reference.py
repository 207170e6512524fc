"""Record the default-seed reference outputs the benchmark checks against.

    python3 bench/record_reference.py [workload ...]

Runs one pass of each named workload (all by default) at the default seed,
as each of a run's workers builds it, and writes reference/<workload>.json.
Refuses to record an output that breaks one of its invariants. Re-record
only when a change to the library is meant to change its results, and say
so with the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import WORKERS
from worker import ROOT, import_library


def record(name: str) -> Path:
    import workloads

    reference = {}
    for index in range(WORKERS):
        with tempfile.TemporaryDirectory(dir=ROOT / "bench") as tmp:
            workload = workloads.build(name, workloads.DEFAULT_SEED, Path(tmp), index)
            for op in workload.ops:
                if op.key in reference:
                    continue
                raw = op.call()
                summary = op.summarize(raw)
                problem = op.invariant(raw, summary)
                if problem:
                    raise SystemExit(f"{name} {op.key}: {problem}; not recorded")
                reference[op.key] = summary
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    path = workloads.REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return path


def main(argv: list[str]) -> int:
    import_library()
    import workloads

    for name in argv or list(workloads.BY_NAME):
        print(record(name))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
