"""Benchmark entry point.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 15 --trace 0

Run from the repository root.  Prints each metric with its unit, the
operations attempted and failed, and as the last line one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
"""

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve_hot", "serve_cold", "register"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "adapterdistill" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'adapterdistill'}", file=sys.stderr)
        return 2
    # The client is one thread; keep it on the last allowed CPU, away from
    # CPU 0, which takes most device interrupts.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    # A terminated run still removes its working directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = OUT / f"work-{os.getpid()}"
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        run, metrics, notes = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir, trace_path)
    except workloads.SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in run.problems[:50]:
        print(f"check failed: {problem}", file=sys.stderr)
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    print(f"attempted {run.attempted}  failed {run.failed}  correct {not run.problems}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
