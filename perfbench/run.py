"""arrangerank benchmark: one workload per process, single thread, BLAS pinned to 1.

Run from the root of an arrangerank checkout:

    python3 perfbench/run.py --workload study --seed 1 --seconds 20 --trace 0

Workloads are ``study``, ``rerank`` and ``oracle`` (see workloads.py). The
run builds its inputs from ``--seed``, repeats the workload's set-up, then
runs timed passes until ``--seconds`` have elapsed (and each workload's
minimum is met), checks every output, and prints a human-readable report
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes (their difference is the tracing overhead), runs
the per-layer sweep of probe.py, writes every span to
``.benchrun/trace-<workload>-seed<seed>.jsonl`` and reports the per-layer
metrics. Each run also writes its report to ``.benchrun/``.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".benchrun"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("study", "rerank", "oracle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs, for the benchmark's own test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "arrangerank" / "__init__.py").is_file():
        print(f"error: no arrangerank sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import arrangerank

    if Path(arrangerank.__file__).resolve().parent != (SRC / "arrangerank").resolve():
        print(f"error: imported arrangerank from {arrangerank.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from harness import run_workload

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                      args.size, workdir, ROOT, OUT_DIR)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps({**report, "result": result}, indent=1) + "\n")
    for key, value in report.items():
        print(f"{key}: {json.dumps(value)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
