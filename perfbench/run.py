"""Run one proxkern benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fit-wide --seed 1 --seconds 50 --trace 0

Run from the repository root.  The program under test is imported from
``src/`` next to this directory, never from an installed copy.  The last line
of standard output is the result object; the line before it is the run's
record (sizes, environment, sample counts, gate failures and, when traced,
layer shares).  With ``--trace 1`` spans are also written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# One BLAS thread.  On a 2-vCPU VM with OpenBLAS on 2 threads, a second busy
# process made fits 10x and CV calls 16x slower; on 1 thread they lost under
# 15%.  Two threads only paid off on the m=1000 fit.
BLAS_THREADS = 1


def pin_blas_threads() -> int:
    """Pin BLAS to ``BLAS_THREADS`` (at most the usable CPUs) before numpy loads."""
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def import_program():
    """Put the repository's ``src`` first on the path and import proxkern from it."""
    src = ROOT / "src"
    if not (src / "proxkern" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no proxkern sources under {src}")
    sys.path.insert(0, str(src))
    import proxkern

    if src.resolve() not in Path(proxkern.__file__).resolve().parents:
        raise SystemExit(f"perfbench: proxkern was imported from {proxkern.__file__}")
    return proxkern


def environment(threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        vendor = "unknown"
    return {
        "blas": vendor,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": f"{platform.system()} {platform.machine()}",
    }


def result(run, spec: dict, trace: bool) -> dict:
    values = run.per_layer() if trace else run.end_to_end()
    metrics = {}
    correct = run.failed == 0
    for entry in spec["per_layer" if trace else "end_to_end"]:
        value = values[entry["name"]]
        if not math.isfinite(value):
            correct = False
            run.failures.append(f"metric {entry['name']} was not measured")
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = pin_blas_threads()
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit(f"perfbench: {spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    import_program()
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
        run.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    out = result(run, spec, bool(args.trace))
    record = run.record()
    record["env"] = environment(threads)
    if args.trace:
        spans_dir = ROOT / ".perfbench_out"
        spans_dir.mkdir(exist_ok=True)
        spans_path = spans_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        run.tracer.write(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
    print(json.dumps({"record": record}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
