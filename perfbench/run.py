"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  It builds the compiled solver kernel
in place when the build is missing or stale, runs the workload, checks
every answer, prints context lines (raw times, calibrations, sample
counts) and ends with one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Without the program's sources next to
the benchmark it exits with status 2 and prints no result.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
KERNEL_SOURCE = os.path.join(ROOT, "src", "repro", "sat", "_ckernel.c")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "setuptools")


def metric_units(kind: str) -> dict:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def checkout_problem() -> str:
    for path in ("setup.py", "src/repro/__init__.py", "src/repro/sat/_ckernel.c"):
        if not os.path.exists(os.path.join(ROOT, path)):
            return f"{path} is missing; run from the root of a full checkout"
    return ""


def ensure_kernel() -> None:
    """Build ``repro.sat._ckernel`` in place unless an up-to-date build exists."""
    pattern = os.path.join(ROOT, "src", "repro", "sat", "_ckernel*.so")
    source_time = os.path.getmtime(KERNEL_SOURCE)
    if any(os.path.getmtime(path) >= source_time for path in glob.glob(pattern)):
        return
    result = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace",
         "--build-temp", os.path.join(BUILD_DIR, "temp"),
         "--build-lib", os.path.join(BUILD_DIR, "lib")],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=600,
    )
    if result.returncode != 0:
        raise SystemExit(f"kernel build failed:\n{result.stdout[-4000:]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="STEP reproduction benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["paper_sweep", "service_hot", "service_cold"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    problem = checkout_problem()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    ensure_kernel()
    # The benchmark picks the substrate, backend and cache for the program
    # itself, in this process and in every child it starts.
    for name in ("STEP_CACHE_DIR", "STEP_BACKEND", "STEP_PURE_PYTHON"):
        os.environ.pop(name, None)
    sys.path.insert(0, HERE)
    import inputs

    inputs.add_source_path()
    import topology
    import workloads

    def out(line: str) -> None:
        print(line, flush=True)

    try:
        metrics, tally = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), out
        )
    except (workloads.BenchmarkError, topology.TopologyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workloads.WORK_ROOT, ignore_errors=True)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
