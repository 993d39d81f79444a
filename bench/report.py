"""Run every workload, print every metric by name with its unit.

Usage, from the root of a source checkout:

    python3 bench/report.py --seeds 1 2 3 [--out FILE]

For each workload of BENCHMARK.json, ``run.py --trace 0`` runs once per seed
and ``--trace 1`` once, on the first seed, each for ``run_seconds``.
End-to-end metrics print as the median and quartiles over the seeds, with
the spread (quartile distance over median) the benchmark's bounds are
checked against; per-layer metrics print as measured.  ``--out`` also
writes every result, with the machine it was measured on, as JSON.  The
exit code is non-zero when any run fails its checks or reports other
metrics than BENCHMARK.json lists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def blas_threads():
    """Thread count of numpy's OpenBLAS, or None if it cannot be asked."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if line.startswith(("CHECK FAILED", "ops:")):
            print(f"  [{workload} seed {seed} trace {trace}] {line}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
        print(proc.stderr, file=sys.stderr)
    result["exit_code"] = proc.returncode
    return result


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    seconds = spec["run_seconds"]
    report = {"machine": machine_info(), "seconds": seconds, "seeds": args.seeds, "workloads": {}}
    print(json.dumps(report["machine"]))
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, s, seconds, 0) for s in args.seeds]
        traced = run_once(workload, args.seeds[0], seconds, 1)
        entry = {"end_to_end": {}, "per_layer": {}, "runs": runs, "traced": traced}
        for result, trace in [(r, 0) for r in runs] + [(traced, 1)]:
            reported = {k: v["unit"] for k, v in result["metrics"].items()}
            if result["exit_code"] != 0 or not result["correct"] or reported != units[trace]:
                ok = False
                print(f"{workload}: a trace {trace} run failed or reported other metrics")
        for name, unit in units[0].items():
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            entry["end_to_end"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"{workload:15s} {name:32s} {med:12.6g} {unit:6s} "
                  f"[{q1:.6g}, {q3:.6g}] spread {spread:.4f}")
        for name, unit in units[1].items():
            if name in traced["metrics"]:
                value = traced["metrics"][name]["value"]
                entry["per_layer"][name] = value
                print(f"{workload:15s} {name:32s} {value:12.6g} {unit}")
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
