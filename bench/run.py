"""Benchmark of ranksieve as a Monte Carlo engine and as a CLI estimator.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload mc-baseline --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics.  The ops run back to back
(a closed loop with one caller) until ``--seconds`` have passed and at least
MIN_OPS ops are done, so that the tail percentile is defined.

``--trace 1`` gives the per-layer metrics.  It runs a fixed number of ops,
set by ``--seconds`` alone so that counts repeat exactly for a seed.  Each
op runs twice on the same seeds: untraced, then with layer spans.  The two
runs must produce bit-identical outputs, and every traced fit must match the
brute-force criterion oracle.

The program is imported from ``src/`` of the checkout this file sits in.
Human-readable lines go first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every check passed, and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_OPS = 13
SETUP_REPEATS = 5
SETUP_SNIPPET = "import ranksieve, ranksieve.cli"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}


def measure_setup_s() -> float:
    """Median wall time for a fresh interpreter to import the program."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail(times: list) -> tuple[float, int]:
    """(value, p) at the highest whole percentile p with >= 10 ops beyond it."""
    n = len(times)
    p = (100 * (n - 10)) // n
    rank = max(1, math.ceil(p * n / 100))
    return sorted(times)[rank - 1], p


def run_checked(workload, i: int, timed: list):
    """Run op i, append its wall time to ``timed``; check it untimed."""
    from workloads import OpOutput

    t0 = time.perf_counter()
    try:
        raw = workload.run_op(i)
    except Exception:  # an op that raises is a failed op; the run goes on
        timed.append(time.perf_counter() - t0)
        return OpOutput([f"raised:\n{traceback.format_exc()}"])
    timed.append(time.perf_counter() - t0)
    return workload.check_op(raw)


def timed_run(workload, args) -> tuple[dict, list, int, int]:
    setup_s = measure_setup_s()
    times, outputs = [], []
    start = time.perf_counter()
    i = 0
    while True:
        outputs.append(run_checked(workload, i, times))
        i += 1
        if time.perf_counter() - start >= args.seconds and i >= MIN_OPS:
            break
    wall = time.perf_counter() - start
    failed = sum(1 for o in outputs if o.problems)
    problems = [f"op {k}: {p}" for k, o in enumerate(outputs) for p in o.problems]
    problems += workload.check_run(outputs)
    tail_s, tail_p = tail(times)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(times) / wall,
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_s,
        "ok_share": (len(outputs) - failed) / len(outputs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"ops: {len(times)} in {wall:.3f} s; op_s_tail is p{tail_p} of {len(times)} ops")
    return metrics, problems, len(outputs), failed


def criteria(fits) -> list:
    """Bit patterns of the criterion values of logged fits."""
    return [float(fit.criterion_value).hex() for _, _, fit in fits]


def traced_op_count(workload, seconds: int) -> int:
    """Ops in a traced run: their untraced and traced runs fill about ``seconds``."""
    return max(2, round(seconds / (2.2 * workload.nominal_op_s)))


def traced_run(workload, args) -> tuple[dict, list, int, int]:
    import layers
    from checks import FitLog, oracle_problems
    from tracing import Tracer

    n = traced_op_count(workload, args.seconds)
    fitlog = FitLog()
    tracer = Tracer()
    plain_times, plain_out, traced_times, traced_out = [], [], [], []
    n_fits = 0
    covered = 0.0

    def logged_op(i: int, out: list, times: list, traced: bool) -> list:
        """Run op i with every fit logged, and with spans if ``traced``."""
        fitlog.install()
        if traced:
            # Installed over the logger, so the optimize.fit span covers it.
            layers.install(tracer)
            tracer.start_op()
        try:
            out.append(run_checked(workload, i, times))
        finally:
            tracer.restore()
            fitlog.restore()
        return fitlog.take()

    # Each op runs untraced and then traced, one right after the other, so
    # that drift in the machine's speed does not show up as tracing overhead.
    for i in range(n):
        plain_fits = logged_op(i, plain_out, plain_times, traced=False)
        traced_fits = logged_op(i, traced_out, traced_times, traced=True)
        covered += tracer.covered_s()
        n_fits += len(traced_fits)
        # A traced op that disagrees with its untraced twin or with the
        # oracle is a failed op, like one that fails its output checks.
        out = traced_out[i]
        if plain_out[i].digest != out.digest or criteria(plain_fits) != criteria(traced_fits):
            out.problems.append("traced output differs from untraced output")
        out.problems += oracle_problems(traced_fits)

    outputs = plain_out + traced_out
    failed = sum(1 for o in outputs if o.problems)
    problems = [f"op {k % n}: {p}" for k, o in enumerate(outputs) for p in o.problems]
    problems += workload.check_run(plain_out) + workload.check_run(traced_out)
    print(f"ops: {n} untraced + {n} traced; oracle checked {n_fits} fits")

    ok = [o for o in traced_out if not o.problems]
    metrics = layers.metrics(
        tracer,
        n,
        [o.mse_rank for o in ok] or [0.0],
        [o.mse_ols for o in ok] or [0.0],
        overhead=statistics.median(traced_times) / statistics.median(plain_times) - 1.0,
        coverage=covered / sum(traced_times),
    )
    return metrics, problems, len(outputs), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (SRC / "ranksieve" / "__init__.py").is_file():
        print(f"error: no ranksieve sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ranksieve

    if Path(ranksieve.__file__).resolve().parent != SRC / "ranksieve":
        print(f"error: imported ranksieve from {ranksieve.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_work-") as workdir:
        workload.setup(args.seed, workdir)
        run = traced_run if args.trace else timed_run
        metrics, problems, attempted, failed = run(workload, args)

    units = layers.UNITS if args.trace else END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
