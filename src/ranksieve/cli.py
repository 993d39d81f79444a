"""Command-line interface.

Subcommands:

* ``simulate``  - run a Monte Carlo sweep from a JSON config and write the
  MSE table plus per-cell curve CSVs.
* ``estimate``  - fit the rank estimator and the series least-squares
  comparison on a CSV dataset and write both curves on a grid.  The
  optimizer's starts run on all cores when worker processes fork and the
  sample has at least ``POOL_MIN_ROWS`` rows, else in this process; the fit
  and every output are the same either way.
* ``aggregate`` - combine curve CSVs pointwise (mean or median).
* ``summary``   - print a six-number summary per selected column.

Exit codes: 0 success, 1 usage/config/file error, 2 data error, 3 numerical
failure.  All numeric output is printed with 6 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import errno
import glob
import json
import multiprocessing
import os
import sys
from typing import Callable

import numpy as np

from .aggregate import LocalEstimateSet, aggregate_lad, aggregate_ls
from .dataio import FMT, DatasetSchema, _parse_number, load_csv, summary_stats, write_csv
from .errors import DataError, NumericalError
from .optimize import (
    DiscreteW,
    FullRank,
    OptimizerConfig,
    Pairwise,
    Weighted,
    evaluate_on_grid,
    maximize_rank_criterion,
    series_ols,
)
from .rankcrit import _KERNEL_FAMILIES, KernelSpec
from .simulate import MCConfig, run_monte_carlo, write_summary_csvs
from .sieve import _as_float, _as_floats, _as_int, sieve_spec_from_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

# Below this many rows a pool of forked workers saves less than it costs to
# start: on 2 cores the 20-start fit took 0.11 s in-process and 0.084 s with 2
# workers at n = 1000, and broke even near n = 250.
POOL_MIN_ROWS = 1000


class ConfigError(Exception):
    """Unusable configuration file or option combination."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_config(path: str, build: Callable):
    """``build`` applied to the JSON object in ``path``.

    An unreadable file, invalid JSON, or an object ``build`` rejects (a
    missing key, an out-of-range index, a value of the wrong type or range)
    becomes a :class:`ConfigError` that names the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    try:
        return build(obj)
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from exc
    except (IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _build_grid(obj: dict) -> np.ndarray:
    """Evaluation grid from a JSON description.

    Supported forms:
      {"points": [[...], ...]}                              explicit points
      {"linspace": {"coord": j, "start": a, "stop": b, "num": m,
                    "base": [...]}}                          vary one coordinate
      {"product": {"axes": [{"coord":, "start":, "stop":, "num":}, ...],
                   "base": [...]}}                           row-major product grid
    """
    if "points" in obj:
        return np.atleast_2d(_as_floats("points", obj["points"]))
    if "linspace" in obj:  # a product grid with one axis
        spec = {"axes": [obj["linspace"]], "base": obj["linspace"]["base"]}
    elif "product" in obj:
        spec = obj["product"]
    else:
        raise ValueError("grid must contain 'points', 'linspace' or 'product'")
    base = _as_floats("base", spec["base"])
    axes = spec["axes"]
    grids = []
    for a in axes:
        num = _as_int("num", a["num"])
        if num < 1:
            raise ValueError(f"num must be at least 1, got {num}")
        grids.append(np.linspace(_as_float("start", a["start"]), _as_float("stop", a["stop"]), num))
    mesh = np.meshgrid(*grids, indexing="ij")
    pts = np.tile(base, (mesh[0].size, 1))
    for axis, m in zip(axes, mesh):
        coord = _as_int("coord", axis["coord"])
        if not 0 <= coord < base.size:  # a negative index would select a column from the end
            raise ValueError(f"coord {coord} is out of bounds for {base.size} grid columns")
        pts[:, coord] = m.ravel()
    return pts


def _write_curve_csv(path: str, grid: np.ndarray, columns: dict) -> None:
    header = [f"z_{j}" for j in range(grid.shape[1])] + list(columns)
    write_csv(path, header, np.column_stack([grid, *columns.values()]))


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    overrides = {
        key: value
        for key, value in (("master_seed", args.seed), ("replications", args.replications))
        if value is not None
    }
    cfg = _read_config(args.config, lambda obj: MCConfig.from_dict({**obj, **overrides}))
    os.makedirs(args.out_dir, exist_ok=True)  # fail before the sweep, not after it
    summary = run_monte_carlo(cfg)
    paths = write_summary_csvs(summary, args.out_dir)
    for cell in summary.cells:
        print(
            f"cell {cell.tag}: mse_rank={FMT % cell.mse_rank} "
            f"mse_ols={FMT % cell.mse_ols} ks_reject_rate={FMT % cell.ks_reject_rate} "
            f"failed={cell.n_failed}/{cell.replications}"
        )
    if summary.failures:
        print(f"{len(summary.failures)} replication(s) failed; see summary above")
    print(f"wrote {len(paths)} file(s) to {args.out_dir} in {summary.seconds:.1f}s")
    return EXIT_OK


def _make_variant(args):
    if args.variant == "full":
        return FullRank()
    if args.variant == "discrete-w":
        if args.w0 is None:
            raise ConfigError("--w0 is required for variant 'discrete-w'")
        return DiscreteW(np.asarray(args.w0, dtype=float))
    if args.bandwidth is None:
        raise ConfigError(f"--bandwidth is required for variant {args.variant!r}")
    kernel = KernelSpec(args.kernel, np.asarray(args.bandwidth, dtype=float))
    if args.variant == "weighted":
        if args.w0 is None:
            raise ConfigError("--w0 is required for variant 'weighted'")
        return Weighted(np.asarray(args.w0, dtype=float), kernel)
    return Pairwise(kernel)


def _load_dataset(args):
    """Schema and sample named by --schema and --data; prints the row counts."""
    schema = _read_config(args.schema, DatasetSchema.from_dict)
    sample, report = load_csv(args.data, schema)
    print(
        f"loaded {report.rows_kept} rows from {args.data} "
        f"({report.rows_dropped} dropped of {report.rows_read})"
    )
    return schema, sample


def _fit_jobs(sample) -> int:
    """``n_jobs`` for estimate's fit: 0 (all cores) or 1 (this process).

    Workers that start by ``spawn`` or ``forkserver`` re-import numpy for
    each fit, which made a 4000-row fit slower than in-process on 2 cores,
    so only forked workers on a sample of ``POOL_MIN_ROWS`` rows or more get
    the pool.
    """
    if sample.n < POOL_MIN_ROWS or multiprocessing.get_start_method() != "fork":
        return 1
    return 0


def _cmd_estimate(args) -> int:
    # fail before the fit, not after it
    if os.path.isdir(args.out):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)
    if not os.path.isdir(os.path.dirname(args.out) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
    _, sample = _load_dataset(args)
    spec = _read_config(args.spec, lambda obj: sieve_spec_from_json(obj, z=sample.z))
    variant = _make_variant(args)
    grid = _read_config(args.grid, _build_grid)
    if grid.shape[1] != sample.d_z:
        raise ConfigError(
            f"grid dimension {grid.shape[1]} does not match regressor dimension {sample.d_z}"
        )
    opt = OptimizerConfig(rng_seed=args.seed)
    # positional: wrappers of this name may pass arguments on as *args
    fit = maximize_rank_criterion(sample, spec, variant, opt, _fit_jobs(sample))
    ols = series_ols(sample, spec)
    _write_curve_csv(
        args.out,
        grid,
        {"rank": evaluate_on_grid(fit, grid), "ols": evaluate_on_grid(ols, grid)},
    )
    flag = " (degenerate fit)" if fit.degenerate else ""
    print(f"rank criterion value: {FMT % fit.criterion_value}{flag}")
    print(f"wrote {grid.shape[0]} grid rows to {args.out}")
    return EXIT_OK


def _cmd_aggregate(args) -> int:
    paths = sorted(glob.glob(args.curves))
    if not paths:
        raise DataError(f"no files match {args.curves!r}")
    grid_ref = None
    curves = []
    for path in paths:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or args.column not in reader.fieldnames:
                raise DataError(f"{path}: column {args.column!r} not found")
            zcols = [c for c in reader.fieldnames if c.startswith("z_")]
            rows = list(reader)
        if not rows:
            raise DataError(f"{path}: empty curve file")
        # the header is line 1
        cells = np.array([
            [_parse_number(path, line_no, c, r[c]) for c in zcols + [args.column]]
            for line_no, r in enumerate(rows, start=2)
        ])
        grid = cells[:, :-1]
        if grid_ref is None:
            grid_ref = grid
        elif grid.shape != grid_ref.shape or not np.array_equal(grid, grid_ref):
            raise DataError(f"{path}: grid differs from {paths[0]}")
        curves.append(cells[:, -1])
    estimates = LocalEstimateSet(grid=grid_ref, curves=np.vstack(curves))
    agg = aggregate_ls(estimates) if args.method == "ls" else aggregate_lad(estimates)
    _write_curve_csv(args.out, grid_ref, {args.method: agg})
    print(f"aggregated {len(paths)} curve file(s) into {args.out}")
    return EXIT_OK


def _cmd_summary(args) -> int:
    schema, sample = _load_dataset(args)
    header = ["column", "min", "q1", "median", "mean", "q3", "max"]
    print("  ".join(f"{h:>10}" for h in header))
    columns = [(schema.y_column, sample.y)]
    columns += [(name, sample.z[:, j]) for j, name in enumerate(schema.z_columns)]
    if sample.w is not None:
        columns += [(name, sample.w[:, j]) for j, name in enumerate(schema.w_columns)]
    for name, values in columns:
        stats = summary_stats(values)
        cells = [name] + [FMT % v for v in stats]
        print("  ".join(f"{c:>10}" for c in cells))
    return EXIT_OK


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="ranksieve", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a Monte Carlo sweep from a JSON config")
    p.add_argument("--config", required=True, help="MC config JSON file")
    p.add_argument("--out-dir", required=True, help="output directory for CSV files")
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--replications", type=int, default=None, help="override replication count")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="fit the rank and series estimators on a CSV dataset")
    p.add_argument("--data", required=True, help="input CSV file")
    p.add_argument("--schema", required=True, help="dataset schema JSON")
    p.add_argument("--spec", required=True, help="sieve spec JSON (template or bound)")
    p.add_argument(
        "--variant",
        choices=["full", "discrete-w", "weighted", "pairwise"],
        default="full",
    )
    p.add_argument("--w0", type=float, nargs="+", default=None, help="control point")
    p.add_argument("--bandwidth", type=float, nargs="+", default=None, help="kernel bandwidths")
    p.add_argument("--kernel", choices=_KERNEL_FAMILIES, default="uniform")
    p.add_argument("--grid", required=True, help="grid JSON file")
    p.add_argument("--out", required=True, help="output curve CSV")
    p.add_argument("--seed", type=int, default=0, help="optimizer seed")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("aggregate", help="combine curve CSVs pointwise")
    p.add_argument("--curves", required=True, help="glob pattern of curve CSV files")
    p.add_argument("--method", choices=["ls", "lad"], required=True)
    p.add_argument("--column", default="rank", help="curve column to aggregate")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("summary", help="six-number summary per selected column")
    p.add_argument("--data", required=True, help="input CSV file")
    p.add_argument("--schema", required=True, help="dataset schema JSON")
    p.set_defaults(func=_cmd_summary)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
